"""tools/compare_answers.py: the comparison of two trees' outputs as a gate."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_answers.py"
_spec = importlib.util.spec_from_file_location("compare_answers", _PATH)
compare_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_answers)


def _run(code, constant, verdict, warnings=()):
    report = {"c_entropic": constant, "agree": True, "verdict": verdict}
    return {"exit": code, "stdout": json.dumps(report), "warnings": list(warnings)}


TASKS = [{"workload": "crosscheck-small", "name": f"seed 0 task-{i}"} for i in range(2)]
BASE = [_run(0, 0.5, "holds_on_samples"), _run(0, 1.25, "holds_on_samples")]


@pytest.mark.parametrize(
    "change, status",
    [
        (BASE, 0),
        # a constant moved: reported, but not a failure
        ([BASE[0], _run(0, 1.25 + 3e-11, "holds_on_samples")], 0),
        ([BASE[0], _run(0, 1.25, "violated")], 1),
        ([_run(1, 0.5, "holds_on_samples"), BASE[1]], 1),
    ],
    ids=["identical", "numeric-move", "verdict-change", "exit-change"],
)
def test_compare_status(change, status):
    assert compare_answers.compare(TASKS, BASE, change) == status


def test_planted_verdict_change_is_named(capsys):
    change = [BASE[0], _run(0, 1.25, "violated")]
    assert compare_answers.compare(TASKS, BASE, change) == 1
    out = capsys.readouterr().out
    assert "non-numeric differences: 1" in out
    assert "seed 0 task-1: verdict 'holds_on_samples' -> 'violated'" in out


OVERFLOW = "RuntimeWarning: overflow encountered in exp"


def test_new_warning_fails_and_is_named(capsys):
    change = [BASE[0], _run(0, 1.25, "holds_on_samples", [OVERFLOW] * 4)]
    assert compare_answers.compare(TASKS, BASE, change) == 1
    out = capsys.readouterr().out
    assert "byte-identical outputs: 2/2" in out
    assert ("warnings: base 0, change 4\n  warns only in change: crosscheck-small: "
            f"seed 0 task-1: 4, first {OVERFLOW}\n") in out


def test_warnings_the_base_shares_are_counted_only(capsys):
    base = [BASE[0], _run(0, 1.25, "holds_on_samples", [OVERFLOW])]
    change = [BASE[0], _run(0, 1.25, "holds_on_samples", [OVERFLOW] * 2)]
    assert compare_answers.compare(TASKS, base, change) == 0
    out = capsys.readouterr().out
    assert "warnings: base 1, change 2\n" in out and "warns only in change" not in out
    # a warning the change mends is counted, and is no failure
    assert compare_answers.compare(TASKS, base, BASE) == 0
    assert "warnings: base 1, change 0\n" in capsys.readouterr().out


def test_run_tasks_records_every_warning(tmp_path):
    # the one task warns on each call, so a once-per-process filter would
    # record it once
    src = tmp_path / "src"
    (src / "qbl").mkdir(parents=True)
    (src / "qbl" / "__init__.py").write_text("")
    (src / "qbl" / "cli.py").write_text(
        "import warnings\n\n\ndef main(argv):\n"
        "    for _ in range(3):\n        warnings.warn('planted', RuntimeWarning)\n"
        "    print(argv[0])\n    return 0\n")
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps([{"argv": ["a"]}, {"argv": ["b"]}]))
    out = tmp_path / "out.json"
    subprocess.run([sys.executable, str(_PATH), "--run", str(src), str(tasks), str(out)],
                   check=True, cwd=tmp_path)
    results = json.loads(out.read_text())
    assert [r["stdout"] for r in results] == ["a\n", "b\n"]
    assert [r["warnings"] for r in results] == [["RuntimeWarning: planted"] * 3] * 2


def test_largest_decrease_names_its_task(capsys):
    change = [_run(0, 0.5 - 2e-12, "holds_on_samples"), _run(0, 1.25 - 4e-10, "holds_on_samples")]
    assert compare_answers.compare(TASKS, BASE, change) == 0
    out = capsys.readouterr().out
    assert "c_entropic: 4e-10 (down -4e-10 at seed 0 task-1, up +0)" in out


def test_increase_alone_names_no_task(capsys):
    change = [BASE[0], _run(0, 1.25 + 3e-11, "holds_on_samples")]
    assert compare_answers.compare(TASKS, BASE, change) == 0
    out = capsys.readouterr().out
    assert "c_entropic: 3e-11 (down 0, up +3e-11)" in out


def test_differing_outputs_are_named(capsys):
    change = [BASE[0], _run(0, 1.25 + 3e-11, "holds_on_samples")]
    compare_answers.compare(TASKS, BASE, change)
    out = capsys.readouterr().out
    assert "byte-identical outputs: 1/2\n  differs: crosscheck-small: seed 0 task-1\n" in out
    assert "task-0" not in out


def test_cli_group_is_built_and_reported(capsys, tmp_path, monkeypatch):
    from qbl.presets import PRESET_NAMES

    monkeypatch.setattr(sys, "path", list(sys.path))  # build_tasks prepends to it
    tasks = compare_answers.build_tasks(compare_answers.ROOT / "src", [0], tmp_path)
    cli = [t for t in tasks if t["workload"] == "cli"]
    assert sorted(t["argv"][1] for t in cli if t["argv"][0] == "verify") == sorted(PRESET_NAMES)
    assert {t["argv"][0] for t in cli} == {"verify", "constant", "contraction", "gaussian"}
    assert all("--no-meta" in t["argv"] for t in cli)
    base = [_run(0, 0.5, "holds_on_samples") for _ in cli]
    change = base[:-1] + [_run(0, 0.5 - 1e-12, "holds_on_samples")]
    assert compare_answers.compare(cli, base, change) == 0
    out = capsys.readouterr().out
    assert (f"\ncli: largest |difference|, decrease and increase per numeric field\n"
            f"  c_entropic: 1e-12 (down -1e-12 at {cli[-1]['name']}, up +0)\n") in out
