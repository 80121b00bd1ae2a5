"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

The traced-round tests run one real round of every workload (about a
minute on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

CLI = run.import_qbl()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert measure.tail_percentile([float(i) for i in range(10)]) is None
    assert measure.tail_percentile([1.0] * 50) is None  # nothing strictly above


def test_tail_is_highest_percentile_with_ten_beyond():
    assert measure.tail_percentile([float(i) for i in range(1, 12)]) == (9, 1.0)
    assert measure.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    p, value = measure.tail_percentile([float(i) for i in range(1, 1001)])
    assert (p, value) == (99, 990.0)
    assert sum(1 for i in range(1, 1001) if i > value) == 10


# ---------------------------------------------------------------------------
# fail_share on planted answers
# ---------------------------------------------------------------------------

class PlantedCli:
    """Stands in for qbl.cli: prints a fixed report and returns a fixed code."""

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def main(self, argv):
        code, text = self.outputs.pop(0)
        if isinstance(text, BaseException):
            raise text
        print(text)
        return code


def constant_report(c_ent, c_ana):
    return json.dumps({"constant": {"entropic_nats": c_ent, "analytic_nats": c_ana}})


def verify_report(verdict, forms):
    report = {form: {"verdict": v} for form, v in forms.items()}
    report["verdict"] = verdict
    return json.dumps(report)


def fail_share(tasks, outputs, recorded):
    workload = workloads.Workload(tasks, [])
    runner = run.Runner(PlantedCli(outputs), workload, recorded)
    for task in tasks:
        runner.task(task)
    return runner.failed / runner.attempted, runner.failures


DATUM = workloads.Task("datum-0", ["constant", "d.json"], "constant")
RECORDED_DATUM = {"datum-0": {"c": 0.8152, "exit": 0}}


def test_right_constant_passes():
    share, failures = fail_share([DATUM], [(0, constant_report(0.8152, 0.81521))],
                                 RECORDED_DATUM)
    assert share == 0.0, failures


def test_planted_wrong_constant_fails():
    # both sides agree with each other, but not with the recorded reference
    share, failures = fail_share([DATUM, DATUM], [(0, constant_report(0.8152, 0.8152)),
                                                  (0, constant_report(0.9, 0.9))],
                                 RECORDED_DATUM)
    assert share == 0.5
    assert any("off the recorded reference" in f for f in failures)


def test_planted_disagreement_fails():
    share, failures = fail_share([DATUM], [(0, constant_report(0.8152, 0.8))], {})
    assert share == 1.0
    assert "disagree" in failures[0]


def test_planted_theory_reference_fails():
    task = workloads.Task("mu-pauli-xz", [], "constant", reference={"c": workloads.LN2})
    report = json.dumps({"uncertainty_bound": {"entropic_nats": 0.6, "analytic_nats": 0.6}})
    share, failures = fail_share([task], [(0, report)], {})
    assert share == 1.0
    assert any("theory reference" in f for f in failures)


def test_planted_missed_violation_fails():
    task = workloads.Task("rank-deficient", ["verify"], "verify", exit_code=2,
                          reference={"verdict": "violated"})
    holds = {"entropic": "holds_on_samples", "analytic": "holds_on_samples"}
    share, failures = fail_share([task], [(0, verify_report("holds_on_samples", holds))], {})
    assert share == 1.0
    assert any("exit code 0, expected 2" in f for f in failures)
    assert any("verdict 'holds_on_samples'" in f for f in failures)


def test_changed_form_verdict_fails():
    task = workloads.Task("rank-deficient", ["verify"], "verify", exit_code=2,
                          reference={"verdict": "violated"})
    recorded = {"rank-deficient": {"exit": 2, "verdict": "violated",
                                   "forms": {"entropic": "violated", "analytic": "violated"}}}
    forms = {"entropic": "violated", "analytic": "holds_on_samples"}
    share, _ = fail_share([task], [(2, verify_report("violated", forms))], recorded)
    assert share == 1.0


def test_repeated_task_must_print_identical_output():
    share, failures = fail_share([DATUM, DATUM], [(0, constant_report(0.8152, 0.8152)),
                                                  (0, constant_report(0.8152, 0.81521))],
                                 RECORDED_DATUM)
    assert share == 0.5
    assert "output differs" in failures[0]


def test_crash_and_unreadable_output_fail():
    share, failures = fail_share([DATUM, DATUM, DATUM],
                                 [(0, RuntimeError("boom")), (0, SystemExit(2)), (0, "not json")],
                                 RECORDED_DATUM)
    assert share == 1.0
    assert "raised RuntimeError" in failures[0]
    assert "raised SystemExit" in failures[1]
    assert "unreadable output" in failures[2]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def test_inputs_depend_on_the_seed_only(tmp_path):
    texts = {}
    for run_dir, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.build("crosscheck-small", seed, tmp_path / run_dir)
        texts[run_dir] = (tmp_path / run_dir / "datum-0.json").read_text()
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    import qbl.channels
    import qbl.engine

    original = qbl.channels.apply
    with Tracer() as tracer:
        assert qbl.engine.apply is qbl.channels.apply is not original
        datum = workloads.rank_deficient_datum()
        qbl.engine.entropic_gap(datum, [[0.5, 0.0], [0.0, 0.5]])
    assert qbl.channels.apply is original and qbl.engine.apply is original
    stats = tracer.stats()
    assert stats["channels.apply"]["calls"] == 1  # seen through engine's own binding
    gap = stats["engine.entropic_gap"]
    assert gap["calls"] == 1 and 0.0 < gap["self_s"] <= gap["total_s"]
    assert tracer.missing == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_sees_the_expected_calls(name, tmp_path):
    workload = workloads.build(name, 0, tmp_path)
    runner = run.Runner(CLI, workload, {})
    with Tracer() as tracer:
        runner.rounds(0.0)  # exactly one round
    assert runner.failed == 0, runner.failures
    metrics = layers.metrics(tracer.stats(), 1,
                             tracer.calls_within("channels.Channel", layers.CHECKERS),
                             sum(t.checker_calls for t in workload.tasks), 0.0, 0.0, 0.0)
    stats = tracer.stats()
    for fn in layers.CALLED_ON[name]:
        assert stats[fn]["calls"] > 0, fn
    for fn in layers.NOT_CALLED_ON[name]:
        assert stats[fn]["calls"] == 0, fn
    if name == "verify-sampling":
        assert metrics["channels.Channel.per_sample"]["value"] > 1
    else:
        assert 0.0 < metrics["engine.entropic_share"]["value"] < 1.0
    assert set(metrics) == set(layers.names())


# ---------------------------------------------------------------------------
# the benchmark definition and its command
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sampling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
