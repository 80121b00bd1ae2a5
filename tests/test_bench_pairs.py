"""tools/bench_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": {"better": "lower", "bound": 0.25}}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _pairs(change, parent=PARENT, name="wall_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("271-274") == [271, 272, 273, 274]
    assert bench_pairs.parse_seeds("3,7-8, 11") == [3, 7, 8, 11]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_clear_gain_is_shown():
    s = bench_pairs.summarize(_pairs([p - 0.10 for p in PARENT]), BETTER)["wall_s"]
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["gain"] == pytest.approx(0.10)
    assert s["parent"][1] == pytest.approx(1.0)
    assert s["gain_shown"]


def test_two_lost_pairs_show_no_gain():
    change = [p - 0.10 for p in PARENT]
    change[0] = change[1] = 1.5
    s = bench_pairs.summarize(_pairs(change), BETTER)["wall_s"]
    assert s["wins"] == 8
    assert not s["gain_shown"]


def test_ties_count_for_neither_side():
    change = [p - 0.10 for p in PARENT]
    change[3] = PARENT[3]
    s = bench_pairs.summarize(_pairs(change), BETTER)["wall_s"]
    assert s["wins"] == 9
    assert s["gain_shown"]  # 9 of 10 is enough


def test_gain_within_the_parents_spread_is_not_shown():
    # the change wins every pair, by less than the parent's IQR (0.035)
    s = bench_pairs.summarize(_pairs([p - 0.01 for p in PARENT]), BETTER)["wall_s"]
    assert s["wins"] == 10
    assert s["parent"][2] - s["parent"][0] == pytest.approx(0.035)
    assert not s["gain_shown"]


def test_higher_is_better_reverses_the_sign():
    s = bench_pairs.summarize(_pairs([p + 0.10 for p in PARENT], name="rate"),
                              {"rate": {"better": "higher", "bound": 0.25}})["rate"]
    assert s["wins"] == 10 and s["gain"] == pytest.approx(0.10) and s["gain_shown"]


def _verdict(change, bound, better="lower"):
    metric = {"wall_s": {"better": better, "bound": bound}}
    return bench_pairs.summarize(_pairs(change), metric)["wall_s"]


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # parent median 1.0, bound 0.25: the margin is 0.25
    s = _verdict([p + 0.30 for p in PARENT], 0.25)
    assert s["margin"] == pytest.approx(0.25) and s["verdict"] == "worse"
    assert _verdict([p - 0.30 for p in PARENT], 0.25, better="higher")["verdict"] == "worse"


def test_a_median_worse_within_the_bound_is_within_bound():
    # the parent's IQR (0.035) is inside the margin
    assert _verdict([p + 0.10 for p in PARENT], 0.25)["verdict"] == "within bound"
    assert _verdict(PARENT, 0.25)["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # margin 0.01 < IQR 0.035: a change 0.005 worse, or 0.02 better on
    # every pair, cannot be told from the parent's own spread
    assert _verdict([p + 0.005 for p in PARENT], 0.01)["verdict"] == "unresolved"
    assert _verdict([p - 0.02 for p in PARENT], 0.01)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert _verdict([p - 0.10 for p in PARENT], 0.01)["verdict"] == "within bound"
    # a median worse by more than the margin stays worse
    assert _verdict([p + 0.05 for p in PARENT], 0.01)["verdict"] == "worse"


def _result(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


@pytest.mark.parametrize("bad, status", [
    (_result(0.9), 0),
    (_result(0.9, correct=False), 1),
    (_result(0.9, failed=1), 1),
    ({"error": "exit 1: boom"}, 1),
], ids=["clean", "incorrect", "failed-task", "crash"])
def test_exit_status(tmp_path, monkeypatch, capsys, bad, status):
    # the metrics and their directions come from the parent's BENCHMARK.json
    (tmp_path / "parent").mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}', encoding="utf-8")
    calls = []

    def planted(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        return bad if (checkout.name, seed) == ("change", 2) else _result(1.0)

    monkeypatch.setattr(bench_pairs, "run_once", planted)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--seeds", "1-2", "--seconds", "1"]
    assert bench_pairs.main(argv) == status
    # one run at a time, the parent first on even seeds
    assert calls == [("change", 1), ("parent", 1), ("parent", 2), ("change", 2)]
    out = capsys.readouterr()
    assert "wall_s (lower is better)" in out.out
    assert "regression margin 0.2500: within bound" in out.out
    if status:
        assert "seed 2 change:" in out.err
