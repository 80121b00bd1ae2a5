"""tools/bench_record.py: one benchmark run appended to BENCH_<workload>.json."""

import importlib.util
import json
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))  # bench_record imports bench_pairs as its script does
_spec = importlib.util.spec_from_file_location("bench_record", _TOOLS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

import bench_pairs  # noqa: E402

# the last two lines perfbench/run.py prints for an untraced run
INFO = {"workload": "crosscheck-d8", "seed": 7, "tasks_per_round": 14, "rounds": 96,
        "env": {"nproc": 2, "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                        "MKL_NUM_THREADS": "1"},
                "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                "blas": "scipy-openblas 0.3.31"},
        "failures": []}
RESULT = {"correct": True, "attempted": 1344, "failed": 0,
          "metrics": {"setup_s": {"value": 0.149, "unit": "s"},
                      "wall_s": {"value": 0.179, "unit": "s"},
                      "peak_rss_mb": {"value": 42.57, "unit": "MB"}}}
STDOUT = json.dumps(INFO, sort_keys=True) + "\n" + json.dumps(RESULT) + "\n"


def test_a_recorded_run_parses():
    result = bench_pairs.parse_run(STDOUT)
    assert bench_pairs.failure(result) is None
    entry = bench_record.record(result, "abc1234", 7, 20.0)
    assert entry == {
        "commit": "abc1234",
        "machine": "2 cores, Python 3.11.7, numpy 2.4.6 (scipy-openblas 0.3.31), BLAS threads 1",
        "seed": 7, "seconds": 20.0, "rounds": 96,
        "setup_s": 0.149, "wall_s": 0.179, "peak_rss_mb": 42.57,
    }


def test_output_without_a_result_line_parses_to_nothing():
    assert bench_pairs.parse_run("") == {}
    assert bench_pairs.parse_run("Traceback (most recent call last):\n") == {}
    assert "info" not in bench_pairs.parse_run(json.dumps(RESULT))


def test_runs_are_appended_and_failures_skipped(tmp_path, monkeypatch, capsys):
    runs = {"crosscheck-d8": bench_pairs.parse_run(STDOUT), "verify-sampling": {**RESULT,
            "correct": False}}
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", lambda checkout, w, seed, s, trace: runs[w])
    argv = [str(tmp_path), "--workload", "crosscheck-d8", "--workload", "verify-sampling",
            "--seed", "7", "--seconds", "20", "--commit", "abc1234"]
    assert bench_record.main(argv) == 1  # the verify-sampling run failed
    assert bench_record.main(argv[:3] + argv[5:]) == 0
    records = json.loads((tmp_path / "BENCH_crosscheck-d8.json").read_text(encoding="utf-8"))
    assert [r["wall_s"] for r in records] == [0.179, 0.179]
    assert not (tmp_path / "BENCH_verify-sampling.json").exists()
    assert "verify-sampling: correct: false; not recorded" in capsys.readouterr().err


# the last two lines of a traced run (--trace 1), its metrics cut to three
TRACED_INFO = {**INFO, "rounds": {"traced": 48, "untraced": 48}, "missing_functions": []}
TRACED = {"correct": True, "attempted": 1344, "failed": 0,
          "metrics": {"engine.analytic_gap.calls": {"value": 14.0, "unit": "count"},
                      "channels.Channel.per_sample": {"value": 0.0, "unit": "ratio"},
                      "trace.overhead_s": {"value": 0.021, "unit": "s"}}}


def test_a_traced_run_parses(tmp_path, monkeypatch):
    stdout = json.dumps(TRACED_INFO, sort_keys=True) + "\n" + json.dumps(TRACED) + "\n"
    result = bench_pairs.parse_run(stdout)
    assert bench_pairs.failure(result) is None
    entry = bench_record.record(result, "abc1234", 7, 20.0, trace=True)
    assert entry == {
        "commit": "abc1234",
        "machine": "2 cores, Python 3.11.7, numpy 2.4.6 (scipy-openblas 0.3.31), BLAS threads 1",
        "seed": 7, "seconds": 20.0, "rounds": {"traced": 48, "untraced": 48}, "trace": True,
        "engine.analytic_gap.calls": 14.0, "channels.Channel.per_sample": 0.0,
        "trace.overhead_s": 0.021,
    }
    calls = []
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once",
                        lambda checkout, w, seed, s, trace: calls.append(trace) or result)
    argv = [str(tmp_path), "--workload", "crosscheck-d8", "--seed", "7", "--seconds", "20",
            "--commit", "abc1234", "--trace"]
    assert bench_record.main(argv) == 0
    assert calls == [1]
    records = json.loads((tmp_path / "BENCH_crosscheck-d8.json").read_text(encoding="utf-8"))
    assert records == [entry]
