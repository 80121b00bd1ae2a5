"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 271-280 --seconds 10

For every seed, each checkout runs the command its ``BENCHMARK.json``
declares (``python3 perfbench/run.py``) with ``--workload W --seed S
--seconds X --trace 0``, from its own root, one run at a time: the parent
first on an even seed, the change first on an odd one. The benchmark is
run as a program and nothing is imported from it; the metric names, their
better direction and their regression bound are read from the parent's
``BENCHMARK.json``.

Prints, per pair, every end-to-end metric of both runs; then, per metric,
each side's median and quartiles, the pairs the change won (ties count for
neither side), whether a gain is shown (the change wins at least 9 of
every 10 pairs, and its median is better than the parent's by more than
the parent's interquartile range) and one regression verdict, with the
margin bound x |parent median|:

- ``worse``: the change's median is worse than the parent's by more than
  the margin;
- ``unresolved``: the parent's interquartile range is wider than the
  margin, and some change run does not beat every parent run;
- ``within bound``: otherwise.

Exits 1 when a run fails, reports ``correct: false`` or reports failed
tasks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Seeds from a comma-separated list of numbers and ranges (271-280)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(checkout: Path) -> dict[str, dict]:
    """End-to-end metric name -> its BENCHMARK.json entry: "better" ("lower"
    or "higher") and "bound" (the regression bound, a fraction)."""
    return {m["name"]: m for m in benchmark(checkout)["end_to_end"]}


def parse_run(stdout: str) -> dict:
    """The JSON object of a run's last line, {} if there is none, with the
    line before it (the environment, rounds and failures) under "info"
    when that line is a JSON object."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}
    try:
        result["info"] = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        pass
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in a checkout, untraced unless trace is 1: parse_run
    of its output, with "error" set when the run exits non-zero or prints
    no result line."""
    argv = benchmark(checkout)["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    result = parse_run(proc.stdout)
    if proc.returncode != 0 or "metrics" not in result:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result["error"] = f"exit {proc.returncode}: {tail[0]}"
    return result


def failure(result: dict) -> str | None:
    """Why a run does not count, or None."""
    if "error" in result:
        return result["error"]
    if not result.get("correct", False):
        return "correct: false"
    if result.get("failed", 0):
        return f"{result['failed']} failed tasks"
    return None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> dict[str, dict]:
    """Per metric of end_to_end's form, from (parent value, change value)
    pairs of metric dicts name -> value: both sides' quartiles, the pairs
    won, whether a gain is shown and the regression verdict."""
    out = {}
    for name, metric in metrics.items():
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gain = sign * (pq[1] - cq[1])
        margin = metric["bound"] * abs(pq[1])
        if -gain > margin:
            verdict = "worse"
        elif pq[2] - pq[0] > margin and not all(sign * (p - c) > 0 for p in parent for c in change):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "parent": pq, "change": cq, "wins": wins, "pairs": len(pairs), "gain": gain,
            "gain_shown": 10 * wins >= 9 * len(pairs) and gain > pq[2] - pq[0],
            "margin": margin, "verdict": verdict,
        }
    return out


def report(seeds: list[int], pairs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> None:
    """Print each pair's metrics, then summarize's line per metric."""
    names = list(metrics)
    print("seed  first   " + "  ".join(f"{n + ' parent':>18} {n + ' change':>18}" for n in names))
    for seed, (p, c) in zip(seeds, pairs):
        first = "parent" if seed % 2 == 0 else "change"
        cells = "  ".join(f"{p[n]:>18.4f} {c[n]:>18.4f}" for n in names)
        print(f"{seed:<5} {first:<7} {cells}")
    for name, s in summarize(pairs, metrics).items():
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        print(f"{name} ({metrics[name]['better']} is better): "
              f"parent median {p2:.4f} [{p1:.4f}, {p3:.4f}], "
              f"change median {c2:.4f} [{c1:.4f}, {c3:.4f}], change won {s['wins']}/{s['pairs']}, "
              f"gain {s['gain']:+.4f} vs parent IQR {p3 - p1:.4f}: "
              f"gain {'shown' if s['gain_shown'] else 'not shown'}; "
              f"regression margin {s['margin']:.4f}: {s['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    metrics = end_to_end(args.parent)
    seeds, pairs, failed = [], [], False
    for seed in args.seeds:
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        results = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                   for side in order}
        whys = {side: failure(results[side]) for side in order}
        for side, why in whys.items():
            if why:
                print(f"seed {seed} {side}: {why}", file=sys.stderr)
        if any(whys.values()):
            failed = True
            continue
        seeds.append(seed)
        pairs.append(tuple({n: results[side]["metrics"][n]["value"] for n in metrics}
                           for side in ("parent", "change")))
    if pairs:
        report(seeds, pairs, metrics)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
