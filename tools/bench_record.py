"""Run the benchmark on one checkout and append its end-to-end numbers to
the repository's ``BENCH_<workload>.json`` files.

    python3 tools/bench_record.py [CHECKOUT] --workload crosscheck-d8 --seed 7 --seconds 20 [--trace]

For each ``--workload`` (every workload of ``BENCHMARK.json`` when none is
given), the checkout (default: this repository) runs the command its
``BENCHMARK.json`` declares with ``--workload W --seed S --seconds X
--trace 0`` from its own root, as ``tools/bench_pairs.py`` runs it, and one
record is appended to ``BENCH_<W>.json`` at the root of this repository: the
checkout's commit, a machine line read from the run's environment, the
seed, seconds and rounds, and the three end-to-end metrics ``setup_s``,
``wall_s`` and ``peak_rss_mb``. The commit is ``git rev-parse --short
HEAD`` of the checkout, with ``-dirty`` when its ``src`` or ``perfbench``
differ from it; ``--commit`` names it instead (a ``git archive`` copy has
no history). A file holds one JSON list of records, oldest first;
records written by hand from earlier measurements carry a ``note`` and
null for what those did not keep. With ``--trace`` the run is ``--trace
1`` instead, and its record is marked ``"trace": true`` and holds the
value of every per-layer metric the run reports in place of the three
end-to-end metrics; its ``rounds`` counts the untraced and the traced
rounds. A run that fails (a crash, ``correct:
false`` or failed tasks) is reported and not recorded, and the tool then
exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_pairs import benchmark, failure, run_once

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def commit_of(checkout: Path) -> str:
    """The checkout's short commit, with -dirty when src or perfbench differ
    from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    head = git("rev-parse", "--short", "HEAD")
    return head + ("-dirty" if git("status", "--porcelain", "--", "src", "perfbench") else "")


def machine_line(env: dict) -> str:
    """The environment a run reports, as one line."""
    threads = sorted(set(env.get("threads", {}).values()))
    return (f"{env.get('nproc')} cores, Python {env.get('python')}, numpy {env.get('numpy')} "
            f"({env.get('blas')}), BLAS threads {'/'.join(threads)}")


def record(result: dict, commit: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """The record of one run that did not fail (parse_run's result); a traced
    run's record holds every metric it reports."""
    info = result.get("info", {})
    names = list(result["metrics"]) if trace else METRICS
    return {"commit": commit, "machine": machine_line(info.get("env", {})),
            "seed": seed, "seconds": seconds, "rounds": info.get("rounds"),
            **({"trace": True} if trace else {}),
            **{name: result["metrics"][name]["value"] for name in names}}


def append(path: Path, entry: dict) -> None:
    """Append one record to the JSON list in path, creating the file."""
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    records.append(entry)
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--commit", default=None, help="the commit the checkout holds")
    parser.add_argument("--trace", action="store_true", help="record a traced run's per-layer metrics")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in benchmark(args.checkout)["workloads"]]
    commit = args.commit or commit_of(args.checkout)
    failed = False
    for workload in workloads:
        result = run_once(args.checkout, workload, args.seed, args.seconds, int(args.trace))
        why = failure(result)
        if why:
            print(f"{workload}: {why}; not recorded", file=sys.stderr)
            failed = True
            continue
        entry = record(result, commit, args.seed, args.seconds, args.trace)
        append(ROOT / f"BENCH_{workload}.json", entry)
        shown = ["trace.overhead_s"] if args.trace else METRICS
        print(f"{workload}: " + ", ".join(f"{m} {entry[m]:.4f}" for m in shown))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
