"""Record reference outcomes: exit code, constants and verdicts of every
task of every workload, into perfbench/references.json.

    python3 perfbench/record.py --seeds 0-2

Run it at the commit whose answers are the reference; the benchmark then
counts any later deviation beyond tolerance as a failed task. No answer
depends on the seed (crosscheck-small data are unitary rotations of fixed
data, which leave the constant unchanged), so the outcome of the first
seed is recorded and every other seed is checked against it, as is what
theory demands (exit codes, verdicts, known constants). A mismatch is
printed and not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

HERE = run.HERE


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)

    cli = run.import_qbl()
    import workloads

    path = HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    bad = 0
    for name in workloads.WORKLOADS:
        entry: dict = {}
        for seed in parse_seeds(args.seeds):
            workload = workloads.build(name, seed, HERE / "_work" / f"{name}-{seed}")
            runner = run.Runner(cli, workload, {})
            for task in workload.tasks:
                code, out, _ = runner.call(task.argv)
                answer = workloads.parse(task, out)
                errors, _, _ = workloads.check(task, code, answer, entry.get(task.name))
                if errors:
                    bad += 1
                    print(f"{name} seed {seed} {task.name}: {errors}", file=sys.stderr)
                    continue
                entry.setdefault(task.name, workloads.outcome(code, answer))
            print(f"{name} seed {seed} done", flush=True)
        refs[name] = entry
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
