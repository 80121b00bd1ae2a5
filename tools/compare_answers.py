"""Compare the answers of two qbl source trees on the benchmark's tasks and
the CLI presets.

    python3 tools/compare_answers.py BASE_SRC CHANGE_SRC [--seeds 0 1 2]

Builds every task of the three benchmark workloads at each seed with
``perfbench/workloads.build`` (the module is imported, never edited), with
qbl imported from BASE_SRC, so both trees read the same input files, and
the fixed ``cli`` group at each seed: every preset through each command
that accepts it, at small budgets, with ``--no-meta``. Each tree then runs
every task through ``qbl.cli.main`` in one child process of its own, with
qbl imported from that tree and BLAS pinned to one thread, recording the
warnings each task raises (every one, not once per process).
Prints the tasks whose exit codes differ, each tree's warning count and
the tasks that warn only in the change, the count of byte-identical
outputs and the tasks whose outputs are not, the tasks whose non-numeric
fields differ, and per group (a workload or ``cli``), for every numeric
field that moved (a JSON path with list indices dropped, or a CSV column),
its largest absolute difference and its largest decrease, with the task it
came from, and largest increase (change - base), so that "no constant went
down" reads off one line per field. Exits 1 when any exit code or
non-numeric field differs, or when the change warns on a task where the
base did not, so a script can use it as a gate; numeric moves alone exit
0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("crosscheck-small", "crosscheck-d8", "verify-sampling")
GROUPS = (*WORKLOADS, "cli")
# The cli group reaches what the benchmark's tasks do not: qbl gaussian,
# qbl contraction without --p-sweep, and verify on a channel task, a
# conditional-Shearer or a gaussian preset.
CLI_OPTIONS = {
    "verify": ["--samples", "40", "--budget", "restarts=2,iters=100"],
    "constant": ["--budget", "restarts=4,iters=200"],
    "contraction": ["--budget", "restarts=3,iters=150"],
    "gaussian": ["--t-grid", "0,1,100"],
}
CLI_PRESETS = {
    "verify": ["dpi-qubit", "dpi-random-qubit", "shearer-3qubit-pairs", "superadd-classical",
               "conditional-shearer-bell", "conditional-shearer-exact", "six-state",
               "mu-pauli-xz", "minout-depol-0.5", "contraction-depol-0.5",
               "contraction-identity", "mercedes-star", "gaussian-axes-product"],
    "constant": ["dpi-qubit", "dpi-random-qubit", "shearer-3qubit-pairs", "superadd-classical",
                 "six-state", "mu-pauli-xz", "minout-depol-0.5"],
    "contraction": ["minout-depol-0.5", "contraction-depol-0.5", "contraction-identity"],
    "gaussian": ["mercedes-star", "gaussian-axes-product"],
}


def build_tasks(base_src: Path, seeds: list[int], workdir: Path) -> list[dict]:
    """Every task of every workload at every seed, then the cli group, as
    (workload, name, argv)."""
    sys.path[:0] = [str(base_src), str(ROOT / "perfbench")]
    import workloads

    tasks = []
    for name in WORKLOADS:
        for seed in seeds:
            built = workloads.build(name, seed, workdir / f"{name}-{seed}")
            tasks += [{"workload": name, "name": f"seed {seed} {t.name}", "argv": t.argv}
                      for t in built.tasks]
    return tasks + cli_tasks(seeds)


def cli_tasks(seeds: list[int]) -> list[dict]:
    """The cli group: each command on each preset it accepts, at each seed."""
    return [{"workload": "cli", "name": f"seed {seed} {command} {preset}",
             "argv": [command, preset, "--seed", str(seed), "--no-meta", *options]}
            for seed in seeds for command, options in CLI_OPTIONS.items()
            for preset in CLI_PRESETS[command]]


def run_tasks(src: str, tasks_path: str, out_path: str) -> None:
    """Child process: run each task through qbl.cli.main from src, with
    its output and the warnings it raised."""
    sys.path.insert(0, src)
    import qbl.cli

    if Path(qbl.cli.__file__).resolve().parent != Path(src).resolve() / "qbl":
        raise SystemExit(f"imported qbl from {qbl.cli.__file__}, not from {src}")
    results = []
    for task in json.loads(Path(tasks_path).read_text(encoding="utf-8")):
        out = io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = qbl.cli.main(task["argv"])
        results.append({"exit": code, "stdout": out.getvalue(),
                        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]})
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def leaves(text: str) -> dict[str, list]:
    """Field -> values of one output: JSON leaves by path, or CSV columns."""
    out: dict[str, list] = {}
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            for key, cell in zip(rows[0], row):
                out.setdefault(key, []).append(cell)
        return out

    def walk(x, path):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(x, list):
            for v in x:
                walk(v, path)
        else:
            out.setdefault(path, []).append(x)

    walk(report, "")
    return out


def as_number(x):
    """A JSON number or a numeric string ("inf", a CSV cell) as a float."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def compare(tasks: list[dict], base: list[dict], change: list[dict]) -> int:
    """Print the differences of two runs of the tasks; 1 if an exit code or
    a non-numeric field differs, or a task warns only in the change, else
    0."""
    exit_mismatch, differing, other, new_warnings = [], [], [], []
    # per group and field: the most negative change - base, the task it
    # came from, and the most positive change - base
    moved: dict[str, dict[str, list]] = {name: {} for name in GROUPS}
    for task, a, b in zip(tasks, base, change):
        label = f"{task['workload']}: {task['name']}"
        if a["exit"] != b["exit"]:
            exit_mismatch.append(f"{label}: exit {a['exit']} -> {b['exit']}")
        if b.get("warnings") and not a.get("warnings"):
            new_warnings.append(f"{label}: {len(b['warnings'])}, first {b['warnings'][0]}")
        if a["stdout"] == b["stdout"]:
            continue
        differing.append(label)
        fa, fb = leaves(a["stdout"]), leaves(b["stdout"])
        if fa.keys() != fb.keys():
            other.append(f"{label}: fields {sorted(fa.keys() ^ fb.keys())} differ")
        for key in fa.keys() & fb.keys():
            va, vb = fa[key], fb[key]
            if len(va) != len(vb):
                other.append(f"{label}: {key} has {len(va)} -> {len(vb)} values")
                continue
            for x, y in zip(va, vb):
                nx, ny = as_number(x), as_number(y)
                if nx is None or ny is None:
                    if x != y:
                        other.append(f"{label}: {key} {x!r} -> {y!r}")
                    continue
                diff = 0.0 if nx == ny else ny - nx
                span = moved[task["workload"]].setdefault(key, [0.0, None, 0.0])
                if diff < span[0]:
                    span[0], span[1] = diff, task["name"]
                span[2] = max(span[2], diff)
    print(f"tasks: {len(tasks)}")
    print(f"exit-code mismatches: {len(exit_mismatch)}")
    for line in exit_mismatch:
        print(f"  {line}")
    counts = [sum(len(r.get("warnings", [])) for r in run) for run in (base, change)]
    print(f"warnings: base {counts[0]}, change {counts[1]}")
    for line in new_warnings:
        print(f"  warns only in change: {line}")
    print(f"byte-identical outputs: {len(tasks) - len(differing)}/{len(tasks)}")
    for line in differing:
        print(f"  differs: {line}")
    print(f"non-numeric differences: {len(other)}")
    for line in other:
        print(f"  {line}")
    for name in GROUPS:
        fields = {k: v for k, v in moved[name].items() if v[0] or v[2]}
        print(f"{name}: largest |difference|, decrease and increase per numeric field"
              + ("" if fields else ": none"))
        for key in sorted(fields):
            down, where, up = fields[key]
            at = f" at {where}" if where else ""
            print(f"  {key}: {max(-down, up):.3g} (down {down:.3g}{at}, up {up:+.3g})")
    return 1 if exit_mismatch or other or new_warnings else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="src directory of the base tree")
    parser.add_argument("change", type=Path, help="src directory of the changed tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy loads
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tasks = build_tasks(args.base.resolve(), args.seeds, work)
        tasks_path = work / "tasks.json"
        tasks_path.write_text(json.dumps(tasks), encoding="utf-8")
        results = []
        for i, src in enumerate((args.base, args.change)):
            out_path = work / f"results-{i}.json"
            subprocess.run([sys.executable, __file__, "--run", str(src.resolve()),
                            str(tasks_path), str(out_path)], check=True, cwd=work)
            results.append(json.loads(out_path.read_text(encoding="utf-8")))
    return compare(tasks, *results)


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--run":
        run_tasks(*sys.argv[2:])
    else:
        sys.exit(main())
