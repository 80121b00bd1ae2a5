"""qbl benchmark: drive the qbl CLI in process and report end-to-end or
per-layer metrics.

    python3 perfbench/run.py --workload crosscheck-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qbl is imported from its ``src``
directory, never from an installed copy. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the environment, the rounds run, any failures and
the metrics that are reported but not gated. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones, from rounds
run under the tracer.

A run measures whole rounds: one round runs every task of the workload
once. Rounds repeat, on the same inputs, until the next one would end past
--seconds (at least one round runs). Every repeated task must print
byte-identical output; if no round repeated a task, the first task runs
once more after the measurement.

Round times are reference seconds (see measure.SpeedProbe): seconds
scaled by the machine speed measured between the tasks of the same round.
setup_s is in plain seconds: most of it is the import in a child process,
whose speed a probe in this process does not track (on a 2-core VM,
scaling it by the probe widened its run-to-run spread from about 0.05 to
about 0.2).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: on a small machine the
# scalar verification path runs slower with threaded BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import qbl.cli; print(time.perf_counter() - t0)"
)

Times = dict[str, list[float]]  # task name -> seconds, one entry per round


def import_qbl():
    """Import qbl.cli from the checkout's src directory, never an installed copy."""
    if not (SRC / "qbl" / "__init__.py").is_file():
        raise SystemExit(f"qbl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qbl.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "qbl":
        raise SystemExit(f"imported qbl from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Runner:
    """Runs tasks through qbl.cli.main and checks and times every answer."""

    def __init__(self, cli, workload, recorded: dict):
        self.cli = cli
        self.workload = workload
        self.recorded = recorded
        self.probe = measure.SpeedProbe()
        self.first_output: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.repeats = 0
        self.failures: list[str] = []
        self.max_dc = 0.0
        self.max_ref_dev = 0.0

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)  # looked up per call, so tracing sees it
            seconds = time.perf_counter() - t0
        return code, out.getvalue(), seconds

    def task(self, task) -> float:
        """Run and check one task; returns its seconds."""
        import workloads

        self.attempted += 1
        try:
            code, out, seconds = self.call(task.argv)
        # a crash is a failed task, not a failed benchmark; argparse exits
        # through SystemExit on argv it rejects
        except (Exception, SystemExit) as exc:
            self.failed += 1
            self.failures.append(f"{task.name}: raised {type(exc).__name__}: {exc}")
            return 0.0
        errors = []
        if task.name in self.first_output:
            self.repeats += 1
            if out != self.first_output[task.name]:
                errors.append("output differs from the first run of the same task")
        else:
            self.first_output[task.name] = out
        try:
            answer = workloads.parse(task, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"unreadable output: {exc}")
        else:
            recorded = self.recorded.get(task.name)
            found, dc, dev = workloads.check(task, code, answer, recorded)
            errors += found
            self.max_dc = max(self.max_dc, dc)
            self.max_ref_dev = max(self.max_ref_dev, dev)
        self.failed += bool(errors)
        self.failures += [f"{task.name}: {e}" for e in errors]
        return seconds

    def rounds(self, budget_s: float) -> tuple[Times, Times]:
        """Whole rounds until the next would end past budget_s, at least one;
        returns each task's seconds and reference seconds."""
        start = time.perf_counter()
        raw: Times = {t.name: [] for t in self.workload.tasks}
        ref: Times = {t.name: [] for t in self.workload.tasks}
        while True:
            probes = []
            for task in self.workload.tasks:
                probes.append(self.probe())
                raw[task.name].append(self.task(task))
            probes.append(self.probe())
            speed = sum(probes) / len(probes) / measure.REF_PROBE_S
            for task in self.workload.tasks:
                ref[task.name].append(raw[task.name][-1] / speed)
            last = sum(ts[-1] for ts in raw.values())
            if time.perf_counter() - start + last > budget_s:
                return raw, ref

    def ensure_repeat(self) -> None:
        """Run the first task again when no task has run twice yet."""
        if not self.repeats:
            self.task(self.workload.tasks[0])


def setup(cli, name: str, seed: int, workdir: Path) -> tuple[object, float]:
    """Import qbl in a fresh interpreter, generate the inputs, construct
    presets and Channels, run one warm-up task; returns the workload and
    the median seconds of SETUP_REPEATS set-ups."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120).stdout
        t0 = time.perf_counter()
        workload = workloads.build(name, seed, workdir)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(workload.warmup)
        times.append(float(out) + time.perf_counter() - t0)
    return workload, statistics.median(times)


def wall(times: Times) -> float:
    """Seconds for one round: the sum over tasks of each task's median."""
    return sum(statistics.median(ts) for ts in times.values())


def end_to_end(workload, raw: Times, ref: Times, setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, reported-only metrics) of an untraced run."""
    every = [t for ts in ref.values() for t in ts]
    wall_s = wall(ref)
    gated = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    tail = measure.tail_percentile(every)
    reported = {
        "task_p50_s": {"value": statistics.median(every), "unit": "s"},
        "task_tail_s": {"value": tail[1] if tail else None, "unit": "s",
                        "percentile": tail[0] if tail else None, "samples": len(every)},
        "wall_clock_wall_s": {"value": wall(raw), "unit": "s"},
    }
    samples = sum(t.samples for t in workload.tasks)
    if samples:
        reported["samples_per_s"] = {"value": samples / wall_s, "unit": "1/s"}
    return gated, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli = import_qbl()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))

    workload, setup_s = setup(cli, args.workload, args.seed,
                              HERE / "_work" / f"{args.workload}-{args.seed}")
    runner = Runner(cli, workload, references.get(args.workload, {}))
    info = {"workload": args.workload, "seed": args.seed, "env": environment(),
            "tasks_per_round": len(workload.tasks)}

    if args.trace:
        # half the time untraced, half traced: the difference of their
        # wall_s is the tracing overhead
        _, untraced = runner.rounds(args.seconds / 2)
        tracer = Tracer()
        with tracer:
            _, traced = runner.rounds(args.seconds / 2)
        tracer.write(HERE / "_work" / f"spans-{args.workload}-{args.seed}.npz")
        rounds = len(next(iter(traced.values())))
        metrics = layers.metrics(
            tracer.stats(), rounds, tracer.calls_within("channels.Channel", layers.CHECKERS),
            sum(t.checker_calls for t in workload.tasks),
            runner.max_dc, runner.max_ref_dev, wall(traced) - wall(untraced))
        info["rounds"] = {"untraced": len(next(iter(untraced.values()))), "traced": rounds}
        info["missing_functions"] = tracer.missing
    else:
        raw, ref = runner.rounds(args.seconds)
        gated, reported = end_to_end(workload, raw, ref, setup_s)
        runner.ensure_repeat()
        metrics = {m["name"]: gated[m["name"]] for m in spec["end_to_end"]}
        reported["fail_share"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
        info["rounds"] = len(next(iter(ref.values())))
        info["reported"] = reported

    info["failures"] = runner.failures[:20]
    print(json.dumps(info, sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
