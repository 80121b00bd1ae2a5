"""Workloads: seeded inputs, the qbl CLI tasks that consume them, and the
checks on every answer.

Every input is a function of the workload seed. Random BL data are
written as ``bl_datum`` spec JSON, so qbl receives only generated files
and preset names, through its command-line entry point.

Why each workload exists:

- crosscheck-small: ``qbl constant`` on data of the acceptance-1 generator,
  each conjugated by seeded Haar-random unitaries, plus the d = 2
  application constants, at the CLI's default budgets. The estimators
  dominate (finite-difference ascent, batched Kraus application and
  eigvalsh at d <= 4). Per-datum cost is heavy-tailed and set by the
  datum's spectra: fresh acceptance-1 data per seed would make a run's
  time vary about 2x between seeds, the rotations do not.
- crosscheck-d8: ``qbl constant shearer-3qubit-pairs`` (d = 8, pairs onto
  4x4 marginals). The same estimators at larger dimension, entropic side
  the larger share. Fourteen calls with disjoint restart seeds, each
  capped at 4 restarts x 10 iterations so that every restart runs to the
  cap: at the default 32 x 500 one call takes 30-60 s on a 2-core machine
  and its cost follows the seed; with fewer, longer calls (8 x 30, or
  16 x 10) a run's time still varied up to 2x from run to run there.
- verify-sampling: ``qbl verify --form both``: only the exact-support
  gap evaluators run, no estimator. Two data must be reported violated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qbl import operators as op
from qbl.channels import Channel, identity_channel
from qbl.engine import BLDatum
from qbl.presets import build_preset
from qbl.sampling import haar_unitary, random_channel, random_pd
from qbl.serialization import decode_datum, encode_datum

LN2 = math.log(2.0)

# crosscheck-small runs the first ACCEPTANCE_DATA data of the acceptance-1
# generator: about 16 s of the 44 s that all 20 take on a 2-core machine.
ACCEPTANCE_DATA = 12
DEFAULT_CONSTANT_BUDGET = "restarts=32,iters=500"
DEFAULT_CONTRACTION_BUDGET = "restarts=8,iters=300"
D8_BUDGET_RESTARTS, D8_BUDGET_ITERS, D8_TASKS = 4, 10, 14
P_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)
VERIFY_SAMPLES = 500
BELOW_OPTIMUM_C = -0.25
# presets whose analytic samples `qbl verify` hands to an application checker
CHECKER_PRESETS = ("six-state", "mu-pauli-xz")

WORKLOADS = ("crosscheck-small", "crosscheck-d8", "verify-sampling")


@dataclass
class Task:
    """One CLI call and what its answer must be."""

    name: str
    argv: list[str]
    kind: str  # constant | minout | psweep | verify
    exit_code: int = 0
    reference: dict = field(default_factory=dict)  # c / eta / verdict from theory
    samples: int = 0  # gap evaluations the call performs
    checker_calls: int = 0  # application-checker calls that evaluate an analytic gap


@dataclass
class Workload:
    tasks: list[Task]
    warmup: list[str]  # argv of the untimed warm-up call


def tolerance(c: float) -> float:
    return max(1e-3, 1e-3 * abs(c))


def binary_entropy(x: float) -> float:
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def acceptance_datum(i: int) -> BLDatum:
    """Datum i of the acceptance-1 generator: sigma_k = E_k(sigma), random
    dimensions in {2, 3, 4}, q_k uniform in [0.5, 2]."""
    rng = np.random.default_rng(1000 + i)
    d_a = int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    sigma = op.PSDOperator(random_pd(d_a, rng))
    chans, sigmas, q = [], [], []
    for _ in range(n):
        d_k = int(rng.integers(2, 5))
        e = random_channel(d_a, d_k, rng=rng)
        chans.append(e)
        sigmas.append(op.PSDOperator(e(sigma)))
        q.append(float(rng.uniform(0.5, 2.0)))
    return BLDatum(q, chans, sigma, sigmas, 0.0)


def rotate(datum: BLDatum, rng: np.random.Generator) -> BLDatum:
    """Conjugate a datum by Haar-random unitaries: sigma -> U sigma U^dag,
    E_k -> V_k E_k(U^dag . U) V_k^dag, sigma_k -> V_k sigma_k V_k^dag.

    The optimal constant is invariant under this map, so one recorded
    reference serves every seed, while every seed gives new input matrices
    and the spectra that set the estimators' cost stay those of the datum.
    """
    u = haar_unitary(datum.dim, rng)
    chans, sigmas = [], []
    for ch, s_k in zip(datum.channels, datum.sigmas):
        v = haar_unitary(ch.dim_out, rng)
        chans.append(Channel([v @ k @ u.conj().T for k in ch.kraus], label=ch.label))
        sigmas.append(op.PSDOperator(v @ s_k.matrix @ v.conj().T))
    sigma = op.PSDOperator(u @ datum.sigma.matrix @ u.conj().T)
    return BLDatum(datum.q, chans, sigma, sigmas, datum.c)


def rank_deficient_datum() -> BLDatum:
    """sigma = 1/2, E = id, sigma_1 = diag(1, 0), C = 0: the true constant
    is +inf, so sampling must find a violation."""
    return BLDatum(
        [1.0], [identity_channel(2)], op.PSDOperator(np.eye(2) / 2),
        [op.PSDOperator(np.diag([1.0, 0.0]))], 0.0,
    )


def below_optimum_datum(rng: np.random.Generator) -> BLDatum:
    """Full-support data-processing datum (q = 1, sigma_1 = E(sigma)), whose
    optimal constant is 0, attained at rho = sigma; C is set below it."""
    sigma = op.PSDOperator(0.5 * random_pd(2, rng) + 0.25 * np.eye(2))
    e = random_channel(2, 2, rng=rng)
    return BLDatum([1.0], [e], sigma, [op.PSDOperator(e(sigma))], BELOW_OPTIMUM_C)


def _write(path: Path, datum: BLDatum) -> str:
    path.write_text(json.dumps(encode_datum(datum)), encoding="utf-8")
    return str(path)


def _construct(specs: list[str], presets: list[str], seed: int) -> None:
    """Decode the spec files and build the presets (Channel construction
    included), as the CLI does before any estimator runs."""
    for spec in specs:
        decode_datum(json.loads(Path(spec).read_text(encoding="utf-8")))
    for name in presets:
        build_preset(name, seed)


def _small(seed: int, workdir: Path) -> Workload:
    s = str(seed)
    tasks = [
        Task("superadd-classical", ["constant", "superadd-classical", "--budget",
             DEFAULT_CONSTANT_BUDGET, "--seed", s, "--no-meta"], "constant"),
        Task("mu-pauli-xz", ["constant", "mu-pauli-xz", "--budget", DEFAULT_CONSTANT_BUDGET,
             "--seed", s, "--no-meta"], "constant", reference={"c": LN2}),
        Task("six-state", ["constant", "six-state", "--budget", DEFAULT_CONSTANT_BUDGET,
             "--seed", s, "--no-meta"], "constant", reference={"c": 2 * LN2}),
        Task("minout-depol-0.5", ["constant", "minout-depol-0.5", "--budget",
             DEFAULT_CONSTANT_BUDGET, "--seed", s, "--no-meta"], "minout",
             reference={"c": binary_entropy(0.25)}),
        Task("contraction-depol-0.5", ["contraction", "contraction-depol-0.5", "--p-sweep",
             ",".join(map(str, P_SWEEP)), "--budget", DEFAULT_CONTRACTION_BUDGET,
             "--seed", s, "--no-meta"], "psweep",
             reference={"eta": [(1 - p) ** 2 for p in P_SWEEP]}),
    ]
    specs = []
    for i in range(ACCEPTANCE_DATA):
        datum = rotate(acceptance_datum(i), np.random.default_rng([seed, i]))
        path = _write(workdir / f"datum-{i}.json", datum)
        specs.append(path)
        tasks.append(Task(f"datum-{i}", ["constant", path, "--budget", DEFAULT_CONSTANT_BUDGET,
                                         "--seed", s, "--no-meta"], "constant"))
    _construct(specs, ["superadd-classical", "mu-pauli-xz", "six-state", "minout-depol-0.5",
                       "contraction-depol-0.5"], seed)
    warmup = ["constant", specs[0], "--budget", "restarts=1,iters=5", "--seed", s, "--no-meta"]
    return Workload(tasks, warmup)


def _d8(seed: int, workdir: Path) -> Workload:
    budget = f"restarts={D8_BUDGET_RESTARTS},iters={D8_BUDGET_ITERS}"
    tasks = []
    for j in range(D8_TASKS):
        base = (seed * D8_TASKS + j) * D8_BUDGET_RESTARTS  # no restart seed is used twice
        tasks.append(Task(f"shearer-3qubit-pairs-{j}", ["constant", "shearer-3qubit-pairs",
                          "--budget", budget, "--seed", str(base), "--no-meta"], "constant",
                          reference={"c": 0.0}))
    _construct([], ["shearer-3qubit-pairs"], seed)
    warmup = ["constant", "shearer-3qubit-pairs", "--budget", "restarts=1,iters=2",
              "--seed", str(seed), "--no-meta"]
    return Workload(tasks, warmup)


def _verify(seed: int, workdir: Path) -> Workload:
    s = str(seed)
    holds = {"verdict": "holds_on_samples"}
    violated = {"verdict": "violated"}
    specs = {
        "rank-deficient": _write(workdir / "rank-deficient.json", rank_deficient_datum()),
        "below-optimum": _write(workdir / "below-optimum.json",
                                below_optimum_datum(np.random.default_rng([seed, 100]))),
    }
    cases = [(name, name, 0, holds) for name in
             ("six-state", "mu-pauli-xz", "superadd-classical", "shearer-3qubit-pairs",
              "dpi-random-qubit")]
    cases += [(name, path, 2, violated) for name, path in specs.items()]
    tasks = [
        Task(name, ["verify", spec, "--form", "both", "--samples", str(VERIFY_SAMPLES),
                    "--seed", s, "--no-meta"], "verify", exit_code=code, reference=ref,
             samples=2 * VERIFY_SAMPLES,
             checker_calls=VERIFY_SAMPLES if name in CHECKER_PRESETS else 0)
        for name, spec, code, ref in cases
    ]
    _construct(list(specs.values()), [c[1] for c in cases[:5]], seed)
    warmup = ["verify", "six-state", "--samples", "10", "--seed", s, "--no-meta"]
    return Workload(tasks, warmup)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs under ``workdir`` from ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return {"crosscheck-small": _small, "crosscheck-d8": _d8,
            "verify-sampling": _verify}[name](seed, workdir)


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------

def parse(task: Task, stdout: str) -> dict:
    """Extract the answer of one task from the CLI output."""
    if task.kind == "psweep":
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        return {"eta": [float(r[1]) for r in rows]}
    report = json.loads(stdout)
    if task.kind == "verify":
        forms = {f: report[f]["verdict"] for f in ("entropic", "analytic") if f in report}
        return {"verdict": report["verdict"], "forms": forms}
    if task.kind == "minout":
        block = report["min_output_entropy"]
        return {"c_ent": block["direct_nats"], "c_ana": block["dual_nats"]}
    block = report.get("constant") or report["uncertainty_bound"]
    return {"c_ent": block["entropic_nats"], "c_ana": block["analytic_nats"]}


def check(task: Task, exit_code: int, answer: dict,
          recorded: dict | None) -> tuple[list[str], float, float]:
    """Every way the answer can be wrong (empty when it is right), with
    |C_ent - C_ana| and the largest deviation of either side from a
    reference constant (0 when the answer has no constant).

    ``recorded`` is the outcome recorded for this task at the reference
    commit (see record.py), when there is one.
    """
    errors = []
    rec = recorded or {}
    dc = ref_dev = 0.0
    if exit_code != task.exit_code:
        errors.append(f"exit code {exit_code}, expected {task.exit_code}")
    if rec.get("exit", exit_code) != exit_code:
        errors.append(f"exit code {exit_code}, recorded {rec['exit']}")
    if "c_ent" in answer:
        c_ent, c_ana = answer["c_ent"], answer["c_ana"]
        dc = abs(c_ent - c_ana)
        if not dc <= tolerance(c_ent):
            errors.append(f"entropic {c_ent!r} and analytic {c_ana!r} disagree")
        for source, ref in (("theory", task.reference.get("c")),
                            ("recorded", rec.get("c"))):
            if ref is None:
                continue
            for side, c in (("entropic", c_ent), ("analytic", c_ana)):
                ref_dev = max(ref_dev, abs(c - ref))
                if not abs(c - ref) <= tolerance(ref):
                    errors.append(f"{side} {c!r} off the {source} reference {ref!r}")
    if "eta" in answer:
        for source, ref in (("theory", task.reference.get("eta")),
                            ("recorded", rec.get("eta"))):
            if ref is None:
                continue
            if len(ref) != len(answer["eta"]) or not all(
                    abs(a - b) <= 1e-3 for a, b in zip(answer["eta"], ref)):
                errors.append(f"eta {answer['eta']!r} off the {source} reference {ref!r}")
    if "verdict" in answer:
        for source, ref in (("theory", task.reference.get("verdict")),
                            ("recorded", rec.get("verdict"))):
            if ref is not None and answer["verdict"] != ref:
                errors.append(f"verdict {answer['verdict']!r}, {source} {ref!r}")
        if rec.get("forms", answer["forms"]) != answer["forms"]:
            errors.append(f"form verdicts {answer['forms']!r}, recorded {rec['forms']!r}")
    return errors, dc, ref_dev


def outcome(exit_code: int, answer: dict) -> dict:
    """The record kept per task and seed in references.json."""
    rec = {"exit": exit_code}
    if "c_ent" in answer:
        rec["c"] = answer["c_ent"]
    for key in ("eta", "verdict", "forms"):
        if key in answer:
            rec[key] = answer[key]
    return rec
