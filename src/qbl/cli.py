"""Command-line interface.

Subcommands: verify (sample an inequality and report the worst gap),
constant (estimate the optimal constant from both forms), gaussian
(geometric deficit trajectories as CSV), contraction (strong-DPI
coefficient). Problem specs are JSON files (read by
serialization.decode_spec) or named presets; main resolves the seed and
loads the task once, then hands both to the command. Reports are
deterministic for a fixed (spec, seed, budget). verify on a channel task
runs constant (minimum output entropy) or contraction and prints its report.

Exit codes: 0 = inequality holds / estimates agree, 1 = input error
(command-line usage errors, a spec that cannot be read and an --out that
cannot be written included), 2 = violation found (witness embedded in the
report).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .applications import (
    LN2,
    BasisPair,
    conditional_shearer_check,
    conditional_shearer_probe,
    contraction_coefficient,
    depolarizing_sdpi_scan,
    maassen_uffink_constant,
    measurement_entropies_bits,
    min_output_entropy,
    mu_analytic_check,
    six_state_bases,
    six_state_check,
    uncertainty_bound_analytic,
    uncertainty_bound_entropic,
)
from .channels import depolarizing
from .engine import (
    BLDatum,
    OptimizerBudget,
    SamplerConfig,
    agreement_tol,
    bl_membership,
    duality_crosscheck,
)
from .entropy import von_neumann
from .errors import QblError, SpecFormatError
from .gaussian import deficit_trajectory, geometric_datum_check
from .presets import PRESET_NAMES, build_preset
from .sampling import blocks, bloch_sample, random_density, random_pd
from .serialization import decode_spec, encode_matrix


def _load_task(spec: str, seed: int) -> dict:
    """The task of a spec file (decode_spec) or of a preset at seed."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError("$", f"invalid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecFormatError("$", f"cannot read the file: {exc}") from exc
        return decode_spec(data)
    if spec in PRESET_NAMES:
        return build_preset(spec, seed)
    raise SpecFormatError("$", f"no such file or preset: {spec!r}")


def _strict(x):
    """The report with each non-finite float as the string "inf", "-inf" or
    "nan" (its str), so the emitted JSON stays strict."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(float(x))
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


def _write_file(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise QblError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(report: dict, args) -> None:
    """Print the report as JSON, and write it to --out when given."""
    if not args.no_meta:
        report = {**report, "meta": {
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }}
    text = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        _write_file(args.out, text + "\n")
    print(text)


def _emit_csv(args, header: list[str], rows) -> None:
    """Write the header, then each row of numbers to 12 significant digits,
    as CSV to --out, or to stdout when --out is absent or "-"."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{x:.12g}" for x in row] for row in rows)
    if args.out:
        _write_file(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _nats_and_bits(**values: float) -> dict:
    """Each value, given in nats, as name_nats and as name_bits."""
    return {f"{name}_{unit}": x / scale for name, x in values.items()
            for unit, scale in (("nats", 1.0), ("bits", LN2))}


def _parse_budget(text: str, seed: int) -> OptimizerBudget:
    """restarts=N,iters=M: each field at most once, an absent one at its
    default (32 restarts, 500 iterations)."""
    fields = {"restarts": 32, "iters": 500}
    seen = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        if key not in fields:
            raise SpecFormatError("--budget", f"unknown budget field {key!r}")
        if key in seen:
            raise SpecFormatError("--budget", f"budget field {key!r} given twice")
        seen.add(key)
        try:
            fields[key] = _positive_int(val)
        except argparse.ArgumentTypeError as exc:
            raise SpecFormatError("--budget", f"{key}: {exc}") from exc
    return OptimizerBudget(restarts=fields["restarts"], max_iters=fields["iters"], base_seed=seed)


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("QBL_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise QblError(f"QBL_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise QblError(f"QBL_SEED must be non-negative, got {text!r}")
    return seed


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, seed: int, task: dict) -> int:
    kind = task["kind"]
    forms = ["entropic", "analytic"] if args.form == "both" else [args.form]
    report: dict = {"spec": args.spec, "seed": seed, "samples": args.samples, "units": "nats"}
    violated = False

    if kind == "bl_datum":
        datum: BLDatum = task["datum"]
        for form in forms:
            rep = bl_membership(
                datum, SamplerConfig(samples=args.samples, seed=seed, form=form)
            )
            report[form] = rep.to_dict()
            violated |= rep.verdict == "violated"
    elif kind == "conditional_shearer":
        checker = (
            conditional_shearer_probe if task.get("expect_violation") else conditional_shearer_check
        )
        rep = checker(task["rho"], task["dims"], task["subsets"], task["p"])
        report["conditional_shearer"] = {
            "gap": rep.gap,
            "holds": rep.holds,
            "witness": encode_matrix(np.asarray(task["rho"], dtype=complex)),
        }
        violated |= not rep.holds
    elif kind == "six_state":
        # every sample is drawn, in the same order, whichever forms run
        rng = np.random.default_rng(seed)
        rhos = np.concatenate([bloch_sample(rng, m) for m in blocks(args.samples, 2)])
        worst = {}  # the worst gap of each form run
        if "entropic" in forms:
            worst["entropic"] = float(np.min(six_state_check(rho=rhos).entropic_gap_bits))
        if "analytic" in forms:
            worst["analytic"] = np.inf
            for m in blocks(args.samples, 2):
                rep = six_state_check(omegas=random_pd(2, rng, 3 * m).reshape(m, 3, 2, 2))
                worst["analytic"] = min(worst["analytic"], float(np.min(rep.analytic_gap)))
                violated |= not np.all(rep.chain_holds)
        report["six_state"] = {
            "worst_entropic_gap_bits": worst.get("entropic"),
            "worst_analytic_gap": worst.get("analytic"),
            "units": "bits (entropic), linear (analytic)",
        }
        violated |= any(w < -1e-9 for w in worst.values())
    elif kind == "mu":
        rng = np.random.default_rng(seed)
        bx, bz = task["basis_x"], task["basis_z"]
        bases = BasisPair(bx, bz)  # validated, and c taken, once for every sample
        c = bases.c
        # per sample, in this order: rho, omega_1, omega_2
        draws = np.concatenate([random_density(2, rng, ("bloch", "pd", "pd") * m)
                                for m in blocks(args.samples, 2)]).reshape(-1, 3, 2, 2)
        worst = {}
        if "entropic" in forms:
            rhos = draws[:, 0]
            hx, hz = measurement_entropies_bits(rhos, [bx, bz])
            worst["entropic"] = float(np.min(hx + hz - von_neumann(rhos) / LN2 + np.log2(c)))
        if "analytic" in forms:
            worst["analytic"] = np.inf
            # one checker call per sample, with a block of one: the benchmark's
            # test (perfbench/test_perfbench.py) pins channels.Channel.per_sample,
            # the checkers' Channel constructions per call, above 1, and one
            # call per block would drop it to about 0.005
            for omegas in draws[:, None, 1:]:
                rep = mu_analytic_check(bases, omegas)
                worst["analytic"] = min(worst["analytic"], float(rep.gap[0]))
                violated |= not rep.chain_holds[0]
        report["mu"] = {
            "c": c,
            "worst_entropic_gap_bits": worst.get("entropic"),
            "worst_analytic_gap": worst.get("analytic"),
        }
        violated |= any(w < -1e-9 for w in worst.values())
    elif kind == "gaussian":
        _, dev, tr_res = geometric_datum_check(task["subspaces"], task["q"])
        rows = deficit_trajectory(task["state"], task["subspaces"], task["q"], [0.0])
        report["gaussian"] = {
            "deficit_at_0": rows[0]["deficit"],
            "datum_deviation": dev,
            "trace_residual": tr_res,
        }
        violated |= rows[0]["deficit"] < -1e-8
    elif kind == "channel_task":
        command = cmd_constant if task["task"] == "min_output_entropy" else cmd_contraction
        return command(args, seed, task)
    else:
        raise SpecFormatError("$.type", f"cannot verify task kind {kind!r}")

    report["verdict"] = "violated" if violated else "holds_on_samples"
    _emit(report, args)
    return 2 if violated else 0


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------

def cmd_constant(args, seed: int, task: dict) -> int:
    budget = _parse_budget(args.budget, seed)
    kind = task["kind"]
    report: dict = {"spec": args.spec, "seed": seed,
                    "budget": {"restarts": budget.restarts, "iters": budget.max_iters}}

    if kind == "bl_datum":
        rep = duality_crosscheck(task["datum"], budget)
        report["constant"] = {
            **_nats_and_bits(entropic=rep.c_entropic, analytic=rep.c_analytic),
            "tolerance": rep.tol,
            "agree": rep.agree,
        }
        code = 0 if rep.agree else 2
    elif kind in ("mu", "six_state"):
        bases = [task["basis_x"], task["basis_z"]] if kind == "mu" else six_state_bases()
        be = uncertainty_bound_entropic(bases, budget)
        ba = uncertainty_bound_analytic(bases, budget)
        report["uncertainty_bound"] = _nats_and_bits(entropic=be, analytic=ba)
        if kind == "mu":
            report["uncertainty_bound"]["c"] = maassen_uffink_constant(*bases)
        code = 0 if abs(be - ba) <= agreement_tol(be) else 2
    elif kind == "channel_task" and task["task"] == "min_output_entropy":
        rep = min_output_entropy(task["channel"], budget)
        report["min_output_entropy"] = {
            **_nats_and_bits(direct=rep.direct, dual=rep.dual),
            "neg_constant": rep.h_min,
        }
        code = 0
    else:
        raise SpecFormatError("$.type", f"cannot estimate a constant for kind {kind!r}")
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------

def _parse_t_grid(text: str) -> list[float]:
    """Heat-flow times from start:stop:lin|log:count or a comma list. Every
    time is finite and non-negative, count is at least 1, and a log grid
    (0 followed by count - 1 geometric points) needs stop > 0."""
    try:
        if ":" not in text:
            times = [float(x) for x in text.split(",")]
        else:
            start, stop, kind, count = text.split(":")
            times, n = [float(start), float(stop)], int(count)
    except ValueError as exc:
        raise SpecFormatError(
            "--t-grid", f"expected start:stop:lin|log:count or a comma list ({exc})"
        ) from exc
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise SpecFormatError("--t-grid", "times must be finite and non-negative")
    if ":" not in text:
        return times
    lo, hi = times
    if kind not in ("lin", "log") or n < 1 or (kind == "log" and hi <= 0):
        raise SpecFormatError(
            "--t-grid", "expected lin or log spacing, a count of at least 1 and a log stop above 0"
        )
    if kind == "log":
        return [0.0] + list(np.geomspace(max(lo, 1e-6), hi, n - 1))
    return list(np.linspace(lo, hi, n))


def _parse_p_sweep(text: str) -> list[float]:
    """Depolarizing probabilities from a comma list, each in [0, 1]."""
    try:
        ps = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise SpecFormatError("--p-sweep", f"expected a comma list of numbers ({exc})") from exc
    if not all(0.0 <= p <= 1.0 for p in ps):
        raise SpecFormatError("--p-sweep", "probabilities must lie in [0, 1]")
    return ps


def cmd_gaussian(args, seed: int, task: dict) -> int:
    if task["kind"] != "gaussian":
        raise SpecFormatError("$.type", "gaussian command needs a gaussian task")
    grid = _parse_t_grid(args.t_grid)
    rows = deficit_trajectory(task["state"], task["subspaces"], task["q"], grid)
    header = (["t", "H_total"] + [f"H_marginal_{k}" for k in range(len(task["subspaces"]))]
              + ["deficit"])
    _emit_csv(args, header, ([row["t"], row["H_total"], *row["H_marginals"], row["deficit"]]
                             for row in rows))
    return 0


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def cmd_contraction(args, seed: int, task: dict) -> int:
    if task["kind"] != "channel_task":
        raise SpecFormatError("$.type", "contraction command needs a channel task")
    budget = _parse_budget(args.budget, seed)
    ch = task["channel"]
    sigma = task.get("sigma", np.eye(ch.dim_in) / ch.dim_in)
    p = _depolarizing_p(ch)
    if getattr(args, "p_sweep", None):  # verify has no --p-sweep
        ps = _parse_p_sweep(args.p_sweep)
        half = np.eye(2) / 2
        at_half = np.shape(sigma) == (2, 2) and np.max(np.abs(sigma - half)) <= 1e-12
        if p is None or not at_half:
            raise SpecFormatError("--p-sweep", "the sweep runs depolarizing(p) at I/2: the spec "
                                  "needs a depolarizing channel and sigma absent or I/2")
        _emit_csv(args, ["p", "eta", "eta_formula"],
                  ([x, contraction_coefficient(depolarizing(x), half, budget), (1.0 - x) ** 2]
                   for x in ps))
        return 0
    eta = contraction_coefficient(ch, sigma, budget)
    report = {"spec": args.spec, "seed": seed, "contraction": {"eta": eta}}
    if task["task"] == "contraction" and p is not None:
        gap_at_eta, t_at = depolarizing_sdpi_scan(p, eta)
        report["contraction"]["scalar_scan_min_gap"] = gap_at_eta
        report["contraction"]["scalar_scan_argmin_t"] = t_at
    _emit(report, args)
    return 0


def _depolarizing_p(ch) -> float | None:
    """The p its label depolarizing(p=...) names, when the channel's
    transfer matrix is that of depolarizing(p) within 1e-12; else None."""
    try:  # no number in the label, or p outside [0, 1]
        p = float(ch.label.removeprefix("depolarizing(p=").removesuffix(")"))
        ref = depolarizing(p).transfer
    except ValueError:
        return None
    same = ch.transfer.shape == ref.shape and np.max(np.abs(ch.transfer - ref)) <= 1e-12
    return p if same else None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    """A command line argparse rejects; main reports it as an input error."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as exit code 1, since 2 means a violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _int_at_least(low: int):
    """An argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it is static
    configuration, and parse_args keeps no state between calls."""
    parser = _Parser(
        prog="qbl",
        description="Verify quantum Brascamp-Lieb inequalities in entropic and analytic form.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="problem-spec JSON path or preset name")
    common.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="RNG seed, at least 0 (default: $QBL_SEED or 0)")
    common.add_argument("--out", default=None, type=lambda path: None if path == "-" else path,
                        help="write the report/CSV to this path (-: stdout)")
    common.add_argument("--no-meta", action="store_true", help="omit timestamp/version metadata")

    p = sub.add_parser("verify", parents=[common], help="sample an inequality, exit 2 on violation")
    p.add_argument("--form", choices=["entropic", "analytic", "both"], default="both")
    p.add_argument("--samples", type=_positive_int, default=500)
    p.add_argument("--budget", default="restarts=8,iters=300")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constant", parents=[common], help="estimate the optimal constant from both forms")
    p.add_argument("--budget", default="restarts=32,iters=500")
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("gaussian", parents=[common], help="geometric deficit trajectory as CSV")
    p.add_argument("--t-grid", default="0:1000:log:25", help="start:stop:lin|log:count or comma list")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("contraction", parents=[common], help="strong-DPI contraction coefficient")
    p.add_argument("--budget", default="restarts=8,iters=300")
    p.add_argument("--p-sweep", default=None, help="comma list of depolarizing p values -> CSV")
    p.set_defaults(func=cmd_contraction)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        seed = _default_seed(args)
        return args.func(args, seed, _load_task(args.spec, seed))
    except SpecFormatError as exc:
        print(f"spec error at {exc}", file=sys.stderr)
        return 1
    except QblError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
