"""Command-line interface.

Subcommands: verify (sample an inequality and report the worst gap),
constant (estimate the optimal constant from both forms), gaussian
(geometric deficit trajectories as CSV), contraction (strong-DPI
coefficient). Problem specs are JSON files or named presets; reports are
deterministic for a fixed (spec, seed, budget).

Exit codes: 0 = inequality holds / estimates agree, 1 = input error,
2 = violation found (witness embedded in the report).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .applications import (
    binary_entropy,
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
    uncertainty_datum,
)
from .engine import (
    BLDatum,
    OptimizerBudget,
    SamplerConfig,
    bl_membership,
    duality_crosscheck,
)
from .errors import QblError, SpecFormatError
from .gaussian import deficit_trajectory, geometric_datum_check
from .presets import PRESET_NAMES, build_preset
from .sampling import bloch_sample, random_pd
from .serialization import decode_datum, decode_gaussian_task, encode_matrix

LN2 = float(np.log(2.0))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_task(spec: str, seed: int) -> dict:
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecFormatError("$", f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "type" not in data:
            raise SpecFormatError("$.type", "missing required field")
        kind = data["type"]
        if kind == "bl_datum":
            return {"kind": "bl_datum", "datum": decode_datum(data)}
        if kind == "gaussian":
            state, subs, q = decode_gaussian_task(data)
            return {"kind": "gaussian", "state": state, "subspaces": subs, "q": q}
        if kind == "channel_task":
            from .serialization import decode_channel, decode_matrix

            task = data.get("task", "contraction")
            out = {"kind": "channel_task", "task": task,
                   "channel": decode_channel(data.get("channel"), "$.channel")}
            if "sigma" in data:
                out["sigma"] = decode_matrix(data["sigma"], "$.sigma")
            if "eta" in data:
                out["eta"] = float(data["eta"])
            return out
        raise SpecFormatError("$.type", f"unknown problem type {kind!r}")
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


def _emit(report: dict, args) -> None:
    if not getattr(args, "no_meta", False):
        report = dict(report)
        report["meta"] = {
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    text = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _parse_budget(text: str, seed: int) -> OptimizerBudget:
    restarts, iters = 32, 500
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        if key == "restarts":
            restarts = int(val)
        elif key == "iters":
            iters = int(val)
        else:
            raise SpecFormatError("--budget", f"unknown budget field {key!r}")
    return OptimizerBudget(restarts=restarts, max_iters=iters, base_seed=seed)


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("QBL_SEED", "0"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = _default_seed(args)
    task = _load_task(args.spec, seed)
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
        rng = np.random.default_rng(seed)
        worst_ent = np.inf
        for _ in range(args.samples):
            rep = six_state_check(rho=bloch_sample(rng))
            worst_ent = min(worst_ent, rep.entropic_gap_bits)
        worst_ana = np.inf
        if "analytic" in forms:
            for _ in range(args.samples):
                oms = [random_pd(2, rng) for _ in range(3)]
                rep = six_state_check(omegas=oms)
                worst_ana = min(worst_ana, rep.analytic_gap)
        report["six_state"] = {
            "worst_entropic_gap_bits": float(worst_ent),
            "worst_analytic_gap": None if worst_ana is np.inf else float(worst_ana),
            "units": "bits (entropic), linear (analytic)",
        }
        violated |= worst_ent < -1e-9 or (worst_ana is not np.inf and worst_ana < -1e-9)
    elif kind == "mu":
        rng = np.random.default_rng(seed)
        bx, bz = task["basis_x"], task["basis_z"]
        c = maassen_uffink_constant(bx, bz)
        worst_ent, worst_ana = np.inf, np.inf
        for _ in range(args.samples):
            rho = bloch_sample(rng)
            hx, hz = measurement_entropies_bits(rho, [bx, bz])
            from .entropy import von_neumann

            gap = hx + hz - von_neumann(rho) / LN2 + np.log2(c)
            worst_ent = min(worst_ent, gap)
            rep = mu_analytic_check(bx, bz, random_pd(2, rng), random_pd(2, rng))
            worst_ana = min(worst_ana, rep.gap)
            violated |= not rep.chain_holds
        report["mu"] = {
            "c": c,
            "worst_entropic_gap_bits": float(worst_ent),
            "worst_analytic_gap": float(worst_ana),
        }
        violated |= worst_ent < -1e-9 or worst_ana < -1e-9
    elif kind == "gaussian":
        ok, dev, tr_res = geometric_datum_check(task["subspaces"], task["q"])
        if not ok:
            print(f"invalid geometric datum: deviation {dev:.3e}", file=sys.stderr)
            return 1
        rows = deficit_trajectory(task["state"], task["subspaces"], task["q"], [0.0])
        report["gaussian"] = {
            "deficit_at_0": rows[0]["deficit"],
            "datum_deviation": dev,
            "trace_residual": tr_res,
        }
        violated |= rows[0]["deficit"] < -1e-8
    elif kind == "channel_task":
        return _contraction_like(task, args, report)
    else:
        raise SpecFormatError("$.type", f"cannot verify task kind {kind!r}")

    report["verdict"] = "violated" if violated else "holds_on_samples"
    _emit(report, args)
    return 2 if violated else 0


def _contraction_like(task: dict, args, report: dict) -> int:
    seed = _default_seed(args)
    budget = _parse_budget(args.budget, seed)
    ch = task["channel"]
    if task["task"] == "min_output_entropy":
        rep = min_output_entropy(ch, budget)
        report["min_output_entropy"] = {"direct": rep.direct, "dual": rep.dual}
        _emit(report, args)
        return 0
    sigma = task.get("sigma")
    if sigma is None:
        sigma = np.eye(ch.dim_in) / ch.dim_in
    eta = contraction_coefficient(ch, sigma, budget)
    report["contraction"] = {"eta": eta}
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------

def cmd_constant(args) -> int:
    seed = _default_seed(args)
    task = _load_task(args.spec, seed)
    budget = _parse_budget(args.budget, seed)
    kind = task["kind"]
    report: dict = {"spec": args.spec, "seed": seed,
                    "budget": {"restarts": budget.restarts, "iters": budget.max_iters}}

    if kind == "bl_datum":
        rep = duality_crosscheck(task["datum"], budget)
        report["constant"] = {
            "entropic_nats": rep.c_entropic,
            "analytic_nats": rep.c_analytic,
            "entropic_bits": rep.c_entropic / LN2,
            "analytic_bits": rep.c_analytic / LN2,
            "tolerance": rep.tol,
            "agree": rep.agree,
        }
        _emit(report, args)
        return 0 if rep.agree else 2
    if kind in ("mu", "six_state"):
        bases = [task["basis_x"], task["basis_z"]] if kind == "mu" else six_state_bases()
        be = uncertainty_bound_entropic(bases, budget)
        ba = uncertainty_bound_analytic(bases, budget)
        report["uncertainty_bound"] = {
            "entropic_nats": be,
            "analytic_nats": ba,
            "entropic_bits": be / LN2,
            "analytic_bits": ba / LN2,
        }
        if kind == "mu":
            report["uncertainty_bound"]["c"] = maassen_uffink_constant(*bases)
        _emit(report, args)
        return 0 if abs(be - ba) <= max(1e-3, 1e-3 * abs(be)) else 2
    if kind == "channel_task" and task["task"] == "min_output_entropy":
        rep = min_output_entropy(task["channel"], budget)
        report["min_output_entropy"] = {
            "direct_nats": rep.direct,
            "dual_nats": rep.dual,
            "direct_bits": rep.direct / LN2,
            "dual_bits": rep.dual / LN2,
            "neg_constant": rep.h_min,
        }
        _emit(report, args)
        return 0
    raise SpecFormatError("$.type", f"cannot estimate a constant for kind {kind!r}")


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------

def _parse_t_grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, kind, count = text.split(":")
        n = int(count)
        if kind == "log":
            lo = max(float(start), 1e-6)
            return [0.0] + list(np.geomspace(lo, float(stop), n - 1))
        return list(np.linspace(float(start), float(stop), n))
    return [float(x) for x in text.split(",")]


def cmd_gaussian(args) -> int:
    seed = _default_seed(args)
    task = _load_task(args.spec, seed)
    if task["kind"] != "gaussian":
        raise SpecFormatError("$.type", "gaussian command needs a gaussian task")
    ok, dev, tr_res = geometric_datum_check(task["subspaces"], task["q"])
    if not ok:
        print(
            f"invalid geometric datum: sum q_k Pi_k deviates from identity by {dev:.3e}"
            f" (trace residual {tr_res:.3e})",
            file=sys.stderr,
        )
        return 1
    grid = _parse_t_grid(args.t_grid)
    rows = deficit_trajectory(task["state"], task["subspaces"], task["q"], grid)
    n_marg = len(task["subspaces"])
    header = ["t", "H_total"] + [f"H_marginal_{k}" for k in range(n_marg)] + ["deficit"]
    out = args.out or "-"
    handle = sys.stdout if out == "-" else open(out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fmt(row["t"]), _fmt(row["H_total"])]
                + [_fmt(h) for h in row["H_marginals"]]
                + [_fmt(row["deficit"])]
            )
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def cmd_contraction(args) -> int:
    seed = _default_seed(args)
    task = _load_task(args.spec, seed)
    if task["kind"] != "channel_task":
        raise SpecFormatError("$.type", "contraction command needs a channel task")
    budget = _parse_budget(args.budget, seed)
    ch = task["channel"]
    sigma = task.get("sigma")
    if sigma is None:
        sigma = np.eye(ch.dim_in) / ch.dim_in
    if args.p_sweep:
        from .channels import depolarizing

        ps = [float(x) for x in args.p_sweep.split(",")]
        out = args.out or "-"
        handle = sys.stdout if out == "-" else open(out, "w", encoding="utf-8", newline="")
        try:
            writer = csv.writer(handle)
            writer.writerow(["p", "eta", "eta_formula"])
            for p in ps:
                eta = contraction_coefficient(depolarizing(p), np.eye(2) / 2, budget)
                writer.writerow([_fmt(p), _fmt(eta), _fmt((1.0 - p) ** 2)])
        finally:
            if handle is not sys.stdout:
                handle.close()
        return 0
    eta = contraction_coefficient(ch, sigma, budget)
    report = {"spec": args.spec, "seed": seed, "contraction": {"eta": eta}}
    if task.get("task") == "contraction" and ch.label.startswith("depolarizing"):
        gap_at_eta, t_at = depolarizing_sdpi_scan(_depol_p(ch.label), eta)
        report["contraction"]["scalar_scan_min_gap"] = gap_at_eta
        report["contraction"]["scalar_scan_argmin_t"] = t_at
    _emit(report, args)
    return 0


def _depol_p(label: str) -> float:
    return float(label.split("p=")[1].rstrip(")"))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbl",
        description="Verify quantum Brascamp-Lieb inequalities in entropic and analytic form.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="problem-spec JSON path or preset name")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default: $QBL_SEED or 0)")
    common.add_argument("--out", default=None, help="write the report/CSV to this path")
    common.add_argument("--no-meta", action="store_true", help="omit timestamp/version metadata")

    p = sub.add_parser("verify", parents=[common], help="sample an inequality, exit 2 on violation")
    p.add_argument("--form", choices=["entropic", "analytic", "both"], default="both")
    p.add_argument("--samples", type=int, default=500)
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"spec error at {exc.path}: {exc}", file=sys.stderr)
        return 1
    except QblError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
