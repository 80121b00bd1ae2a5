"""BL data, two-sided gap evaluation, and optimal-constant estimation.

A BLDatum bundles (q, channels, sigma, sigmas, C). The entropic gap checks
sum_k q_k D(E_k(rho)||sigma_k) <= D(rho||sigma) + C at a state rho; the
analytic gap checks the dual trace-exponential inequality at a tuple of
omega_k, in the log domain. The optimal constant is the same supremum seen
from either side; it is estimated independently from both, and agreement
of the two estimates is the duality cross-check.

Optimizers work on raw arrays, are vectorized across restarts, and assume
a strictly positive definite sigma. A datum whose E_k(sigma) leaks out of
supp sigma_k has constant +inf and is reported as such before any search.
The gap evaluators handle boundary supports exactly via the
support-projected logarithm machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import Channel, adjoint_on_log, apply, apply_adjoint
from .entropy import INF, relative_entropy, supports_contained
from .errors import DimensionMismatch, Diverged
from .operators import (
    DensityOperator,
    PSDOperator,
    SupportLog,
    exp_on_support,
    hermitian_part,
    log_sum_exp,
    log_trace_exp_sum,
    matrix_log,
    xlogx_sum,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .sampling import random_density

_EIG_FLOOR = 1e-300


@dataclass(frozen=True)
class OptimizerBudget:
    """Restart/iteration budget shared by all searches."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-9
    base_seed: int = 0

    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.restarts)]


@dataclass(frozen=True)
class SamplerConfig:
    samples: int = 500
    seed: int = 0
    form: str = "entropic"  # entropic | analytic
    ensembles: tuple[str, ...] = ("hs", "pure", "boundary")


class BLDatum:
    """One BL inequality instance (q, channels, sigma, sigmas, C)."""

    def __init__(
        self,
        q: Sequence[float],
        channels: Sequence[Channel],
        sigma: PSDOperator,
        sigmas: Sequence[PSDOperator],
        c: float = 0.0,
        policy: NumericPolicy = DEFAULT_POLICY,
    ):
        self.q = np.asarray(q, dtype=float)
        self.channels = tuple(channels)
        self.sigma = sigma if isinstance(sigma, PSDOperator) else PSDOperator(sigma, policy)
        self.sigmas = tuple(
            s if isinstance(s, PSDOperator) else PSDOperator(s, policy) for s in sigmas
        )
        self.c = float(c)
        self.policy = policy
        n = len(self.channels)
        if not (len(self.q) == len(self.sigmas) == n):
            raise DimensionMismatch("q, channels, sigmas must have equal length")
        if np.any(self.q <= 0):
            raise ValueError("all weights q_k must be positive")
        for k, (ch, sk) in enumerate(zip(self.channels, self.sigmas)):
            if ch.dim_in != self.sigma.dim:
                raise DimensionMismatch(f"channel {k}: dim_in {ch.dim_in} != dim(sigma)")
            if ch.dim_out != sk.dim:
                raise DimensionMismatch(f"channel {k}: dim_out {ch.dim_out} != dim(sigma_{k})")

    @property
    def n(self) -> int:
        return len(self.channels)

    @property
    def dim(self) -> int:
        return self.sigma.dim

    def with_constant(self, c: float) -> "BLDatum":
        return BLDatum(self.q, self.channels, self.sigma, self.sigmas, c, self.policy)

    def __repr__(self):
        return f"BLDatum(n={self.n}, dim={self.dim}, q={self.q.tolist()}, c={self.c})"


def tensor_datum(d1: BLDatum, d2: BLDatum) -> BLDatum:
    """Product datum (E_k (x) F_k, sigma (x) sigma', ...) with C = C1 + C2."""
    from .channels import tensor as tensor_channel

    if d1.n != d2.n or not np.allclose(d1.q, d2.q):
        raise DimensionMismatch("tensorization needs matching n and q")
    chans = [tensor_channel(a, b) for a, b in zip(d1.channels, d2.channels)]
    sigma = PSDOperator(np.kron(d1.sigma.matrix, d2.sigma.matrix), d1.policy)
    sigmas = [
        PSDOperator(np.kron(a.matrix, b.matrix), d1.policy)
        for a, b in zip(d1.sigmas, d2.sigmas)
    ]
    return BLDatum(d1.q, chans, sigma, sigmas, d1.c + d2.c, d1.policy)


# ---------------------------------------------------------------------------
# Gap evaluators (exact support semantics)
# ---------------------------------------------------------------------------

def entropic_gap(datum: BLDatum, rho) -> float:
    """D(rho||sigma) + C - sum_k q_k D(E_k(rho)||sigma_k).

    Non-negative iff the entropic inequality holds at rho. If
    D(rho||sigma) is +inf the inequality is vacuous and the gap is +inf.
    """
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho, datum.policy)
    if rho.dim != datum.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != datum dim {datum.dim}")
    d_ref = relative_entropy(rho, datum.sigma, datum.policy)
    if d_ref == INF:
        return INF
    total = d_ref + datum.c
    for qk, ch, sk in zip(datum.q, datum.channels, datum.sigmas):
        dk = relative_entropy(
            DensityOperator(apply(ch, rho), datum.policy), sk, datum.policy
        )
        if dk == INF:
            return -INF
        total -= qk * dk
    return float(total)


def analytic_gap(datum: BLDatum, omegas: Sequence) -> float:
    """log(RHS) - log(LHS) of the trace-exponential inequality at omegas.

    Computed in the log domain for stability; non-negative iff the
    analytic inequality holds at the given tuple.
    """
    if len(omegas) != datum.n:
        raise DimensionMismatch(f"expected {datum.n} omegas, got {len(omegas)}")
    oms = [
        o if isinstance(o, PSDOperator) else PSDOperator(o, datum.policy) for o in omegas
    ]
    for k, (o, ch) in enumerate(zip(oms, datum.channels)):
        if o.dim != ch.dim_out:
            raise DimensionMismatch(f"omega_{k} dim {o.dim} != channel dim_out {ch.dim_out}")
    pol = datum.policy
    log_sigma = matrix_log(datum.sigma, pol)
    lhs_terms = [log_sigma]
    log_rhs = datum.c
    for qk, ch, sk, om in zip(datum.q, datum.channels, datum.sigmas, oms):
        lw = matrix_log(om, pol)
        lhs_terms.append(adjoint_on_log(ch, lw))
        log_rhs += qk * log_trace_exp_sum([lw.scaled(1.0 / qk), matrix_log(sk, pol)], pol)
    log_lhs = log_trace_exp_sum(lhs_terms, pol)
    if log_lhs == -INF and log_rhs == -INF:
        return 0.0
    if log_lhs == -INF:
        return INF
    if log_rhs == -INF:
        return -INF
    return float(log_rhs - log_lhs)


# ---------------------------------------------------------------------------
# Fast batched evaluators on raw arrays
# ---------------------------------------------------------------------------

def _trace_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A B), batched over the leading axes of A and B."""
    return np.einsum("...ij,...ji->...", a, b).real


def _eigh_log(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and logarithms of PSD stacks; eigenvalues are lifted to a
    relative floor inside the log so kernels stay finite."""
    vals, vecs = np.linalg.eigh(mats)
    floor = np.clip(vals[..., -1:] * 1e-18, _EIG_FLOOR, None)
    logs = np.log(np.clip(vals, floor, None))
    return vals, (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _relative_entropy_grad(rhos: np.ndarray, log_ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(rho || ref) = tr rho (log rho - log ref) on a stack of states, and
    its Hermitian gradient in rho, log rho - log ref (up to the identity,
    which the trace constraint removes)."""
    vals, log_rho = _eigh_log(rhos)
    return xlogx_sum(vals) - _trace_prod(rhos, log_ref), log_rho - log_ref


class _Workspace:
    """Precomputed arrays for a support-compatible datum with PD sigma."""

    def __init__(self, datum: BLDatum):
        if datum.sigma.support_rank < datum.dim:
            raise Diverged("optimal-constant search requires strictly PD sigma")
        self.q = datum.q
        self.channels = datum.channels
        self.log_sigma = matrix_log(datum.sigma, datum.policy).finite
        self.log_sigmas = []  # finite parts, support-projected
        self.rhs_bases = []  # support bases V_k (d_k x r_k)
        self.rhs_logs = []  # compressed log sigma_k (r_k x r_k)
        for sk in datum.sigmas:
            ls = matrix_log(sk, datum.policy)
            self.log_sigmas.append(ls.finite)
            v = sk.support_basis()
            self.rhs_bases.append(v)
            self.rhs_logs.append(v.conj().T @ ls.finite @ v)

    # -- objectives ----------------------------------------------------
    def entropic_objective(self, rhos: np.ndarray) -> np.ndarray:
        """sum_k q_k D(E_k rho || sigma_k) - D(rho || sigma), batched."""
        vals = np.linalg.eigvalsh(rhos)
        out = _trace_prod(rhos, self.log_sigma) - xlogx_sum(vals)
        for k, qk in enumerate(self.q):
            taus = apply(self.channels[k], rhos)
            tvals = np.linalg.eigvalsh(taus)
            out = out + qk * (xlogx_sum(tvals) - _trace_prod(taus, self.log_sigmas[k]))
        return out

    def entropic_value_grad(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entropic objective at rho = XX^dag / tr XX^dag and its
        gradient in X, from the Hermitian gradient in rho
        G = sum_k q_k E_k^dag(log E_k rho - log sigma_k) - (log rho - log sigma)."""
        rhos, t = _gram_states(xs)
        d_ref, g_ref = _relative_entropy_grad(rhos, self.log_sigma)
        out, g = -d_ref, -g_ref
        for k, qk in enumerate(self.q):
            dk, gk = _relative_entropy_grad(apply(self.channels[k], rhos), self.log_sigmas[k])
            out = out + qk * dk
            g = g + qk * apply_adjoint(self.channels[k], gk)
        return out, _pullback(g, rhos, xs, t)

    def log_states(self, omegas: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(omegas)
        logs = np.log(np.clip(vals, _EIG_FLOOR, None))
        return np.einsum("...ij,...j,...kj->...ik", vecs, logs, vecs.conj())

    def exponent(self, log_omegas: list[np.ndarray]) -> np.ndarray:
        """log sigma + sum_k E_k^dag(log w_k), batched over the leading axes
        of each log_omegas[k]."""
        h = self.log_sigma
        for ch, lw in zip(self.channels, log_omegas):
            h = h + apply_adjoint(ch, lw)
        return h

    def induced_logs(self, rhos: np.ndarray) -> list[np.ndarray]:
        """q_k (log E_k(rho) - log sigma_k) for every k, batched: the
        log w_k the duality proof pairs with rho."""
        return [
            qk * (_eigh_log(apply(ch, rhos))[1] - ls)
            for qk, ch, ls in zip(self.q, self.channels, self.log_sigmas)
        ]

    def analytic_objective(self, log_omegas: list[np.ndarray]) -> np.ndarray:
        """log tr exp(log sigma + sum E_k^dag log w_k) - sum_k q_k log||.||,
        batched over the leading axes of each log_omegas[k]."""
        obj = log_sum_exp(np.linalg.eigvalsh(hermitian_part(self.exponent(log_omegas))))
        for k, qk in enumerate(self.q):
            obj = obj - self.rhs_term(k, log_omegas[k])
        return obj

    def rhs_term(self, k: int, log_omega: np.ndarray) -> np.ndarray:
        """q_k log tr exp(log w / q_k + log sigma_k) on supp(sigma_k)."""
        v = self.rhs_bases[k]
        compressed = np.einsum("ji,...jk,kl->...il", v.conj(), log_omega, v) / self.q[k]
        mats = hermitian_part(compressed + self.rhs_logs[k])
        return self.q[k] * log_sum_exp(np.linalg.eigvalsh(mats))


def _gram_states(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices XX^dag / t with t = tr XX^dag, batched; X may be
    d x d (mixed states) or d x 1 (pure states)."""
    rho = xs @ xs.conj().swapaxes(-1, -2)
    t = np.clip(np.trace(rho, axis1=-2, axis2=-1).real, 1e-300, None)
    return rho / t[..., None, None], t


def _pullback(g: np.ndarray, rhos: np.ndarray, xs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradient in X (real and imaginary parts as one complex array) of
    f(XX^dag / t), given the Hermitian gradient G of f in rho:
    (2/t)(G - tr(G rho)) X."""
    gx = g @ xs - _trace_prod(g, rhos)[..., None, None] * xs
    return (2.0 / t)[..., None, None] * gx


def _sqrt_psd(rhos: np.ndarray) -> np.ndarray:
    """Batched PSD square roots: ascent parameters X with rho = XX^dag."""
    vals, vecs = np.linalg.eigh(rhos)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _ascent(value_grad, x0: np.ndarray, max_iters: int, tol: float):
    """Vectorized multi-restart gradient ascent with backtracking (Armijo)
    line search, each restart frozen once an iteration gains less than tol.

    value_grad(X) maps a stack X (restarts on the first axis) to the
    objective values and their gradients, each row evaluated on its own.
    Returns (values, parameters, running-best trace).
    """
    x = np.array(x0, dtype=complex)
    fvals, grads = value_grad(x)
    axes = tuple(range(1, x.ndim))
    bcast = (slice(None),) + (None,) * (x.ndim - 1)
    step = np.full(len(x), 0.25)
    active = np.isfinite(fvals)
    trace: list[tuple[int, float]] = []
    for it in range(max_iters):
        if not active.any():
            break
        idx = np.where(active)[0]
        f0 = fvals[idx]
        g = grads[idx]
        gn2 = np.sum(np.abs(g) ** 2, axis=axes)
        t = np.clip(step[idx], 1e-10, None)
        pending = gn2 > 0
        for _ in range(40):
            if not pending.any():
                break
            rows = np.where(pending)[0]
            trial = x[idx[rows]] + t[rows][bcast] * g[rows]
            ft, gt = value_grad(trial)
            ok = ft > f0[rows] + 1e-4 * t[rows] * gn2[rows]
            acc = rows[ok]
            x[idx[acc]] = trial[ok]
            fvals[idx[acc]] = ft[ok]
            grads[idx[acc]] = gt[ok]
            pending[acc] = False
            t[rows[~ok]] *= 0.5
            pending &= t > 1e-13
        step[idx] = np.clip(t * 2.0, 1e-12, 4.0)
        active[idx[fvals[idx] - f0 < tol]] = False
        finite = fvals[np.isfinite(fvals)]
        trace.append((it, float(np.max(finite)) if finite.size else float("-inf")))
    return fvals, x, trace


@dataclass
class OptimizationResult:
    value: float
    witness: list[np.ndarray]
    method: str
    restart_seeds: list[int] = field(default_factory=list)
    trace: list[tuple[int, float]] = field(default_factory=list)


def _initial_states(d: int, seeds: list[int]) -> np.ndarray:
    kinds = ("hs", "pure", "boundary")
    out = []
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        out.append(random_density(d, rng, kinds[i % 3]))
    return np.stack(out)


def _support_leak(datum: BLDatum) -> int | None:
    """Index of the first k with supp E_k(sigma) not inside supp sigma_k,
    or None. Such a datum has optimal constant +inf: at rho = sigma / tr
    sigma the left-hand side D(E_k(rho) || sigma_k) is already infinite."""
    for k, (ch, sk) in enumerate(zip(datum.channels, datum.sigmas)):
        image = PSDOperator(apply(ch, datum.sigma.matrix), datum.policy)
        if not supports_contained(image, sk, datum.policy):
            return k
    return None


def optimal_constant_entropic(
    datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()
) -> tuple[float, DensityOperator, OptimizationResult]:
    """Estimate sup_rho [sum q_k D(E_k rho||sigma_k) - D(rho||sigma)].

    Runs the alternating fixed-point scheme and an exact-gradient ascent
    over rho = XX^dag / tr XX^dag from every restart and returns the best
    value found, its witness state, and the search record. The estimate
    is a lower bound on the true optimal constant. A datum whose E_k(sigma)
    leaks out of supp sigma_k has constant +inf, witnessed by sigma / tr
    sigma.
    """
    seeds = budget.seeds()
    if _support_leak(datum) is not None:
        witness = DensityOperator(datum.sigma.matrix, datum.policy)
        return INF, witness, OptimizationResult(INF, [witness.matrix], "support_leak", seeds)
    ws = _Workspace(datum)
    rhos = _initial_states(datum.dim, seeds)

    best_val, best_rho, fp_trace = _fixed_point_multi(ws, rhos, budget)

    fvals, xs, as_trace = _ascent(
        ws.entropic_value_grad, _sqrt_psd(rhos), budget.max_iters, budget.tol
    )
    method = "fixed_point"
    if np.max(fvals, initial=-np.inf) > best_val:
        i = int(np.argmax(fvals))
        best_val = float(fvals[i])
        best_rho = _gram_states(xs[i])[0]
        method = "ascent"
    witness = DensityOperator(hermitian_part(best_rho), datum.policy)
    check = float(ws.entropic_objective(witness.matrix[None])[0])
    if not np.isfinite(check) or abs(check - best_val) > 1e-8:
        raise Diverged(f"witness re-evaluation drifted: {check} vs {best_val}")
    result = OptimizationResult(best_val, [witness.matrix], method, seeds, fp_trace + as_trace)
    return best_val, witness, result


def _fixed_point_multi(
    ws: _Workspace, rhos0: np.ndarray, budget: OptimizerBudget
) -> tuple[float, np.ndarray, list[tuple[int, float]]]:
    rhos = np.array(rhos0, dtype=complex)
    fvals = ws.entropic_objective(rhos)
    active = np.isfinite(fvals)
    trace: list[tuple[int, float]] = []
    for it in range(budget.max_iters):
        if not active.any():
            break
        idx = np.where(active)[0]
        cur = rhos[idx]
        nxt = _density_from_log(ws.exponent(ws.induced_logs(cur)))
        fnew = ws.entropic_objective(nxt)
        bad = ~np.isfinite(fnew)
        fnew[bad] = fvals[idx][bad]
        nxt[bad] = cur[bad]
        improved = fnew - fvals[idx]
        rhos[idx] = nxt
        fvals[idx] = fnew
        done = (improved < budget.tol) | bad
        active[idx[done]] = False
        trace.append((it, float(np.max(fvals))))
    if not np.isfinite(fvals).any():
        raise Diverged("all fixed-point restarts left the support cone")
    i = int(np.nanargmax(np.where(np.isfinite(fvals), fvals, -np.inf)))
    return float(fvals[i]), rhos[i], trace


def _density_from_log(log_omega: np.ndarray, log_range: float = np.inf) -> np.ndarray:
    """Normalize exp(log_omega) to unit trace, batched; eigenvalues below
    exp(-log_range) times the largest are lifted to that ratio."""
    vals, vecs = np.linalg.eigh(hermitian_part(log_omega))
    w = np.exp(np.maximum(vals - vals[..., -1:], -log_range))
    w /= np.sum(w, axis=-1, keepdims=True)
    return np.einsum("...ij,...j,...kj->...ik", vecs, w, vecs.conj())


# maximizing sequences can push omega eigenvalues below anything a dense
# density matrix can represent; witnesses exponentiated from log-domain
# iterates clamp their spectrum to this range, so every eigenvalue stays
# far enough above the eps_supp support threshold of the exact evaluators
# for them to see full support
_LOG_RANGE = -np.log(1e-9)


def harden_support(rho: np.ndarray, rel_cut: float = 1e-12) -> np.ndarray:
    """Zero eigenvalues below rel_cut * lambda_max so downstream support
    projections see an exact kernel instead of numerical dust."""
    vals, vecs = np.linalg.eigh(hermitian_part(np.asarray(rho, dtype=complex)))
    vals = np.where(vals > rel_cut * vals[-1], vals, 0.0)
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T


def induced_analytic_witness(datum: BLDatum, rho) -> list[DensityOperator]:
    """The omega tuple the duality proof pairs with a state rho:
    omega_k proportional to [exp(log E_k(rho) - log sigma_k)]^(q_k),
    supported exactly on the support of E_k(rho).

    Evaluating the analytic objective at this tuple is always >= the
    entropic objective at rho.
    """
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho, datum.policy)
    pol = datum.policy
    out = []
    for qk, ch, sk in zip(datum.q, datum.channels, datum.sigmas):
        tau = DensityOperator(apply(ch, rho), pol)
        lt = matrix_log(tau, pol)
        ls = matrix_log(sk, pol)
        weight = lt.weight
        if ls.weight is not None:
            weight = ls.weight if weight is None else weight + ls.weight
        diff = SupportLog(lt.finite - ls.finite, weight).scaled(qk)
        om = exp_on_support([diff], pol)
        out.append(DensityOperator(om / np.trace(om).real, pol))
    return out


def _leak_witness(datum: BLDatum, k: int) -> list[DensityOperator]:
    """Analytic witness of an infinite constant: omega_k maximally mixed on
    ker sigma_k (the direction E_k(sigma) leaks into), every other omega_j
    maximally mixed. The right-hand side then vanishes; the gap is -inf
    whenever some input state is mapped by E_k into ker sigma_k, and the
    supremum is otherwise approached only in a limit."""
    out = []
    for j, sj in enumerate(datum.sigmas):
        if j == k:
            v = sj.eigenvectors[:, sj.eigenvalues <= sj.eps_supp]
            out.append(DensityOperator(v @ v.conj().T, datum.policy))
        else:
            out.append(DensityOperator(np.eye(sj.dim), datum.policy))
    return out


def optimal_constant_analytic(
    datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()
) -> tuple[float, list[DensityOperator], OptimizationResult]:
    """Estimate the optimal constant from the analytic side, multi-started.

    Monotone closed-form sweeps: each pass sends the omega_k to the
    variational maximizer induced by the Gibbs state of the current
    exponent, which never decreases the analytic objective. The reported
    constant is the exact re-evaluation (analytic_gap at C = 0) of the
    best sweep tuple or of the tuple induced by its Gibbs state, whichever
    is larger, so it stays a certified lower bound. A datum whose E_k(sigma)
    leaks out of supp sigma_k has constant +inf.
    """
    seeds = budget.seeds()
    leak = _support_leak(datum)
    if leak is not None:
        witness = _leak_witness(datum, leak)
        return INF, witness, OptimizationResult(
            INF, [w.matrix for w in witness], "support_leak", seeds
        )
    ws = _Workspace(datum)
    dims = [ch.dim_out for ch in datum.channels]
    omegas = []
    for k, dk in enumerate(dims):
        stack = []
        for i, s in enumerate(seeds):
            rng = np.random.default_rng(s * 1000003 + k)
            kind = ("hs", "boundary")[i % 2]
            stack.append(random_density(dk, rng, kind))
        omegas.append(np.stack(stack))

    log_omegas = [ws.log_states(om) for om in omegas]
    fvals = ws.analytic_objective(log_omegas)
    trace: list[tuple[int, float]] = []
    for it in range(budget.max_iters):
        # one monotone pass omega -> rho(omega) -> omega' of the variational
        # maximizer pair used in the duality proof
        log_omegas_new = ws.induced_logs(_density_from_log(ws.exponent(log_omegas)))
        fnew = ws.analytic_objective(log_omegas_new)
        gain = float(np.max(fnew - fvals))
        keep = fnew >= fvals  # guard against floating-point regressions
        for k in range(len(dims)):
            log_omegas[k][keep] = log_omegas_new[k][keep]
        fvals = np.maximum(fvals, fnew)
        trace.append((it, float(np.max(fvals))))
        if gain < budget.tol:
            break

    i = int(np.argmax(np.where(np.isfinite(fvals), fvals, -np.inf)))
    datum0 = datum.with_constant(0.0)
    w_sweep = [DensityOperator(_density_from_log(lw[i], _LOG_RANGE), datum.policy)
               for lw in log_omegas]
    candidates = [(-analytic_gap(datum0, w_sweep), w_sweep)]
    # maximizing sequences often push omega eigenvalues below what a dense
    # density matrix can represent; the exact-kernel witness induced by
    # the (hardened) Gibbs state of the final exponent reaches the same
    # value with supports the projected evaluators handle exactly
    h = ws.exponent([lw[i] for lw in log_omegas])
    rho_hat = harden_support(_density_from_log(h))
    try:
        w_ind = induced_analytic_witness(datum, rho_hat)
        candidates.append((-analytic_gap(datum0, w_ind), w_ind))
    except (ValueError, ZeroDivisionError):
        pass
    best_val, witness = max(candidates, key=lambda t: t[0])
    best_internal = float(fvals[i])
    if not np.isfinite(best_val) or best_val < best_internal - 1e-3:
        raise Diverged(
            f"witness re-evaluation drifted: {best_val} vs internal {best_internal}"
        )
    result = OptimizationResult(
        float(best_val), [w.matrix for w in witness], "alternating_sweep", seeds, trace
    )
    return float(best_val), witness, result


@dataclass
class DualityReport:
    c_entropic: float
    c_analytic: float
    tol: float
    agree: bool
    witness_entropic: np.ndarray
    witness_analytic: list[np.ndarray]
    seeds: list[int]

    def to_dict(self) -> dict:
        from .serialization import encode_matrix

        return {
            "c_entropic": self.c_entropic,
            "c_analytic": self.c_analytic,
            "tol": self.tol,
            "agree": self.agree,
            "witness_entropic": encode_matrix(self.witness_entropic),
            "witness_analytic": [encode_matrix(w) for w in self.witness_analytic],
            "seeds": list(self.seeds),
            "units": "nats",
        }


def duality_crosscheck(
    datum: BLDatum, budget: OptimizerBudget = OptimizerBudget()
) -> DualityReport:
    """Estimate the optimal constant from both forms and compare.

    The duality theorem makes the two suprema equal, so disagreement
    beyond tol flags an optimizer or evaluator defect. Failure is a
    report verdict, not an exception.
    """
    c_ent, w_ent, _ = optimal_constant_entropic(datum, budget)
    c_ana, w_ana, _ = optimal_constant_analytic(datum, budget)
    tol = max(1e-4, 1e-3 * abs(c_ent)) if np.isfinite(c_ent) else 1e-4
    return DualityReport(
        c_entropic=c_ent,
        c_analytic=c_ana,
        tol=tol,
        agree=bool(c_ent == c_ana or abs(c_ent - c_ana) <= tol),
        witness_entropic=w_ent.matrix,
        witness_analytic=[w.matrix for w in w_ana],
        seeds=budget.seeds(),
    )


@dataclass
class VerificationReport:
    """Outcome of sampling one inequality form over an ensemble."""

    form: str
    worst_gap: float
    witness: list[np.ndarray]
    samples: int
    optimizer_trace: list[tuple[int, float]] = field(default_factory=list)
    verdict: str = "holds_on_samples"

    def to_dict(self) -> dict:
        from .serialization import encode_matrix

        return {
            "form": self.form,
            "worst_gap": self.worst_gap,
            "witness": [encode_matrix(w) for w in self.witness],
            "samples": self.samples,
            "optimizer_trace": [[i, v] for i, v in self.optimizer_trace],
            "verdict": self.verdict,
        }


def reevaluate_report(datum: BLDatum, report: VerificationReport) -> float:
    """Recompute the gap at the stored witness (report integrity check)."""
    if report.form == "entropic":
        return entropic_gap(datum, report.witness[0])
    return analytic_gap(datum, report.witness)


def bl_membership(datum: BLDatum, config: SamplerConfig = SamplerConfig()) -> VerificationReport:
    """Sample one form of the inequality and report the worst gap seen."""
    rng = np.random.default_rng(config.seed)
    worst = INF
    witness: list[np.ndarray] = []
    ensembles = config.ensembles
    for i in range(config.samples):
        kind = ensembles[i % len(ensembles)]
        if config.form == "entropic":
            rho = random_density(datum.dim, rng, kind)
            gap = entropic_gap(datum, rho)
            cand = [rho]
        elif config.form == "analytic":
            # the analytic form only needs full-support density operators
            full_kind = "hs" if kind == "pure" else kind
            cand = [
                random_density(ch.dim_out, rng, full_kind) for ch in datum.channels
            ]
            gap = analytic_gap(datum, cand)
        else:
            raise ValueError(f"unknown form {config.form!r}")
        if gap < worst:
            worst = gap
            witness = cand
    verdict = "holds_on_samples" if worst >= -1e-9 else "violated"
    return VerificationReport(
        form=config.form,
        worst_gap=float(worst),
        witness=witness,
        samples=config.samples,
        verdict=verdict,
    )


@dataclass
class TensorizationReport:
    worst_gap: float
    constant_product: float
    constant_estimate: float
    verdict: str
    witness: np.ndarray

    def to_dict(self) -> dict:
        from .serialization import encode_matrix

        return {
            "worst_gap": self.worst_gap,
            "constant_product": self.constant_product,
            "constant_estimate": self.constant_estimate,
            "verdict": self.verdict,
            "witness": encode_matrix(self.witness),
            "units": "nats",
        }


def tensorization_check(
    d1: BLDatum,
    d2: BLDatum,
    budget: OptimizerBudget = OptimizerBudget(),
    samples: int = 200,
) -> TensorizationReport:
    """Probe whether (q, C1 + C2) survives tensoring the two data.

    Searches entangled witnesses on the product space: random sampling of
    the entropic gap plus the optimal-constant search. A negative worst
    gap certifies tensorization failure for the combined constant.
    """
    prod = tensor_datum(d1, d2)
    rep = bl_membership(
        prod, SamplerConfig(samples=samples, seed=budget.base_seed, form="entropic")
    )
    c_est, w_opt, _ = optimal_constant_entropic(prod, budget)
    gap_opt = prod.c - c_est
    if gap_opt < rep.worst_gap:
        worst, witness = gap_opt, w_opt.matrix
    else:
        worst, witness = rep.worst_gap, rep.witness[0]
    verdict = "tensorizes_on_samples" if worst >= -1e-8 else "violated"
    return TensorizationReport(
        worst_gap=float(worst),
        constant_product=prod.c,
        constant_estimate=float(c_est),
        verdict=verdict,
        witness=witness,
    )
