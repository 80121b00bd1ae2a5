"""Prebuilt data and checkers for the worked applications.

Covers generalized sub-additivity (Shearer / Loomis-Whitney and the
conditional variant), entropic uncertainty relations (two-basis and
three-Pauli), minimum output entropy, data processing and its
multiplicative strengthening, and super-additivity of relative entropy.

Uncertainty quantities are reported in bits (the usual convention for
those relations); everything else is in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy.linalg import eigh as generalized_eigh

from . import entropy
from .channels import (
    Channel,
    apply,
    apply_adjoint,
    measurement_channel,
    partial_trace,
    pauli_basis,
    ptrace,
)
from .engine import (
    BLDatum,
    OptimizerBudget,
    _ascent,
    _eigh_log,
    _gram_states,
    _pullback,
    _relative_entropy_grad,
    _sqrt_psd,
    optimal_constant_analytic,
    optimal_constant_entropic,
)
from .errors import (
    CoverViolation,
    DimensionMismatch,
    Diverged,
    InvalidEta,
    NotOrthonormal,
    SingularMarginal,
)
from .operators import (
    DensityOperator,
    PSDOperator,
    identity,
    lieb_triple_integral,
    log_trace_exp_sum,
    matrix_log,
    trace_exp_sum,
    xlogx_sum,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .sampling import complex_gaussian, random_density

LN2 = float(np.log(2.0))


def binary_entropy(x: float) -> float:
    """h(x) = -x ln x - (1-x) ln(1-x) in nats."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


# ---------------------------------------------------------------------------
# Shearer / Loomis-Whitney
# ---------------------------------------------------------------------------

def shearer_datum(dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int) -> BLDatum:
    """BL datum for the generalized sub-additivity inequality.

    Channels are partial traces onto the subsets, q_k = 1/p, both
    reference operators are (unnormalized) identities, and C = 0. Valid
    whenever every site belongs to at least p of the subsets.
    """
    dims = [int(d) for d in dims]
    m = len(dims)
    if p < 1:
        raise CoverViolation(f"cover multiplicity must be >= 1, got {p}")
    counts = [0] * m
    for sub in subsets:
        for s in sub:
            counts[s] += 1
    short = [s for s in range(m) if counts[s] < p]
    if short:
        raise CoverViolation(f"sites {short} belong to fewer than p={p} subsets")
    chans = [partial_trace(dims, sorted(sub)) for sub in subsets]
    sigma = identity(int(np.prod(dims)))
    sigmas = [identity(ch.dim_out) for ch in chans]
    return BLDatum([1.0 / p] * len(subsets), chans, sigma, sigmas, 0.0)


@dataclass
class ConditionalShearerReport:
    gap: float  # (1/p) sum_k H(A_Sk|B) - H(A_[m]|B), in nats
    conditional_total: float
    conditional_terms: list[float]
    holds: bool


def _conditional_shearer_gap(
    rho, dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int
) -> ConditionalShearerReport:
    dims = [int(d) for d in dims]
    m = len(dims) - 1  # sites 0..m-1, conditioning system is index m
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    mat = rho.matrix
    hb = entropy.von_neumann(DensityOperator(ptrace(mat, dims, [m])))

    def cond_entropy(sites: list[int]) -> float:
        keep = sorted(sites) + [m]
        sub_rho = DensityOperator(ptrace(mat, dims, keep))
        return entropy.von_neumann(sub_rho) - hb

    total = cond_entropy(list(range(m)))
    terms = [cond_entropy(list(sub)) for sub in subsets]
    gap = sum(terms) / p - total
    return ConditionalShearerReport(
        gap=float(gap),
        conditional_total=float(total),
        conditional_terms=[float(t) for t in terms],
        holds=bool(gap >= -1e-9),
    )


def _cover_counts(m: int, subsets: Sequence[Sequence[int]]) -> list[int]:
    counts = [0] * m
    for sub in subsets:
        for s in sub:
            counts[s] += 1
    return counts


def conditional_shearer_check(
    rho, dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int
) -> ConditionalShearerReport:
    """Check the side-information variant on one state.

    The last subsystem is the conditioning system B. Requires an exact
    cover: every site in exactly p subsets. An at-least cover is not
    enough here (see conditional_shearer_probe for a demonstration).
    """
    counts = _cover_counts(len(dims) - 1, subsets)
    wrong = [s for s, c in enumerate(counts) if c != p]
    if wrong:
        raise CoverViolation(f"sites {wrong} are not covered exactly p={p} times")
    return _conditional_shearer_gap(rho, dims, subsets, p)


def conditional_shearer_probe(
    rho, dims: Sequence[int], subsets: Sequence[Sequence[int]], p: int
) -> ConditionalShearerReport:
    """Evaluate the conditional inequality without the exact-cover guard.

    Only the at-least cover of the unconditional statement is enforced;
    this is the probe that shows why the conditional version needs the
    stronger hypothesis (maximally entangled site-B pairs break it)."""
    counts = _cover_counts(len(dims) - 1, subsets)
    short = [s for s, c in enumerate(counts) if c < p]
    if short:
        raise CoverViolation(f"sites {short} belong to fewer than p={p} subsets")
    return _conditional_shearer_gap(rho, dims, subsets, p)


# ---------------------------------------------------------------------------
# Entropic uncertainty relations
# ---------------------------------------------------------------------------

def maassen_uffink_constant(basis_x: Sequence[np.ndarray], basis_z: Sequence[np.ndarray]) -> float:
    """Largest squared overlap c = max |<x|z>|^2 between two bases."""
    vx = [np.asarray(v, dtype=complex).reshape(-1) for v in basis_x]
    vz = [np.asarray(v, dtype=complex).reshape(-1) for v in basis_z]
    d = vx[0].size
    for fam in (vx, vz):
        gram = np.array([[np.vdot(u, v) for v in fam] for u in fam])
        if len(fam) != d or np.max(np.abs(gram - np.eye(d))) > 1e-10:
            raise NotOrthonormal("basis is not a complete orthonormal family")
    return float(max(abs(np.vdot(x, z)) ** 2 for x in vx for z in vz))


def measurement_entropies_bits(rho, bases: Sequence[Sequence[np.ndarray]]) -> list[float]:
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    out = []
    for basis in bases:
        probs = np.array([float(np.vdot(v, mat @ v).real) for v in basis])
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        pos = probs[probs > 0]
        out.append(float(-np.sum(pos * np.log2(pos))))
    return out


def uncertainty_datum(bases: Sequence[Sequence[np.ndarray]]) -> BLDatum:
    """BL datum whose optimal constant is minus the uncertainty bound:
    channels are the basis measurements, q = 1, reference operators are
    identities."""
    chans = [measurement_channel(b) for b in bases]
    d = chans[0].dim_in
    return BLDatum([1.0] * len(chans), chans, identity(d), [identity(d)] * len(chans), 0.0)


def uncertainty_bound_entropic(
    bases: Sequence[Sequence[np.ndarray]], budget: OptimizerBudget = OptimizerBudget()
) -> float:
    """inf_rho [sum_k H(X_k) - H(A)] in nats, estimated from the entropic
    side (= minus the optimal BL constant of the measurement datum)."""
    c_est, _, _ = optimal_constant_entropic(uncertainty_datum(bases), budget)
    return -c_est


def uncertainty_bound_analytic(
    bases: Sequence[Sequence[np.ndarray]], budget: OptimizerBudget = OptimizerBudget()
) -> float:
    """-log sup tr exp(sum_k M_k^dag log omega_k), the dual estimate of the
    same uncertainty bound, in nats."""
    c_est, _, _ = optimal_constant_analytic(uncertainty_datum(bases), budget)
    return -c_est


@dataclass
class MuAnalyticReport:
    lhs: float  # tr exp(M_X^dag log w1 + M_Z^dag log w2)
    jensen_mid: float  # after operator Jensen: tr exp(log M_X(w1) + log M_Z(w2))
    gt_bound: float  # after Golden-Thompson: tr M_X(w1) M_Z(w2)
    c: float  # max squared overlap
    gap: float  # c - lhs
    chain_holds: bool


def mu_analytic_check(
    basis_x, basis_z, omega1, omega2, policy: NumericPolicy = DEFAULT_POLICY
) -> MuAnalyticReport:
    """Evaluate the two-measurement trace-exponential bound and its proof
    chain (operator Jensen, then Golden-Thompson, then the overlap bound),
    verifying each intermediate step."""
    c = maassen_uffink_constant(basis_x, basis_z)
    mx = measurement_channel(basis_x)
    mz = measurement_channel(basis_z)
    w1 = omega1 if isinstance(omega1, PSDOperator) else PSDOperator(omega1, policy)
    w2 = omega2 if isinstance(omega2, PSDOperator) else PSDOperator(omega2, policy)
    lw1, lw2 = matrix_log(w1, policy), matrix_log(w2, policy)
    lhs = trace_exp_sum(
        [apply_adjoint(mx, lw1.finite), apply_adjoint(mz, lw2.finite)], policy
    )
    px = PSDOperator(apply_adjoint(mx, w1.matrix), policy)
    pz = PSDOperator(apply_adjoint(mz, w2.matrix), policy)
    jensen_mid = trace_exp_sum([matrix_log(px, policy), matrix_log(pz, policy)], policy)
    gt_bound = float(np.trace(px.matrix @ pz.matrix).real)
    slack = policy.psd_slack
    chain = (lhs <= jensen_mid + slack) and (jensen_mid <= gt_bound + slack) and (
        gt_bound <= c + slack
    )
    return MuAnalyticReport(
        lhs=float(lhs),
        jensen_mid=float(jensen_mid),
        gt_bound=gt_bound,
        c=c,
        gap=float(c - lhs),
        chain_holds=bool(chain),
    )


@dataclass
class SixStateReport:
    entropy_sum_bits: float | None = None
    h_a_bits: float | None = None
    entropic_gap_bits: float | None = None  # H(X)+H(Y)+H(Z) - 2 - H(A)
    weaker_bound_gap_bits: float | None = None  # vs 3/2 + (3/2) H(A)
    analytic_lhs: float | None = None
    analytic_gap: float | None = None  # 1/4 - lhs
    jensen_mid: float | None = None
    triple_integral: float | None = None
    chain_holds: bool | None = None


def six_state_bases() -> list[list[np.ndarray]]:
    return [pauli_basis("x"), pauli_basis("y"), pauli_basis("z")]


def six_state_check(
    rho=None, omegas=None, policy: NumericPolicy = DEFAULT_POLICY
) -> SixStateReport:
    """Three-Pauli uncertainty relation, entropic and/or analytic form.

    The entropic side checks H(X) + H(Y) + H(Z) >= 2 + H(A) in bits and
    also reports the weaker two-measurement consequence 3/2 + (3/2) H(A).
    The analytic side checks tr exp(sum M^dag log omega) <= 1/4 and walks
    the triple-matrix-integral proof chain.
    """
    bases = six_state_bases()
    report = SixStateReport()
    if rho is not None:
        rho_d = rho if isinstance(rho, DensityOperator) else DensityOperator(rho, policy)
        if rho_d.dim != 2:
            raise DimensionMismatch("six-state relation is a qubit statement")
        hx, hy, hz = measurement_entropies_bits(rho_d, bases)
        ha = entropy.von_neumann(rho_d, policy) / LN2
        report.entropy_sum_bits = hx + hy + hz
        report.h_a_bits = ha
        report.entropic_gap_bits = hx + hy + hz - 2.0 - ha
        report.weaker_bound_gap_bits = hx + hy + hz - 1.5 - 1.5 * ha
    if omegas is not None:
        chans = [measurement_channel(b) for b in bases]
        ws = [w if isinstance(w, PSDOperator) else PSDOperator(w, policy) for w in omegas]
        logs = [matrix_log(w, policy) for w in ws]
        lhs = trace_exp_sum(
            [apply_adjoint(ch, lw.finite) for ch, lw in zip(chans, logs)], policy
        )
        pinched = [
            PSDOperator(apply_adjoint(ch, w.matrix), policy) for ch, w in zip(chans, ws)
        ]
        jensen_mid = trace_exp_sum([matrix_log(pw, policy) for pw in pinched], policy)
        triple = lieb_triple_integral(pinched[0], pinched[1], pinched[2], policy)
        slack = policy.psd_slack
        report.analytic_lhs = float(lhs)
        report.analytic_gap = float(0.25 - lhs)
        report.jensen_mid = float(jensen_mid)
        report.triple_integral = float(triple)
        report.chain_holds = bool(
            lhs <= jensen_mid + slack
            and jensen_mid <= triple + slack
            and triple <= 0.25 + slack
        )
    return report


# ---------------------------------------------------------------------------
# Minimum output entropy
# ---------------------------------------------------------------------------

@dataclass
class MinOutputReport:
    h_min: float  # best (smallest) estimate, nats
    direct: float  # min_psi H(E(|psi><psi|))
    dual: float  # -max_omega lambda_max(E^dag log omega)
    witness_state: np.ndarray
    witness_omega: np.ndarray


_DUAL_FLOOR = 1e-13


def _neg_output_entropy(ch: Channel, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-H(E(rho)) at the pure states rho = vv^dag / |v|^2 (vs stacked as
    d x 1 columns) and its gradient in v: the gradient in rho is
    E^dag(log E(rho))."""
    rhos, norms = _gram_states(vs)
    vals, log_out = _eigh_log(apply(ch, rhos))
    return xlogx_sum(vals), _pullback(apply_adjoint(ch, log_out), rhos, vs, norms)


def _minout_direct(ch: Channel, vec0s: np.ndarray, budget: OptimizerBudget):
    """Minimize the output entropy over pure inputs by gradient ascent of
    its negative; vec0s holds stacked complex start vectors."""
    fvals, vs, _ = _ascent(
        partial(_neg_output_entropy, ch), vec0s[..., None], budget.max_iters, budget.tol
    )
    i = int(np.argmax(fvals))
    v = vs[i, :, 0] / np.linalg.norm(vs[i])
    return float(-fvals[i]), v


def _minout_dual_iterate(ch: Channel, omega0: np.ndarray, max_iters: int, tol: float):
    """Alternating maximization of lambda_max(E^dag log omega): the top
    eigenvector feeds the channel, whose output is the next omega."""
    d_out = ch.dim_out
    omega = omega0
    best = -np.inf
    best_omega = omega0
    lam_prev = -np.inf
    for _ in range(max_iters):
        wv, wu = np.linalg.eigh(omega)
        logw = (wu * np.log(np.clip(wv, _DUAL_FLOOR, None))) @ wu.conj().T
        m = apply_adjoint(ch, logw)
        mv, mu = np.linalg.eigh(0.5 * (m + m.conj().T))
        lam = float(mv[-1])
        if lam > best:
            best, best_omega = lam, omega
        top = mu[:, -1]
        out = apply(ch, np.outer(top, top.conj()))
        omega = (1.0 - _DUAL_FLOOR) * out / np.trace(out).real + _DUAL_FLOOR * np.eye(d_out) / d_out
        if abs(lam - lam_prev) < tol:
            break
        lam_prev = lam
    return best, best_omega


def min_output_entropy(
    ch: Channel, budget: OptimizerBudget = OptimizerBudget(restarts=8)
) -> MinOutputReport:
    """Minimum output entropy, estimated two independent ways.

    (a) direct minimization of the output entropy over pure inputs;
    (b) the largest-eigenvalue variational form, maximized over
    full-support omega by alternating the eigenvector and Gibbs updates.
    When the multi-start estimates disagree, each method is refined from
    the other's witness; Diverged is raised only if they still differ
    beyond 1e-5.
    """
    d_in, d_out = ch.dim_in, ch.dim_out
    seeds = budget.seeds()
    starts = np.stack(
        [complex_gaussian(np.random.default_rng(s), d_in) for s in seeds]
    )
    direct, vbest = _minout_direct(ch, starts, budget)

    best_dual = -np.inf
    best_omega = np.eye(d_out) / d_out
    for s in seeds:
        rng = np.random.default_rng(s + 77)
        lam, om = _minout_dual_iterate(ch, random_density(d_out, rng), budget.max_iters, budget.tol)
        if lam > best_dual:
            best_dual, best_omega = lam, om
    dual = float(-best_dual)

    if abs(direct - dual) > 1e-6:
        # cross-seed: each route refines from the other's witness
        lam, om = _minout_dual_iterate(
            ch, apply(ch, np.outer(vbest, vbest.conj())), budget.max_iters, budget.tol
        )
        if lam > best_dual:
            best_dual, best_omega = lam, om
            dual = float(-best_dual)
        wv, wu = np.linalg.eigh(best_omega)
        logw = (wu * np.log(np.clip(wv, _DUAL_FLOOR, None))) @ wu.conj().T
        m = apply_adjoint(ch, logw)
        top = np.linalg.eigh(0.5 * (m + m.conj().T))[1][:, -1]
        d2, v2 = _minout_direct(ch, top[None, :], budget)
        if d2 < direct:
            direct, vbest = d2, v2
    psi = np.outer(vbest, vbest.conj())
    if abs(direct - dual) > 1e-5:
        raise Diverged(f"minimum output entropy estimates disagree: {direct} vs {dual}")
    return MinOutputReport(
        h_min=min(direct, dual),
        direct=direct,
        dual=dual,
        witness_state=psi,
        witness_omega=best_omega,
    )


def min_output_dual_gap(ch: Channel, omega1, omega2, h_min: float) -> float:
    """exp(-H_min) - tr exp(log omega1 + E^dag(log omega2)); non-negative
    for every pair of states when h_min is a valid lower output entropy."""
    w1 = omega1 if isinstance(omega1, PSDOperator) else PSDOperator(omega1)
    w2 = omega2 if isinstance(omega2, PSDOperator) else PSDOperator(omega2)
    lw2 = matrix_log(w2)
    lhs = trace_exp_sum([matrix_log(w1), apply_adjoint(ch, lw2.finite)])
    return float(np.exp(-h_min) - lhs)


# ---------------------------------------------------------------------------
# Data processing and strong data processing
# ---------------------------------------------------------------------------

@dataclass
class DpiAnalyticReport:
    lhs: float  # tr exp(log sigma + E^dag log omega)
    rhs_dual: float  # tr exp(log omega + log E(sigma))
    rhs_weak: float  # tr omega E(sigma), the Jensen/Golden-Thompson bound
    jensen_mid: float  # tr exp(log sigma + log E^dag(omega))
    gap: float  # rhs_dual - lhs
    strictly_stronger: bool  # rhs_dual < rhs_weak


def dpi_analytic_check(
    sigma, ch: Channel, omega, policy: NumericPolicy = DEFAULT_POLICY
) -> DpiAnalyticReport:
    """Dual analytic form of data processing at one (sigma, omega) pair,
    together with the weaker operator-Jensen/Golden-Thompson chain."""
    sig = sigma if isinstance(sigma, PSDOperator) else PSDOperator(sigma, policy)
    w = omega if isinstance(omega, PSDOperator) else PSDOperator(omega, policy)
    if sig.dim != ch.dim_in or w.dim != ch.dim_out:
        raise DimensionMismatch("sigma/omega dims do not match the channel")
    lw = matrix_log(w, policy)
    ls = matrix_log(sig, policy)
    lhs = trace_exp_sum([ls, apply_adjoint(ch, lw.finite)], policy)
    esig = PSDOperator(apply(ch, sig.matrix), policy)
    rhs_dual = trace_exp_sum([lw, matrix_log(esig, policy)], policy)
    adj_w = PSDOperator(apply_adjoint(ch, w.matrix), policy)
    jensen_mid = trace_exp_sum([ls, matrix_log(adj_w, policy)], policy)
    rhs_weak = float(np.trace(w.matrix @ esig.matrix).real)
    return DpiAnalyticReport(
        lhs=float(lhs),
        rhs_dual=float(rhs_dual),
        rhs_weak=rhs_weak,
        jensen_mid=float(jensen_mid),
        gap=float(rhs_dual - lhs),
        strictly_stronger=bool(rhs_dual < rhs_weak - 1e-12),
    )


def _traceless_hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            basis.append(m)
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -k
        basis.append(np.diag(diag).astype(complex) / np.sqrt(k * (k + 1)))
    return basis


def _km_form(sigma: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    """Gram matrix of the local curvature of D(sigma + x || sigma)."""
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.clip(vals, 1e-300, None)
    li, lj = vals[:, None], vals[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(
            np.abs(li - lj) > 1e-12 * np.maximum(li, lj),
            (np.log(li) - np.log(lj)) / (li - lj),
            1.0 / np.maximum(li, lj),
        )
    tilted = [vecs.conj().T @ x @ vecs for x in xs]
    n = len(xs)
    gram = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            val = float(np.sum(kernel * (tilted[a].conj() * tilted[b]).real))
            gram[a, b] = gram[b, a] = val
    return gram


# below this D(rho||sigma) cancellation error (about 4e-16 / D) dominates
# the ratio and exact-gradient ascent climbs the noise; the rho -> sigma
# limit is covered exactly by the perturbative probe
_RATIO_MIN_DIVERGENCE = 1e-6


def _divergence_ratio(
    ch: Channel, log_sigma: np.ndarray, log_esig: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """D(E rho||E sigma) / D(rho||sigma) at rho = XX^dag / tr XX^dag and its
    gradient in X, by the quotient rule on the two relative-entropy
    gradients; -inf (gradient 0) where D(rho||sigma) is too small to
    resolve the ratio."""
    rhos, t = _gram_states(xs)
    d_in, g_in = _relative_entropy_grad(rhos, log_sigma)
    d_out, g_out = _relative_entropy_grad(apply(ch, rhos), log_esig)
    ok = d_in > _RATIO_MIN_DIVERGENCE
    d_in = np.where(ok, d_in, 1.0)
    r = d_out / d_in
    g = (apply_adjoint(ch, g_out) - r[:, None, None] * g_in) / d_in[:, None, None]
    grad = _pullback(g, rhos, xs, t)
    return np.where(ok, r, -np.inf), np.where(ok[:, None, None], grad, 0.0)


def contraction_coefficient(
    ch: Channel, sigma, budget: OptimizerBudget = OptimizerBudget(restarts=8)
) -> float:
    """Best multiplicative data-processing constant at a reference state.

    Combines a perturbative probe (the exact ratio of local curvatures of
    the relative entropy, maximized by a generalized eigenproblem; this is
    the rho -> sigma limit) with multi-start ascent of the finite ratio.
    """
    sig = sigma if isinstance(sigma, DensityOperator) else DensityOperator(sigma)
    if sig.support_rank < sig.dim:
        raise SingularMarginal("contraction coefficient needs a full-support reference")
    d = sig.dim
    basis = _traceless_hermitian_basis(d)
    esig = apply(ch, sig.matrix)
    m_in = _km_form(sig.matrix, basis)
    m_out = _km_form(esig, [apply(ch, b) for b in basis])
    eta_pert = float(generalized_eigh(m_out, m_in, eigvals_only=True)[-1])

    ratio = partial(
        _divergence_ratio, ch, matrix_log(sig).finite, matrix_log(PSDOperator(esig)).finite
    )
    seeds = budget.seeds()
    rhos0 = np.stack(
        [
            random_density(d, np.random.default_rng(s), ("hs", "pure")[i % 2])
            for i, s in enumerate(seeds)
        ]
    )
    fvals, _, _ = _ascent(ratio, _sqrt_psd(rhos0), budget.max_iters, budget.tol)
    finite = fvals[np.isfinite(fvals)]
    eta_ascent = float(np.max(finite)) if finite.size else 0.0
    eta = max(eta_pert, eta_ascent, 0.0)
    if eta > 1.0 + 1e-9:
        raise Diverged(f"contraction estimate {eta} violates data processing")
    return eta


def sdpi_analytic_check(
    ch: Channel, sigma, eta: float, omega, policy: NumericPolicy = DEFAULT_POLICY
) -> float:
    """Gap of the strong-data-processing analytic inequality at omega:
    ||exp(log omega + (1/eta) log E(sigma))||_eta - tr exp(log sigma + E^dag log omega)."""
    if not 0.0 < eta <= 1.0:
        raise InvalidEta(f"eta must be in (0, 1], got {eta}")
    sig = sigma if isinstance(sigma, PSDOperator) else PSDOperator(sigma, policy)
    w = omega if isinstance(omega, PSDOperator) else PSDOperator(omega, policy)
    lw = matrix_log(w, policy)
    lhs = trace_exp_sum([matrix_log(sig, policy), apply_adjoint(ch, lw.finite)], policy)
    esig = PSDOperator(apply(ch, sig.matrix), policy)
    log_rhs = log_trace_exp_sum([lw.scaled(eta), matrix_log(esig, policy)], policy) / eta
    return float(np.exp(log_rhs) - lhs)


def depolarizing_sdpi_scalar_gap(t: np.ndarray, p: float, eta: float) -> np.ndarray:
    """Scalar reduction of the unital-qubit strong-DPI inequality for the
    depolarizing channel at the maximally mixed reference:
    2^((eta-1)/eta) (t^eta + (1-t)^eta)^(1/eta) - (t(1-t))^(p/2) (t^(1-p) + (1-t)^(1-p))."""
    if not 0.0 < eta <= 1.0:
        raise InvalidEta(f"eta must be in (0, 1], got {eta}")
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    with np.errstate(invalid="ignore"):
        lhs = np.where(
            (t > 0) & (s > 0), (t * s) ** (p / 2.0) * (t ** (1.0 - p) + s ** (1.0 - p)), 0.0
        )
    rhs = 2.0 ** ((eta - 1.0) / eta) * (t**eta + s**eta) ** (1.0 / eta)
    return rhs - lhs


def depolarizing_sdpi_scan(p: float, eta: float, step: float = 1e-3) -> tuple[float, float]:
    """Minimum scalar-reduction gap over the t-grid and its location."""
    grid = np.arange(0.0, 1.0 + step / 2, step)
    gaps = depolarizing_sdpi_scalar_gap(grid, p, eta)
    i = int(np.argmin(gaps))
    return float(gaps[i]), float(grid[i])


# ---------------------------------------------------------------------------
# Super-additivity of relative entropy
# ---------------------------------------------------------------------------

def superadditivity_constant(sigma_ab, dims: tuple[int, int]) -> float:
    """alpha = beta = (1 + 2 || s^-1/2 sigma_AB s^-1/2 - 1 ||_inf)^-1 with
    s = sigma_A (x) sigma_B; equals 1 exactly for product references."""
    da, db = dims
    sig = sigma_ab if isinstance(sigma_ab, DensityOperator) else DensityOperator(sigma_ab)
    if sig.dim != da * db:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {sig.dim}")
    sa = PSDOperator(ptrace(sig.matrix, [da, db], [0]))
    sb = PSDOperator(ptrace(sig.matrix, [da, db], [1]))
    if sa.support_rank < da or sb.support_rank < db:
        raise SingularMarginal("reference marginals must have full support")

    def inv_sqrt(s: PSDOperator) -> np.ndarray:
        vals, vecs = s.eigenvalues, s.eigenvectors
        return (vecs / np.sqrt(vals)) @ vecs.conj().T

    w = np.kron(inv_sqrt(sa), inv_sqrt(sb))
    x = w @ sig.matrix @ w
    dev = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T) - np.eye(da * db)))))
    return 1.0 / (1.0 + 2.0 * dev)


def superadditivity_datum(sigma_ab, dims: tuple[int, int]) -> BLDatum:
    """BL datum whose entropic/analytic gaps are the two super-additivity
    inequalities with the computed constant alpha = beta."""
    da, db = dims
    sig = sigma_ab if isinstance(sigma_ab, DensityOperator) else DensityOperator(sigma_ab)
    alpha = superadditivity_constant(sig, dims)
    tr_b = partial_trace([da, db], [0])
    tr_a = partial_trace([da, db], [1])
    sa = PSDOperator(ptrace(sig.matrix, [da, db], [0]))
    sb = PSDOperator(ptrace(sig.matrix, [da, db], [1]))
    return BLDatum([alpha, alpha], [tr_b, tr_a], sig, [sa, sb], 0.0)


@dataclass
class SuperadditivityReport:
    alpha: float
    worst_entropic_gap: float
    worst_analytic_gap: float
    samples: int
    holds: bool


def superadditivity_check(
    sigma_ab, dims: tuple[int, int], samples: int = 200, seed: int = 0
) -> SuperadditivityReport:
    """Sample both forms of the super-additivity inequality at the
    computed constant."""
    from .engine import analytic_gap, entropic_gap

    datum = superadditivity_datum(sigma_ab, dims)
    da, db = dims
    rng = np.random.default_rng(seed)
    worst_e = np.inf
    worst_a = np.inf
    for _ in range(samples):
        rho = random_density(da * db, rng)
        worst_e = min(worst_e, entropic_gap(datum, rho))
        oms = [random_density(da, rng), random_density(db, rng)]
        worst_a = min(worst_a, analytic_gap(datum, oms))
    return SuperadditivityReport(
        alpha=float(datum.q[0]),
        worst_entropic_gap=float(worst_e),
        worst_analytic_gap=float(worst_a),
        samples=samples,
        holds=bool(worst_e >= -1e-9 and worst_a >= -1e-9),
    )
