"""Entropic quantities and the variational formulas behind the duality.

All values are in nats. +infinity is an ordinary float('inf') propagating
through arithmetic; support containment is decided by projector leakage,
so near-singular second arguments behave exactly like their limits.
"""

from __future__ import annotations

import numpy as np

from . import channels
from .errors import DimensionMismatch, ZeroTrace
from .operators import (
    DensityOperator,
    HermitianOperator,
    PSDOperator,
    SupportLog,
    hermitian_part,
    log_trace_exp_sum,
    matrix_log,
    sum_on_joint_support,
    xlogx_sum,
)
from .policy import DEFAULT_POLICY, NumericPolicy

INF = float("inf")


def _as_psd(x, policy: NumericPolicy) -> PSDOperator:
    if isinstance(x, PSDOperator):
        return x
    return PSDOperator(x, policy)


def _as_density(x, policy: NumericPolicy) -> DensityOperator:
    if isinstance(x, DensityOperator):
        return x
    return DensityOperator(x, policy)


def von_neumann(rho, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """H(rho) = -tr rho log rho, with 0 log 0 = 0."""
    rho = _as_density(rho, policy)
    return -float(xlogx_sum(rho.eigenvalues))


def supports_contained(
    omega: PSDOperator, tau: PSDOperator, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """Whether supp(omega) <= supp(tau), via projector leakage norm."""
    if omega.dim != tau.dim:
        raise DimensionMismatch("support comparison needs equal dimensions")
    v_out = tau.eigenvectors[:, tau.eigenvalues <= tau.eps_supp]
    if v_out.shape[1] == 0:
        return True
    leak = v_out.conj().T @ omega.support_basis()
    if leak.size == 0:
        return True
    return float(np.linalg.norm(leak, 2)) <= policy.support_leak_tol


def relative_entropy(omega, tau, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """D(omega || tau) = tr omega (log omega - log tau); +inf without
    support containment."""
    omega = _as_density(omega, policy)
    tau = _as_psd(tau, policy)
    if not supports_contained(omega, tau, policy):
        return INF
    ltau = matrix_log(tau, policy).finite
    return float(xlogx_sum(omega.eigenvalues)) - float(
        np.trace(omega.matrix @ ltau).real
    )


def conditional_entropy(
    rho_ab, dims: tuple[int, int], policy: NumericPolicy = DEFAULT_POLICY
) -> float:
    """H(A|B) = H(AB) - H(B) for a bipartite state with dims (dA, dB)."""
    rho_ab = _as_density(rho_ab, policy)
    da, db = dims
    if da * db != rho_ab.dim:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {rho_ab.dim}")
    rho_b = channels.ptrace(rho_ab.matrix, [da, db], keep=[1])
    return von_neumann(rho_ab, policy) - von_neumann(DensityOperator(rho_b, policy), policy)


def variational_lower(
    rho, sigma, omega, policy: NumericPolicy = DEFAULT_POLICY
) -> float:
    """tr rho log omega - log tr exp(log omega + log sigma).

    A lower bound on D(rho || sigma) for every PSD omega; equality at
    omega = exp(log rho - log sigma) (normalized). Returns -inf when rho
    puts weight outside the support of omega.
    """
    rho = _as_density(rho, policy)
    sigma = _as_psd(sigma, policy)
    omega = _as_psd(omega, policy)
    if not supports_contained(rho, omega, policy):
        return -INF
    lw = matrix_log(omega, policy)
    first = float(np.trace(rho.matrix @ lw.finite).real)
    return first - log_trace_exp_sum([lw, matrix_log(sigma, policy)], policy)


def variational_optimizer_state(
    h, sigma, policy: NumericPolicy = DEFAULT_POLICY
) -> DensityOperator:
    """The Gibbs-like maximizer exp(H + log sigma) / tr exp(H + log sigma)."""
    sigma = _as_psd(sigma, policy)
    term = h if isinstance(h, (SupportLog, HermitianOperator)) else HermitianOperator(h, policy)
    vals, vecs = sum_on_joint_support([term, matrix_log(sigma, policy)], policy)
    if vals.size == 0:
        raise ZeroTrace("joint support of H and sigma is empty")
    w = np.exp(vals - vals.max())
    w /= w.sum()
    return DensityOperator(hermitian_part((vecs * w) @ vecs.conj().T), policy)


def legendre_trace_exp(h, sigma, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """log tr exp(H + log sigma) = sup_omega { tr H omega - D(omega||sigma) }."""
    sigma = _as_psd(sigma, policy)
    term = h if isinstance(h, (SupportLog, HermitianOperator)) else HermitianOperator(h, policy)
    return log_trace_exp_sum([term, matrix_log(sigma, policy)], policy)
