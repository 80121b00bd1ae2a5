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
    density_stack,
    from_spectrum,
    log_trace_exp_sum,
    matrix_log,
    sum_on_joint_support,
    xlogx_sum,
)
from .policy import SUPPORT_LEAK_TOL

INF = float("inf")


def _as_psd(x) -> PSDOperator:
    if isinstance(x, PSDOperator):
        return x
    return PSDOperator(x)


def _as_density(x) -> DensityOperator:
    if isinstance(x, DensityOperator):
        return x
    return DensityOperator(x)


def von_neumann(rho):
    """H(rho) = -tr rho log rho, with 0 log 0 = 0: a float for one state, an
    array for a stack (n, d, d) of states, each normalized and certified as
    DensityOperator certifies one (density_stack)."""
    if np.ndim(rho) == 3:
        return -xlogx_sum(density_stack(rho)[1])
    return -float(xlogx_sum(_as_density(rho).eigenvalues))


def supports_contained(omega: PSDOperator, tau: PSDOperator) -> bool:
    """Whether supp(omega) <= supp(tau), via projector leakage norm."""
    if omega.dim != tau.dim:
        raise DimensionMismatch("support comparison needs equal dimensions")
    v_out = tau.eigenvectors[:, tau.eigenvalues <= tau.eps_supp]
    if v_out.shape[1] == 0:
        return True
    leak = v_out.conj().T @ omega.support_basis()
    if leak.size == 0:
        return True
    return float(np.linalg.norm(leak, 2)) <= SUPPORT_LEAK_TOL


def relative_entropy(omega, tau) -> float:
    """D(omega || tau) = tr omega (log omega - log tau); +inf without
    support containment."""
    omega = _as_density(omega)
    tau = _as_psd(tau)
    if not supports_contained(omega, tau):
        return INF
    ltau = matrix_log(tau).finite
    return float(xlogx_sum(omega.eigenvalues)) - float(
        np.trace(omega.matrix @ ltau).real
    )


def conditional_entropy(rho_ab, dims: tuple[int, int]) -> float:
    """H(A|B) = H(AB) - H(B) for a bipartite state with dims (dA, dB)."""
    rho_ab = _as_density(rho_ab)
    da, db = dims
    if da * db != rho_ab.dim:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {rho_ab.dim}")
    rho_b = channels.ptrace(rho_ab.matrix, [da, db], keep=[1])
    return von_neumann(rho_ab) - von_neumann(DensityOperator(rho_b))


def variational_lower(rho, sigma, omega) -> float:
    """tr rho log omega - log tr exp(log omega + log sigma).

    A lower bound on D(rho || sigma) for every PSD omega; equality at
    omega = exp(log rho - log sigma) (normalized). Returns -inf when rho
    puts weight outside the support of omega.
    """
    rho = _as_density(rho)
    sigma = _as_psd(sigma)
    omega = _as_psd(omega)
    if not supports_contained(rho, omega):
        return -INF
    lw = matrix_log(omega)
    first = float(np.trace(rho.matrix @ lw.finite).real)
    return first - log_trace_exp_sum([lw, matrix_log(sigma)])


def variational_optimizer_state(h, sigma) -> DensityOperator:
    """The Gibbs-like maximizer exp(H + log sigma) / tr exp(H + log sigma)."""
    sigma = _as_psd(sigma)
    term = h if isinstance(h, (SupportLog, HermitianOperator)) else HermitianOperator(h)
    vals, vecs = sum_on_joint_support([term, matrix_log(sigma)])
    if vals.size == 0:
        raise ZeroTrace("joint support of H and sigma is empty")
    return DensityOperator(from_spectrum(np.exp(vals - vals.max()), vecs))


def legendre_trace_exp(h, sigma) -> float:
    """log tr exp(H + log sigma) = sup_omega { tr H omega - D(omega||sigma) }."""
    sigma = _as_psd(sigma)
    term = h if isinstance(h, (SupportLog, HermitianOperator)) else HermitianOperator(h)
    return log_trace_exp_sum([term, matrix_log(sigma)])
