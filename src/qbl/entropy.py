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
    _certified,
    _normalized,
    density_stack,
    from_spectrum,
    log_trace_exp_sum,
    matrix_log,
    psd_stack,
    sum_on_joint_support,
    trace_prod,
    xlogx_sum,
)
from .policy import SUPPORT_LEAK_TOL, eps_supp

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


def supports_contained(omega, tau: PSDOperator):
    """Whether supp(omega) <= supp(tau): a bool for one PSD operator, an
    array for a stack (n, d, d) of PSD matrices, each certified as
    psd_stack does. The leak of omega out of supp tau is the largest
    singular value of K^dag V, K the kernel basis of tau and V the support
    basis of omega, from one eigvalsh of the Gram matrices; it may reach
    SUPPORT_LEAK_TOL. Nothing leaks out of a tau of full support, and omega
    is then not decomposed."""
    one = isinstance(omega, PSDOperator) or np.ndim(omega) == 2
    dim = omega.dim if isinstance(omega, PSDOperator) else np.shape(omega)[-1]
    if dim != tau.dim:
        raise DimensionMismatch("support comparison needs equal dimensions")
    kernel = tau.eigenvectors[:, tau.eigenvalues <= tau.eps_supp]
    if not kernel.shape[1]:
        return True if one else np.ones(len(omega), dtype=bool)
    if isinstance(omega, PSDOperator):
        vals, vecs = omega.eigenvalues[None], omega.eigenvectors[None]
    else:
        _, vals, vecs = psd_stack(np.asarray(omega, dtype=complex).reshape(-1, dim, dim))
    # the support basis of each omega, its other columns zeroed
    a = kernel.conj().T @ (vecs * (vals > eps_supp(vals[:, -1:]))[:, None, :])
    top = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))[:, -1]
    inside = np.sqrt(np.maximum(top, 0.0)) <= SUPPORT_LEAK_TOL
    return bool(inside[0]) if one else inside


def relative_entropy(omega, tau):
    """D(omega || tau) = tr omega (log omega - log tau); +inf without
    support containment. A float for one state, an array for a stack
    (n, d, d) of states, each normalized and certified as DensityOperator
    certifies one, from its eigenvalues alone: supports_contained takes
    the eigenvectors, and only where tau has a kernel."""
    tau = _as_psd(tau)
    given = np.asarray(getattr(omega, "matrix", omega), dtype=complex)
    if isinstance(omega, DensityOperator):
        mats, vals = given[None], omega.eigenvalues[None]
    else:
        mats, vals, _ = _certified(_normalized(given[None] if given.ndim == 2 else given),
                                   vectors=False)
    inside = supports_contained(omega if isinstance(omega, DensityOperator) else mats, tau)
    out = np.full(len(mats), INF)
    if np.any(inside):  # tau = 0 contains nothing and has no log
        out = np.where(inside, xlogx_sum(vals) - trace_prod(mats, matrix_log(tau).finite), INF)
    return out if given.ndim == 3 else float(out[0])


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
