"""Reference gap evaluators written independently of qbl's stacked core.

Plain per-matrix loops: each matrix is eigendecomposed on its own, supports
are explicit projectors, channels are Kraus sums, a joint support is cut
down one kernel weight at a time by singular value decompositions, and a
trace-exponential is a log-sum-exp (scipy) over the eigenvalues of a sum
compressed to its joint support. Only the thresholds
come from qbl.policy, since they define where a support ends.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from qbl.policy import SUPP_RTOL, SUPPORT_LEAK_TOL

INF = float("inf")


def split(a):
    """(eigenvalues on the support, support basis, kernel basis) of a PSD
    matrix: the support keeps the eigenvalues above SUPP_RTOL max(1,
    lambda_max)."""
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    keep = vals > SUPP_RTOL * max(1.0, vals[-1])
    return vals[keep], vecs[:, keep], vecs[:, ~keep]


def apply(kraus, signs, x):
    out = 0
    for s, k in zip(signs, kraus):
        out = out + s * (k @ x @ k.conj().T)
    return out


def apply_adjoint(kraus, signs, y):
    out = 0
    for s, k in zip(signs, kraus):
        out = out + s * (k.conj().T @ y @ k)
    return out


def log_on_support(a):
    """The finite part of log a on its support and the projector on its
    kernel (None for none), the directions that the logarithm sends to
    -inf."""
    vals, on, off = split(a)
    return (on * np.log(vals)) @ on.conj().T, (off @ off.conj().T if off.shape[1] else None)


def relative_entropy(rho, sigma):
    """D(rho || sigma) of a state (normalized here), +inf when the support
    of rho leaks out of supp sigma by more than SUPPORT_LEAK_TOL in operator
    norm."""
    rho = rho / np.trace(rho).real
    vals, on, _ = split(rho)
    _, _, ker = split(sigma)
    if ker.shape[1] and on.shape[1] and np.linalg.norm(ker.conj().T @ on, 2) > SUPPORT_LEAK_TOL:
        return INF
    log_sigma, _ = log_on_support(sigma)
    return float(np.sum(vals * np.log(vals)) - np.trace(rho @ log_sigma).real)


def log_trace_exp(terms):
    """log tr exp(sum of finite parts) on the joint support: the common
    null space of the kernel weights (PSD matrices, None for none), each
    weight's singular values at or below SUPPORT_LEAK_TOL max(1, its norm)
    counting as null; -inf when the joint support is empty."""
    basis = np.eye(terms[0][0].shape[0])
    for _, w in terms:
        if w is None or not basis.shape[1]:
            continue
        cut = SUPPORT_LEAK_TOL * max(1.0, np.linalg.norm(w, 2))
        _, sv, vh = np.linalg.svd(basis.conj().T @ w @ basis)
        basis = basis @ vh[sv <= cut].conj().T
    if not basis.shape[1]:
        return -INF
    total = sum(f for f, _ in terms)
    return float(logsumexp(np.linalg.eigvalsh(basis.conj().T @ total @ basis)))


def entropic_gap(q, channels, sigma, sigmas, c, rho):
    """D(rho||sigma) + C - sum_k q_k D(E_k(rho)||sigma_k): +inf where
    D(rho||sigma) is, else -inf where some D(E_k(rho)||sigma_k) is.
    channels are (Kraus operators, signs) pairs."""
    d_ref = relative_entropy(rho, sigma)
    if d_ref == INF:
        return INF
    total = d_ref + c
    for qk, (kraus, signs), sk in zip(q, channels, sigmas):
        dk = relative_entropy(apply(kraus, signs, rho / np.trace(rho).real), sk)
        if dk == INF:
            return -INF
        total -= qk * dk
    return float(total)


def analytic_gap(q, channels, sigma, sigmas, c, omegas):
    """log(RHS) - log(LHS) at a tuple of PSD omega_k, with LHS = tr exp(log
    sigma + sum_k E_k^dag(log omega_k)) and RHS = exp(C) prod_k (tr exp(log
    omega_k / q_k + log sigma_k))^(q_k), each trace-exponential on its
    joint support (sigma_k = 0 gives RHS = 0); 0 when both sides vanish."""
    lhs_terms = [log_on_support(sigma)]
    log_rhs = c
    for qk, (kraus, signs), sk, om in zip(q, channels, sigmas, omegas):
        finite, ker = log_on_support(om)
        flag = None if ker is None else apply_adjoint(kraus, signs, ker)
        lhs_terms.append((apply_adjoint(kraus, signs, finite), flag))
        if not split(sk)[0].size:
            log_rhs = -INF
            continue
        log_rhs += qk * log_trace_exp([(finite / qk, ker), log_on_support(sk)])
    log_lhs = log_trace_exp(lhs_terms)
    if log_lhs == -INF:
        return 0.0 if log_rhs == -INF else INF
    return float(log_rhs - log_lhs)
