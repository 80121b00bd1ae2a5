"""Geometric BL inequalities on Gaussian states.

States live on m modes and are represented by a 2m x 2m covariance matrix
(anticommutator convention, vacuum = identity; ordering Q_1..Q_m,
P_1..P_m) plus a mean vector. Generalized marginals restrict the
covariance to a subspace V of the configuration space R^m embedded
block-diagonally on the Q and P sectors, and the heat flow acts as
Sigma -> Sigma + t. Entropies are in nats.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidDatum, InvalidState, NegativeTime

_VALIDITY_SLACK = 1e-9


def symplectic_form(m: int) -> np.ndarray:
    return np.block(
        [[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]]
    )


class GaussianState:
    """Covariance matrix and mean vector of a Gaussian state on m modes."""

    def __init__(self, cov, mean=None):
        cov = np.asarray(cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise InvalidState(f"covariance must be 2m x 2m, got shape {cov.shape}")
        cov = 0.5 * (cov + cov.T)
        m = cov.shape[0] // 2
        mean = np.zeros(2 * m) if mean is None else np.asarray(mean, dtype=float)
        if mean.shape != (2 * m,):
            raise InvalidState(f"mean must have length {2 * m}, got {mean.shape}")
        omega = symplectic_form(m)
        wmin = float(np.linalg.eigvalsh(cov + 1j * omega)[0])
        if wmin < -_VALIDITY_SLACK:
            raise InvalidState(
                f"uncertainty relation violated: min eig(Sigma + i Omega) = {wmin:.3e}"
            )
        cov.setflags(write=False)
        mean.setflags(write=False)
        self.cov = cov
        self.mean = mean
        self.modes = m

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Positive symplectic spectrum (m values, clamped to >= 1)."""
        omega = symplectic_form(self.modes)
        vals = np.abs(np.linalg.eigvals(1j * omega @ self.cov))
        vals = np.sort(vals)  # pairs (nu, nu)
        nus = vals.reshape(self.modes, 2).mean(axis=1)
        return np.clip(nus, 1.0, None)

    def __repr__(self):
        return f"GaussianState(modes={self.modes})"


def vacuum(m: int) -> GaussianState:
    return GaussianState(np.eye(2 * m))


def thermal(m: int, nbar: float) -> GaussianState:
    return GaussianState((2.0 * nbar + 1.0) * np.eye(2 * m))


class Subspace:
    """Subspace of the configuration space R^m, by an orthonormal basis."""

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.ndim != 2:
            raise InvalidDatum(
                f"subspace basis must be a vector or a matrix, got shape {basis.shape}")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-10:
            raise InvalidDatum("subspace basis columns are not orthonormal")
        basis.setflags(write=False)
        self.basis = basis
        self.ambient = basis.shape[0]
        self.dim = basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def __repr__(self):
        return f"Subspace(dim={self.dim} of R^{self.ambient})"


def coordinate_axes(m: int) -> list[Subspace]:
    return [Subspace(np.eye(m)[:, [i]]) for i in range(m)]


def mercedes_star() -> tuple[list[Subspace], list[float]]:
    """Three equiangular lines in R^2 with weights 2/3 each."""
    subs = []
    for angle in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0):
        subs.append(Subspace(np.array([[np.cos(angle)], [np.sin(angle)]])))
    return subs, [2.0 / 3.0] * 3


def _entropy_from_nu(nus: np.ndarray) -> float:
    x = (nus - 1.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        term = (x + 1.0) * np.log(x + 1.0) - np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return float(np.sum(term))


def gaussian_entropy(g: GaussianState) -> float:
    """Von Neumann entropy from the symplectic spectrum; mean-independent."""
    return _entropy_from_nu(g.symplectic_eigenvalues())


def gaussian_marginal(g: GaussianState, v: Subspace) -> GaussianState:
    """Reduced state on the subspace: Sigma -> T Sigma T^t with T the
    block-diagonal embedding of the basis on the Q and P sectors."""
    if v.ambient != g.modes:
        raise DimensionMismatch(f"subspace ambient {v.ambient} != modes {g.modes}")
    zero = np.zeros_like(v.basis)
    t = np.block([[v.basis.T, zero.T], [zero.T, v.basis.T]])
    return GaussianState(t @ g.cov @ t.T, t @ g.mean)


def heat_flow(g: GaussianState, t: float) -> GaussianState:
    """Sigma -> Sigma + t, mean unchanged; a semigroup commuting with marginals."""
    if t < 0:
        raise NegativeTime(f"heat-flow time must be non-negative, got {t}")
    return GaussianState(g.cov + t * np.eye(2 * g.modes), g.mean)


def geometric_datum_check(subspaces: list[Subspace], q: list[float]) -> tuple[bool, float, float]:
    """Verify sum q_k Pi_k = identity on R^m, to 1e-9 entrywise.

    Returns (ok, max deviation, trace identity residual sum q_k m_k - m).
    """
    if not subspaces:
        raise InvalidDatum("need at least one subspace")
    if len(q) != len(subspaces):
        raise DimensionMismatch(f"{len(subspaces)} subspaces but {len(q)} weights")
    m = subspaces[0].ambient
    total = np.zeros((m, m))
    tr_sum = 0.0
    for sub, qk in zip(subspaces, q):
        if sub.ambient != m:
            raise DimensionMismatch("subspaces have mixed ambient dimensions")
        total += qk * sub.projector()
        tr_sum += qk * sub.dim
    dev = float(np.max(np.abs(total - np.eye(m))))
    return dev <= 1e-9, dev, float(tr_sum - m)


def geometric_bl_deficit(
    g: GaussianState, subspaces: list[Subspace], q: list[float]
) -> float:
    """sum_k q_k H(marginal_k) - H(state); non-negative for geometric data."""
    ok, dev, _ = geometric_datum_check(subspaces, q)
    if not ok:
        raise InvalidDatum(f"sum q_k Pi_k deviates from identity by {dev:.3e}")
    total = -gaussian_entropy(g)
    for sub, qk in zip(subspaces, q):
        total += qk * gaussian_entropy(gaussian_marginal(g, sub))
    return float(total)


def deficit_trajectory(
    g: GaussianState,
    subspaces: list[Subspace],
    q: list[float],
    t_grid,
) -> list[dict]:
    """Evaluate the deficit along the heat flow.

    Returns one record per grid time with the total entropy, each
    marginal entropy, and the deficit. For exact geometric data the
    deficit is non-increasing in t and tends to zero.
    """
    ok, dev, _ = geometric_datum_check(subspaces, q)
    if not ok:
        raise InvalidDatum(f"sum q_k Pi_k deviates from identity by {dev:.3e}")
    rows = []
    for t in t_grid:
        gt = heat_flow(g, float(t))
        h_total = gaussian_entropy(gt)
        h_marg = [gaussian_entropy(gaussian_marginal(gt, s)) for s in subspaces]
        deficit = float(np.dot(q, h_marg) - h_total)
        rows.append(
            {
                "t": float(t),
                "H_total": h_total,
                "H_marginals": h_marg,
                "deficit": deficit,
            }
        )
    return rows
