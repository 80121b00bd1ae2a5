"""Random ensembles: states, channels, bases, subspaces.

All samplers take an explicit numpy Generator so every search and report
is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-one projector onto a Haar-random unit vector."""
    v = complex_gaussian(rng, d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def hs_mixed(d: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random density matrix G G^dag / tr."""
    g = complex_gaussian(rng, (d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def boundary_biased(d: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-deficient state plus an isotropic floor 1e-6, renormalized."""
    rank = int(rng.integers(1, d)) if d > 1 else 1
    g = complex_gaussian(rng, (d, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real + 1e-6 * np.eye(d)
    return rho / np.trace(rho).real


def random_density(d: int, rng: np.random.Generator, ensemble: str = "hs") -> np.ndarray:
    if ensemble == "hs":
        return hs_mixed(d, rng)
    if ensemble == "pure":
        return haar_pure(d, rng)
    if ensemble == "boundary":
        return boundary_biased(d, rng)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def random_pd(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank unit-trace PD matrix: a Hilbert-Schmidt state plus 1e-3 I, renormalized."""
    rho = hs_mixed(d, rng) + 1e-3 * np.eye(d)
    return rho / np.trace(rho).real


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = complex_gaussian(rng, (d, d))
    return 0.5 * (g + g.conj().T)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis(d: int, rng: np.random.Generator) -> list[np.ndarray]:
    u = haar_unitary(d, rng)
    return [u[:, i] for i in range(d)]


def random_channel(d_in: int, d_out: int, rng: np.random.Generator) -> Channel:
    """Haar-random channel with d_in Kraus operators from a Stinespring
    isometry (TPCP by construction)."""
    g = complex_gaussian(rng, (d_out * d_in, d_in))
    q, _ = np.linalg.qr(g)  # isometry: q^dag q = 1_{d_in}
    iso = q.reshape(d_out, d_in, d_in)
    kraus = [iso[:, i, :] for i in range(d_in)]
    return Channel(kraus, label=f"random({d_in}->{d_out},k={d_in})")


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """Qubit state (1 + r . sigma)/2 for a Bloch vector inside the ball."""
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def bloch_sample(rng: np.random.Generator) -> np.ndarray:
    """Qubit state with a Bloch vector uniform in the solid ball."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    r = rng.uniform() ** (1.0 / 3.0)
    return bloch_state(*(r * v))
