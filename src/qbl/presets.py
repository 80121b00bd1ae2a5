"""Named problem presets for the command-line interface.

Each preset builds a task dict with a ``kind`` selecting the verification
path: bl_datum (generic membership / constant estimation), six_state, mu,
conditional_shearer, channel_task (min output entropy / contraction), or
gaussian (geometric deficit trajectories).
"""

from __future__ import annotations

import numpy as np

from .channels import depolarizing, pauli_basis
from .gaussian import GaussianState, coordinate_axes, mercedes_star
from .applications import dpi_datum, shearer_datum, superadditivity_datum
from .sampling import random_channel, random_pd


def _bell_pair() -> np.ndarray:
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v)


def build_preset(name: str, seed: int = 0) -> dict:
    """Instantiate a preset by name; the seed only affects presets that
    advertise randomness in their name."""
    if name == "dpi-qubit":
        return {
            "kind": "bl_datum",
            "datum": dpi_datum(depolarizing(0.3), np.diag([0.7, 0.3])),
        }
    if name == "dpi-random-qubit":
        rng = np.random.default_rng(seed)
        return {
            "kind": "bl_datum",
            "datum": dpi_datum(random_channel(2, 2, rng=rng), random_pd(2, rng)),
        }
    if name == "shearer-3qubit-pairs":
        return {
            "kind": "bl_datum",
            "datum": shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2),
        }
    if name == "superadd-classical":
        probs = np.array([0.3, 0.2, 0.1, 0.4])
        return {
            "kind": "bl_datum",
            "datum": superadditivity_datum(np.diag(probs), (2, 2)),
        }
    if name == "conditional-shearer-bell":
        # sites {A1, A2}, conditioning system B; A1 maximally entangled
        # with B; the at-least cover S1 = S2 = {0}, S3 = {1} breaks the
        # conditional inequality on this state
        bell = _bell_pair()
        rho = np.kron(bell, np.eye(2) / 2.0)  # order A1, B, A2 -> permute
        # reorder subsystems to (A1, A2, B)
        perm = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        rho = rho[np.ix_(perm, perm)]
        return {
            "kind": "conditional_shearer",
            "rho": rho,
            "dims": [2, 2, 2],
            "subsets": [[0], [0], [1]],
            "p": 1,
            "expect_violation": True,
        }
    if name == "conditional-shearer-exact":
        rng = np.random.default_rng(seed)
        return {
            "kind": "conditional_shearer",
            "rho": random_pd(8, rng),
            "dims": [2, 2, 2],
            "subsets": [[0], [1]],
            "p": 1,
            "expect_violation": False,
        }
    if name == "six-state":
        return {"kind": "six_state"}
    if name == "mu-pauli-xz":
        return {
            "kind": "mu",
            "basis_x": pauli_basis("x"),
            "basis_z": pauli_basis("z"),
        }
    if name == "minout-depol-0.5":
        return {
            "kind": "channel_task",
            "task": "min_output_entropy",
            "channel": depolarizing(0.5),
        }
    if name == "contraction-depol-0.5":
        return {
            "kind": "channel_task",
            "task": "contraction",
            "channel": depolarizing(0.5),
            "sigma": np.eye(2) / 2.0,
        }
    if name == "contraction-identity":
        return {
            "kind": "channel_task",
            "task": "contraction",
            "channel": depolarizing(0.0),
            "sigma": np.eye(2) / 2.0,
        }
    if name == "mercedes-star":
        subs, q = mercedes_star()
        s = 3.0
        cov = np.diag([s, 1.0, 1.0 / s, 1.0])
        return {
            "kind": "gaussian",
            "state": GaussianState(cov),
            "subspaces": subs,
            "q": q,
        }
    if name == "gaussian-axes-product":
        subs = coordinate_axes(2)
        cov = np.diag([2.0, 3.0, 2.0, 3.0])  # product state, zero deficit
        return {
            "kind": "gaussian",
            "state": GaussianState(cov),
            "subspaces": subs,
            "q": [1.0, 1.0],
        }
    raise KeyError(f"unknown preset {name!r}")


PRESET_NAMES = [
    "dpi-qubit",
    "dpi-random-qubit",
    "shearer-3qubit-pairs",
    "superadd-classical",
    "conditional-shearer-bell",
    "conditional-shearer-exact",
    "six-state",
    "mu-pauli-xz",
    "minout-depol-0.5",
    "contraction-depol-0.5",
    "contraction-identity",
    "mercedes-star",
    "gaussian-axes-product",
]
