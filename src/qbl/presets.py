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


def _bell_a1_a2_b() -> np.ndarray:
    """Sites A1, A2 and the conditioning system B, with A1 maximally
    entangled with B and A2 maximally mixed."""
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    rho = np.kron(np.outer(v, v), np.eye(2) / 2.0)  # order A1, B, A2
    perm = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    return rho[np.ix_(perm, perm)]


# every preset's builder, which takes the preset's seed; only
# dpi-random-qubit and conditional-shearer-exact draw from it, so no other
# preset makes a generator (numpy.random is imported on first use)
_BUILDERS = {
    "dpi-qubit": lambda seed: {
        "kind": "bl_datum", "datum": dpi_datum(depolarizing(0.3), np.diag([0.7, 0.3]))},
    "dpi-random-qubit": lambda seed: {  # the channel, then sigma, from one generator
        "kind": "bl_datum",
        "datum": dpi_datum(random_channel(2, 2, rng=(rng := np.random.default_rng(seed))),
                           random_pd(2, rng))},
    "shearer-3qubit-pairs": lambda seed: {
        "kind": "bl_datum", "datum": shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)},
    "superadd-classical": lambda seed: {
        "kind": "bl_datum",
        "datum": superadditivity_datum(np.diag([0.3, 0.2, 0.1, 0.4]), (2, 2))},
    # the at-least cover S1 = S2 = {0}, S3 = {1} breaks the conditional
    # inequality on this state
    "conditional-shearer-bell": lambda seed: {
        "kind": "conditional_shearer", "rho": _bell_a1_a2_b(), "dims": [2, 2, 2],
        "subsets": [[0], [0], [1]], "p": 1, "expect_violation": True},
    "conditional-shearer-exact": lambda seed: {
        "kind": "conditional_shearer", "rho": random_pd(8, np.random.default_rng(seed)),
        "dims": [2, 2, 2], "subsets": [[0], [1]], "p": 1, "expect_violation": False},
    "six-state": lambda seed: {"kind": "six_state"},
    "mu-pauli-xz": lambda seed: {
        "kind": "mu", "basis_x": pauli_basis("x"), "basis_z": pauli_basis("z")},
    "minout-depol-0.5": lambda seed: {
        "kind": "channel_task", "task": "min_output_entropy", "channel": depolarizing(0.5)},
    "contraction-depol-0.5": lambda seed: {
        "kind": "channel_task", "task": "contraction", "channel": depolarizing(0.5),
        "sigma": np.eye(2) / 2.0},
    "contraction-identity": lambda seed: {
        "kind": "channel_task", "task": "contraction", "channel": depolarizing(0.0),
        "sigma": np.eye(2) / 2.0},
    "mercedes-star": lambda seed: {
        "kind": "gaussian", "state": GaussianState(np.diag([3.0, 1.0, 1.0 / 3.0, 1.0])),
        **dict(zip(("subspaces", "q"), mercedes_star()))},
    # a product state, whose deficit is 0
    "gaussian-axes-product": lambda seed: {
        "kind": "gaussian", "state": GaussianState(np.diag([2.0, 3.0, 2.0, 3.0])),
        "subspaces": coordinate_axes(2), "q": [1.0, 1.0]},
}

PRESET_NAMES = list(_BUILDERS)


def build_preset(name: str, seed: int = 0) -> dict:
    """Instantiate a preset by name; the seed only affects the presets whose
    builders draw from it (dpi-random-qubit, conditional-shearer-exact)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown preset {name!r}")
    return _BUILDERS[name](seed)
