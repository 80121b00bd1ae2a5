"""Random ensembles: states, channels, bases, subspaces.

All samplers take an explicit numpy Generator so every search and report
is reproducible from a single seed.

The state samplers are views of one kernel, draw: it makes the generator
calls of the one-at-a-time samplers, in their order, with runs of normal
draws merged into one call, and then builds each (ensemble, d, rank) group
of states as one stack. A block of states, such as a block of samples that
qbl verify draws at a time (blocks), is therefore bit-identical to the
same states drawn one at a time, whatever the blocking. The kernel books
the items in one pass over the plan, and the stacked samplers (random_pd,
bloch_sample, random_density of several ensembles) write each group into
their stack instead of stacking the states again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import Channel

# the state ensembles of draw: Hilbert-Schmidt ("hs"), Haar pure, rank-
# deficient with a 1e-6 floor ("boundary"), Hilbert-Schmidt with a 1e-3
# floor ("pd", full rank) and qubits uniform in the Bloch ball ("bloch")
ENSEMBLES = ("hs", "pure", "boundary", "pd", "bloch")

# samples drawn (and evaluated) together: a block of samples whose largest
# matrix is d x d takes BLOCK_ENTRIES // d^2 of them, and never fewer than
# MIN_BLOCK_ROWS (d >= 8 takes 64, d = 4 256, d <= 2 all 500 of a verify
# call). The budget bounds the stacks held at once: all 500 d = 8 samples
# in one block would add about 6 MB of peak memory. Below it, small
# matrices come in blocks large enough that numpy's fixed cost per call
# does not dominate.
BLOCK_ENTRIES = 4096
MIN_BLOCK_ROWS = 64


def block_rows(d: int) -> int:
    """The samples of one block whose largest matrix dimension is d:
    max(MIN_BLOCK_ROWS, BLOCK_ENTRIES // d^2)."""
    return max(MIN_BLOCK_ROWS, BLOCK_ENTRIES // (d * d))


def blocks(n: int, d: int) -> list[int]:
    """The sizes of the blocks of block_rows(d) samples that n samples of
    largest matrix dimension d are drawn in, in order, the last block
    taking the rest."""
    size = block_rows(d)
    return [min(size, n - s) for s in range(0, n, size)]


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def draw(rng, plan: Sequence[tuple[str, int]]) -> list[np.ndarray]:
    """One density matrix per (ensemble, d) item of plan, in plan order.

    rng is one Generator, from which the items are drawn in plan order, or
    a sequence of Generators, one per item. The generator calls are those
    of drawing each item alone: a Gaussian matrix G (real parts, then
    imaginary parts), d x d for "hs" and "pd", d x 1 for "pure" and d x r
    for "boundary", whose rank r = integers(1, d) is drawn first (r = 1 at
    d = 1), and for "bloch" a normal 3-vector and then a uniform radius.
    Consecutive normal draws are merged into one call. Each state is then
    G G^dag / tr, plus 1e-6 I ("boundary") or 1e-3 I ("pd") and
    renormalized, the projector onto G / |G| ("pure"), or bloch_state of
    u^(1/3) v / |v| ("bloch"); every (ensemble, d, rank) group is built as
    one stack, with the norm of each vector taken alone.
    """
    plan = list(plan)
    out: list[np.ndarray] = [None] * len(plan)
    for idx, states in _drawn_groups(rng, plan):
        for i, state in zip(idx, states):
            out[i] = state
    return out


def _draw_stack(rng, plan: Sequence[tuple[str, int]], d: int) -> np.ndarray:
    """draw of a plan whose items all have dimension d, as one (n, d, d)
    stack: each group's states are written into it, not stacked again."""
    out = np.empty((len(plan), d, d), dtype=complex)
    for idx, states in _drawn_groups(rng, plan):
        out[idx] = states
    return out


def _drawn_groups(rng, plan: list[tuple[str, int]]):
    """The states of draw, one (item indices, stack) per (ensemble, d, rank)
    group of plan, from one pass over its items. Each item's normal draws
    are owed by its generator, which draws all it owes in one call just
    before a call of an item's own (a boundary rank at d > 1, a Bloch radius
    after its 3 normals) or a change of generator."""
    bad = [(e, d) for e, d in plan if e not in ENSEMBLES or (e == "bloch" and d != 2)]
    if bad:
        raise ValueError(f"unknown ensemble or dimension {bad[0]!r}")
    if isinstance(rng, np.random.Generator):
        rngs = [rng] * len(plan)
    else:
        rngs = [g for _, g in zip(plan, rng, strict=True)]
    chunks: list[np.ndarray] = []  # the normal draws, in the order they were made
    done = owed = 0  # normals drawn so far; normals owed by the current generator
    groups: dict[tuple[str, int, int], list] = {}  # key -> (item, offset, radius)
    gen = None

    def flush():
        nonlocal done, owed
        if owed:
            chunks.append(gen.normal(size=owed))
            done, owed = done + owed, 0

    for i, ((ens, d), g) in enumerate(zip(plan, rngs)):
        if g is not gen:
            flush()
            gen = g
        cols = d if ens in ("hs", "pd") else 1
        if ens == "boundary" and d > 1:
            flush()
            cols = int(g.integers(1, d))
        offset, radius = done + owed, 0.0
        if ens == "bloch":
            owed += 3
            flush()
            radius = g.uniform() ** (1.0 / 3.0)
        else:
            owed += 2 * d * cols
        groups.setdefault((ens, d, cols), []).append((i, offset, radius))
    flush()
    z = np.concatenate(chunks) if chunks else np.empty(0)
    for (ens, d, cols), items in groups.items():
        idx, offsets, radii = zip(*items)
        width = 3 if ens == "bloch" else 2 * d * cols
        yield list(idx), _build(ens, d, cols, z[np.array(offsets)[:, None] + np.arange(width)], radii)


def _build(ens: str, d: int, cols: int, rows: np.ndarray, radii) -> np.ndarray:
    """The states of one (ensemble, d, rank) group, one per row of its
    normal draws (for a matrix G: the real parts, then the imaginary parts)."""
    if ens == "bloch":
        return bloch_state(*(np.array(radii)[:, None] * _unit_rows(rows)).T)
    n = d * cols
    g = rows[:, :n] + 1j * rows[:, n:]
    if ens == "pure":
        v = _unit_rows(g)
        return v[:, :, None] * v.conj()[:, None, :]
    g = g.reshape(-1, d, cols)
    rhos = _unit_trace(g @ g.conj().swapaxes(1, 2))
    if ens == "hs":
        return rhos
    return _unit_trace(rhos + (1e-3 if ens == "pd" else 1e-6) * np.eye(d))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    # each vector's norm as np.linalg.norm takes it, the dot of its real
    # parts plus that of its imaginary parts, without norm's per-call
    # overhead: a batched norm differs in the last bit
    if np.iscomplexobj(v):
        sq = [x.real.dot(x.real) + x.imag.dot(x.imag) for x in v]
    else:
        sq = [x.dot(x) for x in v]
    return v / np.sqrt(sq)[:, None]


def _unit_trace(rhos: np.ndarray) -> np.ndarray:
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


def haar_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-one projector onto a Haar-random unit vector."""
    return draw(rng, [("pure", d)])[0]


def hs_mixed(d: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random density matrix G G^dag / tr."""
    return draw(rng, [("hs", d)])[0]


def boundary_biased(d: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-deficient state plus an isotropic floor 1e-6, renormalized."""
    return draw(rng, [("boundary", d)])[0]


def random_density(d: int, rng, ensemble: str | Sequence[str] = "hs") -> np.ndarray:
    """One state of the ensemble (one of ENSEMBLES), or, for a sequence of
    ensembles, an (n, d, d) stack with one state per entry, drawn from rng
    in order or, when rng is a sequence of Generators, the i-th from
    rng[i]."""
    if isinstance(ensemble, str):
        return draw(rng, [(ensemble, d)])[0]
    return _draw_stack(rng, [(e, d) for e in ensemble], d)


def random_pd(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Full-rank unit-trace PD matrix: a Hilbert-Schmidt state plus 1e-3 I,
    renormalized; with a count n, an (n, d, d) stack of n such draws."""
    if n is None:
        return draw(rng, [("pd", d)])[0]
    return _draw_stack(rng, [("pd", d)] * n, d)


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


def bloch_state(x, y, z) -> np.ndarray:
    """Qubit state (1 + r . sigma)/2 for a Bloch vector inside the ball; for
    arrays of coordinates, a stack of such states."""
    out = np.empty(np.shape(x) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = 1 + z, x - 1j * y
    out[..., 1, 0], out[..., 1, 1] = x + 1j * y, 1 - z
    return 0.5 * out


def bloch_sample(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Qubit state with a Bloch vector uniform in the solid ball; with a
    count n, an (n, 2, 2) stack of n such draws."""
    if n is None:
        return draw(rng, [("bloch", 2)])[0]
    return _draw_stack(rng, [("bloch", 2)] * n, 2)
