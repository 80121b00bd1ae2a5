"""The stacked sampling kernel against hand-written one-at-a-time draws.

Each reference below spells out the generator calls of drawing one state
alone (the Gaussian matrix's real parts, then its imaginary parts; a
boundary rank before its matrix; a Bloch radius after its direction), so
the kernel is held to the stream itself, not to the library's own single
draws, which are views of the same kernel.
"""

import numpy as np
import pytest

from qbl import sampling
from qbl.sampling import (
    ENSEMBLES,
    block_rows,
    blocks,
    bloch_sample,
    draw,
    random_density,
    random_pd,
)


def _gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unit_trace(rho):
    return rho / np.trace(rho).real


def _reference(rng, ens, d):
    """One state of the ensemble, drawn alone, call by call."""
    if ens in ("hs", "pd"):
        g = _gaussian(rng, (d, d))
        rho = _unit_trace(g @ g.conj().T)
        return rho if ens == "hs" else _unit_trace(rho + 1e-3 * np.eye(d))
    if ens == "pure":
        v = _gaussian(rng, d)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    if ens == "boundary":
        rank = int(rng.integers(1, d)) if d > 1 else 1
        g = _gaussian(rng, (d, rank))
        return _unit_trace(_unit_trace(g @ g.conj().T) + 1e-6 * np.eye(d))
    assert ens == "bloch" and d == 2
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    x, y, z = rng.uniform() ** (1.0 / 3.0) * v
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def _assert_same_stream(plan, seed, got_fn):
    """got_fn(rng) draws plan; compare with the reference, state by state
    and in the generator's final state."""
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [_reference(want_rng, ens, d) for ens, d in plan]
    got = got_fn(got_rng)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), f"item {i} {plan[i]}"
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _dims(ens):
    return [2] if ens == "bloch" else range(1, 9)


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_each_ensemble_at_every_dimension(ens):
    for d in _dims(ens):
        plan = [(ens, d)] * 40
        _assert_same_stream(plan, 100 + d, lambda rng: draw(rng, plan))


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65])
def test_counts_around_the_block_size(count):
    for ens in ENSEMBLES:
        for d in _dims(ens):
            plan = [(ens, d)] * count
            _assert_same_stream(plan, count, lambda rng: draw(rng, plan))
    _assert_same_stream([("pd", 3)] * count, 1, lambda rng: random_pd(3, rng, count))
    _assert_same_stream([("bloch", 2)] * count, 2, lambda rng: bloch_sample(rng, count))
    kinds = [("hs", "pure", "boundary")[i % 3] for i in range(count)]
    _assert_same_stream([(k, 4) for k in kinds], 3, lambda rng: random_density(4, rng, kinds))


def test_maassen_uffink_triples():
    # qbl verify's MU draws: per sample rho, omega_1, omega_2
    plan = [("bloch", 2), ("pd", 2), ("pd", 2)] * 70
    _assert_same_stream(plan, 5, lambda rng: draw(rng, plan))


def test_membership_analytic_plan_with_interleaved_dimensions():
    # bl_membership's analytic form on channels with outputs 2 and 4, one
    # block and one more sample: per sample one omega_k per channel, "pure"
    # drawn as "hs"
    kinds = [("hs", "hs", "boundary")[i % 3] for i in range(block_rows(4) + 1)]
    plan = [(kind, dk) for kind in kinds for dk in (2, 4)]
    _assert_same_stream(plan, 6, lambda rng: draw(rng, plan))


def test_mixed_plan_of_every_ensemble():
    rng = np.random.default_rng(0)
    plan = [(str(ENSEMBLES[i]), 2 if ENSEMBLES[i] == "bloch" else int(d))
            for i, d in zip(rng.integers(0, len(ENSEMBLES), 300), rng.integers(1, 9, 300))]
    _assert_same_stream(plan, 7, lambda rng: draw(rng, plan))


def test_one_generator_per_item():
    # the estimators' starts: one generator per restart, one state each
    kinds = [("hs", "pure", "boundary")[i % 3] for i in range(10)]
    want = [_reference(np.random.default_rng(i), kind, 5) for i, kind in enumerate(kinds)]
    rngs = [np.random.default_rng(i) for i in range(10)]
    got = random_density(5, rngs, kinds)
    assert got.shape == (10, 5, 5)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for i, (kind, rng) in enumerate(zip(kinds, rngs)):
        ref = np.random.default_rng(i)
        _reference(ref, kind, 5)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_generators_shared_by_runs_of_items():
    # a sequence of generators that changes only between some items: each
    # run of one generator is booked as one stretch of its stream
    plan = [("pd", 2), ("boundary", 3), ("hs", 3), ("bloch", 2), ("pure", 2), ("pd", 2),
            ("boundary", 1), ("bloch", 2), ("hs", 2)] * 3
    order = [0, 0, 1, 1, 1, 0, 2, 2, 0] * 3
    want_rngs = [np.random.default_rng(40 + k) for k in range(3)]
    want = [_reference(want_rngs[k], ens, d) for k, (ens, d) in zip(order, plan)]
    got_rngs = [np.random.default_rng(40 + k) for k in range(3)]
    got = draw([got_rngs[k] for k in order], plan)
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert np.array_equal(a, b), f"item {i} {plan[i]}"
    for g, ref in zip(got_rngs, want_rngs):
        assert g.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("count", [2, 4])
def test_one_generator_per_item_needs_as_many_generators(count):
    rngs = [np.random.default_rng(i) for i in range(count)]
    before = [g.bit_generator.state for g in rngs]
    with pytest.raises(ValueError, match="zip()"):
        draw(rngs, [("pd", 2)] * 3)
    assert [g.bit_generator.state for g in rngs] == before


def test_single_draws_are_views_of_the_kernel():
    for name, ens in [("hs_mixed", "hs"), ("haar_pure", "pure"), ("boundary_biased", "boundary")]:
        _assert_same_stream([(ens, 3)], 8, lambda rng: [getattr(sampling, name)(3, rng)])
        _assert_same_stream([(ens, 3)], 8, lambda rng: [random_density(3, rng, ens)])
    _assert_same_stream([("pd", 3)], 9, lambda rng: [random_pd(3, rng)])
    _assert_same_stream([("bloch", 2)], 9, lambda rng: [bloch_sample(rng)])


@pytest.mark.parametrize("plan", [[("hs", 2), ("mixed", 2)], [("bloch", 3)]])
def test_unknown_ensemble_raises_before_drawing(plan):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        draw(rng, plan)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError):
        random_density(2, rng, "mixed")
    with pytest.raises(ValueError):
        random_density(3, rng, ["hs", "bloch"])
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "n, sizes", [(0, []), (1, [1]), (64, [64]), (65, [64, 1]), (150, [64, 64, 22])]
)
def test_blocks(n, sizes):
    # d >= 8 keeps blocks of 64 samples, remainder last
    assert (sampling.BLOCK_ENTRIES, sampling.MIN_BLOCK_ROWS) == (4096, 64)
    assert blocks(n, 8) == blocks(n, 16) == sizes


@pytest.mark.parametrize("n, d, sizes", [
    # smaller matrices take BLOCK_ENTRIES // d^2 samples a block
    (500, 8, [64] * 7 + [52]), (500, 4, [256, 244]), (500, 3, [455, 45]), (500, 2, [500]),
    (500, 1, [500]), (5000, 2, [1024] * 4 + [904]),
])
def test_blocks_by_dimension(n, d, sizes):
    assert blocks(n, d) == sizes
    assert all(m == block_rows(d) for m in sizes[:-1])


def test_blocks_follow_the_budget(monkeypatch):
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 1)
    monkeypatch.setattr(sampling, "MIN_BLOCK_ROWS", 1)
    assert blocks(3, 2) == [1, 1, 1]
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 0)
    monkeypatch.setattr(sampling, "MIN_BLOCK_ROWS", 64)
    assert blocks(65, 2) == [64, 1]


class _Recording(np.random.Generator):
    """default_rng(seed)'s stream, recording the kernel's calls: normal
    with its size, integers with the rank it drew, uniform."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def normal(self, *args, size=None, **kwargs):
        self.calls.append(("normal", size))
        return super().normal(*args, size=size, **kwargs)

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.calls.append(("integers", int(out)))
        return out

    def uniform(self, *args, **kwargs):
        self.calls.append(("uniform",))
        return super().uniform(*args, **kwargs)


@pytest.mark.parametrize("plan, seed, calls", [
    ([("pd", 2)] * 192, 0, [("normal", 1536)]),
    ([("bloch", 2), ("pd", 2), ("pd", 2)] * 3, 0,
     [("normal", 3), ("uniform",), ("normal", 19), ("uniform",), ("normal", 19), ("uniform",),
      ("normal", 16)]),
    # ranks 1 and 2: 8 r normals for the boundary matrix, 8 for the hs one
    ([("boundary", 4), ("hs", 2)] * 2, 35,
     [("integers", 1), ("normal", 16), ("integers", 2), ("normal", 24)]),
])
def test_normal_draws_are_merged_between_calls_of_their_own(plan, seed, calls):
    # the stream alone does not show how many calls made it: one normal
    # call per item would draw the same numbers
    rng, want_rng = _Recording(seed), np.random.default_rng(seed)
    want = [_reference(want_rng, ens, d) for ens, d in plan]
    assert all(np.array_equal(a, b) for a, b in zip(draw(rng, plan), want, strict=True))
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert rng.calls == calls


def test_each_generator_sees_only_its_own_calls():
    plan = [("bloch", 2), ("pd", 2), ("boundary", 3), ("hs", 2), ("pure", 2), ("pd", 3)]
    rngs = [_Recording(i) for i in range(4)]
    order = [0, 1, 2, 3, 1, 1]
    draw([rngs[k] for k in order], plan)
    ranks = [c[1] for c in rngs[2].calls if c[0] == "integers"]
    assert [g.calls for g in rngs] == [
        [("normal", 3), ("uniform",)],
        [("normal", 8), ("normal", 4 + 18)],
        [("integers", ranks[0]), ("normal", 6 * ranks[0])],
        [("normal", 8)],
    ]
