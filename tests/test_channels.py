"""Channels: Kraus algebra, named channels, adjoints, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbl import channels as ch
from qbl.errors import (
    BadPartition,
    DimensionMismatch,
    InvalidProbability,
    NotCompletelyPositive,
    NotOrthonormal,
    NotTracePreserving,
)
from qbl.sampling import hs_mixed, random_channel, random_hermitian
from qbl.serialization import decode_channel, encode_channel


class TestChannelBasics:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = hs_mixed(3, rng)
        np.testing.assert_allclose(ch.identity_channel(3)(rho), rho, atol=1e-14)

    def test_trace_preserving_enforced(self):
        with pytest.raises(NotTracePreserving):
            ch.Channel([np.diag([1.0, 0.5])])

    def test_transpose_needs_positive_only_flag(self):
        # the transpose map is trace-preserving and positive but not CP:
        # its Choi matrix (the swap) has a negative eigenvalue
        t = ch.transpose_map(2)
        assert float(np.linalg.eigvalsh(t.choi_matrix())[0]) == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(NotCompletelyPositive):
            ch.Channel(t.kraus, signs=t.signs, allow_positive_only=False)

    def test_transpose_acts_as_transpose(self):
        rng = np.random.default_rng(12)
        t = ch.transpose_map(3)
        x = random_hermitian(3, rng)
        np.testing.assert_allclose(t(x), x.T, atol=1e-12)
        np.testing.assert_allclose(t.adjoint(x), x.T, atol=1e-12)

    def test_trace_preservation_of_apply(self):
        rng = np.random.default_rng(1)
        e = random_channel(2, 3, rng=rng)
        rho = hs_mixed(2, rng)
        out = e(rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_adjoint_unital(self):
        rng = np.random.default_rng(2)
        e = random_channel(3, 2, rng=rng)
        np.testing.assert_allclose(e.adjoint(np.eye(2)), np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_adjoint_trace_identity(self, dims):
        din, dout = dims
        rng = np.random.default_rng(din * 10 + dout)
        for _ in range(100):
            e = random_channel(din, dout, rng=rng)
            x = random_hermitian(din, rng)
            y = random_hermitian(dout, rng)
            lhs = np.trace(e(x) @ y).real
            rhs = np.trace(x @ e.adjoint(y)).real
            assert lhs == pytest.approx(rhs, abs=1e-9)


def _kraus_sum(chan, rho):
    """Reference E(rho) = sum_a s_a K_a rho K_a^dag, broadcast over stacks."""
    return sum(s * k @ rho @ k.conj().T for s, k in zip(chan.signs, chan.kraus))


def _kraus_sum_adjoint(chan, y):
    """Reference E^dag(Y) = sum_a s_a K_a^dag Y K_a, broadcast over stacks."""
    return sum(s * k.conj().T @ y @ k for s, k in zip(chan.signs, chan.kraus))


def _kernel_channel(kind, rng):
    if kind == "random":
        din, dout = [(2, 3), (3, 2), (2, 4), (4, 3)][rng.integers(4)]
        return random_channel(din, dout, rng=rng)
    if kind == "transpose":
        return ch.transpose_map(3)
    if kind == "ptrace":
        return ch.partial_trace([2, 2, 2], [0, 1])
    if kind == "trace":
        return ch.trace_channel(3)
    return ch.tensor(random_channel(2, 3, rng=rng), ch.depolarizing(0.4))


def _complex_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestTransferKernel:
    """apply/apply_adjoint go through the transfer matrix; the Kraus sum
    kept here is the independent reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["random", "transpose", "ptrace", "trace", "tensor"]),
        seed=st.integers(0, 10_000),
        batch=st.sampled_from([(), (5,), (2, 3)]),
    )
    def test_matches_kraus_sum(self, kind, seed, batch):
        rng = np.random.default_rng(seed)
        e = _kernel_channel(kind, rng)
        rho = _complex_stack(rng, batch + (e.dim_in, e.dim_in))
        y = _complex_stack(rng, batch + (e.dim_out, e.dim_out))
        for got, ref in ((ch.apply(e, rho), _kraus_sum(e, rho)),
                         (ch.apply_adjoint(e, y), _kraus_sum_adjoint(e, y))):
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["random", "transpose", "ptrace", "trace", "tensor"])
    def test_adjoint_identity_on_batches(self, kind):
        rng = np.random.default_rng(13)
        e = _kernel_channel(kind, rng)
        rho = _complex_stack(rng, (2, 3, e.dim_in, e.dim_in))
        y = _complex_stack(rng, (2, 3, e.dim_out, e.dim_out))
        lhs = np.einsum("...ij,...ji->...", ch.apply(e, rho), y)
        rhs = np.einsum("...ij,...ji->...", rho, ch.apply_adjoint(e, y))
        assert lhs.shape == (2, 3)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_transfer_is_read_only(self):
        e = ch.depolarizing(0.3)
        assert e.transfer.shape == (4, 4)
        with pytest.raises(ValueError):
            e.transfer[0, 0] = 0.0

    def test_wrong_input_shape(self):
        e = random_channel(2, 3, rng=np.random.default_rng(14))
        with pytest.raises(DimensionMismatch):
            ch.apply(e, np.eye(3))
        with pytest.raises(DimensionMismatch):
            ch.apply_adjoint(e, np.zeros((4, 2, 2)))


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        pt = ch.partial_trace([2, 3], [0, 1])
        rho = hs_mixed(6, rng)
        np.testing.assert_allclose(pt(rho), rho, atol=1e-13)

    def test_bell_marginal_is_maximally_mixed(self):
        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        bell = np.outer(v, v)
        pt = ch.partial_trace([2, 2], [0])
        np.testing.assert_allclose(pt(bell), np.eye(2) / 2, atol=1e-14)

    def test_product_state_marginal(self):
        rng = np.random.default_rng(4)
        a, b = hs_mixed(2, rng), hs_mixed(2, rng)
        pt = ch.partial_trace([2, 2], [0])
        np.testing.assert_allclose(pt(np.kron(a, b)), a, atol=1e-13)

    def test_matches_contraction_oracle(self):
        rng = np.random.default_rng(5)
        rho = hs_mixed(8, rng)
        pt = ch.partial_trace([2, 2, 2], [0, 2])
        np.testing.assert_allclose(pt(rho), ch.ptrace(rho, [2, 2, 2], [0, 2]), atol=1e-12)

    def test_bad_partition(self):
        with pytest.raises(BadPartition):
            ch.partial_trace([2, 2], [3])
        with pytest.raises(BadPartition):
            ch.ptrace(np.eye(4), [2, 3], [0])


class TestMeasurement:
    def test_computational_basis_fixes_diagonals(self):
        m = ch.measurement_channel(ch.pauli_basis("z"))
        np.testing.assert_allclose(m(np.diag([0.3, 0.7])), np.diag([0.3, 0.7]), atol=1e-14)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_unbiased_on_z_eigenstate(self, axis):
        m = ch.measurement_channel(ch.pauli_basis(axis))
        out = m(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(6)
        from qbl.sampling import random_basis

        m = ch.measurement_channel(random_basis(3, rng))
        rho = hs_mixed(3, rng)
        np.testing.assert_allclose(m(m(rho)), m(rho), atol=1e-12)
        y = random_hermitian(3, rng)
        np.testing.assert_allclose(m(y), m.adjoint(y), atol=1e-12)

    def test_not_orthonormal_rejected(self):
        with pytest.raises(NotOrthonormal):
            ch.measurement_channel([np.array([1.0, 0.0]), np.array([1.0, 1e-3])])


class TestDepolarizing:
    def test_p0_is_identity(self):
        rng = np.random.default_rng(7)
        rho = hs_mixed(2, rng)
        np.testing.assert_allclose(ch.depolarizing(0.0)(rho), rho, atol=1e-14)

    def test_p1_outputs_maximally_mixed(self):
        np.testing.assert_allclose(
            ch.depolarizing(1.0)(np.diag([1.0, 0.0])), np.eye(2) / 2, atol=1e-14
        )

    def test_defining_formula(self):
        rng = np.random.default_rng(8)
        rho = hs_mixed(2, rng)
        p = 0.3
        expected = (1 - p) * rho + p * np.trace(rho) * np.eye(2) / 2
        np.testing.assert_allclose(ch.depolarizing(p)(rho), expected, atol=1e-12)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            ch.depolarizing(1.5)

    def test_unital(self):
        np.testing.assert_allclose(ch.depolarizing(0.4)(np.eye(2)), np.eye(2), atol=1e-12)


class TestTensor:
    def test_identity_tensor_identity(self):
        rng = np.random.default_rng(9)
        t = ch.tensor(ch.identity_channel(2), ch.identity_channel(2))
        rho = hs_mixed(4, rng)
        np.testing.assert_allclose(t(rho), rho, atol=1e-13)

    def test_product_states_factorize(self):
        rng = np.random.default_rng(10)
        e, f = random_channel(2, 2, rng=rng), random_channel(2, 3, rng=rng)
        a, b = hs_mixed(2, rng), hs_mixed(2, rng)
        lhs = ch.tensor(e, f)(np.kron(a, b))
        np.testing.assert_allclose(lhs, np.kron(e(a), f(b)), atol=1e-12)

    def test_depolarizing_pair_on_bell(self):
        p = 0.35
        d2 = ch.tensor(ch.depolarizing(p), ch.depolarizing(p))
        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        bell = np.outer(v, v)
        # direct 4x4 computation from the defining formula applied twice
        def depol(m, sys):
            if sys == 0:
                mixed = np.kron(np.eye(2) / 2, ch.ptrace(m, [2, 2], [1]))
            else:
                mixed = np.kron(ch.ptrace(m, [2, 2], [0]), np.eye(2) / 2)
            return (1 - p) * m + p * mixed

        expected = depol(depol(bell, 0), 1)
        np.testing.assert_allclose(d2(bell), expected, atol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        e = random_channel(2, 3, rng=rng)
        back = decode_channel(encode_channel(e))
        assert back.dim_in == e.dim_in and back.dim_out == e.dim_out
        rho = hs_mixed(2, rng)
        np.testing.assert_allclose(back(rho), e(rho), atol=1e-12)

    def test_positive_only_flag_survives(self):
        e = ch.depolarizing(0.2)
        enc = encode_channel(e)
        assert enc["allow_positive_only"] is False
