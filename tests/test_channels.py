"""Channels: Kraus algebra, named channels, adjoints, serialization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbl import channels as ch
from qbl.applications import maassen_uffink_constant
from qbl.errors import (
    BadPartition,
    DimensionMismatch,
    InvalidProbability,
    NotCompletelyPositive,
    NotOrthonormal,
    NotTracePreserving,
)
from qbl.sampling import hs_mixed, random_basis, random_channel, random_hermitian
from qbl.serialization import decode_channel, encode_channel


class TestChannelBasics:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = hs_mixed(3, rng)
        np.testing.assert_allclose(ch.identity_channel(3)(rho), rho, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        with pytest.raises(ValueError, match="a Kraus operator has a non-finite entry"):
            ch.Channel([[[bad, 0.0], [0.0, 1.0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sign_rejected(self, bad):
        # a nan sign once passed the trace-preserving test (nan > 1e-10 is
        # false) and failed later, inside the Choi eigendecomposition
        with pytest.raises(ValueError, match="a sign is non-finite"):
            ch.Channel([np.eye(2)], signs=[bad])

    def test_trace_preserving_enforced(self):
        with pytest.raises(NotTracePreserving):
            ch.Channel([np.diag([1.0, 0.5])])

    def test_signed_family_must_be_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            ch.Channel([np.eye(2), 0.1 * np.eye(2)], signs=[1.0, -1.0], allow_positive_only=True)
        with pytest.raises(NotTracePreserving):
            ch.Channel([np.ones((3, 2)) / np.sqrt(2)])  # sum K^dag K = 1.5 (all ones)

    def test_choi_matrix_matches_the_kraus_sum(self):
        rng = np.random.default_rng(21)
        for e in (random_channel(2, 3, rng=rng), random_channel(3, 2, rng=rng),
                  ch.transpose_map(3)):
            vecs = [k.T.reshape(-1) for k in e.kraus]  # |i> (x) K|i> stacked over i
            want = sum(s * np.outer(v, v.conj()) for s, v in zip(e.signs, vecs))
            np.testing.assert_allclose(e.choi_matrix(), want, atol=1e-14)

    def test_not_completely_positive_rejected(self):
        # a trace-preserving signed family whose Choi matrix is not PSD
        k = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5 * ch.PAULI_X, 0.5 * ch.PAULI_Y]
        with pytest.raises(NotCompletelyPositive):
            ch.Channel(k, signs=[1.0, 1.0, 1.0, -1.0])

    def test_transpose_needs_positive_only_flag(self):
        # the transpose map is trace-preserving and positive but not CP:
        # its Choi matrix (the swap) has a negative eigenvalue
        t = ch.transpose_map(2)
        assert float(np.linalg.eigvalsh(t.choi_matrix())[0]) == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(NotCompletelyPositive):
            ch.Channel(t.kraus, signs=t.signs, allow_positive_only=False)

    def test_signed_positive_only_family_is_spot_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(ch.Channel, "_spot_check_positivity",
                            lambda self: checked.append(self.dim_in))
        ch.transpose_map(2)
        assert checked == [2]

    def test_unsigned_family_takes_no_choi_spectrum(self, monkeypatch):
        # nonnegative weights make a Kraus family completely positive
        def refused(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(ch.np.linalg, "eigvalsh", refused)
        ch.depolarizing(0.5)
        ch.partial_trace([2, 2, 2], [0, 1])

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


def _partial_trace_kraus_loop(dims, keep):
    """Reference: the Kraus operators 1_keep (x) <j|_discard of a partial
    trace, one entry at a time."""
    from itertools import product

    n = len(dims)
    discard = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    kraus = []
    for j in product(*(range(dims[i]) for i in discard)):
        k = np.zeros((dk, int(np.prod(dims))))
        for row, kept in enumerate(product(*(range(dims[i]) for i in keep))):
            full = [0] * n
            for pos, i in enumerate(keep):
                full[i] = kept[pos]
            for pos, i in enumerate(discard):
                full[i] = j[pos]
            k[row, int(np.ravel_multi_index(full, dims))] = 1.0
        kraus.append(k)
    return np.stack(kraus).astype(complex)


class TestPartialTrace:
    @pytest.mark.parametrize("dims,keep", [
        ([2, 2, 2], [0, 1]), ([2, 2, 2], [0, 2]), ([2, 3], [1]), ([3, 2, 2], [1]),
        ([2, 2, 2, 2], [0, 3]), ([2, 2], []),
    ])
    def test_kraus_stack_matches_the_loop(self, dims, keep):
        got = ch.partial_trace(dims, keep).kraus
        assert np.array_equal(got, _partial_trace_kraus_loop(dims, keep))

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

    @pytest.mark.parametrize("basis", [
        [np.array([1.0, 0.0])],  # incomplete
        [np.array([2.0, 0.0]), np.array([0.0, 1.0])],  # not normalized
        [np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])],  # mixed lengths
        [np.eye(3)[0], np.eye(3)[1], np.eye(3)[0]],  # repeated vector
        [np.eye(2), np.eye(2)[0]],  # ragged
        [np.array([[1.0], [0.0]]), np.array([[1.0], [1e-3]])],  # (d, 1) columns, not orthonormal
        [np.ones((2, 1)), np.ones((3, 1))],  # (d, 1) columns of mixed lengths
        np.ones((2, 3)) / np.sqrt(3.0),  # two vectors of length 3
        np.array([1.0, 0.0]),  # a vector, not a family
    ])
    def test_not_a_basis_rejected(self, basis):
        for build in (ch.measurement_channel, ch.basis_rows):
            with pytest.raises(NotOrthonormal) as got:
                build(basis)
            assert str(got.value) == "basis is not a complete orthonormal family"

    def test_every_form_of_a_basis_gives_its_rows(self):
        # flat vectors become the rows in one call; (d, 1) columns one at a time
        u = random_basis(3, np.random.default_rng(8))
        want = np.array([v.reshape(-1) for v in u])
        for basis in (u, tuple(u), [list(v) for v in u], np.stack(u), [v[:, None] for v in u],
                      (v for v in u)):
            assert np.array_equal(ch.basis_rows(basis), want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
    def test_non_finite_basis_rejected(self, value, entry):
        # nan passes the Gram test (nan > 1e-10 is false) and inf warns in
        # the Gram product, so finiteness is tested first
        basis = np.eye(2)
        basis[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (ch.basis_rows, ch.measurement_channel,
                          lambda b: maassen_uffink_constant(b, ch.pauli_basis("z")),
                          lambda b: maassen_uffink_constant(ch.pauli_basis("x"), b)):
                with pytest.raises(NotOrthonormal, match="non-finite"):
                    build(list(basis))


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


def _reference_transfer(kraus, signs):
    """The transfer matrix built as sum_a s_a K_a (x) conj(K_a) with every
    sign multiplied in, one Kraus operator converted at a time."""
    stacked = np.stack([np.asarray(k, dtype=complex) for k in kraus])
    n, dout, din = stacked.shape
    flat = stacked.reshape(n, dout * din)
    pairs = (np.asarray(signs, dtype=float)[:, None] * flat).T @ flat.conj()
    return pairs.reshape(dout, din, dout, din).transpose(0, 2, 1, 3).reshape(dout**2, din**2)


class TestConstruction:
    """Channel converts its Kraus family with one np.array call and skips
    the sign multiply of an unsigned family: the transfer matrix is the
    reference's bit for bit, and every rejection keeps its type."""

    def test_every_preset_builds_the_reference_transfer(self, monkeypatch, capsys):
        from qbl.cli import main
        from qbl.presets import PRESET_NAMES

        made = []
        init = ch.Channel.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(ch.Channel, "__init__", recording)
        for name in PRESET_NAMES:
            main(["verify", name, "--samples", "3", "--budget", "restarts=1,iters=3",
                  "--no-meta"])
        capsys.readouterr()
        assert len(made) > len(PRESET_NAMES)
        for c in made:
            assert np.array_equal(c.transfer, _reference_transfer(c.kraus, c.signs))

    def test_every_kraus_family_builds_the_reference_transfer(self):
        rng = np.random.default_rng(21)
        families = [
            ch.identity_channel(3), ch.depolarizing(0.3), ch.trace_channel(3),
            ch.transpose_map(3), ch.partial_trace([2, 3], [1]),
            ch.measurement_channel(random_basis(3, rng)), random_channel(3, 2, rng=rng),
            ch.tensor(random_channel(2, 3, rng=rng), ch.depolarizing(0.2)),
        ]
        for c in families:
            assert np.array_equal(c.transfer, _reference_transfer(c.kraus, c.signs))
            again = ch.Channel(list(c.kraus), signs=list(c.signs),
                               allow_positive_only=c.allow_positive_only)
            assert np.array_equal(again.transfer, c.transfer)

    @pytest.mark.parametrize("kraus, signs, positive_only, error", [
        ([], None, False, ValueError),
        ([np.eye(2), np.ones((2, 3))], None, False, DimensionMismatch),
        ([np.eye(2), np.ones(2)], None, False, DimensionMismatch),
        ([np.eye(2)[0]], None, False, ValueError),
        ([[[np.nan, 0.0], [0.0, 1.0]]], None, False, ValueError),
        ([np.eye(2)], [1.0, 1.0], False, DimensionMismatch),
        ([np.eye(2)], [np.nan], False, ValueError),
        ([2.0 * np.eye(2)], None, False, NotTracePreserving),
        # E(X) = 2X - Z X Z is trace preserving and not positive
        ([np.sqrt(2.0) * np.eye(2), ch.PAULI_Z], [1.0, -1.0], False, NotCompletelyPositive),
        ([np.sqrt(2.0) * np.eye(2), ch.PAULI_Z], [1.0, -1.0], True, NotCompletelyPositive),
    ], ids=["empty", "mixed-shapes", "mixed-ranks", "vectors", "non-finite", "sign-count",
            "non-finite-sign", "not-trace-preserving", "choi", "spot-check"])
    def test_rejections_keep_their_type(self, kraus, signs, positive_only, error):
        with pytest.raises(ValueError) as exc:
            ch.Channel(kraus, signs=signs, allow_positive_only=positive_only)
        assert type(exc.value) is error

    def test_trace_and_choi_rejections_keep_their_messages(self):
        # unsigned: sum K^dag K = diag(1, 0.25), off by 0.75 (taken here from
        # the Kraus operators, not the transfer matrix)
        kraus = [np.diag([1.0, 0.5])]
        dev = np.max(np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(2)))
        with pytest.raises(NotTracePreserving) as got:
            ch.Channel(kraus)
        assert str(got.value) == f"sum s K^dag K deviates from identity by {dev:.3e}"
        # signed and trace preserving, not CP: E(X) = 2X - Z X Z has the Choi
        # matrix 2|I>><<I| - |Z>><<Z| with |I>> and |Z>> orthogonal, of norm
        # squared 2, so its least eigenvalue is -2, on |Z>>
        with pytest.raises(NotCompletelyPositive) as got:
            ch.Channel([np.sqrt(2.0) * np.eye(2), ch.PAULI_Z], signs=[1.0, -1.0])
        assert str(got.value) == f"Choi matrix eigenvalue {-2.0:.3e}"
