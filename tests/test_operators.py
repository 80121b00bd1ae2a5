"""Operator core: matrix functions, trace inequalities, weighted functionals."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qbl import operators as op
from qbl.errors import InvalidExponent, NotUnital, SingularC, ZeroOperator
from qbl.sampling import random_hermitian, random_pd

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def decode(m):
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class TestLogSumExp:
    """operators.log_sum_exp against scipy.special.logsumexp as reference."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), width=st.integers(1, 32))
    def test_matches_scipy(self, seed, rows, width):
        rng = np.random.default_rng(seed)
        vals = rng.normal(scale=50.0, size=(rows, width))
        vals[rng.random(vals.shape) < 0.3] = -np.inf
        vals[0] = -np.inf  # one all -inf row
        got = op.log_sum_exp(vals)
        with np.errstate(divide="ignore"):
            ref = logsumexp(vals, axis=-1)
        assert got.shape == (rows,)
        assert got[0] == -np.inf
        np.testing.assert_allclose(got, ref, rtol=1e-13)
        np.testing.assert_allclose(op.log_sum_exp(vals[-1]), ref[-1], rtol=1e-13)

    def test_non_finite_entries(self):
        vals = np.array([[np.nan, 0.0], [np.inf, 1.0], [1e300, 1e300]])
        got = op.log_sum_exp(vals)
        assert np.isnan(got[0]) and got[1] == np.inf
        assert got[2] == pytest.approx(1e300 + np.log(2.0), rel=1e-15)


class TestMatrixLogExp:
    def test_log_identity_is_zero(self):
        res = op.matrix_log(op.identity(2))
        assert not res.has_kernel
        np.testing.assert_allclose(res.finite, np.zeros((2, 2)), atol=1e-14)

    def test_log_diagonal(self):
        a = op.PSDOperator(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(op.matrix_log(a).finite, np.diag([1.0, 2.0]), atol=1e-13)

    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(op.matrix_exp(op.zero(2)).matrix, np.eye(2), atol=1e-14)

    def test_exp_diagonal(self):
        h = op.HermitianOperator(np.diag([0.0, np.log(2.0)]))
        np.testing.assert_allclose(op.matrix_exp(h).matrix, np.diag([1.0, 2.0]), atol=1e-13)

    def test_round_trip_random_pd(self):
        # exp(log A) = A is the independent round-trip oracle
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = random_pd(3, rng)
            back = op.matrix_exp(op.matrix_log(op.PSDOperator(a)))
            np.testing.assert_allclose(back.matrix, a, atol=1e-9)

    def test_spectral_mapping(self):
        rng = np.random.default_rng(1)
        h = op.HermitianOperator(random_hermitian(4, rng))
        out = op.matrix_exp(h)
        np.testing.assert_allclose(out.eigenvalues, np.exp(h.eigenvalues), rtol=1e-12)

    def test_log_of_zero_operator_raises(self):
        with pytest.raises(ZeroOperator):
            op.matrix_log(op.PSDOperator(np.zeros((2, 2))))

    def test_kernel_flagged(self):
        res = op.matrix_log(op.PSDOperator(np.diag([1.0, 0.0])))
        assert res.has_kernel
        np.testing.assert_allclose(res.weight, np.diag([0.0, 1.0]), atol=1e-12)


class TestTraceExpSum:
    def test_zero_operator(self):
        assert op.trace_exp_sum([op.zero(3)]) == pytest.approx(3.0, abs=1e-12)

    def test_commuting_diagonal(self):
        terms = [np.diag([np.log(2.0), 0.0]), np.diag([0.0, np.log(2.0)])]
        assert op.trace_exp_sum(terms) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_golden_thompson(self, dim):
        # tr exp(H1 + H2) <= tr exp(H1) exp(H2) on 200 random pairs
        rng = np.random.default_rng(dim)
        for _ in range(200):
            h1, h2 = random_hermitian(dim, rng), random_hermitian(dim, rng)
            lhs = op.trace_exp_sum([h1, h2])
            rhs = float(
                np.trace(op.matrix_exp(op.HermitianOperator(h1)).matrix
                         @ op.matrix_exp(op.HermitianOperator(h2)).matrix).real
            )
            assert lhs <= rhs + 1e-9

    def test_joint_support_restriction(self):
        # kernel of one term excludes the direction from the trace-exp
        sig = op.PSDOperator(np.diag([0.5, 0.5, 0.0]))
        val = op.trace_exp_sum([op.matrix_log(sig), op.zero(3)])
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_empty_joint_support(self):
        a = op.matrix_log(op.PSDOperator(np.diag([1.0, 0.0])))
        b = op.matrix_log(op.PSDOperator(np.diag([0.0, 1.0])))
        assert op.trace_exp_sum([a, b]) == 0.0
        assert op.log_trace_exp_sum([a, b]) == float("-inf")

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            op.trace_exp_sum([op.zero(2), op.zero(3)])


class TestSchatten:
    def test_identity_p1(self):
        assert op.schatten(op.identity(4), 1) == pytest.approx(4.0)

    def test_inf_norm(self):
        assert op.schatten(op.PSDOperator(np.diag([3.0, 4.0])), np.inf) == pytest.approx(4.0)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            op.schatten(op.identity(2), 0.0)

    def test_half_norm_superadditive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_pd(3, rng), random_pd(3, rng)
            lhs = op.schatten(op.PSDOperator(a + b), 0.5)
            rhs = op.schatten(op.PSDOperator(a), 0.5) + op.schatten(op.PSDOperator(b), 0.5)
            assert lhs >= rhs - 1e-9


class TestWeightedAntinorm:
    def test_identity_weight_reduces_to_trace(self):
        rng = np.random.default_rng(2)
        w = op.PSDOperator(random_pd(2, rng))
        assert op.weighted_antinorm(w, op.identity(2), 1.0) == pytest.approx(w.trace(), rel=1e-12)

    def test_commuting_diagonal(self):
        w = op.PSDOperator(np.diag([2.0, 3.0]))
        sig = op.PSDOperator(np.diag([0.25, 0.5]))
        assert op.weighted_antinorm(w, sig, 1.0) == pytest.approx(2 * 0.25 + 3 * 0.5, rel=1e-12)

    def test_superadditive_for_p_below_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w1, w2, sig = (op.PSDOperator(random_pd(2, rng)) for _ in range(3))
            p = float(rng.uniform(0.1, 1.0))
            lhs = op.weighted_antinorm(op.PSDOperator(w1.matrix + w2.matrix), sig, p)
            rhs = op.weighted_antinorm(w1, sig, p) + op.weighted_antinorm(w2, sig, p)
            assert lhs >= rhs - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 1000), p=st.floats(0.1, 1.0))
    def test_homogeneous(self, alpha, seed, p):
        rng = np.random.default_rng(seed)
        w = op.PSDOperator(random_pd(2, rng))
        sig = op.PSDOperator(random_pd(2, rng))
        scaled = op.weighted_antinorm(op.PSDOperator(alpha * w.matrix), sig, p)
        assert scaled == pytest.approx(alpha * op.weighted_antinorm(w, sig, p), rel=1e-10)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            op.weighted_antinorm(op.identity(2), op.identity(2), -1.0)

    def test_p_above_one_violation_found_and_replayed(self):
        # neither a norm nor an anti-norm for p > 1: the randomized search
        # finds a quadruple breaking each direction; the frozen fixture
        # replays a previously found instance
        found = op.find_antinorm_counterexample(p=2.0, seed=0, max_tries=20000)
        assert found["sub_violation"]["gap"] > 0
        assert found["super_violation"]["gap"] < 0
        with open(os.path.join(DATA_DIR, "antinorm_p2_violation.json")) as fh:
            fix = json.load(fh)
        p = fix["p"]
        sig = op.PSDOperator(decode(fix["sigma"]))
        for key, sign in (("sub_violation", 1.0), ("super_violation", -1.0)):
            w1 = op.PSDOperator(decode(fix[key]["w1"]))
            w2 = op.PSDOperator(decode(fix[key]["w2"]))
            gap = (
                op.weighted_antinorm(op.PSDOperator(w1.matrix + w2.matrix), sig, p)
                - op.weighted_antinorm(w1, sig, p)
                - op.weighted_antinorm(w2, sig, p)
            )
            assert sign * gap > 1e-9
            assert gap == pytest.approx(fix[key]["gap"], rel=1e-9)


def lieb_triple_closed_form(a, b, c):
    """Independent oracle: expand the resolvent integral in the eigenbasis
    of c, where each t-integral has a closed form."""
    gvals, gvecs = np.linalg.eigh(c)
    at = gvecs.conj().T @ a @ gvecs
    bt = gvecs.conj().T @ b @ gvecs
    total = 0.0
    for i, gi in enumerate(gvals):
        for j, gj in enumerate(gvals):
            if abs(gi - gj) < 1e-12 * max(gi, gj):
                w = 0.5 * (gi + gj)
            else:
                w = gi * gj * np.log(gi / gj) / (gi - gj)
            total += (at[i, j] * bt[j, i]).real * w
    return total


class TestLiebTriple:
    def test_commuting_diagonals(self):
        av, bv, cv = np.array([1.0, 2.0]), np.array([0.5, 3.0]), np.array([2.0, 0.7])
        val = op.lieb_triple_integral(
            op.PSDOperator(np.diag(av)), op.PSDOperator(np.diag(bv)), op.PSDOperator(np.diag(cv))
        )
        assert val == pytest.approx(float(np.sum(av * bv * cv)), abs=1e-9)

    def test_identities(self):
        one = op.identity(2)
        assert op.lieb_triple_integral(one, one, one) == pytest.approx(2.0, abs=1e-9)

    def test_upper_bounds_trace_exponential(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            for _ in range(67):
                a, b, c = (random_pd(dim, rng) for _ in range(3))
                lhs = op.trace_exp_sum([op.matrix_log(op.PSDOperator(x)).finite for x in (a, b, c)])
                rhs = op.lieb_triple_integral(
                    op.PSDOperator(a), op.PSDOperator(b), op.PSDOperator(c)
                )
                assert lhs <= rhs + 1e-8

    def test_matches_eigenbasis_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, c = (random_pd(3, rng) for _ in range(3))
            val = op.lieb_triple_integral(op.PSDOperator(a), op.PSDOperator(b), op.PSDOperator(c))
            assert val == pytest.approx(lieb_triple_closed_form(a, b, c), abs=1e-8)

    def test_singular_c_rejected(self):
        with pytest.raises(SingularC):
            op.lieb_triple_integral(
                op.identity(2), op.identity(2), op.PSDOperator(np.diag([1.0, 0.0]))
            )


class TestOperatorJensen:
    def test_identity_map(self):
        rng = np.random.default_rng(8)
        x = op.PSDOperator(random_pd(2, rng))
        holds, wmin = op.operator_jensen_check(lambda m: m, x)
        assert holds and abs(wmin) < 1e-10

    def test_pinching(self):
        rng = np.random.default_rng(9)
        pinch = lambda m: np.diag(np.diag(m))
        for _ in range(20):
            holds, _ = op.operator_jensen_check(pinch, op.PSDOperator(random_pd(2, rng)))
            assert holds

    def test_depolarizing_adjoint_diagonal(self):
        # full depolarization: log of the averaged state vs averaged log
        m = lambda x: np.trace(x) / 2.0 * np.eye(2)
        holds, wmin = op.operator_jensen_check(m, op.PSDOperator(np.diag([1.0, 4.0])))
        assert holds
        assert wmin == pytest.approx(np.log(2.5) - 0.5 * np.log(4.0), abs=1e-10)

    def test_non_unital_rejected(self):
        with pytest.raises(NotUnital):
            op.operator_jensen_check(lambda m: 2.0 * m, op.identity(2))


class TestInvariants:
    def test_round_trip_well_conditioned(self):
        rng = np.random.default_rng(10)
        for dim in (2, 4, 8):
            vals = np.exp(rng.uniform(-8, 8, size=dim))  # condition <= ~1e7
            u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            a = (u * vals) @ u.conj().T
            back = op.matrix_exp(op.matrix_log(op.PSDOperator(a)))
            np.testing.assert_allclose(back.matrix, a, atol=1e-9 * max(1.0, vals.max()))

    def test_hermitian_rejects_garbage(self):
        with pytest.raises(ValueError):
            op.HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_renormalizes(self):
        rho = op.DensityOperator(np.diag([2.0, 2.0]))
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_psd_rejects_negative(self):
        with pytest.raises(ValueError):
            op.PSDOperator(np.diag([1.0, -0.5]))

    def test_eigendecomposition_reconstructs(self):
        rng = np.random.default_rng(11)
        h = op.HermitianOperator(random_hermitian(5, rng))
        recon = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
        scale = 1.0 + np.max(np.abs(h.matrix))
        assert np.max(np.abs(recon - h.matrix)) < 1e-10 * scale
