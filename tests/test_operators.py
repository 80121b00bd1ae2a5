"""Operator core: matrix functions, trace inequalities, weighted functionals."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

import qbl
from qbl import operators as op
from qbl.channels import Channel
from qbl.errors import (
    DimensionMismatch,
    InvalidExponent,
    NotCompletelyPositive,
    NotUnital,
    ZeroOperator,
)
from qbl.policy import SUPP_RTOL
from qbl.sampling import random_hermitian, random_pd

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def decode(m):
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class TestValidation:
    @pytest.mark.parametrize("cls", [op.HermitianOperator, op.PSDOperator, op.DensityOperator])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, cls, bad):
        # a nan entry once gave eigenvalues [nan, 1] and support rank 1,
        # an inf entry eigenvalues [nan, nan] and support rank 0
        with pytest.raises(ValueError, match="non-finite"):
            cls(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestStacks:
    """psd_stack and support_logs: PSDOperator's checks and matrix_log on a
    stack, one eigh for all of it."""

    def test_support_logs_match_matrix_log(self):
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        mats = [random_pd(3, rng), (u * [0.0, 0.3, 0.7]) @ u.conj().T, np.diag([1.0, 0.0, 0.0]),
                np.diag([1.0, 1e-11, 2.0])]
        herm, vals, vecs = op.psd_stack(mats)
        for m, h, got in zip(mats, herm, op.support_logs(vals, vecs)):
            want = op.matrix_log(op.PSDOperator(m))
            np.testing.assert_array_equal(h, op.PSDOperator(m).matrix)
            np.testing.assert_array_equal(got.finite, want.finite)
            assert got.has_kernel == want.has_kernel
            if want.has_kernel:
                np.testing.assert_array_equal(got.weight, want.weight)

    def test_density_stack_certifies_as_density_operator(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=3)
        mats = [3.0 * random_pd(3, rng), np.outer(v, v)]  # full rank, rank one
        states, vals, _ = op.density_stack(mats)
        for m, state, spectrum in zip(mats, states, vals):
            want = op.DensityOperator(m)
            np.testing.assert_array_equal(state, want.matrix)
            np.testing.assert_array_equal(spectrum, want.eigenvalues)
        with pytest.raises(ValueError, match="cannot normalize"):
            op.density_stack([np.eye(2), -np.eye(2)])

    def test_stacked_joint_supports_match_one_list_at_a_time(self):
        # lists of two dimensions, with no flag, one flag or two, of
        # different support ranks: each as sum_on_joint_support gives it
        rng = np.random.default_rng(11)
        lists = []
        for d in (2, 3, 2, 3, 3):
            for rank in (d, d - 1, 1):
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                lw = op.matrix_log(op.PSDOperator(g @ g.conj().T))
                lists.append([lw.scaled(0.7), op.matrix_log(op.PSDOperator(random_pd(d, rng)))])
                lists.append([lw, lw.scaled(2.0)])
        for terms, got_exp in zip(lists, op.exp_on_supports(lists), strict=True):
            np.testing.assert_array_equal(got_exp, op.exp_on_support(terms))

    @pytest.mark.parametrize("head_rank", [3, 2, 1])
    def test_stacked_terms_share_the_head_flag(self, head_rank):
        # terms given as stacks (n, d, d) of finite parts, led by one
        # SupportLog of rank head_rank: each row is its own list, and
        # log_trace_exp_rows gives each row's log_trace_exp_sum
        rng = np.random.default_rng(13)
        g = rng.normal(size=(3, head_rank)) + 1j * rng.normal(size=(3, head_rank))
        head = op.matrix_log(op.PSDOperator(g @ g.conj().T))
        rows = np.stack([[op.hermitian_part(rng.normal(size=(3, 3))) for _ in range(2)]
                         for _ in range(5)])
        vals, vecs = op.sum_on_joint_support([head, rows[:, 0], rows[:, 1]])
        logs = op.log_trace_exp_rows(rows, {}, head)
        for row, v, w, log in zip(rows, vals, vecs, logs, strict=True):
            want_v, want_w = op.sum_on_joint_support([head, row[0], row[1]])
            assert v.shape == (head_rank,)
            np.testing.assert_allclose(v, want_v, rtol=0, atol=1e-13)
            np.testing.assert_allclose(op.from_spectrum(v, w), op.from_spectrum(want_v, want_w),
                                       rtol=0, atol=1e-13)
            assert log == pytest.approx(op.log_trace_exp_sum([head, *row]), rel=1e-14)

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -0.1]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[0.5, 0.1], [0.0, 0.5]]),
    ])
    def test_psd_stack_rejects_what_psd_operator_rejects(self, bad):
        with pytest.raises(ValueError) as want:
            op.PSDOperator(bad)
        with pytest.raises(ValueError) as got:
            op.psd_stack([np.eye(2), bad])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("mats", [[], [np.eye(2), np.eye(3)], [np.ones((2, 3))]])
    def test_psd_stack_needs_square_matrices_of_one_shape(self, mats):
        with pytest.raises(DimensionMismatch):
            op.psd_stack(mats)

    def test_support_logs_of_zero_raise(self):
        _, vals, vecs = op.psd_stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ZeroOperator):
            op.support_logs(vals, vecs)


def _hermitian_stack(rng, d=2, n=3):
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return g @ g.conj().swapaxes(1, 2)


class TestWholeStackChecks:
    """The Hermiticity test accepts a finite stack whose largest skew is
    within HERM_RTOL at once; every other stack gets the per-matrix bound
    HERM_RTOL * max(1, max |entry|) and today's rejections."""

    def test_row_within_its_scaled_bound_only_is_accepted(self):
        # entries 100 and skew 5e-7: over HERM_RTOL = 1e-8, within 1e-8 * 100
        loose = np.array([[100.0, 5e-7], [0.0, 100.0]])
        mats = np.concatenate([np.eye(2)[None], loose[None], np.diag([2.0, 1.0])[None]])
        for given in (mats, list(mats)):
            herm, _, _ = op.psd_stack(given)
            for a, h in zip(mats, herm, strict=True):
                assert np.array_equal(h, 0.5 * (a + a.conj().T))
        assert np.array_equal(op.PSDOperator(loose).matrix, herm[1])

    def test_hermitian_stack_is_its_own_hermitian_part(self):
        mats = _hermitian_stack(np.random.default_rng(29))
        herm, _, _ = op.psd_stack(mats)
        assert np.array_equal(herm, 0.5 * (mats + mats.conj().swapaxes(1, 2)))

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                     complex(np.inf, 0.0)])
    def test_non_finite_row_raises_without_a_warning(self, row, entry, bad):
        mats = _hermitian_stack(np.random.default_rng(31))
        mats[(row, *entry)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                op.psd_stack(mats)
            with pytest.raises(ValueError, match="non-finite"):
                op.PSDOperator(mats[row])

    @pytest.mark.parametrize("bad, skew", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), 0.1),
        (np.array([[100.0, 2e-6], [0.0, 100.0]]), 2e-6),  # over 1e-8 * 100
    ])
    def test_non_hermitian_row_keeps_its_message(self, bad, skew):
        want = f"matrix is not Hermitian: max |A - A^dag| = {skew:.3e}"
        for build in (op.PSDOperator, lambda m: op.psd_stack([np.eye(2), m, np.eye(2)]),
                      lambda m: op.psd_stack(np.stack([np.eye(2), m]))):
            with pytest.raises(ValueError) as got:
                build(bad)
            assert type(got.value) is ValueError and str(got.value) == want


class TestIndependentReference:
    """psd_stack and support_logs row by row against numpy on one matrix at
    a time, bit for bit: eigh of the Hermitian part, and the logarithm on
    the support, V_s diag(log w_s) V_s^dag, with the kernel projector as
    the flag."""

    @staticmethod
    def _stack(rng, d, deficient):
        """Seven PSD d x d matrices: of full rank, or of ranks 1..d-1."""
        mats = []
        for i in range(7):
            rank = 1 + i % (d - 1) if deficient else d
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            mats.append(g @ g.conj().T)
        return mats

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("deficient", [False, True])
    def test_rows_match_one_matrix_at_a_time(self, d, deficient):
        mats = self._stack(np.random.default_rng(37 + d), d, deficient)
        for given in (mats, np.stack(mats)):
            herm, vals, vecs = op.psd_stack(given)
            logs = op.support_logs(vals, vecs)
            for a, h, w, v, log in zip(mats, herm, vals, vecs, logs, strict=True):
                h_ref = 0.5 * (a + a.conj().T)
                w_ref, v_ref = np.linalg.eigh(h_ref)
                assert np.array_equal(h, h_ref)
                assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
                keep = w_ref > SUPP_RTOL * max(1.0, w_ref[-1])
                on, off = v_ref[:, keep], v_ref[:, ~keep]
                finite = (on * np.log(w_ref[keep])) @ on.conj().T
                assert np.array_equal(log.finite, 0.5 * (finite + finite.conj().T))
                assert log.has_kernel == deficient
                if deficient:
                    assert np.array_equal(log.weight, off @ off.conj().T)


def _same_operator(a, b):
    assert type(a) is type(b)
    for x, y in ((a.matrix, b.matrix), (a.eigenvalues, b.eigenvalues),
                 (a.eigenvectors, b.eigenvectors)):
        assert np.array_equal(x, y)
    assert a.eps_supp == b.eps_supp and a.support_rank == b.support_rank


def _mixed_rank_mats(rng, d=3):
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return [3.0 * random_pd(d, rng), (u * [0.0, 0.3, 0.7]) @ u.conj().T,
            np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1e-11, 2.0]), np.diag([2.0, 1e-10, 5e-11])]


class TestStackOfOne:
    """One operator is the row of a stack of one: an operator built from a
    certified stack's row equals the one built alone, and one list's
    sum_on_joint_support equals its row of the grouped call."""

    def test_rows_equal_operators_built_alone(self):
        mats = _mixed_rank_mats(np.random.default_rng(13))
        for single in op.PSDOperator.from_stack(*op.psd_stack(mats)):
            assert type(single) is op.PSDOperator
        for cls, stack in ((op.PSDOperator, op.psd_stack), (op.DensityOperator, op.density_stack)):
            for m, row in zip(mats, cls.from_stack(*stack(mats)), strict=True):
                _same_operator(row, cls(m))
                got, want = op.matrix_log(row), op.matrix_log(cls(m))
                assert np.array_equal(got.finite, want.finite)
                assert got.has_kernel == want.has_kernel

    def test_one_list_is_its_row_of_the_grouped_call(self):
        rng = np.random.default_rng(17)
        lists = []
        for d in (2, 3, 3):
            for rank in (d, d - 1, 1):
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                lw = op.matrix_log(op.PSDOperator(g @ g.conj().T))
                lists.append([lw.scaled(0.7), random_hermitian(d, rng)])  # flagged unless rank d
                lists.append([random_hermitian(d, rng), random_hermitian(d, rng)])  # unflagged
        seen = set()
        for rows, vals, vecs in op._joint_support_groups(lists):
            for i, v, u in zip(rows, vals, vecs):
                got_vals, got_vecs = op.sum_on_joint_support(lists[i])
                assert np.array_equal(got_vals, v) and np.array_equal(got_vecs, u)
                ((_, alone_vals, alone_vecs),) = op._joint_support_groups([lists[i]])
                assert np.array_equal(got_vals, alone_vals[0])
                assert np.array_equal(got_vecs, alone_vecs[0])
                seen.add(i)
        assert seen == set(range(len(lists)))

    @pytest.mark.parametrize("bad, kind, match", [
        (np.diag([1.0, -0.1]), ValueError, "not PSD"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), ValueError, "not Hermitian"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError, "non-finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError, "non-finite"),
        (np.ones((2, 3)), DimensionMismatch, "square"),
    ])
    def test_rejections_keep_their_types(self, bad, kind, match):
        for build in (op.PSDOperator, op.DensityOperator, lambda m: op.psd_stack([np.eye(2), m]),
                      lambda m: op.density_stack(np.stack([np.ones_like(m), m]))):
            with pytest.raises(kind, match=match) as got:
                build(bad)
            assert type(got.value) is kind

    def test_density_rejections_keep_their_types(self):
        for bad in (np.zeros((2, 2)), -np.eye(2), np.ones(3)):
            with pytest.raises(ValueError) as alone:
                op.DensityOperator(bad)
            with pytest.raises(ValueError) as stacked:
                op.density_stack(bad[None])
            assert type(alone.value) is type(stacked.value)
            assert str(alone.value) == str(stacked.value)
        with pytest.raises(DimensionMismatch):
            op.DensityOperator(np.ones(3))
        for log in (op.matrix_log, lambda m: op.support_logs(*op.psd_stack([m])[1:])):
            with pytest.raises(ZeroOperator):
                log(np.zeros((2, 2)))


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

    @pytest.mark.parametrize("diag", [[0.3, 0.7], [1.0, 0.0]], ids=["definite", "kernel"])
    def test_log_kept_on_the_operator(self, diag):
        # a second call returns the same arrays, which no caller can write
        a = op.PSDOperator(np.diag(diag))
        first = op.matrix_log(a)
        again = op.matrix_log(a)
        assert again.finite is first.finite and again.weight is first.weight
        arrays = [first.finite] + ([first.weight] if first.has_kernel else [])
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        fresh = op.matrix_log(op.PSDOperator(np.diag(diag)))
        np.testing.assert_array_equal(first.finite, fresh.finite)

    def test_zero_operator_raises_every_time(self):
        a = op.PSDOperator(np.zeros((2, 2)))
        for _ in range(2):
            with pytest.raises(ZeroOperator):
                op.matrix_log(a)


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
        found = op.find_antinorm_counterexample(p=2.0, seed=0)
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


def lieb_triple_quadrature(a, b, c):
    """Reference: adaptive quadrature of the resolvent integrand on s in
    [0, 1] after t = s/(1-s); the s -> 1 endpoint limit is tr(a P b P), P
    the projector on supp c (tr(a b) for a positive definite c). The
    eigenvalues of c at or below its support cut are taken as 0."""
    gvals, gvecs = np.linalg.eigh(c)
    keep = gvals > SUPP_RTOL * max(1.0, gvals[-1])
    gvals = np.where(keep, gvals, 0.0)
    at = gvecs.conj().T @ a @ gvecs
    bt = gvecs.conj().T @ b @ gvecs

    def integrand(s):
        if s >= 1.0:
            return float(np.trace(at[np.ix_(keep, keep)] @ bt[np.ix_(keep, keep)]).real)
        r = gvals / (1.0 + s / (1.0 - s) * gvals)  # eigenvalues of (c^-1 + t)^-1
        return float(np.einsum("ij,j,ji,i->", at, r, bt, r).real) / (1.0 - s) ** 2

    return quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


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

    def test_matches_quadrature_reference(self):
        rng = np.random.default_rng(61)
        for i in range(900):
            a, b, c = (random_pd(2 + i % 3, rng) for _ in range(3))
            val = op.lieb_triple_integral(op.PSDOperator(a), op.PSDOperator(b), op.PSDOperator(c))
            assert val == pytest.approx(lieb_triple_quadrature(a, b, c), rel=1e-12)

    @pytest.mark.parametrize("gvals", [[2.0, 2.0, 0.5], [1.0, 1.0 + 1e-13, 0.3]])
    def test_near_equal_eigenvalues_of_c(self, gvals):
        # pairs within 1e-12 relative take the L(x, x) = 1/x branch
        rng = np.random.default_rng(62)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        for c in (np.diag(gvals), (u * gvals) @ u.conj().T):
            a, b = random_pd(3, rng), random_pd(3, rng)
            val = op.lieb_triple_integral(op.PSDOperator(a), op.PSDOperator(b), op.PSDOperator(c))
            assert val == pytest.approx(lieb_triple_quadrature(a, b, c), rel=1e-12)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_singular_c_matches_quadrature(self, rank):
        # the kernel g_i g_j L(g_i, g_j) vanishes with either eigenvalue, so
        # a singular c gives the integral on its support
        rng = np.random.default_rng(66)
        for _ in range(30):
            u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            g = np.concatenate([np.zeros(3 - rank), rng.uniform(0.1, 2.0, rank)])
            a, b, c = random_pd(3, rng), random_pd(3, rng), (u * g) @ u.conj().T
            val = op.lieb_triple_integral(a, b, c)
            assert val == pytest.approx(lieb_triple_quadrature(a, b, c), rel=1e-12)

    def test_given_spectrum_of_c(self):
        # a caller's eigendecomposition of c gives the value a PSDOperator
        # of c gives, a singular c included; an eigenvalue at or below the
        # support cut weighs 0, one just above it counts
        rng = np.random.default_rng(63)
        for dim in (2, 3, 4):
            a, b, c = (random_pd(dim, rng) for _ in range(3))
            ops = [op.PSDOperator(x) for x in (a, b, c)]
            given = op.lieb_triple_integral(*ops, spectrum=np.linalg.eigh(ops[2].matrix))
            assert given == op.lieb_triple_integral(*ops)
        for g, want in (([1.0, 0.0], 1.0), ([1.0, 5e-11], 1.0), ([1.0, 2e-10], 1.0 + 2e-10)):
            c = np.diag(g)
            given = op.lieb_triple_integral(np.eye(2), np.eye(2), c, spectrum=np.linalg.eigh(c))
            assert given == op.lieb_triple_integral(np.eye(2), np.eye(2), op.PSDOperator(c))
            assert given == pytest.approx(want, rel=1e-15)

    def test_stack_rows_match_each_row_alone(self):
        # each row of a stack's value is that row's triple alone, as
        # matrices and as PSDOperators, bit for bit, with or without the
        # stacked spectrum of c; the stacks are certified first, so that a
        # PSDOperator keeps each matrix as it is
        rng = np.random.default_rng(64)
        for dim in (2, 3):
            a, b, c = (op.psd_stack(random_pd(dim, rng, 12))[0] for _ in range(3))
            stacked = op.lieb_triple_integral(a, b, c)
            assert stacked.shape == (12,)
            given = op.lieb_triple_integral(a, b, c, spectrum=op.psd_stack(c)[1:])
            assert np.array_equal(given, stacked)
            for i in range(12):
                assert stacked[i] == op.lieb_triple_integral(a[i], b[i], c[i])
                ops = [op.PSDOperator(x[i]) for x in (a, b, c)]
                assert stacked[i] == op.lieb_triple_integral(*ops)
        # singular rows of c (a kernel, an eigenvalue under the support
        # cut) in the first, a middle and the last row
        a, b, c = (random_pd(2, rng, 12) for _ in range(3))
        c[0], c[5], c[11] = np.diag([1.0, 0.0]), np.diag([1.0, 5e-11]), np.diag([0.0, 1.0])
        a, b, c = (op.psd_stack(x)[0] for x in (a, b, c))
        stacked = op.lieb_triple_integral(a, b, c)
        assert np.array_equal(op.lieb_triple_integral(a, b, c, spectrum=op.psd_stack(c)[1:]),
                              stacked)
        for i in range(12):
            assert stacked[i] == op.lieb_triple_integral(a[i], b[i], c[i])


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

    def test_runtime_imports_no_scipy(self):
        src = os.path.dirname(os.path.dirname(qbl.__file__))
        code = "import sys, qbl.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"

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


class TestTolerances:
    """Each fixed tolerance pinned on both sides of its boundary."""

    @pytest.mark.parametrize("s0", [1.0, 100.0])
    def test_hermiticity_at_1e_8(self, s0):
        # max |A - A^dag| may reach 1e-8 * max(1, max|entry|)
        assert op.HermitianOperator([[s0, 5e-9 * s0], [0.0, s0]]).dim == 2
        with pytest.raises(ValueError, match="not Hermitian"):
            op.HermitianOperator([[s0, 2e-8 * s0], [0.0, s0]])

    def test_support_cut_at_1e_10(self):
        assert op.PSDOperator(np.diag([1.0, 2e-10])).support_rank == 2
        assert op.PSDOperator(np.diag([1.0, 5e-11])).support_rank == 1

    def test_support_cut_scales_with_largest_eigenvalue(self):
        # the cut is 1e-10 * max(1, lambda_max) = 1e-8 here
        assert op.PSDOperator(np.diag([100.0, 5e-9])).support_rank == 1
        assert op.PSDOperator(np.diag([100.0, 2e-8])).support_rank == 2

    def test_negative_eigenvalue_slack(self):
        assert op.PSDOperator(np.diag([1.0, -5e-11])).support_rank == 1
        with pytest.raises(ValueError, match="not PSD"):
            op.PSDOperator(np.diag([1.0, -2e-10]))

    @staticmethod
    def _signed_family(eps: float) -> Channel:
        # trace preserving; the Choi matrix has eigenvalues 2(1 + eps) and -2 eps
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        return Channel([np.sqrt(1.0 + eps) * np.eye(2), np.sqrt(eps) * x], signs=[1.0, -1.0])

    def test_choi_slack_at_1e_9(self):
        chan = self._signed_family(2e-10)
        assert float(np.linalg.eigvalsh(chan.choi_matrix())[0]) == pytest.approx(-4e-10, rel=1e-6)
        with pytest.raises(NotCompletelyPositive):
            self._signed_family(1e-9)
