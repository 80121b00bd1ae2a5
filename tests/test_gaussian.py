"""Gaussian states: symplectic entropy, marginals, heat flow, deficits."""

import numpy as np
import pytest

from qbl import gaussian as g
from qbl.errors import DimensionMismatch, InvalidDatum, InvalidState, NegativeTime


def random_valid_cov(m: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(2 * m, 2 * m)) * scale
    return a @ a.T + np.eye(2 * m)


def random_symplectic(m: int, rng: np.random.Generator) -> np.ndarray:
    # exp(Omega S) with S symmetric is symplectic
    s = rng.normal(size=(2 * m, 2 * m)) * 0.3
    s = 0.5 * (s + s.T)
    from scipy.linalg import expm

    return expm(g.symplectic_form(m) @ s)


class TestGaussianState:
    def test_vacuum_entropy_zero(self):
        assert g.gaussian_entropy(g.vacuum(2)) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_scalar_formula(self):
        nbar = 1.7
        expected = (nbar + 1) * np.log(nbar + 1) - nbar * np.log(nbar)
        assert g.gaussian_entropy(g.thermal(1, nbar)) == pytest.approx(expected, rel=1e-12)

    def test_mean_independent(self):
        rng = np.random.default_rng(0)
        cov = random_valid_cov(2, rng)
        a = g.GaussianState(cov)
        b = g.GaussianState(cov, mean=rng.normal(size=4))
        assert g.gaussian_entropy(a) == pytest.approx(g.gaussian_entropy(b), rel=1e-14)

    def test_uncertainty_relation_enforced(self):
        with pytest.raises(InvalidState):
            g.GaussianState(0.5 * np.eye(2))

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cov = random_valid_cov(2, rng)
            s = random_symplectic(2, rng)
            h1 = g.gaussian_entropy(g.GaussianState(cov))
            h2 = g.gaussian_entropy(g.GaussianState(s @ cov @ s.T))
            assert h1 == pytest.approx(h2, rel=1e-9, abs=1e-9)

    def test_heat_flowed_vacuum_asymptotics(self):
        # entropy per mode approaches 1 - log 2 + log t
        for t in (1e3, 1e5):
            st = g.heat_flow(g.vacuum(3), t)
            per_mode = g.gaussian_entropy(st) / 3
            assert per_mode == pytest.approx(1 - np.log(2) + np.log(t), abs=1e-2 / t * 1e3)


class TestMarginal:
    def test_full_space_is_identity(self):
        rng = np.random.default_rng(2)
        cov = random_valid_cov(2, rng)
        st = g.GaussianState(cov, mean=rng.normal(size=4))
        sub = g.Subspace(np.eye(2))
        out = g.gaussian_marginal(st, sub)
        np.testing.assert_allclose(out.cov, st.cov, atol=1e-13)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-13)

    def test_coordinate_axis_of_product(self):
        cov = np.diag([2.0, 3.0, 4.0, 5.0])  # modes (Q1,Q2,P1,P2)
        st = g.GaussianState(cov)
        sub = g.Subspace(np.array([[1.0], [0.0]]))
        out = g.gaussian_marginal(st, sub)
        np.testing.assert_allclose(out.cov, np.diag([2.0, 4.0]), atol=1e-13)

    def test_congruence_oracle(self):
        rng = np.random.default_rng(3)
        cov = random_valid_cov(2, rng)
        mean = rng.normal(size=4)
        st = g.GaussianState(cov, mean)
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        sub = g.Subspace(v)
        out = g.gaussian_marginal(st, sub)
        t = np.zeros((2, 4))
        t[0, :2] = v[:, 0]
        t[1, 2:] = v[:, 0]
        np.testing.assert_allclose(out.cov, t @ cov @ t.T, atol=1e-12)
        np.testing.assert_allclose(out.mean, t @ mean, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            g.gaussian_marginal(g.vacuum(2), g.Subspace(np.eye(3)[:, :1]))

    def test_marginal_of_valid_state_is_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            st = g.GaussianState(random_valid_cov(3, rng))
            sub = g.Subspace(np.linalg.qr(rng.normal(size=(3, 2)))[0])
            g.gaussian_marginal(st, sub)  # constructor validates


class TestHeatFlow:
    def test_zero_time_identity(self):
        st = g.vacuum(2)
        out = g.heat_flow(st, 0.0)
        np.testing.assert_allclose(out.cov, st.cov, atol=1e-14)

    def test_vacuum_one_unit(self):
        out = g.heat_flow(g.vacuum(1), 1.0)
        np.testing.assert_allclose(out.cov, 2.0 * np.eye(2), atol=1e-14)
        # nu = 2 -> x = 1/2 -> f(1/2) = (3/2)ln(3/2) - (1/2)ln(1/2)
        expected = 1.5 * np.log(1.5) - 0.5 * np.log(0.5)
        assert g.gaussian_entropy(out) == pytest.approx(expected, rel=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        st = g.GaussianState(random_valid_cov(2, rng))
        a = g.heat_flow(g.heat_flow(st, 0.4), 1.3)
        b = g.heat_flow(st, 1.7)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)

    def test_commutes_with_marginal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            st = g.GaussianState(random_valid_cov(2, rng), rng.normal(size=4))
            sub = g.Subspace(np.linalg.qr(rng.normal(size=(2, 1)))[0])
            t = float(rng.uniform(0, 5))
            a = g.gaussian_marginal(g.heat_flow(st, t), sub)
            b = g.heat_flow(g.gaussian_marginal(st, sub), t)
            np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            g.heat_flow(g.vacuum(1), -0.1)


class TestGeometricDatum:
    def test_coordinate_axes(self):
        ok, dev, tr_res = g.geometric_datum_check(g.coordinate_axes(2), [1.0, 1.0])
        assert ok and dev < 1e-12 and abs(tr_res) < 1e-12

    def test_mercedes_star(self):
        subs, q = g.mercedes_star()
        ok, dev, tr_res = g.geometric_datum_check(subs, q)
        assert ok and dev < 1e-9 and abs(tr_res) < 1e-12

    def test_random_generically_fails(self):
        rng = np.random.default_rng(7)
        fails = 0
        for _ in range(20):
            basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
            subs = [g.Subspace(basis), g.Subspace(np.linalg.qr(rng.normal(size=(3, 1)))[0])]
            ok, _, _ = g.geometric_datum_check(subs, [float(rng.uniform(0.2, 2))] * 2)
            fails += not ok
        assert fails == 20

    def test_one_weight_per_subspace(self):
        # the x and y axes with weights 1 resolve the identity; a third
        # line must not be dropped by pairing three lines with two weights
        subs = g.coordinate_axes(2) + [g.Subspace(np.array([[0.6], [0.8]]))]
        with pytest.raises(DimensionMismatch):
            g.geometric_datum_check(subs, [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            g.geometric_bl_deficit(g.vacuum(2), subs, [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            g.deficit_trajectory(g.vacuum(2), subs, [1.0, 1.0], [0.0])


class TestDeficit:
    def test_axes_product_state_zero(self):
        cov = np.diag([2.0, 3.0, 2.0, 3.0])
        val = g.geometric_bl_deficit(g.GaussianState(cov), g.coordinate_axes(2), [1.0, 1.0])
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_axes_correlated_positive(self):
        cov = np.eye(4) * 2.0
        cov[0, 1] = cov[1, 0] = 0.9
        val = g.geometric_bl_deficit(g.GaussianState(cov), g.coordinate_axes(2), [1.0, 1.0])
        assert val > 1e-3

    def test_mercedes_sampled_nonnegative(self):
        subs, q = g.mercedes_star()
        rng = np.random.default_rng(8)
        for _ in range(500):
            st = g.GaussianState(random_valid_cov(2, rng))
            assert g.geometric_bl_deficit(st, subs, q) >= -1e-8

    def test_invalid_datum_rejected(self):
        with pytest.raises(InvalidDatum):
            g.geometric_bl_deficit(g.vacuum(2), g.coordinate_axes(2), [1.0, 0.5])

    def test_isotropic_state_zero_for_all_times(self):
        subs, q = g.mercedes_star()
        st = g.GaussianState(3.0 * np.eye(4))
        for row in g.deficit_trajectory(st, subs, q, [0.0, 1.0, 10.0]):
            assert row["deficit"] == pytest.approx(0.0, abs=1e-10)


class TestTrajectory:
    def test_monotone_and_vanishing(self):
        subs, q = g.mercedes_star()
        rng = np.random.default_rng(9)
        grid = np.concatenate([[0.0], np.geomspace(0.01, 1000.0, 30)])
        for _ in range(10):
            s = float(rng.uniform(1.5, 4.0))
            angle = float(rng.uniform(0, np.pi))
            r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            block = r @ np.diag([s, 1.0 / s]) @ r.T
            cov = np.block(
                [[block, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(block)]]
            )
            rows = g.deficit_trajectory(g.GaussianState(cov), subs, q, grid)
            deficits = [row["deficit"] for row in rows]
            for a, b in zip(deficits, deficits[1:]):
                assert b <= a + 1e-7
            assert deficits[-1] < 1e-3

    def test_matches_pointwise_recomputation(self):
        subs = g.coordinate_axes(2)
        cov = np.eye(4) * 1.5
        cov[0, 1] = cov[1, 0] = 0.4
        st = g.GaussianState(cov)
        rows = g.deficit_trajectory(st, subs, [1.0, 1.0], [0.0, 2.0, 7.0])
        for row in rows:
            direct = g.geometric_bl_deficit(g.heat_flow(st, row["t"]), subs, [1.0, 1.0])
            assert row["deficit"] == pytest.approx(direct, abs=1e-12)
