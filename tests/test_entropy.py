"""Entropies, relative entropy, and the two variational formulas."""

import numpy as np
import pytest

from qbl import channels as ch
from qbl import entropy as ent
from qbl import operators as op
from qbl.errors import ZeroTrace
from qbl.sampling import haar_pure, hs_mixed, random_channel, random_hermitian, random_pd

INF = float("inf")


class TestVonNeumann:
    def test_pure_state(self):
        rng = np.random.default_rng(0)
        assert ent.von_neumann(haar_pure(4, rng)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert ent.von_neumann(np.eye(4) / 4) == pytest.approx(np.log(4), rel=1e-12)

    def test_binary_value(self):
        # h(1/4) = -(1/4) ln(1/4) - (3/4) ln(3/4) = 0.5623351446188083
        assert ent.von_neumann(np.diag([0.25, 0.75])) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_stack_is_each_state_alone(self):
        # a stack goes through density_stack, one state through
        # DensityOperator: the same certified row, so the same bits
        rng = np.random.default_rng(3)
        mats = np.stack([2.0 * hs_mixed(3, rng), haar_pure(3, rng), np.eye(3), np.diag([1.0, 0, 0])])
        got = ent.von_neumann(mats)
        assert isinstance(got, np.ndarray) and got.shape == (4,)
        for h, m in zip(got, mats):
            assert h == ent.von_neumann(m) == ent.von_neumann(op.DensityOperator(m))
        assert got[2] == pytest.approx(np.log(3), rel=1e-12)
        with pytest.raises(ValueError, match="cannot normalize"):
            ent.von_neumann(np.stack([np.eye(2), -np.eye(2)]))


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(1)
        rho = hs_mixed(3, rng)
        assert ent.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_disjoint_supports_infinite(self):
        assert ent.relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == INF

    def test_scalar_formula(self):
        # (1/2) ln 2 + (1/2) ln(2/3) = 0.14384103622589045
        val = ent.relative_entropy(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        assert val == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_boundary_second_argument(self):
        # omega inside the support of tau: finite; outside: +inf
        tau = np.diag([0.5, 0.5, 0.0])
        assert np.isfinite(ent.relative_entropy(np.diag([0.3, 0.7, 0.0]), tau))
        assert ent.relative_entropy(np.diag([0.3, 0.3, 0.4]), tau) == INF

    def test_klein_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho, sig = hs_mixed(3, rng), hs_mixed(3, rng)
            d = ent.relative_entropy(rho, sig)
            assert d >= 0.0
            if d <= 1e-12:
                assert np.sum(np.abs(np.linalg.eigvalsh(rho - sig))) <= 1e-6


class TestConditionalEntropy:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        a, b = hs_mixed(2, rng), hs_mixed(3, rng)
        val = ent.conditional_entropy(np.kron(a, b), (2, 3))
        assert val == pytest.approx(ent.von_neumann(a), abs=1e-10)

    def test_bell_state(self):
        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        assert ent.conditional_entropy(np.outer(v, v), (2, 2)) == pytest.approx(
            -np.log(2), abs=1e-12
        )

    def test_cross_formula(self):
        # H(A|B) = H(A) - D(rho_AB || rho_A x rho_B)
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = hs_mixed(4, rng)
            ra = ch.ptrace(rho, [2, 2], [0])
            rb = ch.ptrace(rho, [2, 2], [1])
            direct = ent.conditional_entropy(rho, (2, 2))
            alt = ent.von_neumann(ra) - ent.relative_entropy(rho, np.kron(ra, rb))
            assert direct == pytest.approx(alt, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            val = ent.conditional_entropy(hs_mixed(4, rng), (2, 2))
            assert -np.log(2) - 1e-9 <= val <= np.log(2) + 1e-9


class TestVariationalFormulas:
    def test_lower_bound_attained_at_optimizer(self):
        rng = np.random.default_rng(6)
        rho, sig = hs_mixed(3, rng), random_pd(3, rng)
        lrho = op.matrix_log(op.PSDOperator(rho)).finite
        lsig = op.matrix_log(op.PSDOperator(sig)).finite
        om = op.matrix_exp(op.HermitianOperator(lrho - lsig))
        om = op.PSDOperator(om.matrix / om.trace())
        val = ent.variational_lower(rho, sig, om)
        assert val == pytest.approx(ent.relative_entropy(rho, sig), abs=1e-9)

    def test_identity_omega(self):
        rng = np.random.default_rng(7)
        rho, sig = hs_mixed(2, rng), random_pd(2, rng)
        val = ent.variational_lower(rho, sig, op.identity(2))
        assert val == pytest.approx(-np.log(np.trace(sig).real), abs=1e-10)
        assert val <= ent.relative_entropy(rho, sig) + 1e-9

    def test_lower_bound_sampled(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho, sig, om = hs_mixed(2, rng), random_pd(2, rng), random_pd(2, rng)
            assert ent.variational_lower(rho, sig, om) <= ent.relative_entropy(rho, sig) + 1e-9

    def test_optimizer_state_trivial(self):
        state = ent.variational_optimizer_state(op.zero(3), op.PSDOperator(np.eye(3) / 3))
        np.testing.assert_allclose(state.matrix, np.eye(3) / 3, atol=1e-12)

    def test_optimizer_state_commuting(self):
        h = np.diag([0.0, 1.0])
        sig = np.diag([0.5, 0.5])
        state = ent.variational_optimizer_state(op.HermitianOperator(h), op.PSDOperator(sig))
        z = 0.5 + 0.5 * np.e
        np.testing.assert_allclose(state.matrix, np.diag([0.5 / z, 0.5 * np.e / z]), atol=1e-12)

    def test_legendre_trivial(self):
        rng = np.random.default_rng(9)
        sig = hs_mixed(3, rng)
        assert ent.legendre_trace_exp(op.zero(3), op.PSDOperator(sig)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_legendre_identity_reference(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(3, rng)
        val = ent.legendre_trace_exp(op.HermitianOperator(h), op.identity(3))
        direct = np.log(np.sum(np.exp(np.linalg.eigvalsh(h))))
        assert val == pytest.approx(direct, rel=1e-12)

    def test_legendre_dominates_sampled_objectives(self):
        rng = np.random.default_rng(18)
        h = op.HermitianOperator(random_hermitian(2, rng))
        sig = op.PSDOperator(random_pd(2, rng))
        target = ent.legendre_trace_exp(h, sig)
        best = -INF
        for _ in range(10000):
            om = hs_mixed(2, rng)
            val = np.trace(h.matrix @ om).real - ent.relative_entropy(om, sig)
            best = max(best, val)
        assert best <= target + 1e-9
        assert best >= target - 1e-3
        opt = ent.variational_optimizer_state(h, sig)
        attained = np.trace(h.matrix @ opt.matrix).real - ent.relative_entropy(opt, sig)
        assert attained == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_attainment_identities_random(self, dim):
        # both variational formulas attain with their stated optimizers
        rng = np.random.default_rng(100 + dim)
        for _ in range(100):
            rho, sig = hs_mixed(dim, rng), random_pd(dim, rng)
            lrho = op.matrix_log(op.PSDOperator(rho)).finite
            lsig = op.matrix_log(op.PSDOperator(sig)).finite
            om = op.matrix_exp(op.HermitianOperator(lrho - lsig))
            om = op.PSDOperator(om.matrix / om.trace())
            assert ent.variational_lower(rho, sig, om) == pytest.approx(
                ent.relative_entropy(rho, sig), abs=1e-9
            )
            h = op.HermitianOperator(random_hermitian(dim, rng))
            opt = ent.variational_optimizer_state(h, op.PSDOperator(sig))
            lhs = np.trace(h.matrix @ opt.matrix).real - ent.relative_entropy(opt, sig)
            assert lhs == pytest.approx(ent.legendre_trace_exp(h, op.PSDOperator(sig)), abs=1e-9)

    def test_empty_joint_support_raises(self):
        with pytest.raises(ZeroTrace):
            ent.variational_optimizer_state(
                op.matrix_log(op.PSDOperator(np.diag([1.0, 0.0]))),
                op.PSDOperator(np.diag([0.0, 1.0])),
            )


class TestDataProcessing:
    def test_dpi_sampled(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            e = random_channel(2, 2, rng=rng)
            rho, sig = hs_mixed(2, rng), random_pd(2, rng)
            lhs = ent.relative_entropy(e(rho), op.PSDOperator(e(sig)))
            assert lhs <= ent.relative_entropy(rho, sig) + 1e-9

    def test_strong_subadditivity_three_qubits(self):
        # H(A1 A2 | B) <= H(A1|B) + H(A2|B)
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = hs_mixed(8, rng)
            lhs = ent.conditional_entropy(rho, (4, 2))
            h1b = ent.conditional_entropy(ch.ptrace(rho, [2, 2, 2], [0, 2]), (2, 2))
            h2b = ent.conditional_entropy(ch.ptrace(rho, [2, 2, 2], [1, 2]), (2, 2))
            assert lhs <= h1b + h2b + 1e-9


class TestSupportLeakTolerance:
    """supports_contained accepts a leak up to 1e-8 in operator norm."""

    @staticmethod
    def _leaking(leak: float) -> op.PSDOperator:
        v = np.array([np.sqrt(1.0 - leak**2), leak])  # (cos t, sin t) with sin t = leak
        return op.PSDOperator(np.outer(v, v))

    def test_leak_boundary(self):
        tau = op.PSDOperator(np.diag([1.0, 0.0]))
        assert ent.supports_contained(self._leaking(5e-9), tau)
        assert not ent.supports_contained(self._leaking(2e-8), tau)

    def test_relative_entropy_follows_the_boundary(self):
        tau = np.diag([1.0, 0.0])
        assert np.isfinite(ent.relative_entropy(self._leaking(5e-9).matrix, tau))
        assert ent.relative_entropy(self._leaking(2e-8).matrix, tau) == INF


class TestOneCertification:
    """relative_entropy certifies a stack by one eigh; where tau has a
    kernel the leak test reads that eigh's eigenvectors."""

    @staticmethod
    def _stack(rng):
        # states inside supp tau, leaking out of it, of full and lower rank
        v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        inside = [(v[:, 1:] * w) @ v[:, 1:].conj().T for w in ([0.2, 0.3, 0.5], [0.0, 0.4, 0.6])]
        return v, np.stack(inside + [hs_mixed(4, rng), haar_pure(4, rng), np.eye(4) / 4])

    def test_leak_test_reads_the_certifying_eigh(self, monkeypatch):
        rng = np.random.default_rng(21)
        v, rhos = self._stack(rng)
        tau = op.PSDOperator((v * [0.0, 1.0, 2.0, 3.0]) @ v.conj().T)
        want = [ent.relative_entropy(rho, tau) for rho in rhos]
        herm, vals, vecs = op.density_stack(rhos)
        assert ent.supports_contained(herm, tau, spectrum=(vals, vecs)).tolist() == \
            ent.supports_contained(herm, tau).tolist() == [True, True, False, False, False]

        def second(*args):
            raise AssertionError("the stack was certified twice")

        monkeypatch.setattr(ent, "psd_stack", second)
        got = ent.relative_entropy(rhos, tau)
        assert got.tolist() == want
        assert np.isfinite(got[:2]).all() and (got[2:] == INF).all()

    def test_full_support_takes_no_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(22)
        _, rhos = self._stack(rng)
        tau = op.PSDOperator(random_pd(4, rng))
        want = [ent.relative_entropy(rho, tau) for rho in rhos]

        def eigh(*args):
            raise AssertionError("eigenvectors were taken")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert ent.relative_entropy(rhos, tau).tolist() == want
