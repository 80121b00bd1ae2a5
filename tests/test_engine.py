"""BL engine: gaps, optimal constants, duality, membership, tensorization."""

import numpy as np
import pytest

from qbl import channels as ch
from qbl import entropy as ent
from qbl import operators as op
from qbl.engine import (
    BLDatum,
    OptimizerBudget,
    SamplerConfig,
    analytic_gap,
    bl_membership,
    duality_crosscheck,
    entropic_gap,
    induced_analytic_witness,
    optimal_constant_analytic,
    optimal_constant_entropic,
    reevaluate_report,
    tensor_datum,
    tensorization_check,
)
from qbl.errors import DimensionMismatch
from qbl.sampling import (
    haar_pure,
    haar_unitary,
    hs_mixed,
    random_channel,
    random_pd,
)

BUDGET = OptimizerBudget(restarts=8, max_iters=300, tol=1e-9, base_seed=0)


def dpi_datum(seed=0, d=2):
    rng = np.random.default_rng(seed)
    e = random_channel(d, d, rng=rng)
    sig = op.PSDOperator(random_pd(d, rng))
    return BLDatum([1.0], [e], sig, [op.PSDOperator(e(sig))], 0.0)


def identity_datum(d=2):
    e = ch.identity_channel(d)
    sig = op.PSDOperator(np.eye(d) / d)
    return BLDatum([1.0], [e], sig, [sig], 0.0)


class TestGapEvaluators:
    def test_identity_datum_gap_zero(self):
        rng = np.random.default_rng(0)
        d = identity_datum()
        for _ in range(20):
            assert entropic_gap(d, hs_mixed(2, rng)) == pytest.approx(0.0, abs=1e-10)

    def test_dpi_gap_nonnegative(self):
        rng = np.random.default_rng(1)
        d = dpi_datum(1)
        for _ in range(100):
            assert entropic_gap(d, hs_mixed(2, rng)) >= -1e-9

    def test_vacuous_when_reference_unreachable(self):
        e = ch.identity_channel(2)
        sig = op.PSDOperator(np.diag([1.0, 0.0]))
        d = BLDatum([1.0], [e], sig, [op.PSDOperator(np.eye(2))], 0.0)
        assert entropic_gap(d, np.diag([0.0, 1.0])) == float("inf")

    def test_analytic_identity_datum(self):
        rng = np.random.default_rng(2)
        e = ch.identity_channel(2)
        one = op.identity(2)
        d = BLDatum([1.0], [e], one, [one], 0.0)
        for _ in range(20):
            # both sides equal tr(omega): the gap vanishes identically
            assert analytic_gap(d, [random_pd(2, rng)]) == pytest.approx(0.0, abs=1e-10)

    def test_analytic_dpi_nonnegative(self):
        rng = np.random.default_rng(3)
        d = dpi_datum(3)
        for _ in range(100):
            assert analytic_gap(d, [random_pd(2, rng)]) >= -1e-9

    def test_analytic_transpose_channel(self):
        # the duality only needs trace-preserving positive maps
        rng = np.random.default_rng(4)
        t = ch.transpose_map(2)
        sig = op.PSDOperator(random_pd(2, rng))
        d = BLDatum([1.0], [t], sig, [op.PSDOperator(t(sig))], 0.0)
        for _ in range(50):
            assert analytic_gap(d, [random_pd(2, rng)]) >= -1e-9
            assert entropic_gap(d, hs_mixed(2, rng)) >= -1e-9

    def test_dimension_mismatch(self):
        d = dpi_datum(5)
        with pytest.raises(DimensionMismatch):
            entropic_gap(d, np.eye(3) / 3)
        with pytest.raises(DimensionMismatch):
            analytic_gap(d, [np.eye(3) / 3])

    def test_unitary_twirl_invariance(self):
        # conjugating (rho, sigma, channels) by a unitary leaves gaps fixed
        rng = np.random.default_rng(6)
        d = dpi_datum(6)
        rho = hs_mixed(2, rng)
        base_e = entropic_gap(d, rho)
        om = random_pd(2, rng)
        base_a = analytic_gap(d, [om])
        for _ in range(5):
            u = haar_unitary(2, rng)
            kraus = [k @ u.conj().T for k in d.channels[0].kraus]
            d2 = BLDatum(
                d.q,
                [ch.Channel(kraus)],
                op.PSDOperator(u @ d.sigma.matrix @ u.conj().T),
                d.sigmas,
                d.c,
            )
            assert entropic_gap(d2, u @ rho @ u.conj().T) == pytest.approx(base_e, abs=1e-9)
            assert analytic_gap(d2, [om]) == pytest.approx(base_a, abs=1e-9)


class TestOptimalConstants:
    def test_dpi_entropic_zero(self):
        d = dpi_datum(7)
        c, witness, res = optimal_constant_entropic(d, BUDGET)
        assert c == pytest.approx(0.0, abs=1e-7)
        # the gap closes at rho proportional to sigma
        sig_state = d.sigma.matrix / np.trace(d.sigma.matrix).real
        assert entropic_gap(d, sig_state) == pytest.approx(0.0, abs=1e-9)

    def test_dpi_analytic_zero(self):
        d = dpi_datum(8)
        c, witness, res = optimal_constant_analytic(d, BUDGET)
        assert c == pytest.approx(0.0, abs=1e-6)

    def test_witness_reevaluates(self):
        d = dpi_datum(9)
        c, witness, res = optimal_constant_entropic(d, BUDGET)
        assert entropic_gap(d, witness) == pytest.approx(-c, abs=1e-7)
        c2, witnesses, _ = optimal_constant_analytic(d, BUDGET)
        assert analytic_gap(d, witnesses) == pytest.approx(-c2, abs=1e-7)

    def test_analytic_respects_iteration_budget(self):
        d = dpi_datum(3)
        _, _, full = optimal_constant_analytic(d, OptimizerBudget(restarts=4, max_iters=300))
        assert len(full.trace) > 20  # the sweeps have not converged after 20 passes
        _, _, res = optimal_constant_analytic(d, OptimizerBudget(restarts=4, max_iters=20))
        assert len(res.trace) <= 20

    def test_restart_seeds_recorded(self):
        d = dpi_datum(10)
        _, _, res = optimal_constant_entropic(d, OptimizerBudget(restarts=4, base_seed=11))
        assert res.restart_seeds == [11, 12, 13, 14]

    def test_fixed_point_stationarity(self):
        # at a converged alternating point the two attainment identities
        # hold at once: the induced omegas attain the inner variational
        # formula by construction, the Gibbs state of their exponent
        # reproduces the state, and both objectives take the same value
        d = dpi_datum(12)
        c, witness, _ = optimal_constant_entropic(d, BUDGET)

        def alternating_step(rho_mat):
            oms = induced_analytic_witness(d, rho_mat)
            h = np.zeros((d.dim, d.dim), dtype=complex)
            for chan, om in zip(d.channels, oms):
                h = h + chan.adjoint(op.matrix_log(om).finite)
            return oms, ent.variational_optimizer_state(op.HermitianOperator(h), d.sigma).matrix

        rho = witness.matrix
        for _ in range(200):
            omegas, rho_next = alternating_step(rho)
            if np.max(np.abs(rho_next - rho)) < 1e-12:
                break
            rho = rho_next
        omegas, rho_back = alternating_step(rho)
        assert np.max(np.abs(rho_back - rho)) < 1e-6
        entropic_value = -entropic_gap(d, rho)
        analytic_value = -analytic_gap(d.with_constant(0.0), omegas)
        assert analytic_value == pytest.approx(entropic_value, abs=1e-6)
        assert entropic_value == pytest.approx(c, abs=1e-6)


def leaking_datum(channel):
    # E_1(sigma) has weight on ker sigma_1, so the optimal constant is +inf
    return BLDatum([1.0], [channel], op.PSDOperator(np.eye(2) / 2),
                   [op.PSDOperator(np.diag([1.0, 0.0]))], 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInfiniteConstant:
    def test_identity_channel_both_sides(self):
        d = leaking_datum(ch.identity_channel(2))
        c_ent, w_ent, _ = optimal_constant_entropic(d, BUDGET)
        assert c_ent == np.inf
        assert entropic_gap(d, w_ent) == -np.inf
        c_ana, w_ana, _ = optimal_constant_analytic(d, BUDGET)
        assert c_ana == np.inf
        assert analytic_gap(d, w_ana) == -np.inf

    def test_crosscheck_agrees(self):
        for channel in (ch.identity_channel(2), ch.depolarizing(0.3)):
            d = leaking_datum(channel)
            rep = duality_crosscheck(d, BUDGET)
            assert rep.c_entropic == rep.c_analytic == np.inf
            assert rep.agree
            assert entropic_gap(d, rep.witness_entropic) == -np.inf


class TestDualityCrosscheck:
    def test_dpi(self):
        rep = duality_crosscheck(dpi_datum(13), BUDGET)
        assert rep.agree
        assert rep.c_entropic == pytest.approx(0.0, abs=1e-6)
        assert rep.c_analytic == pytest.approx(0.0, abs=1e-6)

    def test_random_two_channel_datum(self):
        rng = np.random.default_rng(14)
        e1 = random_channel(2, 2, rng=rng)
        e2 = random_channel(2, 3, rng=rng)
        sig = op.PSDOperator(random_pd(2, rng))
        d = BLDatum(
            [1.0, 1.0], [e1, e2], sig,
            [op.PSDOperator(e1(sig)), op.PSDOperator(e2(sig))], 0.0,
        )
        rep = duality_crosscheck(d, OptimizerBudget(restarts=16, max_iters=400, base_seed=5))
        assert rep.agree, (rep.c_entropic, rep.c_analytic)

    def test_shearer_two_qubit(self):
        from qbl.applications import shearer_datum

        d = shearer_datum([2, 2], [[0], [1]], p=1)
        rep = duality_crosscheck(d, BUDGET)
        assert rep.agree
        assert rep.c_entropic == pytest.approx(0.0, abs=1e-6)
        assert rep.c_analytic == pytest.approx(0.0, abs=1e-6)


class TestMembership:
    def test_constant_below_optimum_is_violated(self):
        # measurement uncertainty datum: optimal C is -ln 2; C = -1 fails
        from qbl.applications import uncertainty_datum
        from qbl.channels import pauli_basis

        d0 = uncertainty_datum([pauli_basis("x"), pauli_basis("z")])
        c_opt, witness, _ = optimal_constant_entropic(d0, BUDGET)
        assert c_opt == pytest.approx(-np.log(2), abs=1e-6)
        short = d0.with_constant(c_opt - 0.05)
        assert entropic_gap(short, witness) < -1e-3
        rep = bl_membership(short, SamplerConfig(samples=300, seed=2, form="entropic"))
        assert rep.verdict == "violated"
        assert reevaluate_report(short, rep) == pytest.approx(rep.worst_gap, abs=1e-9)

    def test_holding_datum_reports_clean(self):
        d = dpi_datum(15)
        for form in ("entropic", "analytic"):
            rep = bl_membership(d, SamplerConfig(samples=200, seed=3, form=form))
            assert rep.verdict == "holds_on_samples"
            assert rep.worst_gap >= -1e-9
            assert reevaluate_report(d, rep) == pytest.approx(rep.worst_gap, abs=1e-9)

    def test_membership_convexity(self):
        # midpoints of member (q, C) pairs stay members on samples
        rng = np.random.default_rng(16)
        e1 = random_channel(2, 2, rng=rng)
        e2 = random_channel(2, 2, rng=rng)
        sig = op.PSDOperator(random_pd(2, rng))
        sigmas = [op.PSDOperator(e1(sig)), op.PSDOperator(e2(sig))]

        def datum(q, c):
            return BLDatum(q, [e1, e2], sig, sigmas, c)

        qa, qb = np.array([0.6, 1.2]), np.array([1.5, 0.8])
        ca, _, _ = optimal_constant_entropic(datum(qa, 0.0), BUDGET)
        cb, _, _ = optimal_constant_entropic(datum(qb, 0.0), BUDGET)
        mid = datum(0.5 * (qa + qb), 0.5 * (ca + cb) + 1e-9)
        rep = bl_membership(mid, SamplerConfig(samples=300, seed=4, form="entropic"))
        assert rep.verdict == "holds_on_samples"
        c_mid, _, _ = optimal_constant_entropic(mid.with_constant(0.0), BUDGET)
        assert c_mid <= 0.5 * (ca + cb) + 1e-6

    def test_duality_consistency_on_violations(self):
        # when the entropic side certifies a violation, the analytic
        # estimate exceeds the constant by a matching amount
        from qbl.applications import uncertainty_datum
        from qbl.channels import pauli_basis

        d0 = uncertainty_datum([pauli_basis("x"), pauli_basis("z")])
        c_short = -np.log(2) - 0.05
        c_ana, _, _ = optimal_constant_analytic(d0, BUDGET)
        c_ent, _, _ = optimal_constant_entropic(d0, BUDGET)
        assert c_ana > c_short + 0.04
        assert c_ent > c_short + 0.04


class TestTensorization:
    def test_dpi_tensorizes(self):
        rep = tensorization_check(dpi_datum(17), dpi_datum(18), BUDGET, samples=100)
        assert rep.verdict == "tensorizes_on_samples"
        assert rep.worst_gap >= -1e-6

    def test_single_system_entropy_data_product(self):
        # the trace-channel datum encodes H(rho) <= ln d with the tight
        # constant; the product keeps C1 + C2, tight at product mixed
        # states, while a Bell input sits strictly inside (gap 2 ln 2)
        single = BLDatum(
            [1.0], [ch.trace_channel(2)], op.identity(2), [op.identity(1)], np.log(2)
        )
        rng = np.random.default_rng(20)
        assert min(entropic_gap(single, hs_mixed(2, rng)) for _ in range(50)) >= -1e-9
        assert entropic_gap(single, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-9)
        prod = tensor_datum(single, single)
        v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        assert entropic_gap(prod, np.outer(v, v)) == pytest.approx(2 * np.log(2), abs=1e-9)
        assert entropic_gap(prod, np.eye(4) / 4) == pytest.approx(0.0, abs=1e-9)

    def test_mu_datum_additivity(self):
        # the two-measurement uncertainty datum tensorizes (the overlap
        # constant is multiplicative), observed on samples
        from qbl.applications import uncertainty_datum
        from qbl.channels import pauli_basis

        d0 = uncertainty_datum([pauli_basis("x"), pauli_basis("z")])
        c_opt, _, _ = optimal_constant_entropic(d0, BUDGET)
        d_star = d0.with_constant(c_opt)
        rep = tensorization_check(
            d_star, d_star, OptimizerBudget(restarts=12, max_iters=300, base_seed=1), samples=150
        )
        assert rep.constant_product == pytest.approx(-2 * np.log(2), abs=1e-5)
        assert rep.worst_gap >= -1e-4
        assert rep.constant_estimate <= rep.constant_product + 1e-4


class TestReports:
    def test_report_serialization_round_trip(self):
        d = dpi_datum(19)
        rep = bl_membership(d, SamplerConfig(samples=50, seed=5, form="entropic"))
        data = rep.to_dict()
        assert data["form"] == "entropic"
        assert data["samples"] == 50
        from qbl.serialization import decode_matrix

        witness = decode_matrix(data["witness"][0])
        assert entropic_gap(d, witness) == pytest.approx(rep.worst_gap, abs=1e-9)
