"""BL engine: gaps, optimal constants, duality, membership, tensorization."""

import json
import os
from dataclasses import replace
from functools import partial
from math import comb, factorial, sqrt

import numpy as np
import pytest

from qbl import applications as app
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
from qbl import engine, sampling
from qbl.cli import main
from qbl.errors import DimensionMismatch, Diverged, InvalidDatum, ZeroOperator, ZeroTrace
from qbl.policy import SUPP_RTOL
from qbl.serialization import decode_datum, encode_datum
from qbl.sampling import (
    block_rows,
    blocks,
    haar_pure,
    haar_unitary,
    hs_mixed,
    random_channel,
    random_density,
    random_pd,
)

BUDGET = OptimizerBudget(restarts=8, max_iters=300, base_seed=0)


def dpi_datum(seed=0, d=2):
    rng = np.random.default_rng(seed)
    e = random_channel(d, d, rng=rng)
    return app.dpi_datum(e, random_pd(d, rng))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_argument_rejected(self, bad):
        # with q = 1, the identity channel and sigma = sigma_1 = 1, a nan
        # omega once gave an analytic gap of 0.0 ("holds with equality")
        d = BLDatum([1.0], [ch.identity_channel(2)], op.PSDOperator(np.eye(2)),
                    [op.PSDOperator(np.eye(2))], 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            analytic_gap(d, [np.array([[bad, 0.0], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="non-finite"):
            entropic_gap(d, np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_zero_sigma_k_gives_minus_inf(self):
        # sigma_1 = 0 makes the right-hand side of either form 0, while
        # sigma is positive definite
        datum = _zero_sigma_k_datum()
        rng = np.random.default_rng(6)
        for omega in (hs_mixed(2, rng), np.diag([1.0, 0.0])):
            assert analytic_gap(datum, [omega]) == -np.inf
            assert entropic_gap(datum, omega) == -np.inf

    def test_analytic_gap_takes_logs(self):
        # a tuple given by its support-projected logs is evaluated as it
        # is: the induced logs of a state give the gap of its induced tuple
        d = dpi_datum(14)
        rng = np.random.default_rng(14)
        for _ in range(5):
            rho = hs_mixed(2, rng)
            logs = engine.induced_logs(d, rho)
            assert all(isinstance(lk, op.SupportLog) for lk in logs)
            want = analytic_gap(d, induced_analytic_witness(d, rho))
            assert analytic_gap(d, logs) == pytest.approx(want, abs=1e-12)
        with pytest.raises(DimensionMismatch):
            analytic_gap(d, [op.SupportLog(np.zeros((3, 3)))])

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

    @staticmethod
    def _phases_within_budget(estimate, monkeypatch):
        # the budget caps each phase of the search on its own: the
        # fixed-point passes and the ascent iterations
        phases = {}

        def counted(name):
            fn = getattr(engine, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                phases[name] = out[-1].max()
                return out

            monkeypatch.setattr(engine, name, wrapped)

        counted("_fixed_point")
        counted("_ascent")
        # acceptance datum 4: from the end states of 8 passes the ascent
        # takes 138 iterations
        d = _acceptance_datum(4)
        estimate(d, OptimizerBudget(restarts=4, max_iters=300))
        assert phases["_fixed_point"] > 8  # the loop has not converged after 8 passes
        estimate(d, OptimizerBudget(restarts=4, max_iters=8))
        assert phases["_fixed_point"] <= 8
        assert phases["_ascent"] <= 8

    def test_entropic_respects_iteration_budget(self, monkeypatch):
        self._phases_within_budget(optimal_constant_entropic, monkeypatch)

    def test_analytic_respects_iteration_budget(self, monkeypatch):
        self._phases_within_budget(optimal_constant_analytic, monkeypatch)

    def test_analytic_witness_failure_is_reported(self, monkeypatch):
        # the induced witness is the only analytic witness: a failure to
        # build it raises Diverged naming the cause
        def fail(datum, rho):
            raise ZeroTrace("empty support")

        monkeypatch.setattr(engine, "induced_analytic_witness", fail)
        with pytest.raises(Diverged, match="empty support"):
            optimal_constant_analytic(dpi_datum(3), OptimizerBudget(restarts=2, max_iters=5))

    def test_near_pure_state_gets_a_full_rank_witness(self):
        # a near-pure state, with eigenvalues of 2e-14 and 5e-15 (under the
        # eps_supp cut of 1e-10) or with them zeroed: each L_k is one
        # Hermitian matrix with no kernel flag, each omega_k is positive
        # definite, and the tuple's analytic value is at least the
        # entropic value at the state, as the duality proof pairs them
        datum, dusty = _dust_datum()
        top = np.linalg.eigh(dusty)[1][:, -1:]
        zero_c = datum.with_constant(0.0)
        for rho in (dusty, top @ top.conj().T):
            logs = engine.induced_logs(datum, rho)
            assert not any(lk.has_kernel for lk in logs)
            assert all(om.eigenvalues[0] > 0 for om in induced_analytic_witness(datum, logs))
            assert -analytic_gap(zero_c, logs) >= -entropic_gap(zero_c, rho)

    def test_flagged_log_is_refused_by_the_witness(self):
        # the induced logs carry no kernel flag: the Gibbs state of a log
        # that flags one would put weight on its kernel, so it is refused
        datum, dusty = _dust_datum()
        logs = engine.induced_logs(datum, dusty)
        logs[1] = op.SupportLog(logs[1].finite, np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="flags a kernel"):
            induced_analytic_witness(datum, logs)

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
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_a_budget_needs_a_restart(self, restarts):
        # each side of a cross-check certifies the best of its own rows
        with pytest.raises(ValueError, match="at least one restart"):
            OptimizerBudget(restarts=restarts)

    def test_dpi(self):
        rep = duality_crosscheck(dpi_datum(13), BUDGET)
        assert rep.agree and rep.tol == engine.agreement_tol(rep.c_entropic) == 1e-4
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


def _mixed_dims_datum(seed=31):
    # full-support datum with d_in = 3 and d_out = 2, 4; C above zero so
    # that both forms see negative and positive gaps
    rng = np.random.default_rng(seed)
    e1 = random_channel(3, 2, rng=rng)
    e2 = random_channel(3, 4, rng=rng)
    sig = op.PSDOperator(random_pd(3, rng))
    sigmas = [op.PSDOperator(random_pd(2, rng)), op.PSDOperator(random_pd(4, rng))]
    return BLDatum([0.7, 0.9], [e1, e2], sig, sigmas, 0.1)


def _shearer_pairs_datum():
    from qbl.applications import shearer_datum

    return shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)


def _scalar_membership(datum, config):
    """Reference loop: one sample at a time through the exact-support
    evaluators, drawing in the order bl_membership draws, entropic states on
    supp sigma (the compressed datum's space), each evaluated and reported
    lifted onto the datum's space. Returns the samples as drawn."""
    rng = np.random.default_rng(config.seed)
    inner, v = engine._compress(datum)
    worst, witness, samples, gaps = np.inf, [], [], []
    for i in range(config.samples):
        kind = config.ensembles[i % len(config.ensembles)]
        if config.form == "entropic":
            drawn = [random_density(inner.dim, rng, kind)]
            cand = [engine._lift(v, drawn[0])]
            gap = entropic_gap(datum, cand[0])
        else:
            full_kind = "hs" if kind == "pure" else kind
            drawn = cand = [random_density(c.dim_out, rng, full_kind) for c in datum.channels]
            gap = analytic_gap(datum, cand)
        samples.append(drawn)
        gaps.append(gap)
        if gap < worst:
            worst, witness = gap, cand
    verdict = "holds_on_samples" if worst >= -1e-9 else "violated"
    return worst, witness, verdict, samples, np.array(gaps)


def _leaking_datum():
    # sigma_1 = diag(1, 0) misses half of E(sigma): the constant is +inf
    return BLDatum([1.0], [ch.identity_channel(2)], op.PSDOperator(np.eye(2) / 2),
                   [op.PSDOperator(np.diag([1.0, 0.0]))], 0.0)


def _zero_sigma_k_datum():
    # sigma_1 = 0: every gap of either form is -inf
    return BLDatum([1.0], [ch.identity_channel(2)], op.PSDOperator(np.eye(2) / 2),
                   [op.PSDOperator(np.zeros((2, 2)))], 0.0)


def _singular_sigma_k_datum(seed):
    """A PD sigma and a singular sigma_k for every k. E_1 maps into a proper
    subspace of its output space and sigma_1 = E_1(sigma), so no E_1(rho)
    leaks out of supp sigma_1; on odd seeds a second channel has a rank-one
    sigma_2, which every sampled E_2(rho) leaks out of."""
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    iso = haar_unitary(m + 1, rng)[:, :m]  # an isometry C^m -> C^(m+1)
    e1 = ch.Channel([iso @ k for k in random_channel(d, m, rng=rng).kraus])
    sig = op.PSDOperator(random_pd(d, rng))
    q, chans, sigmas = [float(rng.uniform(0.5, 2.0))], [e1], [op.PSDOperator(e1(sig))]
    if seed % 2:
        q.append(float(rng.uniform(0.5, 2.0)))
        chans.append(random_channel(d, 2, rng=rng))
        sigmas.append(op.PSDOperator(haar_pure(2, rng)))
    return BLDatum(q, chans, sig, sigmas, 0.1)


def _defect_d_datum():
    # sigma = diag(0.6, 0.4, 0) and sigma_1 = E(sigma), q = 1.3: the
    # optimal constant is 0 (equality at rho = sigma / tr sigma)
    e = random_channel(3, 2, rng=np.random.default_rng(3))
    sig = op.PSDOperator(np.diag([0.6, 0.4, 0.0]))
    return BLDatum([1.3], [e], sig, [op.PSDOperator(e(sig))], 0.0)


def _singular_sigma_datum(seed):
    """sigma of rank d - 1 in a Haar basis, sigma_1 = E_1(sigma) and C =
    0.1. On odd seeds E_1 maps into a proper subspace of its output space,
    so that sigma_1 is singular too; seed 3 adds a channel with a rank-one
    sigma_2, which every sampled E_2(rho) leaks out of."""
    rng = np.random.default_rng(100 + seed)
    d, m = int(rng.integers(3, 5)), int(rng.integers(2, 4))
    u = haar_unitary(d, rng)
    sig = op.PSDOperator((u * np.append(rng.uniform(0.2, 1.0, d - 1), 0.0)) @ u.conj().T)
    e1 = random_channel(d, m, rng=rng)
    if seed % 2:
        iso = haar_unitary(m + 1, rng)[:, :m]  # an isometry C^m -> C^(m+1)
        e1 = ch.Channel([iso @ k for k in e1.kraus])
    q, chans, sigmas = [float(rng.uniform(0.5, 2.0))], [e1], [op.PSDOperator(e1(sig))]
    if seed == 3:
        q.append(float(rng.uniform(0.5, 2.0)))
        chans.append(random_channel(d, 2, rng=rng))
        sigmas.append(op.PSDOperator(haar_pure(2, rng)))
    assert sig.support_rank == d - 1
    return BLDatum(q, chans, sig, sigmas, 0.1)


def _largest_dim(datum):
    return max([datum.dim] + [c.dim_out for c in datum.channels])


def _stacked_gaps(datum, form, samples):
    """The gaps of samples (one list per sample, as _scalar_membership
    returns them) from one call of the form's evaluator on their stack."""
    if form == "entropic":
        return entropic_gap(datum, np.stack([s[0] for s in samples]))
    return analytic_gap(datum, [np.stack(col) for col in zip(*samples)])


def _same_gaps(got, want):
    """Equal infinities, finite values within 1e-12 max(1, |gap|)."""
    got, want = np.asarray(got), np.asarray(want)
    fin = np.isfinite(want)
    return bool(np.array_equal(np.isfinite(got), fin) and np.all(got[~fin] == want[~fin])
                and np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.maximum(1.0, np.abs(want[fin]))))


class TestBatchedMembership:
    DATA = {"mixed-dims": _mixed_dims_datum, "shearer-pairs": _shearer_pairs_datum}
    SINGULAR = {"rank-deficient": _leaking_datum, "zero-sigma-k": _zero_sigma_k_datum,
                "defect-d": _defect_d_datum,
                **{f"random-{seed}": partial(_singular_sigma_k_datum, seed) for seed in range(6)},
                **{f"singular-sigma-{seed}": partial(_singular_sigma_datum, seed)
                   for seed in range(4)}}

    @pytest.mark.parametrize("form", ["entropic", "analytic"])
    @pytest.mark.parametrize("name", sorted(DATA))
    def test_matches_scalar_reference(self, name, form):
        datum = self.DATA[name]()
        # two full blocks and a partial one: 150 samples at d = 8, 534 at d = 4
        rows = block_rows(_largest_dim(datum))
        config = SamplerConfig(samples=2 * rows + 22, seed=7, form=form)
        assert len(blocks(config.samples, _largest_dim(datum))) == 3
        worst, witness, verdict, samples, gaps = _scalar_membership(datum, config)
        assert _same_gaps(_stacked_gaps(datum, form, samples), gaps)
        rep = bl_membership(datum, config)
        assert rep.worst_gap == pytest.approx(worst, rel=1e-12, abs=1e-12)
        assert len(rep.witness) == len(witness)
        for got, want in zip(rep.witness, witness):
            assert np.array_equal(got, want)
        assert rep.verdict == verdict
        assert rep.samples == config.samples

    @pytest.mark.parametrize("samples", [1, 5, 64, 65, block_rows(4), block_rows(4) + 1])
    def test_sample_counts_around_the_block_size(self, samples):
        datum = _mixed_dims_datum()
        assert _largest_dim(datum) == 4
        for form in ("entropic", "analytic"):
            config = SamplerConfig(samples=samples, seed=3, form=form)
            worst, witness, verdict, _, _ = _scalar_membership(datum, config)
            rep = bl_membership(datum, config)
            assert rep.worst_gap == pytest.approx(worst, rel=1e-12, abs=1e-12)
            assert all(np.array_equal(a, b) for a, b in zip(rep.witness, witness))
            assert rep.verdict == verdict

    @pytest.mark.parametrize("form", ["entropic", "analytic"])
    def test_one_evaluator_call_per_block_and_one_on_the_witness(self, form, monkeypatch):
        calls = []

        def other(*args):
            raise AssertionError("the other form's evaluator was called")

        def recording(real):
            def evaluator(datum, arg):
                calls.append(arg)
                return real(datum, arg)
            return evaluator

        name = f"{form}_gap"
        unused = "analytic_gap" if form == "entropic" else "entropic_gap"
        monkeypatch.setattr(engine, name, recording(getattr(engine, name)))
        monkeypatch.setattr(engine, unused, other)
        datum = _shearer_pairs_datum()  # d = 8: blocks of 64
        for seed in (1, 2):
            calls.clear()
            rep = bl_membership(datum, SamplerConfig(samples=69, seed=seed, form=form))
            assert len(calls) == 3
            sizes = [len(c) if form == "entropic" else len(c[0]) for c in calls[:2]]
            assert sizes == [64, 5]
            assert calls[2] is (rep.witness[0] if form == "entropic" else rep.witness)

    @pytest.mark.parametrize("name", ["mixed-dims", "shearer-pairs", "singular-sigma-1",
                                      "random-3"])
    def test_blocks_follow_the_largest_dimension(self, name, monkeypatch):
        # blocks are sized by the largest matrix dimension of the compressed
        # datum, and every report equals, bit for bit, the one made with one
        # sample a block
        datum = {**self.DATA, **self.SINGULAR}[name]()
        inner, _ = engine._compress(datum)
        sizes = []

        def recorded(n, d):
            sizes.append(d)
            return blocks(n, d)

        monkeypatch.setattr(engine, "blocks", recorded)
        reports = [bl_membership(datum, SamplerConfig(samples=150, seed=9, form=form))
                   for form in ("entropic", "analytic")]
        assert sizes == [_largest_dim(inner)] * 2
        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(sampling, "MIN_BLOCK_ROWS", 1)
        for rep in reports:
            alone = bl_membership(datum, SamplerConfig(samples=150, seed=9, form=rep.form))
            assert alone.worst_gap == rep.worst_gap and alone.verdict == rep.verdict
            assert all(np.array_equal(a, b) for a, b in zip(alone.witness, rep.witness,
                                                            strict=True))

    @pytest.mark.parametrize("form", ["entropic", "analytic"])
    @pytest.mark.parametrize("name", sorted(SINGULAR))
    def test_singular_sigma_k_matches_scalar_reference(self, name, form):
        datum = self.SINGULAR[name]()
        config = SamplerConfig(samples=70, seed=5, form=form)
        rep = bl_membership(datum, config)
        worst, witness, verdict, _, _ = _scalar_membership(datum, config)
        assert rep.worst_gap == worst
        assert len(rep.witness) == len(witness)
        assert all(np.array_equal(a, b) for a, b in zip(rep.witness, witness))
        assert rep.verdict == verdict

    def test_singular_data_cover_both_leak_outcomes(self):
        # the random singular data include samples whose E_k(rho) stays in
        # supp sigma_k (finite gaps) and samples whose E_k(rho) leaks (-inf);
        # every stacked row of both forms, on the datum and on the
        # compressed datum, is the exact gap of its sample alone, lifted
        # onto the datum's space
        finite = leaking = 0
        for name in sorted(self.SINGULAR):
            datum = self.SINGULAR[name]()
            inner, v = engine._compress(datum)
            for form in ("entropic", "analytic"):
                config = SamplerConfig(samples=70, seed=5, form=form)
                _, _, _, samples, gaps = _scalar_membership(datum, config)
                assert _same_gaps(_stacked_gaps(inner, form, samples), gaps)
                lifted = samples
                if form == "entropic":
                    lifted = [[engine._lift(v, s[0])] for s in samples]
                    finite += np.isfinite(gaps).sum()
                    leaking += (~np.isfinite(gaps)).sum()
                assert _same_gaps(_stacked_gaps(datum, form, lifted), gaps)
        assert finite > 0 and leaking > 0

    def test_entropic_rows_near_a_support_decision_match_single_rows(self):
        # sigma_2 has a kernel; E_2 = id, so E_2(rho) = rho. Row 0 stays in
        # supp sigma_2 and row 1 leaks (-inf); row 2 has an eigenvalue just
        # below the support cut whose eigenvector lies in the kernel, rows 3
        # and 4 leak by 3e-9 and 3e-8, either side of SUPPORT_LEAK_TOL; each
        # row of the stack, two random states included, is the row alone
        rng = np.random.default_rng(3)
        u = haar_unitary(3, rng)
        e1 = random_channel(3, 2, rng=rng)
        sig = op.PSDOperator(random_pd(3, rng))
        sigma_2 = op.PSDOperator((u * np.array([0.0, 1.0, 2.0])) @ u.conj().T)
        datum = BLDatum([0.8, 0.6], [e1, ch.identity_channel(3)], sig,
                        [op.PSDOperator(e1(sig)), sigma_2], 0.0)
        inside = u[:, 1:]

        def state(vals, vecs):
            rho = (vecs * vals) @ vecs.conj().T
            return rho / np.trace(rho).real

        def tilted(leak):  # a plane of supp sigma_2 tilted by leak into its kernel
            tilt = np.sqrt(1 - leak**2) * u[:, 1] + leak * u[:, 0]
            return np.linalg.qr(np.stack([tilt, u[:, 2]], axis=1))[0]

        rows = np.stack([
            state(np.array([0.3, 0.7]), inside),
            hs_mixed(3, rng),
            state(np.array([0.5, 0.5, 1e-10]), u[:, [1, 2, 0]]),
            state(np.array([0.6, 0.4]), tilted(3e-9)),
            state(np.array([0.6, 0.4]), tilted(3e-8)),
            hs_mixed(3, rng),
            state(np.array([0.2, 0.8]), inside),
        ])
        gaps = entropic_gap(datum, rows)
        assert np.isfinite(gaps[[0, 2, 3, 6]]).all() and gaps[1] == gaps[4] == -np.inf
        assert _same_gaps(gaps, [entropic_gap(datum, rho) for rho in rows])

    def test_rank_deficient_rows_match_single_rows(self):
        datum = _mixed_dims_datum()
        rng = np.random.default_rng(12)
        rows = [[hs_mixed(c.dim_out, rng) for c in datum.channels] for _ in range(5)]
        rows[2][1] = haar_pure(4, rng)  # omega_2 of row 2 has a 3-dim kernel
        # omega_1 of row 4 has a smallest eigenvalue above 0 but below eps_supp
        u = haar_unitary(2, rng)
        rows[4][0] = (u * np.array([1.0 - 1e-12, 1e-12])) @ u.conj().T
        stacks = [np.stack(col) for col in zip(*rows)]
        gaps = analytic_gap(datum, stacks)
        assert _same_gaps(gaps, [analytic_gap(datum, row) for row in rows])
        for i in (2, 4):
            # the kernel flag counts: floored logs are far from the exact value
            floored = analytic_gap(datum, [op.SupportLog(op.eigh_log(s[i][None])[1][0])
                                           for s in stacks])
            assert abs(floored - gaps[i]) > 1e-3

    def test_first_strict_minimum_and_no_nan(self, monkeypatch):
        # planted gaps over two blocks: nan first, the minimum -2 tied
        # within the first block and again in the second
        datum = _mixed_dims_datum()
        rows = block_rows(_largest_dim(datum))
        n = rows + 10
        planted = np.full(n, 1.0)
        planted[[0, 5]] = np.nan
        planted[[2, 4, rows + 1]] = -2.0
        starts, reevaluated = [], []

        def fake_gap(datum, rho):
            if np.ndim(rho) == 3:  # a block: its planted gaps
                start = sum(len(b) for b in starts)
                starts.append(rho)
                return planted[start:start + len(rho)].copy()
            reevaluated.append(rho)
            return -3.0

        monkeypatch.setattr(engine, "entropic_gap", fake_gap)
        rep = bl_membership(datum, SamplerConfig(samples=n, seed=2, form="entropic"))
        assert [len(b) for b in starts] == [rows, 10]
        assert np.array_equal(rep.witness[0], starts[0][2])
        # the reported worst gap is the exact re-evaluation of the witness
        assert len(reevaluated) == 1 and reevaluated[0] is rep.witness[0]
        assert rep.worst_gap == -3.0
        assert rep.verdict == "violated"


# ---------------------------------------------------------------------------
# Fused estimator steps against the step-by-step composition
# ---------------------------------------------------------------------------

def _sequential_ascent(value_grad_rho, x0, max_iters, tol):
    """Reference line search: the Armijo ascent trying one step per
    value_grad call, t, then t/2, ..., at most 40 trials per iteration,
    over rho = XX^dag / tr XX^dag as _ascent parametrizes it."""
    value_grad = partial(engine._x_value_grad, value_grad_rho)
    x = np.array(x0, dtype=complex)
    fvals, grads = value_grad(x)
    axes = tuple(range(1, x.ndim))
    bcast = (slice(None),) + (None,) * (x.ndim - 1)
    step = np.full(len(x), 0.25)
    active = np.isfinite(fvals)
    iters = np.zeros(len(x), dtype=int)
    for it in range(max_iters):
        if not active.any():
            break
        idx = np.where(active)[0]
        iters[idx] = it + 1
        f0 = fvals[idx]
        g = grads[idx]
        gn2 = np.sum(np.abs(g) ** 2, axis=axes)
        t = np.clip(step[idx], 1e-10, None)
        pending = gn2 > 0
        for _ in range(40):
            if not pending.any():
                break
            rows = np.where(pending)[0]
            trial = x[idx[rows]] + t[rows][bcast] * g[rows]
            ft, gt = value_grad(trial)
            ok = ft > f0[rows] + 1e-4 * t[rows] * gn2[rows]
            acc = rows[ok]
            x[idx[acc]] = trial[ok]
            fvals[idx[acc]] = ft[ok]
            grads[idx[acc]] = gt[ok]
            pending[acc] = False
            t[rows[~ok]] *= 0.5
            pending &= t > 1e-13
        step[idx] = np.clip(t * 2.0, 1e-12, 4.0)
        active[idx[fvals[idx] - f0 < tol]] = False
    return fvals, x, iters


def _gradient_problem(name):
    """One of the two value-and-gradient problems of
    tests/test_gradients.py (states to values and Hermitian gradients in
    rho), with its starting stack of ascent parameters X."""

    def stack(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if name == "entropic":
        rng = np.random.default_rng(31)
        e1, e2 = random_channel(3, 2, rng=rng), random_channel(3, 3, rng=rng)
        sig = op.PSDOperator(random_pd(3, rng))
        sigmas = [op.PSDOperator(random_pd(2, rng)), op.PSDOperator(random_pd(3, rng))]
        ws = engine._Workspace(BLDatum([0.7, 1.3], [e1, e2], sig, sigmas, 0.0))
        return ws.entropic_value_grad, stack(rng, (4, 3, 3))
    rng = np.random.default_rng(32)
    c = random_channel(3, 2, rng=rng)
    ws = engine._Workspace(app.min_output_datum(c))
    return ws.entropic_value_grad, stack(rng, (4, 3, 1))


def _reference_gibbs(h):
    """Normalized exp(h) by eigh and a three-operand einsum."""
    vals, vecs = np.linalg.eigh(op.hermitian_part(h))
    w = np.exp(vals - vals[..., -1:])
    w /= np.sum(w, axis=-1, keepdims=True)
    return np.einsum("...ij,...j,...kj->...ik", vecs, w, vecs.conj())


class _PerChannel(engine._Workspace):
    """The workspace with its channels applied one at a time through
    channels.apply / apply_adjoint: the reference for the stacked map."""

    def __init__(self, datum):
        super().__init__(datum)
        self.channels = datum.channels
        self.log_sigmas = [op.matrix_log(sk).finite for sk in datum.sigmas]
        self.linear = self.log_sigma - sum(
            qk * ch.apply_adjoint(c, ls)
            for qk, c, ls in zip(self.q, self.channels, self.log_sigmas)
        )

    def entropic_objective(self, rhos):
        out = op.trace_prod(rhos, self.linear) - op.xlogx_sum(np.linalg.eigvalsh(rhos))
        for qk, c in zip(self.q, self.channels):
            out = out + qk * op.xlogx_sum(np.linalg.eigvalsh(ch.apply(c, rhos)))
        return out

    def entropic_step(self, rhos, vals):
        out = op.trace_prod(rhos, self.linear) - op.xlogx_sum(vals)
        h = self.linear
        for qk, c in zip(self.q, self.channels):
            tvals, tlog = op.eigh_log(ch.apply(c, rhos))
            out = out + qk * op.xlogx_sum(tvals)
            h = h + qk * ch.apply_adjoint(c, tlog)
        return out, h

    def exponent(self, log_omegas):
        h = self.log_sigma
        for c, lw in zip(self.channels, log_omegas):
            h = h + ch.apply_adjoint(c, lw)
        return h


def _reference_entropic_objective(ref, rhos):
    """sum_k q_k D(E_k rho || sigma_k) - D(rho || sigma) term by term."""
    out = op.trace_prod(rhos, ref.log_sigma) - op.xlogx_sum(np.linalg.eigvalsh(rhos))
    for qk, chan, ls in zip(ref.q, ref.channels, ref.log_sigmas):
        taus = ch.apply(chan, rhos)
        out = out + qk * (op.xlogx_sum(np.linalg.eigvalsh(taus)) - op.trace_prod(taus, ls))
    return out


def _induced_logs(ref, rhos):
    """q_k (log E_k(rho) - log sigma_k) for every k, batched: the log w_k
    the duality proof pairs with rho."""
    return [
        qk * (op.eigh_log(ch.apply(chan, rhos))[1] - ls)
        for qk, chan, ls in zip(ref.q, ref.channels, ref.log_sigmas)
    ]


def _random_datum(seed):
    """Acceptance-style datum: sigma_k = E_k(sigma), dimensions 2 to 4."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    sigma = op.PSDOperator(random_pd(d, rng))
    chans = [random_channel(d, int(rng.integers(2, 5)), rng=rng) for _ in range(2)]
    sigmas = [op.PSDOperator(c(sigma)) for c in chans]
    return BLDatum(rng.uniform(0.5, 2.0, size=2), chans, sigma, sigmas, 0.0)


def _initial_log_omegas(datum, seeds):
    out = []
    for k, c in enumerate(datum.channels):
        stack = [random_density(c.dim_out, np.random.default_rng(s * 7 + k)) for s in seeds]
        out.append(op.eigh_log(np.stack(stack))[1])
    return out


def _close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


class TestFusedSteps:
    @pytest.mark.parametrize("problem", ["entropic", "output-entropy"])
    def test_ladder_accepts_the_sequential_step(self, problem):
        value_grad, x0 = _gradient_problem(problem)
        calls = {"ladder": 0, "sequential": 0}

        def counted(key):
            def f(x):
                calls[key] += 1
                return value_grad(x)
            return f

        f_lad, x_lad, it_lad = engine._ascent(counted("ladder"), x0, 300)
        f_seq, x_seq, it_seq = _sequential_ascent(counted("sequential"), x0, 300, 1e-9)
        assert np.array_equal(it_lad, it_seq) and it_lad.max() > 1
        assert _close(f_lad, f_seq)
        assert calls["ladder"] < calls["sequential"]

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_fixed_point_matches_the_composition(self, seed, monkeypatch):
        datum = _random_datum(seed)
        ws, ref = engine._Workspace(datum), _PerChannel(datum)
        rhos0 = engine._initial_states(datum.dim, BUDGET.seeds())
        vals0 = np.linalg.eigvalsh(rhos0)
        # the first pass takes the plain step from every restart: induced
        # logs -> exponent -> Gibbs state, each step on its own; a restart
        # keeps its start state only if that step lowers its value
        rhos1, f1, _ = engine._fixed_point(ws, rhos0, vals0, 1)
        moved = _reference_gibbs(ref.exponent(_induced_logs(ref, rhos0)))
        dev_moved = np.max(np.abs(rhos1 - moved), axis=(1, 2))
        dev_kept = np.max(np.abs(rhos1 - rhos0), axis=(1, 2))
        assert np.max(np.minimum(dev_moved, dev_kept)) < 1e-12
        assert np.max(dev_kept) > 1e-9
        # every returned value is that of the returned state
        assert _close(f1, _reference_entropic_objective(ref, rhos1))
        # the whole run: the stacked map and the per-channel loops give
        # one trajectory
        rows = []  # restarts stepped, per pass
        gibbs = engine.gibbs
        monkeypatch.setattr(engine, "gibbs", lambda h: rows.append(len(h)) or gibbs(h))
        rhos, fvals, passes = engine._fixed_point(ws, rhos0, vals0, BUDGET.max_iters)
        monkeypatch.undo()
        # a frozen restart leaves the arrays the loop steps
        assert rows[0] == BUDGET.restarts
        assert all(a >= b for a, b in zip(rows, rows[1:])) and rows[-1] < rows[0]
        # each pass steps the restarts live in it
        assert rows == [int(np.sum(passes > p)) for p in range(len(rows))]
        ref_rhos, ref_fvals, ref_passes = engine._fixed_point(ref, rhos0, vals0, BUDGET.max_iters)
        assert np.array_equal(passes, ref_passes) and passes.max() > 1
        assert _close(fvals, ref_fvals)
        assert np.max(np.abs(rhos - ref_rhos)) < 1e-9
        assert _close(fvals, _reference_entropic_objective(ref, rhos))

    def test_every_restart_matches_the_composition(self):
        # the composition test compares the end values only. Restarts 4
        # and 7 of this datum start at pure states, whose E_k(rho) have
        # kernels; with the log floor at 1e-18 lambda_max, below eigh's
        # rounding noise, restart 7's value after 3 passes differed by
        # 1.2e-6 between the stacked map and the per-channel loops (2.4e-9
        # after 2). At 1e-15 lambda_max the worst restart differs by 1.1e-9
        datum = _random_datum(42)
        ws, ref = engine._Workspace(datum), _PerChannel(datum)
        rhos0 = engine._initial_states(datum.dim, BUDGET.seeds())
        vals0 = np.linalg.eigvalsh(rhos0)
        fvals = engine._fixed_point(ws, rhos0, vals0, 3)[1]
        ref_fvals = engine._fixed_point(ref, rhos0, vals0, 3)[1]
        assert _close(fvals, ref_fvals, 1e-8)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_sweep_matches_the_composition(self, seed):
        # the analytic side runs the loop from the Gibbs states of random
        # omega tuples
        datum = _random_datum(seed)
        ws, ref = engine._Workspace(datum), _PerChannel(datum)
        log_omegas = _initial_log_omegas(datum, BUDGET.seeds())
        rhos0, vals0, _ = op.gibbs(ws.exponent(log_omegas))
        assert _close(rhos0, _reference_gibbs(ref.exponent(log_omegas)))
        rhos, fvals, passes = engine._fixed_point(ws, rhos0, vals0, BUDGET.max_iters)
        _, ref_fvals, ref_passes = engine._fixed_point(ref, rhos0, vals0, BUDGET.max_iters)
        assert np.array_equal(passes, ref_passes) and passes.max() > 1
        assert _close(fvals, ref_fvals)
        assert _close(fvals, _reference_entropic_objective(ref, rhos))


FOCK_DATUM = os.path.join(os.path.dirname(__file__), "data", "mercedes_fock_n4_q07.json")


def _fock_line_channel(theta, n_max):
    """The marginal on the line at angle theta of two modes holding at most
    n_max photons: K_n[m, (k, l)] = <m, n|_b |k, l>_a, with the b-modes
    rotated by theta from the a-modes (a_1 = c b_1 - s b_2,
    a_2 = s b_1 + c b_2), expanded by the binomial theorem; n is the photon
    number of the traced mode b_2, and the input basis runs over
    k + l <= n_max, k-major."""
    c, s = np.cos(theta), np.sin(theta)
    basis = [(k, l) for k in range(n_max + 1) for l in range(n_max + 1 - k)]
    kraus = np.zeros((n_max + 1, n_max + 1, len(basis)))
    for col, (k, l) in enumerate(basis):
        for m in range(k + l + 1):
            n = k + l - m
            amp = 0.0
            for i in range(max(0, m - l), min(k, m) + 1):
                amp += comb(k, i) * comb(l, m - i) * c**i * (-s)**(k - i) * s**(m - i) * c**(l - m + i)
            kraus[n, m, col] = amp * sqrt(factorial(m) * factorial(n) / (factorial(k) * factorial(l)))
    return ch.Channel(list(kraus))


def _mercedes_fock_datum(n_max=4, q=0.7):
    """The recipe of tests/data/mercedes_fock_n4_q07.json (written with
    encode_datum): the Mercedes star's three lines at angles 0, 2 pi/3 and
    4 pi/3 on at most n_max photons, q_k = q, sigma = I, sigma_k = I."""
    chans = [_fock_line_channel(t, n_max) for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    return BLDatum([q] * 3, chans, op.PSDOperator(np.eye(chans[0].dim_in)),
                   [op.PSDOperator(np.eye(n_max + 1))] * 3, 0.0)


def _fock_datum():
    with open(FOCK_DATUM, encoding="utf-8") as fh:
        return decode_datum(json.load(fh))


def _probe_datum(i):
    """Datum i of the seeded robustness-probe family: d_in 1-4, 1-3 random
    channels of output dimension 1-4, q_k from {0.3, 0.5, 1, 1.5, 2.5},
    sigma of random rank, and each sigma_k of output dimension above 1
    rank-deficient with probability 0.4."""
    rng = np.random.default_rng([4242, i])

    def psd(d, rank):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        return op.PSDOperator(g @ g.conj().T)

    d_in = int(rng.integers(1, 5))
    chans = [random_channel(d_in, int(rng.integers(1, 5)), rng)
             for _ in range(int(rng.integers(1, 4)))]
    q = rng.choice([0.3, 0.5, 1.0, 1.5, 2.5], size=len(chans))
    sigma = psd(d_in, int(rng.integers(1, d_in + 1)))
    sigmas = []
    for c in chans:
        deficient = rng.random() < 0.4 and c.dim_out > 1
        sigmas.append(psd(c.dim_out, int(rng.integers(1, c.dim_out)) if deficient else c.dim_out))
    return BLDatum(q, chans, sigma, sigmas, 0.0)


def _acceptance_datum(i):
    """Datum i of the acceptance-1 generator."""
    rng = np.random.default_rng(1000 + i)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    sigma = op.PSDOperator(random_pd(d, rng))
    chans, sigmas, q = [], [], []
    for _ in range(n):
        c = random_channel(d, int(rng.integers(2, 5)), rng=rng)
        chans.append(c)
        sigmas.append(op.PSDOperator(c(sigma)))
        q.append(float(rng.uniform(0.5, 2.0)))
    return BLDatum(q, chans, sigma, sigmas, 0.0)


def _tensor_square_datum(seed):
    """d (x) d for a qubit datum with two channels 2 -> 2 and sigma_k =
    E_k(sigma): its constant is 2 C(d)."""
    rng = np.random.default_rng(seed)
    sigma = op.PSDOperator(random_pd(2, rng))
    chans, sigmas, q = [], [], []
    for _ in range(2):
        c = random_channel(2, 2, rng=rng)
        chans.append(c)
        sigmas.append(op.PSDOperator(c(sigma)))
        q.append(float(rng.uniform(0.5, 2.0)))
    d = BLDatum(q, chans, sigma, sigmas, 0.0)
    return tensor_datum(d, d)


def _min_output_reference(e) -> float:
    """min over pure inputs psi of H(E(psi psi^dag)), the minimum output
    entropy, by scipy's BFGS over the real 2 d_in coordinates of psi: the
    best of 16 starts from default_rng(0)."""
    from scipy.optimize import minimize

    d = e.dim_in

    def h_out(x):
        psi = x[:d] + 1j * x[d:]
        vals = np.linalg.eigvalsh(e(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real))
        vals = vals[vals > 0]
        return float(-np.sum(vals * np.log(vals)))

    rng = np.random.default_rng(0)
    return min(minimize(h_out, rng.standard_normal(2 * d), method="BFGS").fun for _ in range(16))


class TestConvergence:
    """Data on which the plain fixed point stopped short or the analytic
    re-evaluation failed."""

    def test_slow_datum_both_sides(self):
        # acceptance datum 12: the plain fixed point froze 0.18% below the
        # constant (4.4632e-5), the analytic side 2.2e-9 below it
        datum = _acceptance_datum(12)
        budget = OptimizerBudget(restarts=32, max_iters=500, base_seed=12)
        c_ent = optimal_constant_entropic(datum, budget)[0]
        c_ana = optimal_constant_analytic(datum, budget)[0]
        assert abs(c_ent - 4.4712078e-5) < 1e-9
        assert abs(c_ana - 4.4712078e-5) < 1e-9

    def test_pure_state_optimum_analytic(self):
        # q = (1, 1), channels (id, E), sigma = sigma_k = 1: the constant is
        # -H_min(E), attained at a pure state; the analytic side stopped at
        # -0.260650404 with the plain step, and at -0.2584002967 with the
        # accelerated loop and no ascent
        rng = np.random.default_rng(7)
        d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        datum = app.min_output_datum(random_channel(d_in, d_out, rng=rng))
        c_ent = optimal_constant_entropic(datum, BUDGET)[0]
        c_ana = optimal_constant_analytic(datum, BUDGET)[0]
        assert abs(c_ent - -0.2583978867) <= 1e-9
        assert abs(c_ana - -0.2583978867) <= 1e-9
        assert abs(c_ana - c_ent) <= 1e-9

    def test_fock_datum_matches_its_recipe(self):
        stored = _fock_datum()
        built = _mercedes_fock_datum()
        assert np.array_equal(stored.q, built.q) and stored.c == built.c
        for a, b in zip(stored.channels, built.channels, strict=True):
            np.testing.assert_allclose(a.kraus, b.kraus, rtol=0, atol=1e-15)
        for a, b in zip([stored.sigma, *stored.sigmas], [built.sigma, *built.sigmas]):
            assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("seed", range(8))
    def test_cut_rank_of_a_near_pure_winner(self, seed, capsys):
        # the Mercedes star on at most 4 photons, q_k = 0.7: at seeds 1, 3
        # and 5 the analytic winner is the vacuum up to 1e-9, and an
        # E_k(rho) has an eigenvalue of 8.2e-11, under its eps_supp cut.
        # The tuple cut there re-evaluated 9.8e-6 below the search's value,
        # and qbl constant exited 1; the floored logs give -2.0109e-7,
        # 1.3e-10 above it
        code = main(["constant", FOCK_DATUM, "--budget", "restarts=8,iters=300",
                     "--seed", str(seed), "--no-meta"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)["constant"]
        assert rep["agree"] and abs(rep["analytic_nats"]) < 1e-6

    def test_cut_rank_reports_the_floored_tuple(self):
        # the one certificate: the reported constant is the exact value of
        # the floored logs at the winner, which keep the rank under the cut
        datum = _fock_datum()
        budget = OptimizerBudget(restarts=8, max_iters=300, base_seed=1)
        c, witness, _ = optimal_constant_analytic(datum, budget)
        _, v, _ = datum._search_space()
        internal, rho = engine._search(datum, budget, "analytic")[0][:2]
        logs = engine.induced_logs(datum, engine._lift(v, rho))
        assert not any(lk.has_kernel for lk in logs)
        assert c == -analytic_gap(datum.with_constant(0.0), logs) and c >= internal
        for a, b in zip(witness, induced_analytic_witness(datum, logs), strict=True):
            assert np.array_equal(a.matrix, b.matrix)
        assert abs(-analytic_gap(datum, witness) - c) < 1e-9

    def test_one_certificate_on_the_seeded_family(self):
        # the robustness-probe family at 4 x 200, and two data with a pure
        # winner and q_k < 1 at 8 x 300: every reported analytic constant
        # of a datum that does not leak is the exact value of its floored
        # induced logs at the winner, no L_k flags a kernel, and the
        # constant is not below the search's value beyond rounding
        probe = OptimizerBudget(restarts=4, max_iters=200)
        runs = [(_probe_datum(i), probe) for i in range(300)]
        eye = op.PSDOperator(np.eye(2))
        for second in (ch.identity_channel(2), ch.measurement_channel(list(np.eye(2)))):
            datum = BLDatum([0.3, 0.9], [ch.identity_channel(2), second], eye, [eye, eye], 0.0)
            runs += [(datum, OptimizerBudget(restarts=8, max_iters=300, base_seed=s))
                     for s in range(3)]
        certified = 0
        for datum, budget in runs:
            if datum._leak is not None:
                continue
            c = optimal_constant_analytic(datum, budget)[0]
            _, v, _ = datum._search_space()
            internal, rho = engine._search(datum, budget, "analytic")[0][:2]
            logs = engine.induced_logs(datum, engine._lift(v, rho))
            assert not any(lk.has_kernel for lk in logs)
            assert c == -analytic_gap(datum.with_constant(0.0), logs)
            assert c >= internal - 1e-12 * max(1.0, abs(c))
            certified += 1
        assert certified == 157

    def test_acceptance_data_agree(self):
        # the 20 data of acceptance criterion 1 at its budget: with the
        # shared search the two sides' worst |dC| is 3.2e-11; the
        # accelerated loop without the ascent gave 1.1e-10
        worst = 0.0
        for i in range(20):
            budget = OptimizerBudget(restarts=32, max_iters=500, base_seed=i)
            datum = _acceptance_datum(i)
            c_ent = optimal_constant_entropic(datum, budget)[0]
            c_ana = optimal_constant_analytic(datum, budget)[0]
            worst = max(worst, abs(c_ent - c_ana))
        assert worst <= 1.1e-10

    @pytest.mark.parametrize("index", [3, 5, 9, 12])
    def test_min_output_family_analytic(self, index):
        # channels of the minimum-output-entropy family on which the
        # analytic side, without the ascent, ended on the plain step's crawl
        # toward a pure-state optimum, more than 1e-5 below -H_min; H_min
        # comes from an optimizer that shares no code with the engine
        rng = np.random.default_rng(12)
        for _ in range(index + 1):
            d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            e = random_channel(d_in, d_out, rng=rng)
        budget = OptimizerBudget(restarts=4, max_iters=300, base_seed=3)
        c_ana = optimal_constant_analytic(app.min_output_datum(e), budget)[0]
        assert abs(c_ana - -_min_output_reference(e)) <= 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_tensor_square_analytic_is_finite(self, seed):
        # an E_k(rho) eigenvalue ratio of 2.5e-7, raised to q_k = 1.42 in
        # omega_k, fell below the support cut of omega_k: the re-evaluated
        # tuple lost a rank and its value was -inf (seeds 0, 5, 8, 9); the
        # induced tuple is re-evaluated from its logs
        datum = _tensor_square_datum(seed)
        budget = OptimizerBudget(restarts=16, max_iters=500, base_seed=0)
        c_ent = optimal_constant_entropic(datum, budget)[0]
        c_ana = optimal_constant_analytic(datum, budget)[0]
        assert np.isfinite(c_ana)
        assert abs(c_ana - c_ent) <= 1e-9


def _embedded_datum(datum):
    """datum on one more input direction e, where sigma is 0: sigma (+) 0,
    Kraus operators K P with P = eye(d, d + 1), and per channel of output
    dimension m the operators |j><e| / sqrt(m), j < m, which keep it
    trace-preserving. Its sigma_k, q and C are those of datum."""
    d = datum.dim
    p, e = np.eye(d, d + 1), np.eye(d + 1)[d]
    chans = []
    for c in datum.channels:
        m = c.dim_out
        extra = [np.outer(np.eye(m)[j], e) / np.sqrt(m) for j in range(m)]
        chans.append(ch.Channel([k @ p for k in c.kraus] + extra))
    sigma = op.PSDOperator(np.pad(datum.sigma.matrix, (0, 1)))
    return BLDatum(datum.q, chans, sigma, datum.sigmas, datum.c)


class TestSingularSigma:
    """A datum with singular sigma is the datum E_k o Ad_V, V^dag sigma V on
    supp sigma (V its support basis): both estimators search that one."""

    BUDGET = OptimizerBudget(restarts=8, max_iters=300)

    def test_positive_definite_sigma_is_not_compressed(self):
        datum = _acceptance_datum(0)
        inner, v = engine._compress(datum)
        assert inner is datum and v is None

    def test_defect_d_both_sides(self):
        # the search used to refuse this datum for its singular sigma;
        # rho = sigma / tr sigma gives 0, and both sides find 0 (measured
        # 3.3e-16 and 1.8e-16)
        datum = _defect_d_datum()
        c_ent, w_ent, _ = optimal_constant_entropic(datum, self.BUDGET)
        c_ana, w_ana, _ = optimal_constant_analytic(datum, self.BUDGET)
        assert np.isfinite(c_ent) and np.isfinite(c_ana)
        assert abs(c_ent - c_ana) <= 1e-9
        assert abs(c_ent) <= 1e-9
        # the entropic witness lies in supp sigma, the span of e_1, e_2
        assert np.max(np.abs(w_ent.matrix[2])) <= 1e-12
        assert entropic_gap(datum, w_ent) == pytest.approx(-c_ent, abs=1e-9)
        assert analytic_gap(datum, w_ana) == pytest.approx(-c_ana, abs=1e-9)

    def test_superadditivity_datum(self):
        # sigma_AB = diag(0.5, 0.2, 0.3, 0): the constant of the
        # super-additivity datum is 0
        datum = app.superadditivity_datum(np.diag([0.5, 0.2, 0.3, 0.0]), (2, 2))
        assert optimal_constant_entropic(datum, self.BUDGET)[0] == pytest.approx(0.0, abs=1e-9)
        assert optimal_constant_analytic(datum, self.BUDGET)[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("index", range(8))
    def test_embedding_leaves_the_constant(self, index):
        # one more input direction on which sigma is 0 changes no constant
        datum = _acceptance_datum(index)
        big = _embedded_datum(datum)
        assert big.sigma.support_rank == datum.dim == big.dim - 1
        budget = OptimizerBudget(restarts=16, max_iters=500, base_seed=3)
        c_ent, w_ent, _ = optimal_constant_entropic(big, budget)
        assert abs(c_ent - optimal_constant_entropic(datum, budget)[0]) <= 1e-9
        assert np.max(np.abs(w_ent.matrix[datum.dim])) <= 1e-12
        c_ana = optimal_constant_analytic(big, budget)[0]
        assert abs(c_ana - optimal_constant_analytic(datum, budget)[0]) <= 1e-9

    def test_zero_sigma_is_one_error(self):
        # sigma = 0: no state has finite D(rho||sigma); every route raises
        # the same error
        datum = BLDatum([1.0], [ch.identity_channel(2)], op.PSDOperator(np.zeros((2, 2))),
                        [op.PSDOperator(np.eye(2) / 2)], 0.0)
        calls = [partial(optimal_constant_entropic, budget=self.BUDGET),
                 partial(optimal_constant_analytic, budget=self.BUDGET),
                 *(partial(bl_membership, config=SamplerConfig(samples=5, form=form))
                   for form in ("entropic", "analytic"))]
        for call in calls:
            with pytest.raises(ZeroOperator, match="^sigma is the zero operator"):
                call(datum)


class TestIdentities:
    """Exact identities of the optimal constant (ROADMAP item 9), from both
    sides of the cross-check on acceptance-1 data 0-7."""

    BUDGET = OptimizerBudget(restarts=8, max_iters=300, base_seed=3)

    def _assert_shifted(self, datum, moved, shift):
        ref = duality_crosscheck(datum, self.BUDGET)
        rep = duality_crosscheck(moved, self.BUDGET)
        assert abs(rep.c_entropic - ref.c_entropic - shift) <= 1e-9
        assert abs(rep.c_analytic - ref.c_analytic - shift) <= 1e-9

    @pytest.mark.parametrize("index", range(8))
    def test_rescaling_shifts_the_constant(self, index):
        # sigma -> lam sigma, sigma_k -> lam_k sigma_k moves M by a multiple
        # of I: C moves by log lam - sum_k q_k log lam_k (measured within 4.9e-15)
        datum = _acceptance_datum(index)
        lam, lams = 2.5, [0.3 + 0.4 * k for k in range(len(datum.q))]
        moved = BLDatum(datum.q, datum.channels, op.PSDOperator(lam * datum.sigma.matrix),
                        [op.PSDOperator(x * s.matrix) for x, s in zip(lams, datum.sigmas)],
                        datum.c)
        shift = np.log(lam) - sum(q * np.log(x) for q, x in zip(datum.q, lams))
        self._assert_shifted(datum, moved, shift)

    @pytest.mark.parametrize("index", range(8))
    def test_kraus_mixing_leaves_the_constant(self, index):
        # K'_a = sum_b U_ab K_b is the same channel (measured within 4.4e-11)
        datum = _acceptance_datum(index)
        rng = np.random.default_rng(index)
        chans = [ch.Channel(np.tensordot(haar_unitary(len(c.kraus), rng), c.kraus, axes=1))
                 for c in datum.channels]
        moved = BLDatum(datum.q, chans, datum.sigma, datum.sigmas, datum.c)
        self._assert_shifted(datum, moved, 0.0)

    @pytest.mark.parametrize("index", range(20))
    def test_unitary_covariance(self, index):
        # E_k -> V_k E_k(U^dag . U) V_k^dag, sigma -> U sigma U^dag and
        # sigma_k -> V_k sigma_k V_k^dag leave the constant alone: three
        # Haar rotations at the CLI default budget (measured within 3.0e-11)
        datum = _acceptance_datum(index)
        ref = duality_crosscheck(datum, OptimizerBudget())
        rng = np.random.default_rng(index)
        for _ in range(3):
            u = haar_unitary(datum.dim, rng)
            vs = [haar_unitary(c.dim_out, rng) for c in datum.channels]
            chans = [ch.Channel([v @ k @ u.conj().T for k in c.kraus])
                     for c, v in zip(datum.channels, vs)]
            moved = BLDatum(datum.q, chans, op.PSDOperator(u @ datum.sigma.matrix @ u.conj().T),
                            [op.PSDOperator(v @ s.matrix @ v.conj().T)
                             for v, s in zip(vs, datum.sigmas)], datum.c)
            rep = duality_crosscheck(moved, OptimizerBudget())
            assert abs(rep.c_entropic - ref.c_entropic) <= 1e-9
            assert abs(rep.c_analytic - ref.c_analytic) <= 1e-9


class TestAcceleratedLoop:
    """The one fixed-point loop of both estimators: safeguarded Anderson
    acceleration of the plain step rho -> Gibbs(H(rho))."""

    @pytest.mark.parametrize("plain", [False, True])
    def test_accepted_values_never_drop(self, plain, monkeypatch):
        # the loop is deterministic, so the runs capped at 1, 2, ... passes
        # retrace one trajectory; each returns every restart's last
        # accepted iterate, whose value never drops from one cap to the next;
        # with plain True every proposal is forced to the plain step
        if plain:
            monkeypatch.setattr(engine, "_anderson_coefficients",
                                lambda dr, r: np.zeros((len(r), engine._WINDOW)))
        for datum in (_random_datum(42), _acceptance_datum(0)):
            ws = engine._Workspace(datum)
            rhos0 = engine._initial_states(datum.dim, BUDGET.seeds())
            vals0 = np.linalg.eigvalsh(rhos0)
            full = engine._fixed_point(ws, rhos0, vals0, BUDGET.max_iters)[2].max()
            assert full > 20
            prev = engine._fixed_point(ws, rhos0, vals0, 0)[1]
            for cap in list(range(1, 21)) + [full]:
                fvals = engine._fixed_point(ws, rhos0, vals0, cap)[1]
                assert np.all(fvals >= prev)
                prev = fvals
        # acceptance datum 0 has a pure-state optimum: its restarts sit at
        # the support cut, so relaxed plain steps were among those checked,
        # and with eta held at 1 its first 20 passes end elsewhere
        with monkeypatch.context() as m:
            m.setattr(engine, "_RELAX_CAP", 1.0)
            unrelaxed = engine._fixed_point(ws, rhos0, vals0, 20)[1]
        assert not np.array_equal(unrelaxed, engine._fixed_point(ws, rhos0, vals0, 20)[1])

    def test_refused_relaxed_step_leaves_the_restart_live(self, monkeypatch):
        # one restart of acceptance datum 0 at the support cut, where every
        # proposal is a plain step: find a relaxed one (not the plain
        # exponent H) whose value drops, and see the restart step on
        datum = _acceptance_datum(0)
        ws = engine._Workspace(datum)
        step = ws.entropic_step
        rows = []  # per valuation: state spectrum, value, next exponent H

        def recorded(rhos, vals):
            out = step(rhos, vals)
            rows.append((vals[0], out[0][0], out[1][0]))
            return out

        proposals = []
        gibbs = engine.gibbs

        def proposed(h):
            proposals.append(h[0])
            return gibbs(h)

        ws.entropic_step = recorded
        monkeypatch.setattr(engine, "gibbs", proposed)
        rho0 = engine._initial_states(datum.dim, [0])
        (passes,) = engine._fixed_point(ws, rho0, np.linalg.eigvalsh(rho0), BUDGET.max_iters)[2]
        assert len(proposals) == passes == len(rows) - 1
        refused = []
        vals, f, g = rows[0]
        for p, (cand, (nvals, fnew, gnew)) in enumerate(zip(proposals, rows[1:])):
            at_cut = vals[0] < SUPP_RTOL * vals[-1]
            if fnew < f and at_cut and np.max(np.abs(cand - g)) > 1e-6:
                refused.append(p)
            if fnew >= f:
                vals, f, g = nvals, fnew, gnew
        assert refused and refused[0] < passes - 1
        # a relaxed step moves the exponent by its traceless residual only,
        # so the proposals' traces stay at the scale of the exponents H
        # (with h + eta (H - h), trace kept, they reached |tr| = 11085 on
        # this datum's 8 restarts, against 43 with the residual traceless)
        top = max(abs(np.trace(h)) for _, _, h in rows)
        assert max(abs(np.trace(h)) for h in proposals) <= 2 * top

    def test_relaxed_steps_cut_the_gibbs_calls(self, monkeypatch):
        # the 20 acceptance-1 data at their budget, both sides: 4221 Gibbs
        # calls without relaxation (one per loop pass, plus the analytic
        # side's start states and its witness, one per output dimension),
        # 1679 with it; the results count the passes
        calls = []
        gibbs = engine.gibbs
        monkeypatch.setattr(engine, "gibbs", lambda h: calls.append(len(h)) or gibbs(h))
        passes = witnesses = 0
        for i in range(20):
            budget = OptimizerBudget(restarts=32, max_iters=500, base_seed=i)
            datum = _acceptance_datum(i)
            for estimate in (optimal_constant_entropic, optimal_constant_analytic):
                passes += estimate(datum, budget)[2].loop_passes
            witnesses += len(engine._dim_groups(datum.channels))
        assert passes + 20 + witnesses == len(calls) < 2500

    def test_anderson_beats_the_plain_step(self, monkeypatch):
        # with every proposal forced to the plain step the loop is the
        # unaccelerated fixed point: slower to the same value
        datum = _random_datum(43)
        ws = engine._Workspace(datum)
        rhos0 = engine._initial_states(datum.dim, BUDGET.seeds())
        vals0 = np.linalg.eigvalsh(rhos0)
        fast = engine._fixed_point(ws, rhos0, vals0, BUDGET.max_iters)
        monkeypatch.setattr(engine, "_anderson_coefficients",
                            lambda dr, r: np.zeros((len(r), engine._WINDOW)))
        slow = engine._fixed_point(ws, rhos0, vals0, BUDGET.max_iters)
        assert fast[2].max() < slow[2].max()
        assert np.max(fast[1]) >= np.max(slow[1]) - 1e-9


class TestAscentHandoff:
    """The entropic estimator polishes the fixed point's final states by
    the ascent, rather than searching again from the random starts."""

    @pytest.fixture
    def runs(self, monkeypatch):
        seen = {}

        def recorded(name):
            fn = getattr(engine, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[name] = (args, out)
                return out

            monkeypatch.setattr(engine, name, wrapped)

        recorded("_fixed_point")
        recorded("_ascent")
        return seen

    @pytest.mark.parametrize("make", [partial(_random_datum, 42), partial(_acceptance_datum, 0)])
    def test_ascent_starts_at_the_fixed_point_states(self, runs, make):
        c = optimal_constant_entropic(make(), BUDGET)[0]
        fp_rhos, fp_vals = runs["_fixed_point"][1][:2]
        x0 = runs["_ascent"][0][1]
        assert np.max(np.abs(engine._gram_states(x0)[0] - fp_rhos)) < 1e-12
        assert c >= np.max(fp_vals) - 1e-12

    def test_pure_state_optimum_keeps_its_value(self):
        # acceptance datum 0 has a pure-state optimum, where the plain step
        # crawls; the ascent from the random starts reported 0.8152066995870
        budget = OptimizerBudget(restarts=32, max_iters=500, base_seed=0)
        c, _, res = optimal_constant_entropic(_acceptance_datum(0), budget)
        assert c >= 0.8152066995870 - 1e-12
        assert res.method == "fixed_point+ascent"

    def test_converged_fixed_point_leaves_the_ascent_nothing_to_do(self, runs):
        optimal_constant_entropic(dpi_datum(), BUDGET)
        assert runs["_ascent"][1][2].max() <= 2

    def test_stationary_restarts_spend_no_trial_steps(self):
        # from the end states of 500 fixed-point passes on acceptance datum
        # 7 no restart can gain GAIN_TOL at its first trial step, so the
        # ascent freezes them all after its initial evaluation (it spent
        # 15 value_grad calls on their backtracking ladders)
        datum = _acceptance_datum(7)
        ws = engine._Workspace(datum)
        rhos0 = engine._initial_states(datum.dim, list(range(7, 39)))
        rhos = engine._fixed_point(ws, rhos0, np.linalg.eigvalsh(rhos0), 500)[0]
        calls = []

        def counted(states):
            calls.append(len(states))
            return ws.entropic_value_grad(states)

        engine._ascent(counted, op.sqrt_psd(rhos), 500)
        assert calls == [32]


class TestStackedSides:
    """A cross-check searches both sides' restarts as one stack: the loop
    and the ascent act on each row alone, so a row ends where it ends, and
    takes the passes and iterations it takes, in a stack of its own side's
    rows."""

    @pytest.mark.parametrize("make", [partial(_acceptance_datum, i) for i in range(20)]
                             + [partial(_random_datum, 42)])
    def test_a_row_does_not_depend_on_the_rows_beside_it(self, make):
        datum = make()
        ws = engine._Workspace(datum)
        starts = [engine._start_states(side, datum, ws, BUDGET.seeds())
                  for side in ("entropic", "analytic")]

        def search(rhos, vals):
            fp = engine._fixed_point(ws, rhos, vals, BUDGET.max_iters)
            return fp + engine._ascent(ws.entropic_value_grad, op.sqrt_psd(fp[0]),
                                       BUDGET.max_iters)

        stacked = search(*(np.concatenate(a) for a in zip(*starts)))
        for i, start in enumerate(starts):
            rows = slice(i * BUDGET.restarts, (i + 1) * BUDGET.restarts)
            for joint, lone in zip(stacked, search(*start), strict=True):
                assert np.array_equal(joint[rows], lone)


class TestSearchStarts:
    """_search takes a stack of extra start states, searched after each
    side's random rows; a datum keeps a started search apart from a plain
    one."""

    @pytest.mark.parametrize("side", ["entropic", "analytic"])
    @pytest.mark.parametrize("i", range(4))
    def test_a_winner_as_start_is_kept(self, i, side):
        # the loop and the ascent accept no drop; the start's value is
        # re-evaluated at the Hermitian part of the winner, within rounding
        plain = engine._search(_acceptance_datum(i), BUDGET, side)[0]
        started = engine._search(_acceptance_datum(i), BUDGET, side, starts=plain[1][None])[0]
        assert started[0] >= plain[0] - 1e-12

    def test_a_plain_search_is_not_served_a_started_one(self, monkeypatch):
        small = OptimizerBudget(restarts=1, max_iters=2)
        best = engine._search(_acceptance_datum(0), BUDGET, "entropic")[0][1][None]
        loops = []
        fixed_point = engine._fixed_point
        monkeypatch.setattr(engine, "_fixed_point", lambda *a: loops.append(1) or fixed_point(*a))
        datum = _acceptance_datum(0)
        plain = engine._search(datum, small, "entropic")[0]
        started = engine._search(datum, small, "entropic", starts=best)[0]
        again = engine._search(datum, small, "entropic")[0]
        assert len(loops) == 3
        assert started[0] > plain[0] + 1e-6
        assert again[0] == plain[0] and np.array_equal(again[1], plain[1])

    @pytest.mark.parametrize("make", [partial(_acceptance_datum, i) for i in range(4)]
                             + [partial(_random_datum, 42)])
    def test_extra_rows_leave_the_random_rows_alone(self, make):
        # a started search's random rows end, row for row, as the rows of a
        # plain search do, and the plain search's winner is their best row
        datum = make()
        ws = engine._Workspace(datum)
        rhos, vals = engine._start_states("entropic", datum, ws, BUDGET.seeds())
        extra = engine._search(make(), OptimizerBudget(2, 20, 99), "entropic")[0][1][None]

        def search(rhos, vals):
            fp = engine._fixed_point(ws, rhos, vals, BUDGET.max_iters)
            return fp + engine._ascent(ws.entropic_value_grad, op.sqrt_psd(fp[0]),
                                       BUDGET.max_iters)

        lone = search(rhos, vals)
        joint = search(np.concatenate([rhos, extra]),
                       np.concatenate([vals, np.linalg.eigvalsh(extra)]))
        for a, b in zip(joint, lone, strict=True):
            assert np.array_equal(a[:BUDGET.restarts], b)
        value, rho, passes, iters = engine._search(datum, BUDGET, "entropic")[0]
        best = int(np.argmax(lone[3]))
        assert value == lone[3][best]
        assert np.array_equal(rho, op.hermitian_part(engine._gram_states(lone[4][best])[0]))
        assert (passes, iters) == (lone[2].max(), lone[5].max())


def _rank_deficient_datum(seed=51):
    """sigma_2 has rank 2 in dimension 3, and E_2 maps into its support."""
    rng = np.random.default_rng(seed)
    sig = op.PSDOperator(random_pd(3, rng))
    e1 = random_channel(3, 3, rng=rng)
    v = haar_unitary(3, rng)[:, :2]
    e2 = ch.Channel([v @ k for k in random_channel(3, 2, rng=rng).kraus])
    sigmas = [op.PSDOperator(random_pd(3, rng)), op.PSDOperator(v @ random_pd(2, rng) @ v.conj().T)]
    return BLDatum([0.8, 1.3], [e1, e2], sig, sigmas, 0.0)


def _unsorted_dims_datum(seed=61):
    """d_in = 4 and outputs 3, 2, 3: the stacked map orders the channels
    2, 1, 3, and the first and last share one block of outputs."""
    rng = np.random.default_rng(seed)
    chans = [random_channel(4, m, rng=rng) for m in (3, 2, 3)]
    sig = op.PSDOperator(random_pd(4, rng))
    sigmas = [op.PSDOperator(random_pd(c.dim_out, rng)) for c in chans]
    return BLDatum([0.6, 1.1, 0.8], chans, sig, sigmas, 0.0)


def _equal_dims_datum(seed=62):
    """d_in = 3 and three outputs of dimension 2: one block of outputs."""
    rng = np.random.default_rng(seed)
    chans = [random_channel(3, 2, rng=rng) for _ in range(3)]
    sig = op.PSDOperator(random_pd(3, rng))
    sigmas = [op.PSDOperator(c(sig)) for c in chans]
    return BLDatum([0.5, 0.9, 1.4], chans, sig, sigmas, 0.0)


class TestStackedMap:
    """The workspace applies all channels as one stacked map; the
    per-channel loops of _PerChannel are the reference."""

    @pytest.mark.parametrize(
        "make", [_mixed_dims_datum, _rank_deficient_datum, _unsorted_dims_datum, _equal_dims_datum]
    )
    def test_matches_the_per_channel_loops(self, make):
        datum = make()
        ws, ref = engine._Workspace(datum), _PerChannel(datum)
        rng = np.random.default_rng(63)
        rhos = np.stack([random_density(datum.dim, rng, kind)
                         for kind in ("hs", "pure", "boundary") * 2])
        vals = np.linalg.eigvalsh(rhos)
        log_omegas = [
            op.eigh_log(np.stack([random_density(c.dim_out, rng, kind)
                                       for kind in ("hs", "boundary") * 3]))[1]
            for c in datum.channels
        ]
        assert _close(ws.linear, ref.linear)
        assert _close(ws.entropic_objective(rhos), ref.entropic_objective(rhos))
        value, h = ws.entropic_step(rhos, vals)
        ref_value, ref_h = ref.entropic_step(rhos, vals)
        assert _close(value, ref_value)
        assert _close(h, ref_h)
        assert _close(ws.exponent(log_omegas), ref.exponent(log_omegas))


class TestLinearTerm:
    @pytest.mark.parametrize("make", [_mixed_dims_datum, _rank_deficient_datum])
    def test_objective_matches_relative_entropies(self, make):
        datum = make()
        assert engine._support_leak(datum) is None
        ws = engine._Workspace(datum)
        rng = np.random.default_rng(52)
        rhos = np.stack([random_density(datum.dim, rng, kind)
                         for kind in ("hs", "pure", "boundary") * 2])
        want = [
            sum(qk * ent.relative_entropy(op.DensityOperator(ch.apply(c, r)), sk)
                for qk, c, sk in zip(datum.q, datum.channels, datum.sigmas))
            - ent.relative_entropy(op.DensityOperator(r), datum.sigma)
            for r in rhos
        ]
        assert _close(ws.entropic_objective(rhos), want)
        assert _close(ws.entropic_step(rhos, np.linalg.eigvalsh(rhos))[0], want)
        states = engine._gram_states(op.sqrt_psd(rhos))[0]
        assert _close(ws.entropic_value_grad(states)[0], want)

    @pytest.mark.parametrize("make", [_mixed_dims_datum, _rank_deficient_datum])
    def test_induced_tuple_scores_log_tr_exp_of_the_exponent(self, make):
        # the duality proof's tuple omega_k ~ exp(q_k (log E_k rho - log
        # sigma_k)) has right-hand side 1, so its analytic value is
        # log tr exp H for the exponent H of entropic_step, and by the
        # Gibbs variational principle it is at least the entropic value
        datum = make()
        ws = engine._Workspace(datum)
        rng = np.random.default_rng(53)
        rhos = np.stack([random_density(datum.dim, rng, kind)
                         for kind in ("hs", "pure", "boundary") * 2])
        _, h = ws.entropic_step(rhos, np.linalg.eigvalsh(rhos))
        ent_vals = ws.entropic_objective(rhos)
        logs = _induced_logs(_PerChannel(datum), rhos)
        ana_vals = np.array([-analytic_gap(datum.with_constant(0.0),
                                           [op.SupportLog(lg[i]) for lg in logs])
                             for i in range(len(rhos))])
        assert np.max(np.abs(ana_vals - op.gibbs(h)[2])) < 1e-12
        assert np.all(ana_vals >= ent_vals - 1e-12)


class TestSpectralCounts:
    """One eigendecomposition per iterate: counted eigh / eigvalsh calls
    (one call per batched stack), told apart by matrix size. The data have
    input dimension 3 and outputs 2 and 4, or three outputs of dimension 2,
    so a 3 x 3 call is on the exponent or the state."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(a, *args, _fn=fn, _name=name, **kwargs):
                seen.append((_name, np.shape(a)[-1]))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(engine.np.linalg, name, counted)
        return seen

    def test_fixed_point(self, calls):
        datum = _mixed_dims_datum()
        ws = engine._Workspace(datum)
        rhos0 = engine._initial_states(3, BUDGET.seeds())
        calls.clear()
        iters = engine._fixed_point(ws, rhos0, np.linalg.eigvalsh(rhos0), BUDGET.max_iters)[2].max()
        assert iters > 5
        # the initial states are not Gibbs states: one eigvalsh of them
        assert calls.count(("eigvalsh", 3)) == 1
        assert [c for c in calls if c[0] == "eigvalsh"] == [("eigvalsh", 3)]
        # per iteration: one eigh of the exponent and one per E_k(rho)
        assert calls.count(("eigh", 3)) == iters
        assert calls.count(("eigh", 2)) == calls.count(("eigh", 4)) == iters + 1
        assert len(calls) == 1 + 2 + iters * (1 + datum.n)

    def test_sweep(self, calls):
        datum = _mixed_dims_datum()
        ws = engine._Workspace(datum)
        log_omegas = _initial_log_omegas(datum, BUDGET.seeds())
        calls.clear()
        rhos0, vals0, _ = op.gibbs(ws.exponent(log_omegas))
        iters = engine._fixed_point(ws, rhos0, vals0, BUDGET.max_iters)[2].max()
        assert iters > 5
        # the start: one eigh of each exponent and one per E_k(rho); per
        # pass: one eigh of the exponent and one per E_k(rho)
        assert calls.count(("eigh", 3)) == 1 + iters
        assert calls.count(("eigh", 2)) == calls.count(("eigh", 4)) == 1 + iters
        assert [c for c in calls if c[0] == "eigvalsh"] == []
        assert len(calls) == 1 + 2 + iters * (1 + datum.n)

    def test_fixed_point_one_eigh_per_output_dimension(self, calls):
        datum = _equal_dims_datum()
        ws = engine._Workspace(datum)
        rhos0 = engine._initial_states(3, BUDGET.seeds())
        calls.clear()
        iters = engine._fixed_point(ws, rhos0, np.linalg.eigvalsh(rhos0), BUDGET.max_iters)[2].max()
        assert iters > 5
        # the initial states are not Gibbs states: one eigvalsh of them
        assert [c for c in calls if c[0] == "eigvalsh"] == [("eigvalsh", 3)]
        # per iteration: one eigh of the exponent and one for all three
        # outputs, which share their dimension
        assert calls.count(("eigh", 3)) == iters
        assert calls.count(("eigh", 2)) == iters + 1
        assert len(calls) == 1 + 1 + iters * 2


class TestDatumCaches:
    """A datum keeps its support-leak verdict and its search space (the
    compressed datum, the support basis of sigma and the workspace): both
    sides of a cross-check and both forms of qbl verify share them."""

    SMALL = OptimizerBudget(restarts=2, max_iters=20)

    @pytest.fixture
    def built(self, monkeypatch):
        # calls of the workspace and the leak check; per search phase, the
        # rows of each call
        counts = {"workspace": 0, "leak": 0, "_fixed_point": [], "_ascent": []}
        workspace, leak = engine._Workspace, engine._support_leak

        def counted_rows(name):
            fn = getattr(engine, name)

            def wrapped(*args, **kwargs):
                counts[name].append(len(args[1]))
                return fn(*args, **kwargs)

            monkeypatch.setattr(engine, name, wrapped)

        def counted_workspace(datum):
            counts["workspace"] += 1
            return workspace(datum)

        def counted_leak(datum):
            counts["leak"] += 1
            return leak(datum)

        monkeypatch.setattr(engine, "_Workspace", counted_workspace)
        monkeypatch.setattr(engine, "_support_leak", counted_leak)
        counted_rows("_fixed_point")
        counted_rows("_ascent")
        return counts

    @pytest.mark.parametrize("make", [partial(_acceptance_datum, 0), _defect_d_datum],
                             ids=["definite-sigma", "singular-sigma"])
    def test_one_workspace_and_leak_check_per_crosscheck(self, built, make):
        # both sides' restarts go through one loop and one ascent
        duality_crosscheck(make(), self.SMALL)
        rows = [2 * self.SMALL.restarts]
        assert built == {"workspace": 1, "leak": 1, "_fixed_point": rows, "_ascent": rows}

    @pytest.mark.parametrize("estimate", [optimal_constant_entropic, optimal_constant_analytic])
    def test_a_lone_estimate_searches_its_own_rows(self, built, estimate):
        estimate(_acceptance_datum(0), self.SMALL)
        assert built["_fixed_point"] == built["_ascent"] == [self.SMALL.restarts]

    def test_one_workspace_per_datum_for_verify_both(self, built, capsys):
        from qbl.cli import main

        argv = ["verify", "shearer-3qubit-pairs", "--form", "both", "--samples", "20", "--no-meta"]
        assert main(argv) == 0
        assert built["workspace"] == 1

    @pytest.mark.parametrize("make", [partial(_acceptance_datum, 0), _defect_d_datum,
                                      _leaking_datum],
                             ids=["definite-sigma", "singular-sigma", "support-leak"])
    def test_a_used_datum_answers_as_a_fresh_one(self, make, monkeypatch):
        if make is _leaking_datum:  # +inf on both sides, with no search
            monkeypatch.setattr(engine, "_fixed_point", None)
        used = make()
        bl_membership(used, SamplerConfig(samples=20, form="analytic"))
        first = duality_crosscheck(used, self.SMALL)
        for rep in (duality_crosscheck(used, self.SMALL), duality_crosscheck(make(), self.SMALL)):
            assert (rep.c_entropic, rep.c_analytic) == (first.c_entropic, first.c_analytic)
            assert np.array_equal(rep.witness_entropic, first.witness_entropic)
        # each side of the cross-checked datum, read from its stacked
        # search, is what a lone estimate on a fresh datum finds
        for estimate in (optimal_constant_entropic, optimal_constant_analytic):
            c, _, res = estimate(used, self.SMALL)
            c_fresh, _, fresh = estimate(make(), self.SMALL)
            assert c == c_fresh
            assert len(res.witness) == len(fresh.witness)
            assert all(np.array_equal(a, b) for a, b in zip(res.witness, fresh.witness))
            assert (res.loop_passes, res.ascent_iters) == (fresh.loop_passes, fresh.ascent_iters)
        if make is _leaking_datum:
            assert first.c_entropic == first.c_analytic == np.inf

    def test_q_is_a_read_only_copy(self):
        q = np.array([1.0])
        sig = op.PSDOperator(np.eye(2) / 2)
        datum = BLDatum(q, [ch.identity_channel(2)], sig, [sig], 0.0)
        with pytest.raises(ValueError):
            datum.q[0] = 2.0
        q[0] = 2.0  # the caller's array stays writable and is not shared
        assert datum.q[0] == 1.0

    @pytest.mark.parametrize("field", ["q", "channels", "sigma", "sigmas", "c"])
    def test_fields_cannot_be_reassigned(self, field):
        # a reassigned field would leave the kept search space stale
        datum = _defect_d_datum()
        optimal_constant_entropic(datum, self.SMALL)
        with pytest.raises(AttributeError):
            setattr(datum, field, getattr(datum, field))

    @pytest.mark.parametrize("make", [partial(_acceptance_datum, 0), _defect_d_datum],
                             ids=["definite-sigma", "singular-sigma"])
    def test_dropped_datum_is_freed_without_the_cyclic_collector(self, make):
        import gc
        import weakref

        datum = make()
        gc.disable()
        try:
            duality_crosscheck(datum, self.SMALL)
            ref = weakref.ref(datum)
            del datum
            assert ref() is None
        finally:
            gc.enable()


class TestCriticalScale:
    @pytest.mark.parametrize("sigma, sigma_1", [
        (np.diag([1.0, 0.0]), np.diag([0.75, 0.25])),  # singular sigma
        (np.eye(2), np.eye(2)),  # trace 2
        (np.eye(2) / 2, np.diag([0.7, 0.3])),  # sigma_1 != E(sigma)
    ], ids=["singular", "trace", "inconsistent"])
    def test_needs_a_consistent_reference(self, sigma, sigma_1):
        datum = BLDatum([1.0], [ch.depolarizing(0.5)], op.PSDOperator(sigma),
                        [op.PSDOperator(sigma_1)], 0.0)
        with pytest.raises(InvalidDatum):
            engine.critical_scale(datum, BUDGET)


def _per_channel_logs(datum, rho):
    """induced_logs one channel at a time: one DensityOperator and one
    eigh_log per E_k(rho)."""
    rho = op.DensityOperator(rho)
    out = []
    for qk, c, sk in zip(datum.q, datum.channels, datum.sigmas):
        lt = op.eigh_log(op.DensityOperator(ch.apply(c, rho)).matrix[None])[1][0]
        out.append(op.SupportLog(op.hermitian_part(lt) - op.matrix_log(sk).finite).scaled(qk))
    return out


def _per_channel_witness(datum, rho):
    """induced_analytic_witness one channel at a time: the Gibbs state of
    each L_k alone."""
    return [op.DensityOperator(op.gibbs(lk.finite[None])[0][0])
            for lk in _per_channel_logs(datum, rho)]


def _per_channel_analytic_gap(datum, omegas):
    """analytic_gap with one right-hand side per channel."""
    oms = [o if isinstance(o, (op.PSDOperator, op.SupportLog)) else op.PSDOperator(o)
           for o in omegas]
    lhs_terms = [op.matrix_log(datum.sigma)]
    log_rhs = datum.c
    for qk, c, sk, om in zip(datum.q, datum.channels, datum.sigmas, oms):
        lw = om if isinstance(om, op.SupportLog) else op.matrix_log(om)
        flag = None if lw.weight is None else ch.adjoint_on_flag(c, lw.weight)
        lhs_terms.append(op.SupportLog(op.hermitian_part(ch.apply_adjoint(c, lw.finite)), flag))
        if sk.support_rank == 0:
            log_rhs = -np.inf
        else:
            log_rhs += qk * op.log_trace_exp_sum([lw.scaled(1.0 / qk), op.matrix_log(sk)])
    log_lhs = op.log_trace_exp_sum(lhs_terms)
    if log_lhs == -np.inf:
        return 0.0 if log_rhs == -np.inf else np.inf
    return -np.inf if log_rhs == -np.inf else float(log_rhs - log_lhs)


def _same_log(a, b):
    if not np.array_equal(a.finite, b.finite) or a.has_kernel != b.has_kernel:
        return False
    return not a.has_kernel or np.array_equal(a.weight, b.weight)


def _dust_datum():
    # a near-pure state, its dust under the support cut: E_1(rho) has rank
    # 1 up to the dust, E_2(rho) full rank, both of output dimension 3
    rng = np.random.default_rng(71)
    sigma = op.PSDOperator(random_pd(3, rng))
    chans = [ch.identity_channel(3), ch.measurement_channel(list(np.eye(3)))]
    datum = BLDatum([0.7, 1.4], chans, sigma, [op.PSDOperator(c(sigma)) for c in chans], 0.0)
    u = haar_unitary(3, rng)
    return datum, (u * np.array([1.0, 2e-14, 5e-15])) @ u.conj().T


class TestStackedCertification:
    """induced_logs, induced_analytic_witness and analytic_gap take the
    E_k(rho), omega_k and right-hand sides of one output dimension (and
    support rank) as one stack: each equals, bit for bit, the per-channel
    reference, which evaluates one list of terms at a time."""

    @staticmethod
    def _check(datum, rho):
        logs = engine.induced_logs(datum, rho)
        ref_logs = _per_channel_logs(datum, rho)
        assert all(_same_log(a, b) for a, b in zip(logs, ref_logs, strict=True))
        witness = induced_analytic_witness(datum, rho)
        ref_witness = _per_channel_witness(datum, rho)
        assert all(np.array_equal(a.matrix, b.matrix)
                   for a, b in zip(witness, ref_witness, strict=True))
        for oms in (logs, witness):
            assert analytic_gap(datum, oms) == _per_channel_analytic_gap(datum, oms)
        return logs

    @pytest.mark.parametrize("i", range(20))
    def test_acceptance_winners(self, i):
        datum = _acceptance_datum(i)
        rho = engine._search(datum, BUDGET, "analytic")[0][1]
        self._check(datum, rho)

    def test_rank_deficient_outputs(self):
        # one output dimension, E_k(rho) of ranks 1 and 3: the floored logs
        # flag no kernel, so both are one stack
        datum, dusty = _dust_datum()
        logs = self._check(datum, dusty)
        assert [lk.has_kernel for lk in logs] == [False, False]

    @pytest.mark.parametrize("make", [_mixed_dims_datum, _unsorted_dims_datum,
                                      _rank_deficient_datum])
    def test_mixed_output_dimensions(self, make):
        datum = make()
        rng = np.random.default_rng(5)
        for kind in ("hs", "pure", "boundary"):
            self._check(datum, random_density(datum.dim, rng, kind))
        self._check(datum, engine._search(datum, BUDGET, "analytic")[0][1])

    @pytest.mark.parametrize("make", [_zero_sigma_k_datum, _leaking_datum]
                             + [partial(_singular_sigma_k_datum, seed) for seed in range(6)])
    def test_singular_sigma_k(self, make):
        # sigma_k = 0 gives -inf; a singular sigma_k flags a kernel in the
        # right-hand side, and a rank-deficient omega_k a second one
        datum = make()
        rng = np.random.default_rng(8)
        for kind in ("hs", "pure", "boundary"):
            oms = [random_density(c.dim_out, rng, kind) for c in datum.channels]
            assert analytic_gap(datum, oms) == _per_channel_analytic_gap(datum, oms)
        rho = random_density(datum.dim, rng)
        if min(sk.support_rank for sk in datum.sigmas) == 0:
            with pytest.raises(ZeroOperator):
                engine.induced_logs(datum, rho)
            with pytest.raises(ZeroOperator):
                _per_channel_logs(datum, rho)
        else:
            logs = engine.induced_logs(datum, rho)
            assert analytic_gap(datum, logs) == _per_channel_analytic_gap(datum, logs)

    def test_zero_sigma_k_is_minus_inf(self):
        datum = _zero_sigma_k_datum()
        assert analytic_gap(datum, [np.eye(2) / 2]) == -np.inf


class TestCertificateRows:
    """The certificate's operators come from stacked rows: the E_k(rho) of
    one output dimension from one density_stack, the witness omega_k from
    one more; each equals the operator built alone, and the witness of the
    logs equals the per-channel reference."""

    @staticmethod
    def _check(datum, rho):
        taus = [ch.apply(c, op.DensityOperator(rho)) for c in datum.channels]
        for _, ks in engine._dim_groups(datum.channels):
            rows = op.DensityOperator.from_stack(*op.density_stack([taus[k] for k in ks]))
            for k, row in zip(ks, rows, strict=True):
                _same_operator(row, op.DensityOperator(taus[k]))
        logs = engine.induced_logs(datum, rho)
        witness = induced_analytic_witness(datum, logs)
        for got, want in zip(witness, _per_channel_witness(datum, rho), strict=True):
            _same_operator(got, want)

    @pytest.mark.parametrize("i", range(20))
    def test_acceptance_winners(self, i):
        datum = _acceptance_datum(i)
        self._check(datum, engine._search(datum, BUDGET, "analytic")[0][1])

    def test_rank_deficient_data(self):
        datum, dusty = _dust_datum()
        self._check(datum, dusty)
        rng = np.random.default_rng(5)
        for make in (_mixed_dims_datum, _unsorted_dims_datum, _rank_deficient_datum):
            datum = make()
            for kind in ("hs", "pure", "boundary"):
                self._check(datum, random_density(datum.dim, rng, kind))
            self._check(datum, engine._search(datum, BUDGET, "analytic")[0][1])


def _same_operator(a, b):
    assert type(a) is type(b)
    for x, y in ((a.matrix, b.matrix), (a.eigenvalues, b.eigenvalues),
                 (a.eigenvectors, b.eigenvectors)):
        assert np.array_equal(x, y)
    assert a.eps_supp == b.eps_supp and a.support_rank == b.support_rank


class TestAnalyticStarts:
    """The analytic starts draw the omega_k of one output dimension with one
    random_density call and take their logs with one eigh_log: the starts
    equal the per-channel build bit for bit."""

    @staticmethod
    def _per_channel(datum, ws, seeds):
        kinds = [("hs", "boundary")[i % 2] for i in range(len(seeds))]
        omegas = [random_density(c.dim_out, [np.random.default_rng(s * 1000003 + k)
                                             for s in seeds], kinds)
                  for k, c in enumerate(datum.channels)]
        return op.gibbs(ws.exponent([op.eigh_log(om)[1] for om in omegas]))[:2]

    @pytest.mark.parametrize("make", [partial(_acceptance_datum, i) for i in range(20)]
                             + [_mixed_dims_datum, _unsorted_dims_datum, _equal_dims_datum,
                                _rank_deficient_datum])
    def test_matches_the_per_channel_draw(self, make):
        datum = make()
        ws = engine._Workspace(datum)
        for seeds in (BUDGET.seeds(), [5]):
            got = engine._start_states("analytic", datum, ws, seeds)
            for a, b in zip(got, self._per_channel(datum, ws, seeds), strict=True):
                assert np.array_equal(a, b)
