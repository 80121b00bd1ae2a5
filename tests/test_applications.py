"""Worked applications: Shearer, uncertainty, min output entropy, (S)DPI,
super-additivity."""

import numpy as np
import pytest
from scipy.linalg import eigh

from qbl import applications as app
from qbl import channels as ch
from qbl import entropy as ent
from qbl import operators as op
from qbl.engine import (
    BLDatum,
    OptimizerBudget,
    _curvature_limit,
    analytic_gap,
    critical_scale,
    duality_crosscheck,
    entropic_gap,
)
from qbl.errors import (
    CoverViolation,
    DimensionMismatch,
    InvalidEta,
    NotOrthonormal,
    SingularMarginal,
)
from qbl.sampling import (
    bloch_sample,
    haar_pure,
    haar_unitary,
    hs_mixed,
    random_basis,
    random_channel,
    random_density,
    random_pd,
)

BUDGET = OptimizerBudget(restarts=8, max_iters=300, base_seed=0)
LN2 = np.log(2.0)


def bell() -> np.ndarray:
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    return np.outer(v, v)


class TestShearer:
    def test_two_party_subadditivity(self):
        d = app.shearer_datum([2, 2], [[0], [1]], p=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho = hs_mixed(4, rng)
            gap = entropic_gap(d, rho)
            marg_sum = sum(
                ent.von_neumann(ch.ptrace(rho, [2, 2], [k])) for k in (0, 1)
            )
            assert gap == pytest.approx(marg_sum - ent.von_neumann(rho), abs=1e-9)
            assert gap >= -1e-9

    def test_three_qubit_pair_cover_entropic(self):
        d = app.shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)
        rng = np.random.default_rng(1)
        for _ in range(500):
            assert entropic_gap(d, hs_mixed(8, rng)) >= -1e-9

    def test_three_qubit_pair_cover_analytic(self):
        d = app.shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)
        rng = np.random.default_rng(2)
        for _ in range(500):
            oms = [random_pd(4, rng) for _ in range(3)]
            assert analytic_gap(d, oms) >= -1e-9

    def test_loomis_whitney_unnormalized_form(self):
        # tr exp(sum 1 (x) log w_Sk) <= prod ||w_Sk||_2 directly
        d = app.shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            oms = [random_pd(4, rng) for _ in range(3)]
            lhs = op.trace_exp_sum(
                [
                    chan.adjoint(op.matrix_log(op.PSDOperator(w)).finite)
                    for chan, w in zip(d.channels, oms)
                ]
            )
            rhs = np.prod([op.schatten(op.PSDOperator(w), 2.0) for w in oms])
            assert lhs <= rhs + 1e-9

    def test_cover_violation(self):
        with pytest.raises(CoverViolation):
            app.shearer_datum([2, 2, 2], [[0, 1]], p=1)

    def test_duality_crosscheck(self):
        d = app.shearer_datum([2, 2], [[0], [1]], p=1)
        rep = duality_crosscheck(d, BUDGET)
        assert rep.agree
        assert rep.c_entropic == pytest.approx(0.0, abs=1e-6)


class TestConditionalShearer:
    def test_product_state_reduces_to_unconditional(self):
        rng = np.random.default_rng(4)
        rho_a = hs_mixed(4, rng)
        rho = np.kron(rho_a, hs_mixed(2, rng))
        rep = app.conditional_shearer_check(rho, [2, 2, 2], [[0], [1]], p=1)
        assert rep.holds

    def test_random_states_hold_via_ssa(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rep = app.conditional_shearer_check(hs_mixed(8, rng), [2, 2, 2], [[0], [1]], p=1)
            assert rep.holds

    def test_exact_cover_enforced(self):
        rng = np.random.default_rng(6)
        with pytest.raises(CoverViolation):
            app.conditional_shearer_check(hs_mixed(8, rng), [2, 2, 2], [[0], [0], [1]], p=1)

    def test_bell_counterexample_probe(self):
        # at-least cover plus maximal A1-B entanglement drives the gap to
        # exactly -ln 2
        rho = np.kron(bell(), np.eye(2) / 2)
        perm = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        rho = rho[np.ix_(perm, perm)]
        rep = app.conditional_shearer_probe(rho, [2, 2, 2], [[0], [0], [1]], p=1)
        assert not rep.holds
        assert rep.gap == pytest.approx(-LN2, abs=1e-9)


class TestMaassenUffink:
    def test_equal_bases_trivial(self):
        b = ch.pauli_basis("z")
        assert app.maassen_uffink_constant(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_xz_half(self):
        assert app.maassen_uffink_constant(
            ch.pauli_basis("x"), ch.pauli_basis("z")
        ) == pytest.approx(0.5, abs=1e-12)

    def test_constant_range_and_mub(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = app.maassen_uffink_constant(random_basis(3, rng), random_basis(3, rng))
            assert 1.0 / 3.0 - 1e-12 <= c <= 1.0 + 1e-12
        for pair in (("x", "z"), ("x", "y"), ("y", "z")):
            c = app.maassen_uffink_constant(ch.pauli_basis(pair[0]), ch.pauli_basis(pair[1]))
            assert c == pytest.approx(0.5, abs=1e-12)

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            app.maassen_uffink_constant([np.array([1.0, 0.0])], ch.pauli_basis("z"))

    def test_measurement_entropies_validate_their_bases(self):
        # [e0, e0] is no basis: no outcome distribution, not 1 bit
        e0 = np.array([1.0, 0.0])
        with pytest.raises(NotOrthonormal):
            app.measurement_entropies_bits(np.eye(2) / 2, [[e0, e0]])
        with pytest.raises(NotOrthonormal):
            app.measurement_entropies_bits(np.eye(2) / 2, [ch.pauli_basis("z"), [e0, e0]])

    def test_bound_both_forms_pauli(self):
        bases = [ch.pauli_basis("x"), ch.pauli_basis("z")]
        assert app.uncertainty_bound_entropic(bases, BUDGET) == pytest.approx(LN2, abs=1e-4)
        assert app.uncertainty_bound_analytic(bases, BUDGET) == pytest.approx(LN2, abs=1e-4)

    def test_bloch_grid_oracle(self):
        # scalar closed form of H(X)+H(Z)-H(A) over the Bloch ball
        def h2(p):
            p = np.clip(p, 1e-300, 1.0)
            q = np.clip(1.0 - p, 1e-300, 1.0)
            return -(p * np.log(p) + q * np.log(q))

        xs = np.linspace(-1, 1, 801)
        zs = np.linspace(-1, 1, 801)
        xx, zz = np.meshgrid(xs, zs)
        mask = xx**2 + zz**2 <= 1.0
        r = np.sqrt(xx**2 + zz**2)
        vals = h2((1 + xx) / 2) + h2((1 + zz) / 2) - h2((1 + r) / 2)
        grid_min = float(np.min(vals[mask]))
        assert grid_min == pytest.approx(LN2, abs=1e-3)
        assert grid_min >= LN2 - 1e-9  # the strengthened bound itself

    def test_analytic_check_equality_at_maximally_mixed(self):
        rep = app.mu_analytic_check(
            ch.pauli_basis("x"), ch.pauli_basis("z"), np.eye(2) / 2, np.eye(2) / 2
        )
        assert rep.lhs == pytest.approx(0.5, abs=1e-10)
        assert rep.gap == pytest.approx(0.0, abs=1e-10)
        assert rep.chain_holds

    def test_analytic_check_validates_each_basis(self):
        rng = np.random.default_rng(10)
        bx, bz = random_basis(3, rng), random_basis(3, rng)
        w = [random_pd(3, rng), random_pd(3, rng)]
        w = [m / np.trace(m).real for m in w]
        assert app.mu_analytic_check(bx, bz, *w).c == app.maassen_uffink_constant(bx, bz)
        e0 = np.array([1.0, 0.0])
        with pytest.raises(NotOrthonormal):
            app.mu_analytic_check([e0, e0], ch.pauli_basis("z"), np.eye(2) / 2, np.eye(2) / 2)
        with pytest.raises(DimensionMismatch):
            app.mu_analytic_check(ch.pauli_basis("x"), bz, np.eye(2) / 2, np.eye(3) / 3)

    def test_analytic_check_sampled(self):
        rng = np.random.default_rng(8)
        bx, bz = ch.pauli_basis("x"), ch.pauli_basis("z")
        for _ in range(200):
            rep = app.mu_analytic_check(bx, bz, random_pd(2, rng), random_pd(2, rng))
            assert rep.gap >= -1e-9
            assert rep.chain_holds

    def test_strengthened_relation_random_bases(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            bx, bz = random_basis(2, rng), random_basis(2, rng)
            c = app.maassen_uffink_constant(bx, bz)
            for _ in range(100):
                rho = bloch_sample(rng)
                hx, hz = app.measurement_entropies_bits(rho, [bx, bz])
                ha = ent.von_neumann(rho) / LN2
                assert hx + hz + np.log2(c) - ha >= -1e-9


class TestSixState:
    def test_z_eigenstate_tight(self):
        rep = app.six_state_check(rho=np.diag([1.0, 0.0]))
        assert rep.entropy_sum_bits == pytest.approx(2.0, abs=1e-12)
        assert rep.entropic_gap_bits == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_tight(self):
        rep = app.six_state_check(rho=np.eye(2) / 2)
        assert rep.entropy_sum_bits == pytest.approx(3.0, abs=1e-12)
        assert rep.h_a_bits == pytest.approx(1.0, abs=1e-12)
        assert rep.entropic_gap_bits == pytest.approx(0.0, abs=1e-12)

    def test_entropic_sampled_and_weaker_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            rep = app.six_state_check(rho=bloch_sample(rng))
            assert rep.entropic_gap_bits >= -1e-9
            assert rep.weaker_bound_gap_bits >= rep.entropic_gap_bits - 0.5 - 1e-9

    def test_analytic_sampled(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            oms = [random_pd(2, rng) for _ in range(3)]
            rep = app.six_state_check(omegas=oms)
            assert rep.analytic_gap >= -1e-9
            assert rep.chain_holds

    def test_bound_both_forms(self):
        bases = app.six_state_bases()
        assert app.uncertainty_bound_entropic(bases, BUDGET) == pytest.approx(2 * LN2, abs=1e-4)
        assert app.uncertainty_bound_analytic(bases, BUDGET) == pytest.approx(2 * LN2, abs=1e-4)

    def test_three_dim_grid_oracle(self):
        def h2(p):
            p = np.clip(p, 1e-300, 1.0)
            q = np.clip(1.0 - p, 1e-300, 1.0)
            return -(p * np.log2(p) + q * np.log2(q))

        axis = np.linspace(-1, 1, 161)
        xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
        r2 = xx**2 + yy**2 + zz**2
        mask = r2 <= 1.0
        vals = (
            h2((1 + xx) / 2) + h2((1 + yy) / 2) + h2((1 + zz) / 2)
            - h2((1 + np.sqrt(r2)) / 2) - 2.0
        )
        assert float(np.min(vals[mask])) == pytest.approx(0.0, abs=2e-3)
        assert float(np.min(vals[mask])) >= -1e-9


class TestMinOutputEntropy:
    def test_identity_channel(self):
        rep = app.min_output_entropy(ch.identity_channel(2), BUDGET)
        assert rep.h_min == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_depolarizing_matches_binary_entropy(self, p):
        rep = app.min_output_entropy(ch.depolarizing(p), BUDGET)
        target = app.binary_entropy(p / 2.0)
        assert rep.direct == pytest.approx(target, abs=1e-6)
        assert rep.dual == pytest.approx(target, abs=1e-6)

    def test_depolarizing_diagonal_optimizer(self):
        # the scalar profile (1 - p/2) log t + (p/2) log(1 - t) peaks at
        # t = 1 - p/2 with value -h(p/2)
        p = 0.6
        ts = np.linspace(1e-9, 1 - 1e-9, 200001)
        prof = (1 - p / 2) * np.log(ts) + (p / 2) * np.log(1 - ts)
        i = int(np.argmax(prof))
        assert ts[i] == pytest.approx(1 - p / 2, abs=1e-4)
        assert prof[i] == pytest.approx(-app.binary_entropy(p / 2), abs=1e-8)

    def test_methods_agree_random_channels(self):
        rng = np.random.default_rng(12)
        small = OptimizerBudget(restarts=4, max_iters=300, base_seed=3)
        for i in range(50):
            din = int(rng.integers(2, 4))
            dout = int(rng.integers(2, 4))
            e = random_channel(din, dout, rng=rng)
            rep = app.min_output_entropy(e, small)
            assert abs(rep.direct - rep.dual) <= 1e-5

    def test_dual_pair_inequality_sampled(self):
        rng = np.random.default_rng(13)
        e = ch.depolarizing(0.4)
        rep = app.min_output_entropy(e, BUDGET)
        datum = app.min_output_datum(e).with_constant(-rep.h_min)
        for _ in range(200):
            gap = analytic_gap(datum, [random_pd(2, rng), random_pd(2, rng)])
            assert gap >= -1e-9


class TestDpiAnalytic:
    def test_identity_channel_equality(self):
        rng = np.random.default_rng(14)
        sig, om = random_pd(2, rng), random_pd(2, rng)
        rep = app.dpi_analytic_check(sig, ch.identity_channel(2), om)
        assert rep.gap == pytest.approx(0.0, abs=1e-10)

    def test_trace_map_trivial_form(self):
        # data processing for the trace map reduces to tr log omega <= 0
        rng = np.random.default_rng(15)
        sig = random_pd(2, rng)
        rep = app.dpi_analytic_check(sig, ch.trace_channel(2), np.eye(1))
        assert rep.gap >= -1e-10
        for _ in range(50):
            om = random_pd(3, rng)
            assert np.trace(op.matrix_log(op.PSDOperator(om)).finite).real <= 1e-12

    def test_random_samples_and_strictness(self):
        rng = np.random.default_rng(16)
        stronger = 0
        for _ in range(200):
            e = random_channel(2, 2, rng=rng)
            rep = app.dpi_analytic_check(random_pd(2, rng), e, random_pd(2, rng))
            assert rep.gap >= -1e-9
            assert rep.lhs <= rep.jensen_mid + 1e-9
            assert rep.jensen_mid <= rep.rhs_weak + 1e-9
            assert rep.rhs_dual <= rep.rhs_weak + 1e-9
            stronger += rep.strictly_stronger
        assert stronger > 100  # the dual bound usually beats the weak chain


class TestContraction:
    def test_identity_channel(self):
        eta = app.contraction_coefficient(ch.identity_channel(2), np.eye(2) / 2, BUDGET)
        assert eta == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_depolarizing_formula(self, p):
        eta = app.contraction_coefficient(ch.depolarizing(p), np.eye(2) / 2, BUDGET)
        assert eta == pytest.approx((1 - p) ** 2, abs=1e-3)

    def test_trace_map_contracts_completely(self):
        eta = app.contraction_coefficient(ch.trace_channel(2), np.eye(2) / 2, BUDGET)
        assert eta == pytest.approx(0.0, abs=1e-9)

    def test_isometric_embedding_with_singular_output(self):
        # E(sigma) has rank 2 in dimension 3: the output curvature form is
        # taken on its support, so the kernel directions do not blow it up
        v = haar_unitary(3, np.random.default_rng(3))[:, :2]
        eta = app.contraction_coefficient(ch.Channel([v]), np.eye(2) / 2, BUDGET)
        assert eta == pytest.approx(1.0, abs=1e-9)

    def test_requires_full_support(self):
        with pytest.raises(SingularMarginal):
            app.contraction_coefficient(ch.depolarizing(0.5), np.diag([1.0, 0.0]), BUDGET)

    def test_reference_of_the_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            app.contraction_coefficient(ch.depolarizing(0.5), np.eye(3) / 3, BUDGET)

    def test_curvature_limit_matches_generalized_eigh(self):
        # loop reference: curvature forms in a random traceless Hermitian
        # basis (the top generalized eigenvalue does not depend on the basis)
        def km_form(sigma, xs):
            vals, vecs = np.linalg.eigh(sigma)
            tilted = [vecs.conj().T @ x @ vecs for x in xs]
            gram = np.zeros((len(xs), len(xs)))
            for a, ta in enumerate(tilted):
                for b, tb in enumerate(tilted):
                    for i, gi in enumerate(vals):
                        for j, gj in enumerate(vals):
                            w = 1.0 / gi if gi == gj else (np.log(gi) - np.log(gj)) / (gi - gj)
                            gram[a, b] += w * (ta[i, j].conj() * tb[i, j]).real
            return gram

        rng = np.random.default_rng(71)
        for d_in, d_out in [(2, 3), (3, 2), (2, 4), (4, 3), (3, 4)]:
            e = random_channel(d_in, d_out, rng=rng)
            sigma = op.DensityOperator(random_pd(d_in, rng)).matrix
            xs = []
            for _ in range(d_in * d_in - 1):
                h = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
                h = h + h.conj().T
                xs.append(h - np.trace(h) / d_in * np.eye(d_in))
            m_in = km_form(sigma, xs)
            m_out = km_form(ch.apply(e, sigma), [ch.apply(e, x) for x in xs])
            ref = eigh(m_out, m_in, eigvals_only=True)[-1]
            limit = _curvature_limit(app.dpi_datum(e, sigma))
            assert limit == pytest.approx(ref, abs=1e-12)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(17)
        for i in range(10):
            e = random_channel(2, 2, rng=rng)
            eta = app.contraction_coefficient(
                e, random_pd(2, rng), OptimizerBudget(restarts=4, max_iters=150, base_seed=i)
            )
            assert 0.0 <= eta <= 1.0 + 1e-9

    def test_a_state_beats_the_curvature_limit(self):
        # channel 0 of test_never_exceeds_one's family: the supremum of the
        # ratio is attained away from sigma, above its rho -> sigma limit
        rng = np.random.default_rng(17)
        e, sigma = random_channel(2, 2, rng=rng), random_pd(2, rng)
        eta = app.contraction_coefficient(e, sigma, OptimizerBudget(4, 150, 0))
        assert eta > _curvature_limit(app.dpi_datum(e, sigma)) + 1e-5


class TestSdpi:
    def test_eta_one_reduces_to_dpi(self):
        rng = np.random.default_rng(18)
        e = random_channel(2, 2, rng=rng)
        sig, om = random_pd(2, rng), random_pd(2, rng)
        gap_sdpi = analytic_gap(app.dpi_datum(e, sig, 1.0), [om])
        rep = app.dpi_analytic_check(sig, e, om)
        assert gap_sdpi == pytest.approx(np.log(rep.rhs_dual / rep.lhs), abs=1e-9)
        assert np.sign(gap_sdpi) == np.sign(rep.gap)

    def test_invalid_eta(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidEta):
                app.dpi_datum(ch.depolarizing(0.5), np.eye(2) / 2, eta)
        with pytest.raises(InvalidEta):
            app.depolarizing_sdpi_scalar_gap(np.array([0.5]), 0.5, 1.5)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_scalar_grid_and_violation(self, p):
        eta = (1 - p) ** 2
        gap, _ = app.depolarizing_sdpi_scan(p, eta)
        assert gap >= -1e-12
        # probe below the optimal constant; at p = 0.9 the 0.01 step would
        # leave the (0, 1] domain, so halve eta instead
        eta_bad = eta - 0.01 if eta > 0.01 else eta / 2
        gap_bad, _ = app.depolarizing_sdpi_scan(p, eta_bad)
        assert gap_bad < -1e-6

    def test_matrix_form_at_contraction_coefficient(self):
        rng = np.random.default_rng(19)
        p = 0.4
        e = ch.depolarizing(p)
        datum = app.dpi_datum(e, np.eye(2) / 2, (1 - p) ** 2)
        for _ in range(100):
            assert analytic_gap(datum, [random_pd(2, rng)]) >= -1e-9

    def test_datum_is_the_hand_built_dpi_datum(self):
        rng = np.random.default_rng(21)
        e, sigma = random_channel(2, 2, rng=rng), random_pd(2, rng)
        sig = op.PSDOperator(sigma)
        datum = app.dpi_datum(e, sigma)
        assert datum.q.tolist() == [1.0] and datum.channels == (e,) and datum.c == 0.0
        assert np.array_equal(datum.sigma.matrix, sig.matrix)
        assert np.array_equal(datum.sigmas[0].matrix, op.PSDOperator(e(sig)).matrix)
        assert app.dpi_datum(e, sigma, 0.25).q.tolist() == [4.0]

    @pytest.mark.parametrize("case", ["depolarizing", "random"])
    def test_datum_constant_vanishes_from_the_contraction_coefficient_on(self, case):
        # the constant of dpi_datum(E, sigma, eta) is 0 exactly when eta is at
        # least the contraction coefficient eta*: both estimators read 0 just
        # above eta* and agree on a positive constant below it
        budget = OptimizerBudget(8, 300, 3)
        if case == "depolarizing":
            e, sigma = ch.depolarizing(0.5), np.eye(2) / 2
        else:
            e = random_channel(2, 2, np.random.default_rng(5))
            sigma = random_pd(2, np.random.default_rng(6))
        eta = app.contraction_coefficient(e, sigma, budget)
        above = duality_crosscheck(app.dpi_datum(e, sigma, min(1.0, 1.02 * eta)), budget)
        assert abs(above.c_entropic) <= 1e-9 and abs(above.c_analytic) <= 1e-9
        below = duality_crosscheck(app.dpi_datum(e, sigma, 0.9 * eta), budget)
        assert below.c_entropic > 1e-3 and below.c_analytic > 1e-3 and below.agree

    def test_unital_identity_reference_reduction(self):
        # eta = 1 with unital channel: tr exp(E^dag log w) <= tr w
        rng = np.random.default_rng(20)
        e = ch.depolarizing(0.3)
        for _ in range(100):
            om = random_pd(2, rng)
            lhs = op.trace_exp_sum([e.adjoint(op.matrix_log(op.PSDOperator(om)).finite)])
            assert lhs <= np.trace(om).real + 1e-9


class TestSuperadditivity:
    def test_product_reference_gives_one(self):
        rng = np.random.default_rng(21)
        sa, sb = random_pd(2, rng), random_pd(2, rng)
        alpha = app.superadditivity_constant(np.kron(sa, sb), (2, 2))
        assert alpha == pytest.approx(1.0, abs=1e-9)

    def test_product_reference_reduces_to_mutual_information(self):
        rng = np.random.default_rng(22)
        sa, sb = random_pd(2, rng), random_pd(2, rng)
        d = app.superadditivity_datum(np.kron(sa, sb), (2, 2))
        for _ in range(100):
            rho = hs_mixed(4, rng)
            ra = ch.ptrace(rho, [2, 2], [0])
            rb = ch.ptrace(rho, [2, 2], [1])
            expected = ent.relative_entropy(rho, np.kron(ra, rb))
            assert entropic_gap(d, rho) == pytest.approx(expected, abs=1e-9)

    def test_correlated_classical_reference(self):
        probs = np.array([0.3, 0.2, 0.1, 0.4])
        rep = app.superadditivity_check(np.diag(probs), (2, 2), samples=500, seed=23)
        assert 0.0 < rep.alpha < 1.0
        assert rep.holds

    def test_singular_marginal_rejected(self):
        with pytest.raises(SingularMarginal):
            app.superadditivity_constant(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))

    @pytest.mark.parametrize("seed, alpha_star", [(0, 0.819), (1, 0.765), (2, 0.774), (3, 0.760)])
    def test_critical_scale_is_the_optimal_exponent(self, seed, alpha_star):
        # with q = (1, 1) the critical scale is the optimal exponent alpha*;
        # the references were found by bisection on the optimal constant
        rho = random_density(4, np.random.default_rng(seed))
        prod = np.kron(ch.ptrace(rho, [2, 2], [0]), ch.ptrace(rho, [2, 2], [1]))
        sigma = op.DensityOperator(0.5 * rho + 0.5 * prod)
        sa, sb = (op.PSDOperator(ch.ptrace(sigma.matrix, [2, 2], [k])) for k in (0, 1))
        marginals = [ch.partial_trace([2, 2], [0]), ch.partial_trace([2, 2], [1])]
        datum = BLDatum([1.0, 1.0], marginals, sigma, [sa, sb], 0.0)
        t_star = critical_scale(datum, OptimizerBudget(8, 300, 3))
        assert t_star == pytest.approx(alpha_star, abs=2e-3)
        assert t_star >= app.superadditivity_constant(sigma, (2, 2))

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_exponent_does_not_depend_on_the_budget(self, seed):
        # the data of test_critical_scale_is_the_optimal_exponent
        rho = random_density(4, np.random.default_rng(seed))
        prod = np.kron(ch.ptrace(rho, [2, 2], [0]), ch.ptrace(rho, [2, 2], [1]))
        sigma = op.DensityOperator(0.5 * rho + 0.5 * prod)
        sa, sb = (op.PSDOperator(ch.ptrace(sigma.matrix, [2, 2], [k])) for k in (0, 1))
        marginals = [ch.partial_trace([2, 2], [0]), ch.partial_trace([2, 2], [1])]
        datum = BLDatum([1.0, 1.0], marginals, sigma, [sa, sb], 0.0)
        small = critical_scale(datum, OptimizerBudget(8, 300, 3))
        large = critical_scale(datum, OptimizerBudget(32, 500, 3))
        assert abs(small - large) <= 1e-6


class TestApplicationDataDuality:
    # every application datum passes the duality cross-check
    def test_superadditivity_datum(self):
        d = app.superadditivity_datum(np.diag([0.3, 0.2, 0.1, 0.4]), (2, 2))
        rep = duality_crosscheck(d, BUDGET)
        assert rep.agree, (rep.c_entropic, rep.c_analytic)

    def test_uncertainty_datum(self):
        d = app.uncertainty_datum([ch.pauli_basis("x"), ch.pauli_basis("z")])
        rep = duality_crosscheck(d, BUDGET)
        assert rep.agree
        assert rep.c_entropic == pytest.approx(-LN2, abs=1e-4)

    def test_shearer_datum(self):
        d = app.shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)
        rep = duality_crosscheck(d, OptimizerBudget(restarts=6, max_iters=250, base_seed=0))
        assert rep.agree
        assert rep.c_entropic == pytest.approx(0.0, abs=1e-5)


def _reference_chain(bases, omegas):
    """The measurement checkers' first proof-chain links, one operator at a
    time through PSDOperator and matrix_log SupportLogs: lhs, the pinched
    operators and jensen_mid."""
    chans = [ch.measurement_channel(b) for b in bases]
    ws = [op.PSDOperator(w) for w in omegas]
    lhs = op.trace_exp_sum([ch.adjoint_on_log(c, op.matrix_log(w)) for c, w in zip(chans, ws)])
    pinched = [op.PSDOperator(ch.apply_adjoint(c, w.matrix)) for c, w in zip(chans, ws)]
    jensen_mid = op.trace_exp_sum([op.matrix_log(p) for p in pinched])
    return lhs, pinched, jensen_mid


def _reference_six_state(omegas):
    lhs, pinched, jensen_mid = _reference_chain(app.six_state_bases(), omegas)
    return lhs, jensen_mid, op.lieb_triple_integral(*pinched)


def _reference_mu(bx, bz, omegas):
    lhs, (px, pz), jensen_mid = _reference_chain([bx, bz], omegas)
    return lhs, jensen_mid, float(np.trace(px.matrix @ pz.matrix).real)


class TestStackedCheckers:
    """The checkers validate their omegas as one stack and take one eigh for
    them and one for the pinched operators; the entropic forms take stacks
    of states."""

    def test_stacked_entropies_match_per_state(self):
        rng = np.random.default_rng(40)
        rhos = np.stack([bloch_sample(rng) for _ in range(60)]
                        + [haar_pure(2, rng), np.diag([1.0, 0.0]), np.eye(2) / 2])
        bases = app.six_state_bases()
        stacked = app.measurement_entropies_bits(rhos, bases)
        ha = ent.von_neumann(rhos) / LN2
        rep = app.six_state_check(rho=rhos)
        assert stacked.shape == (3, len(rhos)) and ha.shape == (len(rhos),)
        for i, rho in enumerate(rhos):
            single = app.measurement_entropies_bits(rho, bases)
            assert np.max(np.abs(stacked[:, i] - single)) <= 1e-12
            assert abs(ha[i] - ent.von_neumann(rho) / LN2) <= 1e-12
            one = app.six_state_check(rho=rho)
            for key in ("entropy_sum_bits", "h_a_bits", "entropic_gap_bits",
                        "weaker_bound_gap_bits"):
                assert abs(getattr(rep, key)[i] - getattr(one, key)) <= 1e-12

    @pytest.mark.parametrize("kind", ["pd", "rank-deficient"])
    def test_checkers_match_the_support_log_chain(self, kind):
        rng = np.random.default_rng(41)
        bx, bz = ch.pauli_basis("x"), random_basis(2, rng)

        def omega():
            return random_pd(2, rng) if kind == "pd" else haar_pure(2, rng)

        for _ in range(100):
            oms = [omega(), random_pd(2, rng), random_pd(2, rng)]
            rep = app.six_state_check(omegas=oms)
            got = (rep.analytic_lhs, rep.jensen_mid, rep.triple_integral)
            assert np.max(np.abs(np.subtract(got, _reference_six_state(oms)))) <= 1e-12
            rep = app.mu_analytic_check(bx, bz, *oms[:2])
            got = (rep.lhs, rep.jensen_mid, rep.gt_bound)
            assert np.max(np.abs(np.subtract(got, _reference_mu(bx, bz, oms[:2])))) <= 1e-12

    def test_triple_integral_takes_the_stacked_spectrum(self, monkeypatch):
        # six_state_check hands lieb_triple_integral the eigendecomposition
        # of the third pinched operators from the chain's one stacked eigh,
        # one triple as a stack of one, and gets the value PSDOperators of
        # those operators give
        seen = []

        def recorded(*args, **kwargs):
            seen.append((args, kwargs))
            return op.lieb_triple_integral(*args, **kwargs)

        monkeypatch.setattr(app, "lieb_triple_integral", recorded)
        rng = np.random.default_rng(42)
        oms = [random_pd(2, rng) for _ in range(3)]
        rep = app.six_state_check(omegas=oms)
        (pinched, kwargs), = seen
        vals, vecs = kwargs["spectrum"]
        assert [p.shape for p in pinched] == [(1, 2, 2)] * 3
        assert np.array_equal(vals, np.linalg.eigh(pinched[2])[0])
        assert np.max(np.abs(op.from_spectrum(vals, vecs) - pinched[2])) <= 1e-14
        ops = [op.PSDOperator(p[0]) for p in pinched]
        assert rep.triple_integral == op.lieb_triple_integral(*ops)

    ANALYTIC = ("analytic_lhs", "jensen_mid", "triple_integral", "analytic_gap", "chain_holds")

    @pytest.mark.parametrize("kind", ["pd", "rank-deficient"])
    def test_block_rows_equal_each_triple_alone(self, kind):
        # every row of a block is the triple checked alone, bit for bit;
        # the rank-deficient block mixes full-rank rows with rows whose
        # kernel flags spread over the whole space (haar_pure, diag(0, 1))
        # or stay on a line (an eigenstate of its own slot's basis); a
        # singular omega in the Z slot is test_singular_z_slot_omega's
        rng = np.random.default_rng(43)
        oms = random_pd(2, rng, 3 * 40).reshape(40, 3, 2, 2)
        if kind == "rank-deficient":
            plus = [np.outer(b[0], b[0].conj()) for b in app.six_state_bases()]
            for i in range(0, 40, 6):
                oms[i, i // 6 % 3] = haar_pure(2, rng)
                oms[i + 1, i // 6 % 2] = np.diag([0.0, 1.0])
                oms[i + 2, i // 6 % 2] = plus[i // 6 % 2]
        rep = app.six_state_check(omegas=oms)
        assert all(np.shape(getattr(rep, key)) == (40,) for key in self.ANALYTIC)
        if kind == "rank-deficient":
            assert (rep.analytic_lhs[1::6] == 0.0).all() and (rep.analytic_lhs[2::6] > 0.0).all()
        for i, oms_i in enumerate(oms):
            one = app.six_state_check(omegas=oms_i)
            assert isinstance(one.analytic_lhs, float) and isinstance(one.chain_holds, bool)
            for key in self.ANALYTIC:
                assert np.array_equal(getattr(rep, key)[i], getattr(one, key)), (i, key)
            got = (rep.analytic_lhs[i], rep.jensen_mid[i], rep.triple_integral[i])
            assert np.max(np.abs(np.subtract(got, _reference_six_state(oms_i)))) <= 1e-12
        assert rep.chain_holds.all()

    def test_singular_z_slot_omega(self):
        # a diagonal rank-deficient omega in the Z slot keeps its kernel
        # through the Z pinching, so the triple integral's third argument
        # is singular; the integral is then taken on its support, and
        # (I/2, I/2, diag(0, 1)) gives 1/4 with the chain intact. In a
        # block the triple sits in rotating slots, every row bit for bit
        # the triple checked alone
        half, low = np.eye(2) / 2, np.diag([0.0, 1.0])
        rep = app.six_state_check(omegas=[half, half, low])
        assert rep.triple_integral == pytest.approx(0.25, abs=1e-15) and rep.chain_holds is True
        rng = np.random.default_rng(45)
        oms = random_pd(2, rng, 3 * 33).reshape(33, 3, 2, 2)
        for i in range(0, 33, 3):
            oms[i] = np.roll([half, half, low], i // 3 % 3, axis=0)
        rep = app.six_state_check(omegas=oms)
        for i, oms_i in enumerate(oms):
            one = app.six_state_check(omegas=oms_i)
            for key in self.ANALYTIC:
                assert np.array_equal(getattr(rep, key)[i], getattr(one, key)), (i, key)
            got = (rep.analytic_lhs[i], rep.jensen_mid[i], rep.triple_integral[i])
            assert np.max(np.abs(np.subtract(got, _reference_six_state(oms_i)))) <= 1e-12
        assert rep.chain_holds.all()

    @pytest.mark.parametrize("row", [0, 7, 15])
    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -0.1]),  # not PSD
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
        np.diag([0.7, 0.6]),  # trace 1.3
    ])
    def test_invalid_omega_in_a_block_rejected_as_alone(self, bad, row):
        rng = np.random.default_rng(44)
        oms = random_pd(2, rng, 48).reshape(16, 3, 2, 2)
        oms[row, 1] = bad
        with pytest.raises(ValueError) as alone:
            app.six_state_check(omegas=oms[row])
        with pytest.raises(ValueError) as block:
            app.six_state_check(omegas=oms)
        assert type(block.value) is type(alone.value)
        assert str(block.value) == str(alone.value)

    @pytest.mark.parametrize("count", [2, 4])
    def test_block_needs_three_omegas_per_row(self, count):
        oms = np.broadcast_to(np.eye(2) / 2, (5, count, 2, 2)).copy()
        with pytest.raises(DimensionMismatch, match="expected 3 omegas"):
            app.six_state_check(omegas=oms)

    def test_singular_omega_keeps_its_kernel(self):
        bx, bz = ch.pauli_basis("x"), ch.pauli_basis("z")
        rep = app.mu_analytic_check(bx, bz, np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert rep.lhs == 0.0
        rep = app.six_state_check(omegas=[np.eye(2) / 2, np.diag([0.0, 1.0]), np.eye(2) / 2])
        assert rep.analytic_lhs == 0.0

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -0.1]),  # not PSD
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
    ])
    def test_invalid_omega_rejected(self, bad):
        half = np.eye(2) / 2
        with pytest.raises(ValueError):
            app.six_state_check(omegas=[half, bad, half])
        with pytest.raises(ValueError):
            app.mu_analytic_check(ch.pauli_basis("x"), ch.pauli_basis("z"), half, bad)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_six_state_needs_three_omegas(self, count):
        with pytest.raises(DimensionMismatch, match="expected 3 omegas"):
            app.six_state_check(omegas=[np.eye(2) / 2] * count)


class TestUnitTraceOmegas:
    """The uncertainty bounds c and 1/4 hold for unit-trace omegas only:
    doubling omega_1 doubles the checkers' left-hand side, while the
    datum's analytic_gap scales both of its sides alike."""

    W1 = np.diag([0.7, 0.3])
    W2 = np.array([[0.6, 0.1], [0.1, 0.4]])
    BX, BZ = ch.pauli_basis("x"), ch.pauli_basis("z")

    def test_other_traces_are_rejected(self):
        with pytest.raises(ValueError, match="unit-trace"):
            app.mu_analytic_check(self.BX, self.BZ, 2 * self.W1, self.W2)
        with pytest.raises(ValueError, match="unit-trace"):
            app.six_state_check(omegas=[2 * self.W1, self.W2, self.W2])
        datum = app.uncertainty_datum([self.BX, self.BZ]).with_constant(np.log(0.5))
        gap = analytic_gap(datum, [self.W1, self.W2])
        assert gap > 0.1
        assert analytic_gap(datum, [2 * self.W1, self.W2]) == pytest.approx(gap, abs=1e-12)

    def test_unit_traces_within_1e_9_pass(self):
        w1 = self.W1 * (1.0 + 5e-10)
        assert app.mu_analytic_check(self.BX, self.BZ, w1, self.W2).chain_holds
        assert app.six_state_check(omegas=[w1, self.W2, self.W2]).chain_holds
        with pytest.raises(ValueError, match="unit-trace"):
            app.mu_analytic_check(self.BX, self.BZ, self.W1 * (1.0 + 2e-9), self.W2)


class TestRankDeficientOmega:
    """The checkers push the kernel of log omega through E^dag: a
    rank-deficient omega whose kernel E^dag spreads over the whole input
    space sends the left-hand side to 0, as the exact analytic_gap does."""

    W0 = np.diag([1.0, 0.0])
    HALF = np.eye(2) / 2

    def test_mu_analytic_check(self):
        bx, bz = ch.pauli_basis("x"), ch.pauli_basis("z")
        rep = app.mu_analytic_check(bx, bz, self.W0, self.HALF)
        assert rep.lhs == 0.0
        assert rep.gap == pytest.approx(0.5, abs=1e-12)
        assert rep.chain_holds
        datum = app.uncertainty_datum([bx, bz]).with_constant(np.log(rep.c))
        assert analytic_gap(datum, [self.W0, self.HALF]) == np.inf

    def test_six_state_check(self):
        rep = app.six_state_check(omegas=[self.W0, self.HALF, self.HALF])
        assert rep.analytic_lhs == 0.0
        assert rep.analytic_gap == pytest.approx(0.25, abs=1e-12)
        assert rep.chain_holds

    def test_dpi_analytic_check(self):
        meas = ch.measurement_channel(ch.pauli_basis("x"))
        rep = app.dpi_analytic_check(self.HALF, meas, self.W0)
        assert rep.lhs == 0.0
        assert rep.gap == pytest.approx(0.5, abs=1e-12)

    def test_sdpi_analytic_check(self):
        # the left-hand side is 0 and the right-hand side 1/2
        meas = ch.measurement_channel(ch.pauli_basis("x"))
        assert analytic_gap(app.dpi_datum(meas, self.HALF, 1.0), [self.W0]) == np.inf

    def test_min_output_dual_gap(self):
        # E^dag = E for the depolarizing channel, and E(diag(0, 1)) has full
        # rank: the left-hand side is 0, so log rhs - log lhs is +inf
        h_min = app.binary_entropy(0.25)
        datum = app.min_output_datum(ch.depolarizing(0.5)).with_constant(-h_min)
        assert analytic_gap(datum, [self.HALF, self.W0]) == np.inf
