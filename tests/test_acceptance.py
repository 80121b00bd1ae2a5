"""Acceptance suite: every exit criterion at its stated tolerance.

Each test records one PASS/FAIL line (printed in the terminal summary,
past pytest's capture) and asserts the criterion.
"""

import json
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from qbl import applications as app
from qbl import channels as ch
from qbl import entropy as ent
from qbl import gaussian as g
from qbl import operators as op
from qbl.engine import (
    BLDatum,
    OptimizerBudget,
    SamplerConfig,
    analytic_gap,
    bl_membership,
    duality_crosscheck,
    entropic_gap,
)
from qbl.sampling import (
    bloch_sample,
    hs_mixed,
    random_basis,
    random_channel,
    random_hermitian,
    random_pd,
)

LN2 = float(np.log(2.0))


def record(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    line = (
        f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
        f" - {detail} ({time.time() - started:.1f}s)"
    )
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_01_duality_crosscheck_random_data():
    started = time.time()
    worst = 0.0
    ok = True
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        da = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        sigma = op.PSDOperator(random_pd(da, rng))
        chans, sigmas, q = [], [], []
        for _ in range(n):
            dk = int(rng.integers(2, 5))
            e = random_channel(da, dk, rng=rng)
            chans.append(e)
            sigmas.append(op.PSDOperator(e(sigma)))
            q.append(float(rng.uniform(0.5, 2.0)))
        datum = BLDatum(q, chans, sigma, sigmas, 0.0)
        rep = duality_crosscheck(datum, OptimizerBudget(restarts=32, max_iters=500, base_seed=i))
        diff = abs(rep.c_entropic - rep.c_analytic)
        tol = max(1e-3, 1e-3 * abs(rep.c_entropic))
        worst = max(worst, diff)
        ok &= diff <= tol
    elapsed = time.time() - started
    ok &= elapsed <= 300.0
    record(1, "duality cross-check", ok, f"20 random data, worst |dC| = {worst:.2e}", started)


def test_02_minimum_output_entropy_depolarizing():
    started = time.time()
    worst = 0.0
    budget = OptimizerBudget(restarts=6, max_iters=300, base_seed=0)
    for p in np.arange(0.0, 1.01, 0.1):
        rep = app.min_output_entropy(ch.depolarizing(float(p)), budget)
        target = app.binary_entropy(float(p) / 2.0)
        worst = max(worst, abs(rep.direct - target), abs(rep.dual - target))
    record(2, "minimum output entropy", worst <= 1e-5, f"max |H_min - h(p/2)| = {worst:.2e}", started)


def test_03_contraction_coefficient_and_scalar_sdpi():
    started = time.time()
    budget = OptimizerBudget(restarts=6, max_iters=200, base_seed=0)
    worst = 0.0
    scan_ok = True
    for p in np.arange(0.1, 0.91, 0.1):
        p = float(round(p, 10))
        eta = app.contraction_coefficient(ch.depolarizing(p), np.eye(2) / 2, budget)
        worst = max(worst, abs(eta - (1 - p) ** 2))
        gap, _ = app.depolarizing_sdpi_scan(p, (1 - p) ** 2)
        scan_ok &= gap >= -1e-12
        # probing below the optimum must expose a violation; at p = 0.9
        # the 0.01 step would leave (0, 1], so halve eta there instead
        eta_ref = (1 - p) ** 2
        eta_bad = eta_ref - 0.01 if eta_ref > 0.01 else eta_ref / 2
        gap_bad, _ = app.depolarizing_sdpi_scan(p, eta_bad)
        scan_ok &= gap_bad < 0
    ok = worst <= 1e-3 and scan_ok
    record(3, "contraction coefficient", ok, f"max |eta - (1-p)^2| = {worst:.2e}", started)


def test_04_six_state_relation():
    started = time.time()
    rng = np.random.default_rng(4)
    rep = app.six_state_check(rho=bloch_sample(rng, 10000))
    worst_ent = float(np.min(rep.entropic_gap_bits))
    tight = app.six_state_check(rho=np.diag([1.0, 0.0])).entropic_gap_bits
    # the 10^4 analytic triples as one block
    oms = random_pd(2, rng, 30000).reshape(10000, 3, 2, 2)
    worst_ana = float(np.min(app.six_state_check(omegas=oms).analytic_gap))
    ok = worst_ent >= -1e-9 and abs(tight) <= 1e-6 and worst_ana >= -1e-9
    record(
        4,
        "six-state relation",
        ok,
        f"min entropic gap {worst_ent:.2e} bits, gap at z-eigenstate {tight:.1e},"
        f" min analytic gap {worst_ana:.2e}",
        started,
    )


def test_05_maassen_uffink():
    started = time.time()
    budget = OptimizerBudget(restarts=12, max_iters=400, base_seed=0)
    bx, bz = ch.pauli_basis("x"), ch.pauli_basis("z")
    be = app.uncertainty_bound_entropic([bx, bz], budget)
    ba = app.uncertainty_bound_analytic([bx, bz], budget)
    ok = abs(be - LN2) <= 1e-3 and abs(ba - LN2) <= 1e-3
    # dual trace-exponential bound on 1e4 sampled pairs
    rng = np.random.default_rng(5)
    worst = np.inf
    pair = app.BasisPair(bx, bz)
    for w1, w2 in random_pd(2, rng, 20000).reshape(10000, 2, 2, 2):
        worst = min(worst, app.mu_analytic_check(pair, w1, w2).gap)
    ok &= worst >= -1e-9
    # strengthened relation for 20 random basis pairs, 1e3 samples each
    worst_rand = np.inf
    for i in range(20):
        rng_i = np.random.default_rng(100 + i)
        b1, b2 = random_basis(2, rng_i), random_basis(2, rng_i)
        c = app.BasisPair(b1, b2).c
        rhos = bloch_sample(rng_i, 1000)
        h1, h2 = app.measurement_entropies_bits(rhos, [b1, b2])
        gaps = h1 + h2 + np.log2(c) - ent.von_neumann(rhos) / LN2
        worst_rand = min(worst_rand, float(np.min(gaps)))
    ok &= worst_rand >= -1e-9
    record(
        5,
        "Maassen-Uffink",
        ok,
        f"bound ({be:.6f}, {ba:.6f}) vs ln2, min dual gap {worst:.2e},"
        f" min strengthened gap {worst_rand:.2e} bits",
        started,
    )


def test_06_shearer_and_conditional_counterexample():
    started = time.time()
    datum = app.shearer_datum([2, 2, 2], [[0, 1], [0, 2], [1, 2]], p=2)
    rng = np.random.default_rng(6)
    worst_e = min(entropic_gap(datum, hs_mixed(8, rng)) for _ in range(500))
    worst_a = min(
        analytic_gap(datum, [random_pd(4, rng) for _ in range(3)]) for _ in range(500)
    )
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    rho = np.kron(np.outer(v, v), np.eye(2) / 2)
    perm = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    rho = rho[np.ix_(perm, perm)]
    probe = app.conditional_shearer_probe(rho, [2, 2, 2], [[0], [0], [1]], p=1)
    ok = worst_e >= -1e-9 and worst_a >= -1e-9 and probe.gap < -0.5
    record(
        6,
        "Shearer / Loomis-Whitney",
        ok,
        f"min gaps ({worst_e:.2e}, {worst_a:.2e}), Bell counterexample gap {probe.gap:.4f}",
        started,
    )


def test_07_variational_attainment():
    started = time.time()
    worst = 0.0
    for dim in (2, 3, 4):
        rng = np.random.default_rng(70 + dim)
        for _ in range(100):
            rho, sig = hs_mixed(dim, rng), random_pd(dim, rng)
            lrho = op.matrix_log(op.PSDOperator(rho)).finite
            lsig = op.matrix_log(op.PSDOperator(sig)).finite
            om = op.matrix_exp(op.HermitianOperator(lrho - lsig))
            om = op.PSDOperator(om.matrix / om.trace())
            worst = max(
                worst,
                abs(
                    ent.variational_lower(rho, sig, om)
                    - ent.relative_entropy(rho, sig)
                ),
            )
            h = op.HermitianOperator(random_hermitian(dim, rng))
            opt = ent.variational_optimizer_state(h, op.PSDOperator(sig))
            attained = np.trace(h.matrix @ opt.matrix).real - ent.relative_entropy(opt, sig)
            worst = max(worst, abs(attained - ent.legendre_trace_exp(h, op.PSDOperator(sig))))
    record(7, "variational formulas", worst <= 1e-9, f"max attainment error {worst:.2e}", started)


def test_08_trace_inequality_oracles():
    started = time.time()
    gt_ok = True
    for dim in (2, 3, 4):
        rng = np.random.default_rng(80 + dim)
        for _ in range(200):
            h1, h2 = random_hermitian(dim, rng), random_hermitian(dim, rng)
            lhs = op.trace_exp_sum([h1, h2])
            rhs = float(
                np.trace(
                    op.matrix_exp(op.HermitianOperator(h1)).matrix
                    @ op.matrix_exp(op.HermitianOperator(h2)).matrix
                ).real
            )
            gt_ok &= lhs <= rhs + 1e-9
    lieb_ok = True
    for dim in (2, 3, 4):
        rng = np.random.default_rng(85 + dim)
        for _ in range(200):
            a, b, c = (random_pd(dim, rng) for _ in range(3))
            lhs = op.trace_exp_sum([op.matrix_log(op.PSDOperator(x)).finite for x in (a, b, c)])
            rhs = op.lieb_triple_integral(op.PSDOperator(a), op.PSDOperator(b), op.PSDOperator(c))
            lieb_ok &= lhs <= rhs + 1e-8
    found = op.find_antinorm_counterexample(p=2.0, seed=0)
    import os

    with open(os.path.join(os.path.dirname(__file__), "data", "antinorm_p2_violation.json")) as fh:
        fix = json.load(fh)

    def dec(m):
        arr = np.asarray(m)
        return arr[..., 0] + 1j * arr[..., 1]

    replay_ok = True
    for key, sign in (("sub_violation", 1.0), ("super_violation", -1.0)):
        sig = op.PSDOperator(dec(fix["sigma"]))
        w1, w2 = op.PSDOperator(dec(fix[key]["w1"])), op.PSDOperator(dec(fix[key]["w2"]))
        gap = (
            op.weighted_antinorm(op.PSDOperator(w1.matrix + w2.matrix), sig, fix["p"])
            - op.weighted_antinorm(w1, sig, fix["p"])
            - op.weighted_antinorm(w2, sig, fix["p"])
        )
        replay_ok &= sign * gap > 0
    ok = gt_ok and lieb_ok and bool(found) and replay_ok
    record(
        8,
        "trace-inequality oracles",
        ok,
        "Golden-Thompson and triple-matrix bounds hold; p>1 violation found and replayed",
        started,
    )


def test_09_gaussian_geometric():
    started = time.time()
    subs, q = g.mercedes_star()
    datum_ok, dev, tr_res = g.geometric_datum_check(subs, q)
    rng = np.random.default_rng(9)
    worst = np.inf
    for _ in range(500):
        a = rng.normal(size=(4, 4))
        st = g.GaussianState(a @ a.T + np.eye(4))
        worst = min(worst, g.geometric_bl_deficit(st, subs, q))
    traj_ok = True
    tail = 0.0
    grid = np.concatenate([[0.0], np.geomspace(0.01, 1000.0, 25)])
    for i in range(20):
        rng_i = np.random.default_rng(900 + i)
        s = float(rng_i.uniform(1.5, 4.0))
        angle = float(rng_i.uniform(0, np.pi))
        r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        block = r @ np.diag([s, 1.0 / s]) @ r.T
        cov = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(block)]])
        rows = g.deficit_trajectory(g.GaussianState(cov), subs, q, grid)
        deficits = [row["deficit"] for row in rows]
        traj_ok &= all(b <= a2 + 1e-7 for a2, b in zip(deficits, deficits[1:]))
        tail = max(tail, deficits[-1])
    ok = datum_ok and worst >= -1e-8 and traj_ok and tail < 1e-3
    record(
        9,
        "Gaussian geometric BL",
        ok,
        f"datum dev {dev:.1e}, min deficit {worst:.2e}, worst deficit at t=1e3: {tail:.2e}",
        started,
    )


def test_10_determinism():
    started = time.time()
    e = ch.depolarizing(0.3)
    sigma = op.PSDOperator(np.diag([0.6, 0.4]))
    datum = BLDatum([1.0], [e], sigma, [op.PSDOperator(e(sigma))], 0.0)
    reports = [
        json.dumps(
            bl_membership(datum, SamplerConfig(samples=200, seed=11, form="entropic")).to_dict(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    ok = reports[0] == reports[1]
    rep2 = [
        json.dumps(
            duality_crosscheck(datum, OptimizerBudget(restarts=4, max_iters=200, base_seed=3)).to_dict(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    ok &= rep2[0] == rep2[1]
    record(10, "determinism", ok, "identical reports for identical (spec, seed, budget)", started)
