"""Command-line interface: presets, problem-spec files, determinism."""

import json

import numpy as np
import pytest

from qbl.cli import main
from qbl.engine import BLDatum
from qbl.operators import PSDOperator
from qbl.channels import depolarizing, identity_channel
from qbl.serialization import encode_datum


@pytest.fixture
def dpi_spec(tmp_path):
    ch = depolarizing(0.3)
    sigma = PSDOperator(np.diag([0.6, 0.4]))
    datum = BLDatum([1.0], [ch], sigma, [PSDOperator(ch(sigma))], 0.0)
    path = tmp_path / "dpi.json"
    path.write_text(json.dumps(encode_datum(datum)))
    return str(path)


@pytest.fixture
def leaking_spec(tmp_path):
    # sigma_1 = diag(1, 0) misses half of E(sigma): the constant is +inf
    datum = BLDatum([1.0], [identity_channel(2)], PSDOperator(np.eye(2) / 2),
                    [PSDOperator(np.diag([1.0, 0.0]))], 0.0)
    path = tmp_path / "leak.json"
    path.write_text(json.dumps(encode_datum(datum)))
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_preset_dpi_qubit_holds(self, capsys):
        code, out = run(capsys, "verify", "dpi-qubit", "--samples", "100", "--no-meta")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "holds_on_samples"
        assert rep["entropic"]["worst_gap"] >= -1e-9
        assert rep["analytic"]["worst_gap"] >= -1e-9

    def test_preset_bell_counterexample_exit_2(self, capsys):
        code, out = run(capsys, "verify", "conditional-shearer-bell", "--no-meta")
        assert code == 2
        rep = json.loads(out)
        assert rep["verdict"] == "violated"
        assert rep["conditional_shearer"]["gap"] == pytest.approx(-np.log(2), abs=1e-9)
        assert rep["conditional_shearer"]["witness"]  # Bell witness embedded

    def test_preset_six_state_both_forms(self, capsys):
        code, out = run(
            capsys, "verify", "six-state", "--form", "both", "--samples", "300", "--no-meta"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["six_state"]["worst_entropic_gap_bits"] >= -1e-9
        assert rep["six_state"]["worst_analytic_gap"] >= -1e-9

    def test_spec_file_round_trip(self, capsys, dpi_spec):
        code, out = run(capsys, "verify", dpi_spec, "--samples", "50", "--no-meta")
        assert code == 0

    def test_malformed_spec_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "bl_datum", "q": [1.0]}))
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "$.channels" in err

    def test_unknown_spec(self, capsys):
        code = main(["verify", "no-such-preset"])
        assert code == 1


class TestConstant:
    def test_mu_pauli(self, capsys):
        code, out = run(
            capsys, "constant", "mu-pauli-xz", "--budget", "restarts=8,iters=300", "--no-meta"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["uncertainty_bound"]["entropic_nats"] == pytest.approx(np.log(2), abs=1e-3)
        assert rep["uncertainty_bound"]["analytic_nats"] == pytest.approx(np.log(2), abs=1e-3)
        assert rep["uncertainty_bound"]["entropic_bits"] == pytest.approx(1.0, abs=2e-3)

    def test_minout_depol(self, capsys):
        code, out = run(
            capsys, "constant", "minout-depol-0.5", "--budget", "restarts=4,iters=300", "--no-meta"
        )
        assert code == 0
        rep = json.loads(out)
        h = -0.25 * np.log(0.25) - 0.75 * np.log(0.75)
        assert rep["min_output_entropy"]["direct_nats"] == pytest.approx(h, abs=1e-5)
        assert rep["min_output_entropy"]["dual_nats"] == pytest.approx(h, abs=1e-5)

    def test_dpi_random_qubit(self, capsys):
        code, out = run(
            capsys, "constant", "dpi-random-qubit", "--budget", "restarts=8,iters=300",
            "--seed", "5", "--no-meta",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["constant"]["entropic_nats"] == pytest.approx(0.0, abs=1e-5)
        assert rep["constant"]["analytic_nats"] == pytest.approx(0.0, abs=1e-5)
        assert rep["constant"]["agree"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_constant(self, capsys, leaking_spec):
        code, out = run(capsys, "constant", leaking_spec, "--budget", "restarts=4", "--no-meta")
        assert code == 0
        rep = json.loads(out)
        assert rep["constant"]["entropic_nats"] == "inf"
        assert rep["constant"]["analytic_nats"] == "inf"
        assert rep["constant"]["agree"]

    def test_non_finite_numbers_are_strict_json(self, capsys, leaking_spec):
        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        code, out = run(capsys, "constant", leaking_spec, "--budget", "restarts=4", "--no-meta")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["constant"]["entropic_bits"] == "inf"
        code, out = run(capsys, "verify", leaking_spec, "--form", "both", "--samples", "20",
                        "--no-meta")
        assert code == 2
        rep = json.loads(out, parse_constant=reject)
        assert rep["entropic"]["worst_gap"] == "-inf"
        assert rep["verdict"] == "violated"


class TestGaussianCmd:
    def test_mercedes_csv_monotone(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code = main(
            ["gaussian", "mercedes-star", "--t-grid", "0,1,10,100,1000", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "t,H_total,H_marginal_0,H_marginal_1,H_marginal_2,deficit"
        deficits = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(b <= a + 1e-7 for a, b in zip(deficits, deficits[1:]))
        assert deficits[-1] < 1e-3

    def test_axes_product_zero_deficit(self, capsys):
        code, out = run(capsys, "gaussian", "gaussian-axes-product", "--t-grid", "0,1,5")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) == pytest.approx(0.0, abs=1e-10)

    def test_invalid_covariance_rejected(self, tmp_path, capsys):
        spec = {
            "type": "gaussian",
            "cov": [[0.2, 0.0], [0.0, 0.2]],  # below the uncertainty bound
            "subspaces": [[[1.0]]],
            "q": [1.0],
        }
        path = tmp_path / "bad_gauss.json"
        path.write_text(json.dumps(spec))
        code = main(["gaussian", str(path)])
        assert code == 1


class TestContractionCmd:
    def test_depol_half(self, capsys):
        code, out = run(
            capsys, "contraction", "contraction-depol-0.5",
            "--budget", "restarts=4,iters=200", "--no-meta",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["contraction"]["eta"] == pytest.approx(0.25, abs=1e-3)
        assert rep["contraction"]["scalar_scan_min_gap"] >= -1e-9

    def test_identity_channel(self, capsys):
        code, out = run(
            capsys, "contraction", "contraction-identity",
            "--budget", "restarts=2,iters=100", "--no-meta",
        )
        assert code == 0
        assert json.loads(out)["contraction"]["eta"] == pytest.approx(1.0, abs=1e-6)

    def test_p_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code = main(
            [
                "contraction", "contraction-depol-0.5", "--p-sweep", "0.2,0.6",
                "--budget", "restarts=2,iters=100", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "p,eta,eta_formula"
        for line in lines[1:]:
            p, eta, formula = (float(x) for x in line.split(","))
            assert eta == pytest.approx((1 - p) ** 2, abs=1e-3)
            assert formula == pytest.approx((1 - p) ** 2, rel=1e-12)


PRESET_EXPECTATIONS = [
    ("dpi-qubit", ["verify", "--samples", "60"], 0),
    ("dpi-random-qubit", ["constant", "--budget", "restarts=4,iters=200"], 0),
    ("shearer-3qubit-pairs", ["verify", "--samples", "40"], 0),
    ("superadd-classical", ["verify", "--samples", "60"], 0),
    ("conditional-shearer-bell", ["verify"], 2),
    ("conditional-shearer-exact", ["verify"], 0),
    ("six-state", ["verify", "--samples", "100"], 0),
    ("mu-pauli-xz", ["constant", "--budget", "restarts=6,iters=250"], 0),
    ("minout-depol-0.5", ["constant", "--budget", "restarts=4,iters=200"], 0),
    ("contraction-depol-0.5", ["contraction", "--budget", "restarts=3,iters=150"], 0),
    ("contraction-identity", ["contraction", "--budget", "restarts=2,iters=100"], 0),
    ("mercedes-star", ["gaussian", "--t-grid", "0,1,100"], 0),
    ("gaussian-axes-product", ["gaussian", "--t-grid", "0,5"], 0),
]


class TestPresetSelfTests:
    @pytest.mark.parametrize("name,argv,expected", PRESET_EXPECTATIONS, ids=[p[0] for p in PRESET_EXPECTATIONS])
    def test_preset_expected_verdict(self, capsys, name, argv, expected):
        code = main([argv[0], name, "--seed", "0", "--no-meta"] + argv[1:])
        capsys.readouterr()
        assert code == expected

    def test_every_preset_is_exercised(self):
        from qbl.presets import PRESET_NAMES

        assert sorted(p[0] for p in PRESET_EXPECTATIONS) == sorted(PRESET_NAMES)


class TestDeterminism:
    def test_identical_reports_for_fixed_seed(self, capsys, dpi_spec):
        _, out1 = run(capsys, "verify", dpi_spec, "--samples", "100", "--seed", "9", "--no-meta")
        _, out2 = run(capsys, "verify", dpi_spec, "--samples", "100", "--seed", "9", "--no-meta")
        assert out1 == out2

    def test_seed_env_fallback(self, capsys, dpi_spec, monkeypatch):
        monkeypatch.setenv("QBL_SEED", "4")
        _, out1 = run(capsys, "verify", dpi_spec, "--samples", "60", "--no-meta")
        _, out2 = run(capsys, "verify", dpi_spec, "--samples", "60", "--seed", "4", "--no-meta")
        assert out1 == out2

    def test_meta_included_by_default(self, capsys, dpi_spec):
        _, out = run(capsys, "verify", dpi_spec, "--samples", "20")
        rep = json.loads(out)
        assert "meta" in rep and "timestamp" in rep["meta"]
