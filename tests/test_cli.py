"""Command-line interface: presets, problem-spec files, determinism."""

import json

import numpy as np
import pytest

from qbl.applications import dpi_datum
from qbl.cli import main
from qbl.engine import BLDatum
from qbl.operators import PSDOperator
from qbl.sampling import random_channel
from qbl import channels as ch
from qbl.channels import depolarizing, identity_channel
from qbl.serialization import encode_channel, encode_datum, encode_matrix


@pytest.fixture
def dpi_spec(tmp_path):
    datum = dpi_datum(depolarizing(0.3), np.diag([0.6, 0.4]))
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

    def test_usage_error_exit_1(self, capsys):
        # 2 is reserved for a violation; argparse's own usage status is 2
        code = main(["verify", "six-state", "--form", "bogus"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--form" in err and "bogus" in err

    @pytest.mark.parametrize("samples", ["0", "-3", "many"])
    def test_samples_below_one_rejected(self, capsys, samples):
        code = main(["verify", "dpi-qubit", "--samples", samples, "--no-meta"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--samples" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_six_state_broken_chain_exit_2(self, capsys, monkeypatch):
        from qbl import cli
        from qbl.applications import six_state_check

        def broken_chain(rho=None, omegas=None):
            rep = six_state_check(rho=rho, omegas=omegas)
            if omegas is not None:
                rep.chain_holds = False
            return rep

        monkeypatch.setattr(cli, "six_state_check", broken_chain)
        code, out = run(capsys, "verify", "six-state", "--form", "both", "--samples", "5",
                        "--no-meta")
        assert code == 2
        rep = json.loads(out)
        assert rep["verdict"] == "violated"
        assert rep["six_state"]["worst_entropic_gap_bits"] >= -1e-9
        assert rep["six_state"]["worst_analytic_gap"] >= -1e-9


    def test_six_state_blocks_of_64_and_1(self, capsys, monkeypatch):
        # with a budget of 64 samples a block, 65 samples make a block of 64
        # and a block of 1, each checked by one call; the worst analytic gap
        # is the least of the per-triple checks on the same draws (the
        # states are drawn first)
        from qbl import cli, sampling
        from qbl.applications import six_state_check
        from qbl.sampling import bloch_sample, blocks, random_pd

        shapes = []

        def recorded(rho=None, omegas=None):
            if omegas is not None:
                shapes.append(omegas.shape)
            return six_state_check(rho=rho, omegas=omegas)

        monkeypatch.setattr(cli, "six_state_check", recorded)
        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 0)
        code, out = run(capsys, "verify", "six-state", "--samples", "65", "--seed", "3",
                        "--no-meta")
        assert code == 0
        assert shapes == [(64, 3, 2, 2), (1, 3, 2, 2)]
        rng = np.random.default_rng(3)
        for m in blocks(65, 2):
            bloch_sample(rng, m)
        triples = np.concatenate([random_pd(2, rng, 3 * m).reshape(m, 3, 2, 2)
                                  for m in blocks(65, 2)])
        worst = min(six_state_check(omegas=oms).analytic_gap for oms in triples)
        assert json.loads(out)["six_state"]["worst_analytic_gap"] == worst

    @pytest.mark.parametrize("preset", ["six-state", "mu-pauli-xz"])
    def test_qubit_checkers_take_all_samples_in_one_block(self, capsys, monkeypatch, preset):
        # d = 2 samples come in one block of up to 1024; the report equals,
        # byte for byte, the one made with one sample a block
        from qbl import cli, sampling

        sizes = []

        def recorded(n, d):
            sizes.append(sampling.blocks(n, d))
            return sizes[-1]

        monkeypatch.setattr(cli, "blocks", recorded)
        argv = ["verify", preset, "--samples", "300", "--seed", "4", "--no-meta"]
        code, out = run(capsys, *argv)
        assert code == 0 and sizes and all(s == [300] for s in sizes)
        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(sampling, "MIN_BLOCK_ROWS", 1)
        sizes.clear()
        assert run(capsys, *argv) == (code, out)
        assert all(s == [1] * 300 for s in sizes)


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

    @pytest.mark.parametrize("offset, code", [(5e-4, 0), (8e-4, 2)])
    def test_uncertainty_bounds_use_the_engine_agreement_rule(self, capsys, monkeypatch,
                                                              offset, code):
        # the two estimates of ln 2 agree within agreement_tol(ln 2) = 6.9e-4,
        # as duality_crosscheck's would, not within a looser 1e-3
        from qbl import cli
        from qbl.engine import agreement_tol

        assert agreement_tol(np.log(2)) == pytest.approx(1e-3 * np.log(2), abs=1e-15)
        monkeypatch.setattr(cli, "uncertainty_bound_entropic", lambda bases, budget: np.log(2))
        monkeypatch.setattr(cli, "uncertainty_bound_analytic",
                            lambda bases, budget: np.log(2) + offset)
        assert run(capsys, "constant", "mu-pauli-xz", "--no-meta")[0] == code

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

    def test_large_induced_logs_do_not_overflow(self, capsys, tmp_path):
        # the identity channel at q = 60 with sigma = sigma_1 = diag(1 - 1e-6,
        # 1e-6): the constant is 59 ln 10^6 = 815.1 nats, and the witness's
        # log L_1 has an eigenvalue near 829, past where exp overflows
        sigma = PSDOperator(np.diag([1 - 1e-6, 1e-6]))
        datum = BLDatum([60.0], [identity_channel(2)], sigma, [sigma], 0.0)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(encode_datum(datum)))
        code, out = run(capsys, "constant", str(path), "--budget", "restarts=8,iters=300",
                        "--no-meta")
        assert code == 0
        rep = json.loads(out)["constant"]
        assert rep["agree"] is True
        for side in ("entropic_nats", "analytic_nats"):
            assert rep[side] == pytest.approx(59 * np.log(1e6), rel=0, abs=1e-6)

    @pytest.mark.parametrize("form", ["entropic", "analytic"])
    def test_zero_sigma_k_is_violated(self, capsys, tmp_path, form):
        # sigma_1 = 0: the right-hand side of either form is 0 while sigma
        # is positive definite, so every gap is -inf and the constant +inf
        datum = BLDatum([1.0], [identity_channel(2)], PSDOperator(np.eye(2) / 2),
                        [PSDOperator(np.zeros((2, 2)))], 0.0)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(encode_datum(datum)))
        code, out = run(capsys, "verify", str(path), "--form", form, "--samples", "20",
                        "--no-meta")
        assert code == 2
        rep = json.loads(out)
        assert rep[form]["worst_gap"] == "-inf"
        assert rep[form]["verdict"] == rep["verdict"] == "violated"
        code, out = run(capsys, "constant", str(path), "--budget", "restarts=4", "--no-meta")
        assert code == 0
        assert json.loads(out)["constant"]["entropic_nats"] == "inf"

    def test_singular_sigma_gets_a_constant(self, capsys, tmp_path):
        # sigma = diag(0.6, 0.4, 0) is valid: the search runs on supp sigma,
        # and entropic samples are drawn there
        e = random_channel(3, 2, rng=np.random.default_rng(3))
        sigma = PSDOperator(np.diag([0.6, 0.4, 0.0]))
        datum = BLDatum([1.3], [e], sigma, [PSDOperator(e(sigma))], 0.0)
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(encode_datum(datum)))
        code, out = run(capsys, "constant", str(path), "--budget", "restarts=8,iters=300",
                        "--no-meta")
        assert code == 0
        rep = json.loads(out)["constant"]
        assert rep["agree"] is True
        assert np.isfinite(rep["entropic_nats"]) and np.isfinite(rep["analytic_nats"])
        assert abs(rep["entropic_nats"] - rep["analytic_nats"]) <= 1e-9
        code, out = run(capsys, "verify", str(path), "--form", "both", "--samples", "50",
                        "--no-meta")
        assert code == 0
        rep = json.loads(out)
        assert all(0 <= rep[form]["worst_gap"] < np.inf for form in ("entropic", "analytic"))

    def test_zero_sigma_is_one_error_line(self, capsys, tmp_path):
        datum = BLDatum([1.0], [identity_channel(2)], PSDOperator(np.zeros((2, 2))),
                        [PSDOperator(np.eye(2) / 2)], 0.0)
        path = tmp_path / "zero-sigma.json"
        path.write_text(json.dumps(encode_datum(datum)))
        lines = set()
        for argv in (["verify", str(path), "--form", "entropic"],
                     ["verify", str(path), "--form", "analytic"],
                     ["constant", str(path), "--budget", "restarts=2"]):
            assert main([*argv, "--no-meta"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines.add(captured.err)
        assert lines == {"error: sigma is the zero operator: no state has finite D(rho||sigma)\n"}

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

    @pytest.mark.parametrize("command", ["verify", "gaussian"])
    def test_invalid_geometric_datum_one_error(self, tmp_path, capsys, command):
        # sum q_k Pi_k = 0.5 on one mode: both commands report the error
        # deficit_trajectory raises
        spec = {"type": "gaussian", "cov": [[1.0, 0.0], [0.0, 1.0]],
                "subspaces": [[[1.0]]], "q": [0.5]}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(spec))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sum q_k Pi_k deviates from identity by 5.000e-01\n"


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

    @pytest.mark.parametrize("case", ["random-channel", "depolarizing-off-half"])
    def test_p_sweep_rejects_a_spec_it_would_not_run(self, capsys, tmp_path, case):
        # the sweep runs depolarizing(p) at I/2, not the spec's channel and sigma
        if case == "random-channel":
            chan = random_channel(3, 3, np.random.default_rng(1))
            sigma = np.diag([0.5, 0.3, 0.2])
        else:
            chan, sigma = depolarizing(0.5), np.diag([0.6, 0.4])
        spec = _channel_task(tmp_path, chan, sigma=encode_matrix(sigma))
        code = main(["contraction", spec, "--p-sweep", "0.1,0.5", "--no-meta"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("spec error at --p-sweep: ")

    @pytest.mark.parametrize("sigma", [None, np.eye(2) / 2], ids=["absent", "half"])
    def test_p_sweep_runs_a_depolarizing_spec(self, capsys, tmp_path, sigma):
        # the spec's p does not enter the sweep
        argv = ["--p-sweep", "0.1,0.5", "--budget", "restarts=2,iters=50", "--no-meta"]
        _, want = run(capsys, "contraction", "contraction-depol-0.5", *argv)
        spec = {"type": "channel_task", "channel": encode_channel(depolarizing(0.3))}
        if sigma is not None:
            spec["sigma"] = encode_matrix(sigma)
        path = tmp_path / "task.json"
        path.write_text(json.dumps(spec))
        assert run(capsys, "contraction", str(path), *argv) == (0, want)


class TestNumericOptions:
    """Malformed or out-of-range numeric options are input errors: exit 1,
    one stderr line and nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["constant", "dpi-qubit", "--budget", "restarts=abc"],
        ["constant", "dpi-qubit", "--budget", "restarts=0"],
        ["constant", "dpi-qubit", "--budget", "iters=0"],
        ["constant", "dpi-qubit", "--budget", "iters=-1"],
        ["constant", "dpi-qubit", "--budget", "restarts=8,restarts=1,iters=5"],
        ["contraction", "contraction-depol-0.5", "--p-sweep", "0.1,x"],
        ["contraction", "contraction-depol-0.5", "--p-sweep", "1.5"],
        ["gaussian", "mercedes-star", "--t-grid", "0:1:log"],
    ])
    def test_rejected_before_any_output(self, capsys, argv):
        code = main(argv + ["--no-meta"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert argv[-2] in captured.err

    def test_repeated_budget_field(self, capsys):
        code = main(["constant", "dpi-qubit", "--budget", "restarts=8,iters=5,restarts=1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "spec error at --budget: budget field 'restarts' given twice\n")


class TestParserReuse:
    """main builds its parser once per process; consecutive calls share no
    parsed state."""

    def test_calls_share_no_state(self, capsys, tmp_path):
        from qbl import cli

        assert cli.build_parser() is cli.build_parser()
        path = tmp_path / "report.json"
        argv = ["verify", "dpi-qubit", "--samples", "5", "--form", "entropic"]
        first = run(capsys, *argv, "--no-meta", "--out", str(path))
        written = path.read_text()
        path.unlink()
        assert main(["verify", "dpi-qubit", "--samples", "0"]) == 1  # a usage error
        assert capsys.readouterr().out == ""
        code, out = run(capsys, *argv)  # no --out, no --no-meta
        assert code == 0 and not path.exists()
        assert "meta" in json.loads(out) and "meta" not in json.loads(first[1])
        assert run(capsys, *argv, "--no-meta") == first
        assert written == first[1]


class TestSpecFields:
    """A malformed field of a bl_datum spec is an input error: exit 1, one
    stderr line naming the field and nothing on stdout."""

    @pytest.mark.parametrize("update,path", [
        ({"q": [-1.0]}, "$.q"),
        ({"q": "abc"}, "$.q"),
        ({"c": "x"}, "$.c"),
        # json writes and reads the NaN token
        ({"sigma": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "$.sigma"),
        ({"q": [], "channels": [], "sigmas": []}, "$.q"),
    ])
    def test_rejected_before_any_output(self, capsys, tmp_path, dpi_spec, update, path):
        with open(dpi_spec, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(update)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["constant", str(bad), "--no-meta"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert f"spec error at {path}" in captured.err


class TestErrorLines:
    """Each input error is one stderr line, naming one path once; stdout
    stays empty and the exit code is 1."""

    NAN_QUBIT = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    @pytest.mark.parametrize("update,line", [
        ({"q": [-1.0]}, "spec error at $.q: expected a non-empty list of finite positive numbers"),
        ({"sigmas": [NAN_QUBIT]}, "spec error at $.sigmas[0]: matrix has a non-finite entry"),
        ({"channels": [{"kraus": [NAN_QUBIT]}]},
         "spec error at $.channels[0].kraus[0]: matrix has a non-finite entry"),
        ({"channels": 5}, "spec error at $.channels: expected a list"),
        ({"sigmas": 7}, "spec error at $.sigmas: expected a list"),
    ])
    def test_spec_field(self, capsys, tmp_path, dpi_spec, update, line):
        with open(dpi_spec, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(update)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["constant", str(bad), "--no-meta"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", line + "\n")

    X_AXIS, Y_AXIS, DIAGONAL = [[1.0], [0.0]], [[0.0], [1.0]], [[0.6], [0.8]]
    WEIGHTS = "spec error at $.q: expected a non-empty list of finite positive numbers"

    @pytest.mark.parametrize("command", ["verify", "gaussian"])
    @pytest.mark.parametrize("update,line", [
        ({"cov": [["a", 0], [0, 1]]},
         "spec error at $.cov: not a numeric nested list: could not convert string to float: 'a'"),
        ({"cov": [[float("nan"), 0], [0, 1]]},
         "spec error at $.cov: matrix has a non-finite entry"),
        ({"q": ["x"]}, WEIGHTS),
        ({"q": 1.0}, WEIGHTS),
        ({"subspaces": 3}, "spec error at $.subspaces: expected a list"),
        ({"subspaces": [X_AXIS, [["b"], [0]]]},
         "spec error at $.subspaces[1]: not a numeric nested list: "
         "could not convert string to float: 'b'"),
        ({"subspaces": [X_AXIS, [Y_AXIS]]},
         "error: subspace basis must be a vector or a matrix, got shape (1, 2, 1)"),
        # three lines, two weights: the weights do not pair with the lines
        ({"subspaces": [X_AXIS, Y_AXIS, DIAGONAL]},
         "spec error at $.q: expected 3 weights, one per subspace"),
    ])
    def test_gaussian_spec_field(self, capsys, tmp_path, command, update, line):
        spec = {"type": "gaussian", "cov": np.eye(4).tolist(),
                "subspaces": [self.X_AXIS, self.Y_AXIS], "q": [1.0, 1.0]}
        spec.update(update)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code = main([command, str(bad), "--no-meta"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", line + "\n")

    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_spec(self, capsys, tmp_path, case):
        if case == "directory":
            spec = tmp_path
        else:
            spec = tmp_path / "utf16.json"
            spec.write_bytes(b"\xff\xfe{\x00}\x00")
        code = main(["verify", str(spec), "--no-meta"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("spec error at $: cannot read the file: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "dpi-qubit", "--samples", "10"],
        ["gaussian", "mercedes-star", "--t-grid", "0,1"],
    ], ids=["json", "csv"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, argv, target):
        out = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path
        code = main(argv + ["--out", str(out), "--no-meta"])
        captured = capsys.readouterr()
        reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
        assert (code, captured.out, captured.err) == (1, "", f"error: cannot write {out}: {reason}\n")

    def test_bad_seed_variable(self, capsys, monkeypatch):
        for text, line in [("abc", "error: QBL_SEED must be an integer, got 'abc'\n"),
                           ("-3", "error: QBL_SEED must be non-negative, got '-3'\n")]:
            monkeypatch.setenv("QBL_SEED", text)
            code = main(["verify", "dpi-qubit", "--samples", "10", "--no-meta"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == line

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_option(self, capsys, seed):
        # a usage error: the usage, then one error line
        code = main(["verify", "dpi-qubit", "--seed", seed, "--no-meta"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.splitlines()[-1] == (
            f"qbl verify: error: argument --seed: expected an integer of at least 0, got '{seed}'")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "dpi-qubit", "--samples", "5"],
    ["gaussian", "mercedes-star", "--t-grid", "0,1"],
], ids=["json", "csv"])
def test_out_dash_is_stdout(capsys, tmp_path, monkeypatch, argv):
    # every output kind prints once, as without --out, and writes no file
    monkeypatch.chdir(tmp_path)
    want = run(capsys, *argv, "--no-meta")
    assert run(capsys, *argv, "--out", "-", "--no-meta") == want
    assert want[0] == 0 and list(tmp_path.iterdir()) == []


def _channel_task(tmp_path, channel, **fields):
    spec = {"type": "channel_task", "task": "contraction", "channel": encode_channel(channel),
            "sigma": encode_matrix(np.eye(2) / 2)}
    spec.update(fields)
    path = tmp_path / "task.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestChannelTaskSpec:
    TAIL = ["--budget", "restarts=2,iters=50", "--seed", "0", "--no-meta"]

    def test_eta_field_is_not_read(self, capsys, tmp_path):
        plain = _channel_task(tmp_path, depolarizing(0.5))
        _, want = run(capsys, "contraction", plain, *self.TAIL)
        code, out = run(capsys, "contraction",
                        _channel_task(tmp_path, depolarizing(0.5), eta="x"), *self.TAIL)
        assert (code, out) == (0, want)

    def test_unknown_task_rejected(self, capsys, tmp_path):
        spec = _channel_task(tmp_path, depolarizing(0.5), task="min_output_entropi")
        code = main(["verify", spec] + self.TAIL)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "spec error at $.task: expected 'contraction' or 'min_output_entropy'\n"
        )

    @pytest.mark.parametrize("channel,label", [
        (depolarizing(0.5), "depolarizing"),
        (identity_channel(2), "depolarizing(p=0.5)"),
        (ch.Channel([np.diag([1.0, np.sqrt(0.5)]), np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]])]),
         "depolarizing(p=0.5)"),
    ])
    def test_scalar_scan_only_for_the_depolarizing_channel(self, capsys, tmp_path, channel, label):
        spec = _channel_task(tmp_path, channel)
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
        data["channel"]["label"] = label
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code, out = run(capsys, "contraction", spec, *self.TAIL)
        assert code == 0
        assert set(json.loads(out)["contraction"]) == {"eta"}

    def test_non_finite_kraus_rejected(self, capsys, tmp_path):
        spec = _channel_task(tmp_path, depolarizing(0.5))
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
        data["channel"]["kraus"][1][0][0] = [float("nan"), 0.0]
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code = main(["contraction", spec] + self.TAIL)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "spec error at $.channel.kraus[1]: matrix has a non-finite entry\n"


    @pytest.mark.parametrize("field,value,line", [
        ("sigma", [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
         "spec error at $.sigma: matrix has a non-finite entry"),
        ("signs", [float("nan")], "spec error at $.channel.signs: expected a list of finite numbers"),
        ("kraus", 5, "spec error at $.channel.kraus: expected a non-empty list of matrices"),
    ])
    def test_bad_field_is_one_error_line(self, capsys, tmp_path, field, value, line):
        # each of these ended in a traceback (ValueError, LinAlgError and
        # TypeError) instead of a spec error line
        spec = _channel_task(tmp_path, depolarizing(0.5))
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
        (data if field == "sigma" else data["channel"])[field] = value
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code = main(["contraction", spec] + self.TAIL)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", line + "\n")


class TestVerifyForms:
    """--form selects the forms evaluated and gated on the checker presets;
    a skipped form is reported as null, and every sample is still drawn,
    so a run of one form reports the worst gap of that form in --form both."""

    @pytest.mark.parametrize("preset,block,fields", [
        ("six-state", "six_state", ("worst_entropic_gap_bits", "worst_analytic_gap")),
        ("mu-pauli-xz", "mu", ("worst_entropic_gap_bits", "worst_analytic_gap")),
    ])
    def test_one_form(self, capsys, preset, block, fields):
        tail = ["--samples", "40", "--seed", "3", "--no-meta"]
        _, out = run(capsys, "verify", preset, "--form", "both", *tail)
        both = json.loads(out)[block]
        for form, kept, skipped in (("entropic", *fields), ("analytic", *fields[::-1])):
            code, out = run(capsys, "verify", preset, "--form", form, *tail)
            rep = json.loads(out)[block]
            assert code == 0
            assert rep[kept] == both[kept]
            assert rep[skipped] is None

    def test_skipped_form_is_not_gated(self, capsys, monkeypatch):
        import qbl.cli

        def failing_chain(*args):
            raise AssertionError("analytic checker called for --form entropic")

        monkeypatch.setattr(qbl.cli, "mu_analytic_check", failing_chain)
        code, _ = run(capsys, "verify", "mu-pauli-xz", "--form", "entropic", "--samples", "20",
                      "--no-meta")
        assert code == 0


class TestVerifyChannelTask:
    """verify on a channel task prints the report of the command it stands for."""

    def test_spec_is_decoded_once(self, capsys, tmp_path, monkeypatch):
        from qbl import serialization

        decode_channel, calls = serialization.decode_channel, []
        monkeypatch.setattr(serialization, "decode_channel",
                            lambda *args: calls.append(args) or decode_channel(*args))
        spec = _channel_task(tmp_path, depolarizing(0.5))
        code, _ = run(capsys, "verify", spec, "--budget", "restarts=2,iters=50", "--no-meta")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("spec,command", [
        ("contraction-depol-0.5", "contraction"),
        ("minout-depol-0.5", "constant"),
    ])
    def test_same_report_as_command(self, capsys, spec, command):
        tail = ["--budget", "restarts=2,iters=100", "--seed", "0", "--no-meta"]
        code_v, out_v = run(capsys, "verify", spec, *tail)
        code_c, out_c = run(capsys, command, spec, *tail)
        assert code_v == code_c == 0
        assert out_v == out_c
        json.loads(out_v)


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
