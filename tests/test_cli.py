import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

import betajacobi as bj
from betajacobi import checks, cli, covariance, spectral
from betajacobi import concentration as conc


def _run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sample_single_eigenvalue(capsys):
    code, out = _run(capsys, "sample", "--n", "1", "--beta", "2", "--p", "2", "--q", "2", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    vals = doc["results"]["eigenvalues"]
    assert len(vals) == 1 and 0.0 <= vals[0] <= 1.0
    assert doc["seed"] == 1
    assert doc["config"]["n"] == 1


def test_sample_factor_dump(tmp_path, capsys):
    dump = tmp_path / "factor.csv"
    code, _ = _run(
        capsys, "sample", "--n", "6", "--seed", "3", "--dump-factor", str(dump)
    )
    assert code == 0
    assert dump.read_text().startswith("index,raw_c,raw_cp,d,e")


def test_cov_verify_passes(capsys):
    code, out = _run(capsys, "cov", "--a", "0.25", "--b", "0.5", "--beta", "2", "--K", "6", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["max_diagonalization_gap"] <= 1e-8


def test_cov_verify_fails_with_bad_nodes(capsys, monkeypatch):
    # a sigma-rule of 4 panels misses the diagonalization gate
    monkeypatch.setattr(covariance, "SIGMA_NODES", 2)
    code, out = _run(capsys, "cov", "--a", "0.25", "--b", "0.5", "--beta", "2", "--K", "6",
                     "--verify")
    assert code == 2
    assert not json.loads(out)["results"]["passed"]


@pytest.mark.parametrize("argv", [["spectrum", "--nodes", "256"], ["cov", "--nodes", "200"]],
                         ids=["spectrum", "cov"])
def test_nodes_flag_removed(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "--nodes" in error["message"]


def test_nodes_config_key_runs_at_the_fixed_grid(tmp_path, capsys):
    # an artifact written while the node count was a flag still reruns, at the fixed grid
    code, out = _run(capsys, "spectrum", "--a", "0.3", "--b", "0.4")
    assert code == 0
    first = json.loads(out)
    first["config"]["nodes"] = 256
    artifact = tmp_path / "old.json"
    artifact.write_text(json.dumps(first))
    code, out = _run(capsys, "--config", str(artifact), "spectrum")
    assert code == 0
    again = json.loads(out)
    assert _without_wall_clock(again["results"]) == _without_wall_clock(first["results"])
    assert "nodes" not in again["config"]


def test_unknown_flag_is_validation_error(capsys):
    code, out = _run(capsys, "sample", "--frobnicate", "1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "usage"


def test_malformed_config_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    code, out = _run(capsys, "--config", str(bad), "sample")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "usage"


@pytest.mark.parametrize("cfg", [{"n": "abc"}, {"funcs": 3}, {"n1": "x", "n2": 40}],
                         ids=["config-n-abc", "config-funcs-3", "config-n1-x"])
def test_wrong_typed_config_value_is_usage_error(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _run(capsys, "--config", str(path), "fluct", "--reps", "4")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and repr(next(iter(cfg))) in error["message"]


@pytest.mark.parametrize("command", ["sample", "fluct"])
def test_n1_at_n_minus_one_is_refused_with_its_bound(capsys, command):
    # the parameters refuse n1 = n - 1, naming the bound, before any draw
    reps = ("--reps", "3") if command == "fluct" else ()
    code, out = _run(capsys, command, "--n", "10", "--n1", "9", "--n2", "20", *reps)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "validation", "message": "n1 must satisfy n1 > n - 1 = 9, got 9.0"}


def test_invalid_params_exit_one(capsys):
    code, out = _run(capsys, "sample", "--n", "10", "--n1", "5", "--n2", "30")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize("command", ["fluct", "sample"])
def test_finite_n_edge_parameters(capsys, command):
    # n1 = n2 = 0 at n = 1 is refused as a validation error; p = q = 0.95
    # (n1, n2 > n - 1) runs, fluct as Monte Carlo only on the [0, 1] map
    funcs = ("--funcs", "x", "--reps", "3") if command == "fluct" else ()
    code, out = _run(capsys, command, "--n", "1", "--n1", "0", "--n2", "0", *funcs)
    assert code == 1 and json.loads(out)["error"]["type"] == "validation"
    code, out = _run(capsys, command, "--n", "10", "--n1", "9.5", "--n2", "9.5", *funcs)
    results = json.loads(out)["results"]
    assert code == 0
    if command == "fluct":
        assert results["extremal"] is True and results["quadrature_nodes"] == 0
        assert "theory_sigma_sq" not in results and "theory_covariance" not in results


@pytest.mark.parametrize("beta", ["0", "-2", "inf"])
def test_cov_invalid_beta_is_validation_error(capsys, beta):
    # beta = 0 escaped as a ZeroDivisionError from the limit shapes
    code, out = _run(capsys, "cov", "--beta", beta)
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "validation", "message": f"beta must be a positive real, got {float(beta)!r}"}


@pytest.mark.parametrize("beta", ["1e308", "1e-307"], ids=["beta-overflow", "beta-underflow"])
def test_beta_edges_exit_one_at_once(capsys, beta):
    # the Beta shapes overflowed to NaN statistics at 1e308; at 1e-300 the
    # resample of underflowed gammas never ended, and below a shape of
    # 2.1e-307 (beta / 2 = 5e-308 here) Cheng's v = logit(u) / shape overflows
    start = time.perf_counter()
    code, out = _run(capsys, "fluct", "--n", "8", "--beta", beta, "--reps", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


def test_expect_beta_two_vanishes(capsys):
    code, out = _run(capsys, "expect", "--k", "2", "--beta", "2", "--a", "1/4",
                     "--b", "1/2", "--base-n", "256")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["cases"][0]["order1"]) <= 1e-6


def test_fluct_rerun_from_embedded_config(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    argv = [
        "--out", str(out_path), "fluct", "--n", "64", "--beta", "2", "--p", "2",
        "--q", "2", "--funcs", "gamma1,x", "--reps", "200", "--seed", "7",
    ]
    assert cli.dispatch(argv) == 0
    first = json.loads(out_path.read_text())
    # rerun using the embedded config block only
    out2 = tmp_path / "run2.json"
    assert cli.dispatch(["--config", str(out_path), "--out", str(out2), "fluct"]) == 0
    second = json.loads(out2.read_text())
    assert first["results"]["variances"] == second["results"]["variances"]
    assert first["results"]["covariance"] == second["results"]["covariance"]
    assert first["config"] == second["config"]


def test_fluct_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    code, out = _run(
        capsys, "fluct", "--n", "32", "--funcs", "x", "--reps", "50", "--seed", "2",
        "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "replicate,x"
    assert len(lines) == 51


def test_lln_subcommand(capsys):
    code, out = _run(
        capsys, "lln", "--regime", "sublinear", "--sizes", "64,128,256",
        "--reps", "32", "--seed", "4",
    )
    doc = json.loads(out)
    assert doc["results"]["monotonicity_violations"] <= 1
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["--regime", "sublinear", "--p", "0.5", "--sizes", "40,80"],
    ["--regime", "superlinear", "--p", "0.5", "--q", "0.3", "--sizes", "40,80", "--func", "exp"],
    ["--regime", "sublinear", "--p", "0.5", "--sizes", "40,80", "--func", "x3"],
    ["--regime", "superlinear", "--p", "0.5", "--sizes", "40,80", "--func", "pwl"],
], ids=["sublinear-x", "superlinear-exp", "sublinear-x3", "superlinear-pwl"])
def test_lln_outside_proportional_ignores_p_and_q(capsys, argv):
    code, out = _run(capsys, "lln", *argv, "--reps", "4", "--seed", "1")
    assert code == 0
    assert [pt["n"] for pt in json.loads(out)["results"]["points"]] == [40, 80]


@pytest.mark.parametrize("regime", ["sublinear", "superlinear"])
def test_lln_gamma_needs_proportional_regime(capsys, regime):
    code, out = _run(capsys, "lln", "--regime", regime, "--sizes", "40,80", "--func", "gamma2",
                     "--reps", "4")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and regime in error["message"]
    code, _ = _run(capsys, "lln", "--regime", "proportional", "--sizes", "40,80",
                   "--func", "gamma2", "--reps", "4")
    assert code == 0


def test_eig_subcommand_quick(capsys):
    code, out = _run(capsys, "eig", "--matrices", "50", "--max-n", "64", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["worst_trace_identity"] <= 1e-12


def test_eig_seed_one_report(capsys):
    code, out = _run(capsys, "eig", "--matrices", "100", "--max-n", "128", "--seed", "1")
    assert code == 0
    results = json.loads(out)["results"]
    # the value of the one-matrix-at-a-time oracle; 100 matrices of orders 2..10
    assert results["worst_sturm_gap"] == 9.103828801926284e-15
    assert results["sturm_oracle_calls"] == 1


def test_eig_usage_error_honours_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = _run(capsys, "--out", str(report), "eig", "--max-n", "1")
    assert code == 1
    assert out == ""
    assert json.loads(report.read_text())["error"]["type"] == "validation"


def test_module_entry_point_runs_the_cli():
    # `python -m betajacobi.cli` must dispatch, not import the module and exit 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "betajacobi.cli", "eig", "--max-n", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "validation"


def test_closed_stdout_exits_without_traceback():
    # the reader goes away before the report is written
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "betajacobi.cli", "fluct", "--n", "16",
                             "--funcs", "gamma1..gamma4,x", "--reps", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_power_token_runs(capsys):
    code, out = _run(capsys, "fluct", "--n", "16", "--funcs", "x^3,x2", "--reps", "4")
    assert code == 0
    assert json.loads(out)["results"]["functions"] == ["x^3", "x^2"]


def test_coupling_report_records_confirming_rule(capsys):
    code, out = _run(capsys, "concentration", "--check", "coupling", "--sizes", "100,1000")
    assert code == 0
    results = json.loads(out)["results"]
    for size in ("100", "1000"):
        assert results["n_sq_gap"][size] == int(size) ** 2 * conc.coupling_gap(int(size), 1.0, 1.0)
        assert results["hermite_nodes"][size] == 16
        assert 0.0 <= results["doubling_rel_gap"][size] <= 1e-8


def test_concentration_beta_subcommand(capsys):
    code, out = _run(capsys, "concentration", "--check", "beta")
    assert code == 0
    assert json.loads(out)["results"]["worst_ratio"] <= 1.0 + 1e-8


def test_spectrum_subcommand(capsys):
    code, out = _run(capsys, "spectrum", "--a", "0.25", "--b", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["density_mass"] - 1.0) <= 1e-10


@pytest.mark.parametrize("b", ["0.9", "0.1"])
def test_spectrum_with_an_edge_at_zero_or_one(capsys, b):
    # q = 1 or p = 1: the support touches 1 or 0, where the edge-weight
    # integrand keeps a nonzero end value
    code, out = _run(capsys, "spectrum", "--a", "0.1", "--b", b)
    assert code == 0
    assert json.loads(out)["results"]["edge_normalization_error"] <= 1e-12


def test_threads_knob_removed(tmp_path, capsys):
    code, out = _run(capsys, "fluct", "--n", "32", "--funcs", "x", "--reps", "20", "--threads", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "usage"
    # an artifact written while the knob existed still reruns to its numbers
    argv = ["fluct", "--n", "32", "--funcs", "x", "--reps", "20", "--seed", "2"]
    code, out = _run(capsys, *argv)
    assert code == 0
    first = json.loads(out)
    first["config"]["threads"] = 2
    artifact = tmp_path / "old.json"
    artifact.write_text(json.dumps(first))
    code, out = _run(capsys, "--config", str(artifact), "fluct")
    assert code == 0
    again = json.loads(out)
    assert again["results"]["variances"] == first["results"]["variances"]
    assert again["results"]["means"] == first["results"]["means"]
    assert "threads" not in again["config"]


@pytest.mark.slow
def test_verify_all_quick(verify_all_quick):
    code, out, doc = verify_all_quick
    assert code == 0
    assert doc["results"]["passed"]
    reports = doc["results"]["checks"]
    assert list(reports) == [check.id for check in checks.REGISTRY]
    # one pass/fail line per registry entry precedes the JSON report
    assert out.count("[PASS]") == len(checks.REGISTRY)
    assert "[FAIL]" not in out
    for check in checks.REGISTRY:
        report = reports[check.id]
        assert report["wall_clock_s"] > 0.0
        assert set(report["gates"]) == {gate.quantity for gate in check.gates}
        for gate in report["gates"].values():
            assert {"value", "threshold", "margin"} <= set(gate)
            assert gate["passed"] and gate["margin"] >= 0.0


def test_validation_error_honours_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = _run(
        capsys, "--out", str(report), "sample", "--n", "10", "--n1", "5", "--n2", "30"
    )
    assert code == 1
    assert out == ""
    assert json.loads(report.read_text())["error"]["type"] == "validation"


# argv and the error type it gets; the runner refuses the eig bounds and the
# coupling sizes under its own rules, as a validation error
_BAD_USAGE = [
    pytest.param(["fluct", "--n", "16", "--funcs", funcs, "--reps", "4"], "usage", id=funcs)
    for funcs in ("gamma", "gammaX", "x^", "gamma1..gammaY", "x^²", "x^x2", "x^^3", "xx^2")
] + [
    pytest.param(["lln", "--sizes", "100,abc", "--reps", "4"], "usage", id="lln-sizes"),
    pytest.param(["concentration", "--check", "coupling", "--sizes", "100,x"], "usage",
                 id="coupling-sizes"),
    pytest.param(["concentration", "--check", "coupling", "--sizes", "100"], "validation",
                 id="coupling-one-size"),
    pytest.param(["concentration", "--check", "coupling", "--sizes", "100,100"], "validation",
                 id="coupling-repeated-size"),
    pytest.param(["eig", "--max-n", "1"], "validation", id="eig-max-n-1"),
    pytest.param(["eig", "--matrices", "0"], "validation", id="eig-matrices-0"),
    pytest.param(["eig", "--matrices", "-5"], "validation", id="eig-matrices-negative"),
    pytest.param(["lln", "--sizes", "32", "--func", "bogus", "--reps", "4"], "usage",
                 id="lln-func"),
    pytest.param(["concentration", "--check", "jacobi", "--n", "16", "--func", "bogus",
                  "--reps", "4"], "usage", id="jacobi-func"),
    pytest.param(["concentration", "--check", "jacobi", "--n", "16", "--func", "x,x2",
                  "--reps", "4"], "usage", id="jacobi-two-funcs"),
    pytest.param(["expect", "--beta", "0"], "usage", id="expect-beta-0"),
    pytest.param(["expect", "--beta", "abc"], "usage", id="expect-beta-abc"),
    pytest.param(["expect", "--beta", "1/0"], "usage", id="expect-beta-1/0"),
    pytest.param(["expect", "--a", "x"], "usage", id="expect-a-x"),
    pytest.param(["expect", "--b", "x"], "usage", id="expect-b-x"),
    pytest.param(["expect", "--beta", "1e400"], "usage", id="expect-beta-1e400"),
    pytest.param(["expect", "--a", "1e400"], "usage", id="expect-a-1e400"),
]


@pytest.mark.parametrize("argv,kind", _BAD_USAGE)
def test_bad_function_order_is_usage_error(capsys, argv, kind):
    code, out = _run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == kind


def test_reversed_function_range_is_usage_error(capsys):
    code, out = _run(capsys, "fluct", "--n", "16", "--funcs", "gamma4..gamma1,x", "--reps", "4")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "'gamma4..gamma1'" in error["message"]


@pytest.mark.parametrize("argv", [
    ["extremal", "--n", "50", "--reps", "0"],
    ["extremal", "--n", "50", "--reps", "1"],
    ["lln", "--sizes", "50,100", "--reps", "0"],
    ["concentration", "--check", "jacobi", "--n", "16", "--reps", "1"],
], ids=["extremal-0", "extremal-1", "lln-0", "jacobi-1"])
def test_too_few_replicates_exit_one(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


def test_aliased_theory_degree_is_validation_error(capsys):
    # the theory of gamma1400 read 4096 instead of 1400 after a full run
    code, out = _run(capsys, "fluct", "--funcs", "gamma1400")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "validation" and "alias" in error["message"]


@pytest.mark.parametrize("argv", [
    ["fluct", "--funcs", "gamma1..gamma100000"],
    ["lln", "--func", "gamma1024"],
    ["fluct", "--funcs", "gamma" + "9" * 5000],  # beyond int()'s 4300 digits
], ids=["fluct-gamma-range", "lln-gamma1024", "fluct-gamma-5000-digits"])
def test_gamma_order_above_theory_grid_refused_before_building(capsys, monkeypatch, argv):
    # a range gamma1..gammaJ built J forms, quadratic in J, before the theory
    # refused them; the order is now checked first
    monkeypatch.setattr(spectral, "chebyshev_test_function", lambda *a: pytest.fail("built"))
    code, out = _run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


def test_gamma_order_at_the_limit_parses():
    params = bj.from_ratios(32, 2.0, 2.0, 2.0)
    (f,) = cli._parse_funcs(f"gamma{cli._MAX_ORDER}", params)
    assert cli._MAX_ORDER == 1023 and len(f.chebyshev.coeffs) == 1024


@pytest.mark.parametrize("argv", [
    ["concentration", "--check", "coupling", "--sizes", "0,100"],
    ["eig", "--matrices", "5", "--seed", "-1"],
    ["verify-all", "--quick", "--seed", "-1"],
], ids=["coupling-size-0", "eig-seed-negative", "verify-all-seed-negative"])
def test_invalid_size_or_seed_exit_one(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 1
    assert out.startswith("{")  # no check ran before the error
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize("sizes", ["250", "500,250,125"])
def test_lln_needs_two_increasing_sizes(capsys, sizes):
    # one size compares nothing, and a reversed list would count its own order as violations
    code, out = _run(capsys, "lln", "--sizes", sizes, "--reps", "4")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "validation" and "increasing order" in error["message"]


def test_concentration_jacobi_runs_the_named_function(capsys):
    argv = ["concentration", "--check", "jacobi", "--n", "32", "--reps", "50", "--seed", "3"]
    results = {}
    for func in ("x2", "gamma3"):
        code, out = _run(capsys, *argv, "--func", func)
        assert code == 0
        results[func] = json.loads(out)["results"]
    rep = checks._jacobi_poincare((32,), 2.0, 2.0, 2.0, spectral.monomial(2), 50, 3)["points"][0]
    assert results["x2"]["points"][0]["variance"] == rep["variance"]
    assert results["x2"]["points"][0]["bound"] == rep["bound"]
    assert results["gamma3"]["points"][0]["variance"] != rep["variance"]


def test_piecewise_linear_derivative_and_its_jacobi_check(capsys):
    # slope 2 on [0, 0.5), -2 from the middle knot on (the right-hand slope),
    # and the end slopes outside [0, 1]; `pwl` reaches it through squared_derivative
    pwl = spectral.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    x = [-0.3, 0.0, 0.2, 0.4999, 0.5, 0.7, 1.0, 1.4]
    assert pwl.derivative(x).tolist() == [2.0] * 4 + [-2.0] * 4
    code, out = _run(capsys, "concentration", "--check", "jacobi", "--func", "pwl",
                     "--n", "64", "--reps", "400", "--seed", "1")
    assert code == 0
    assert json.loads(out)["results"]["passed"] is True


def test_fluct_fixed_seed_matches_monomial_trace_route(tmp_path, capsys):
    # means and variances of this run on Cheng's Beta draws; the pin was
    # first taken through monomial power traces contracted with monomial
    # coefficients, which differ from the Chebyshev trace engine by rounding only
    means = [-0.04078991080733389, -266.5852440295117, -0.043298414554070845,
             -88.78651353497428, 199.99116872525548]
    variances = [0.8485791455845055, 2.1530990474557083, 2.951074611059,
                 4.213123721793829, 0.03977714744927343]
    out_path = tmp_path / "run.json"
    code, _ = _run(
        capsys, "--out", str(out_path), "fluct", "--n", "400", "--beta", "2", "--p", "2",
        "--q", "2", "--funcs", "gamma1..gamma4,x", "--reps", "200", "--seed", "7",
    )
    assert code == 0
    results = json.loads(out_path.read_text())["results"]
    assert results["means"] == pytest.approx(means, rel=1e-9)
    assert results["variances"] == pytest.approx(variances, rel=1e-9)


@pytest.mark.parametrize("cfg,argv", [
    ({"check": "bogus"}, ["concentration"]),
    ({"n": 2.7}, ["sample"]),
    ({"verify": "no"}, ["cov"]),
    ({"regime": "bogus"}, ["lln"]),
], ids=["concentration-check-bogus", "sample-n-2.7", "cov-verify-no", "lln-regime-bogus"])
def test_config_value_a_flag_would_reject_is_usage_error(tmp_path, capsys, cfg, argv):
    # a config entry passes the checks of the flag it stands for
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _run(capsys, "--config", str(path), *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and repr(next(iter(cfg))) in error["message"]


@pytest.mark.parametrize("flag", ["--out", "--csv", "--dump-factor"])
def test_unwritable_output_file_is_usage_error(tmp_path, capsys, flag):
    path = str(tmp_path / "missing" / "file")
    report = tmp_path / "report.json"
    argv = {
        "--out": ["--out", path, "sample", "--n", "4"],
        "--csv": ["--out", str(report), "fluct", "--n", "8", "--funcs", "x", "--reps", "4",
                  "--csv", path],
        "--dump-factor": ["--out", str(report), "sample", "--n", "4", "--dump-factor", path],
    }[flag]
    code, out = _run(capsys, *argv)
    assert code == 1
    # the error goes to --out unless --out itself could not be written
    error = json.loads(out if flag == "--out" else report.read_text())["error"]
    assert error["type"] == "usage" and path in error["message"]


def _without_wall_clock(node):
    if isinstance(node, dict):
        return {k: _without_wall_clock(v) for k, v in node.items() if k != "wall_clock_s"}
    if isinstance(node, list):
        return [_without_wall_clock(v) for v in node]
    return node


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "8", "--seed", "3", "--n1", "10", "--n2", "13.5"],
    ["eig", "--matrices", "20", "--max-n", "16", "--seed", "2"],
    ["spectrum", "--a", "0.3", "--b", "0.4"],
    ["cov", "--K", "4", "--verify"],
    ["fluct", "--n", "16", "--beta", "1", "--funcs", "gamma1,x2,exp", "--reps", "20", "--seed", "5"],
    ["lln", "--regime", "sublinear", "--sizes", "40,80", "--reps", "4", "--seed", "1"],
    ["expect", "--k", "3", "--beta", "1/3", "--base-n", "32"],
    ["extremal", "--n", "50", "--reps", "50", "--seed", "4"],
    ["concentration", "--check", "beta"],
    ["concentration", "--check", "jacobi", "--n", "16", "--reps", "50", "--func", "x2"],
    ["concentration", "--check", "coupling", "--sizes", "100,1000"],
], ids=lambda argv: "-".join(argv[:3:2] if argv[0] == "concentration" else argv[:1]))
def test_rerun_from_config_block_reproduces_the_run(tmp_path, capsys, argv):
    first_path, second_path = tmp_path / "first.json", tmp_path / "second.json"
    code = cli.dispatch(["--out", str(first_path), *argv])
    first = json.loads(first_path.read_text())
    assert "results" in first
    again = cli.dispatch(["--config", str(first_path), "--out", str(second_path), argv[0]])
    second = json.loads(second_path.read_text())
    assert again == code
    assert second["config"] == first["config"]
    assert (json.dumps(_without_wall_clock(second["results"]), sort_keys=True)
            == json.dumps(_without_wall_clock(first["results"]), sort_keys=True))


def test_benchmark_argv_parses():
    # every call of the benchmark's workloads, as its runner builds it, is a valid command line
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    calls = [call for workload in bench.WORKLOADS.values() for call in workload.calls]
    assert {call[0] for call in calls} >= {"fluct", "eig", "concentration"}
    for call in calls:
        argv = list(call) + (["--seed", "1"] if call[0] in bench.SEEDED else [])
        assert cli._resolve(cli._build_parser().parse_args(argv))[0] == call[0]


@pytest.mark.parametrize("argv,observed", [
    (["cov", "--verify"], "covariance.covariance_matrix"),
    (["fluct", "--n", "16", "--funcs", "gamma1,x^2", "--reps", "8"], "spectral.variance_functionals"),
    (["lln", "--sizes", "40,80", "--reps", "4"], "spectral.trace_statistic"),
    (["concentration", "--check", "jacobi", "--n", "16", "--reps", "20"],
     "spectral.squared_derivative"),
], ids=["cov", "fluct", "lln", "concentration-jacobi"])
def test_traced_benchmark_child_runs(tmp_path, argv, observed):
    # the traced benchmark wraps library functions and reads fields of their
    # results; a library change that breaks one of its observers fails here
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "child.py"), str(record), "1",
         "--out", str(tmp_path / "report.json"), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(record.read_text())
    assert doc["exit"] == 0
    assert {"covariance.max_error_estimate", "spectral.undecayed"} <= set(doc["counters"])
    assert observed in doc["spans"]


@pytest.mark.parametrize("argv,side", [
    (["--check", "jacobi", "--n", "16", "--reps", "50"], 2.0),
    (["--check", "coupling", "--sizes", "100,1000"], 1.0),
], ids=["jacobi", "coupling"])
def test_concentration_config_records_the_p_and_q_it_ran(capsys, argv, side):
    code, out = _run(capsys, "concentration", *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["q"]) == (side, side)


# Each subcommand's values with no flag and no config file, as they resolved
# when one parser declared all ten subcommands' flags at once.
_DEFAULTS = {
    "sample": {"n": 100, "beta": 2.0, "p": 2.0, "q": 2.0, "n1": None, "n2": None, "seed": 0,
               "dump_factor": None},
    "eig": {"matrices": 1000, "max_n": 512, "seed": 0},
    "spectrum": {"a": 0.25, "b": 0.5},
    "cov": {"a": 0.25, "b": 0.5, "beta": 2.0, "K": 8, "verify": False},
    "fluct": {"n": 100, "beta": 2.0, "p": 2.0, "q": 2.0, "n1": None, "n2": None, "seed": 0,
              "reps": 10000, "funcs": "gamma1..gamma4", "csv": None},
    "lln": {"func": "x", "beta": 2.0, "p": 2.0, "q": 2.0, "reps": 64, "seed": 0,
            "regime": "proportional", "sizes": "250,500,1000,2000"},
    "expect": {"k": 2, "base_n": 512, "beta": 4.0, "a": 0.25, "b": 0.5},
    "extremal": {"n": 5000, "beta": 2.0, "reps": 20000, "seed": 0},
    "concentration": {"n": 256, "beta": 2.0, "p": None, "q": None, "func": "x", "reps": 4000,
                      "seed": 0, "sizes": "100,1000,10000", "check": "beta"},
    "verify-all": {"seed": None, "quick": False},
}


@pytest.mark.parametrize("name", list(_DEFAULTS))
def test_resolved_defaults(name):
    name_, values = cli._resolve(cli._build_parser().parse_args([name]))
    assert name_ == name
    assert list(values.items()) == list(_DEFAULTS[name].items())


def test_help_lists_the_subcommands_and_their_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["-h"])
    assert exc.value.code == 0
    listing = capsys.readouterr().out.split("subcommands:\n")[1].splitlines()
    assert [line.split()[0] for line in listing] == list(_DEFAULTS)
    for name, values in _DEFAULTS.items():
        with pytest.raises(SystemExit) as exc:
            cli.dispatch([name, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: betajacobi {name} ")
        assert all("--" + key.replace("_", "-") in out for key in values)
