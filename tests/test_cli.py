import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from betajacobi import checks, cli, spectral
from betajacobi import concentration as conc
from betajacobi.params import from_ratios


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


def test_cov_verify_fails_with_bad_nodes(capsys):
    code, out = _run(
        capsys, "cov", "--a", "0.25", "--b", "0.5", "--beta", "2", "--K", "6",
        "--verify", "--nodes", "2",
    )
    assert code == 2
    assert not json.loads(out)["results"]["passed"]


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


def test_invalid_params_exit_one(capsys):
    code, out = _run(capsys, "sample", "--n", "10", "--n1", "5", "--n2", "30")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize("beta", ["0", "-2", "inf"])
def test_cov_invalid_beta_is_validation_error(capsys, beta):
    # beta = 0 escaped as a ZeroDivisionError from the limit shapes
    code, out = _run(capsys, "cov", "--beta", beta)
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "validation", "message": f"beta must be a positive real, got {float(beta)!r}"}


@pytest.mark.parametrize("beta", ["1e308", "1e-300"], ids=["beta-overflow", "beta-underflow"])
def test_beta_edges_exit_one_at_once(capsys, beta):
    # the Beta shapes overflowed to NaN statistics at 1e308; at 1e-300 the
    # resample of underflowed gammas never ended
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
    assert results["sturm_oracle_calls"] == 9


def test_eig_usage_error_honours_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = _run(capsys, "--out", str(report), "eig", "--max-n", "1")
    assert code == 1
    assert out == ""
    assert json.loads(report.read_text())["error"]["type"] == "usage"


def test_module_entry_point_runs_the_cli():
    # `python -m betajacobi.cli` must dispatch, not import the module and exit 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "betajacobi.cli", "eig", "--max-n", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "usage"


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


_BAD_USAGE = [
    pytest.param(["fluct", "--n", "16", "--funcs", funcs, "--reps", "4"], id=funcs)
    for funcs in ("gamma", "gammaX", "x^", "gamma1..gammaY", "x^²", "x^x2", "x^^3", "xx^2")
] + [
    pytest.param(["lln", "--sizes", "100,abc", "--reps", "4"], id="lln-sizes"),
    pytest.param(["concentration", "--check", "coupling", "--sizes", "100,x"],
                 id="coupling-sizes"),
    pytest.param(["concentration", "--check", "coupling", "--sizes", "100"],
                 id="coupling-one-size"),
    pytest.param(["concentration", "--check", "coupling", "--sizes", "100,100"],
                 id="coupling-repeated-size"),
    pytest.param(["eig", "--max-n", "1"], id="eig-max-n-1"),
    pytest.param(["eig", "--matrices", "0"], id="eig-matrices-0"),
    pytest.param(["eig", "--matrices", "-5"], id="eig-matrices-negative"),
    pytest.param(["lln", "--sizes", "32", "--func", "bogus", "--reps", "4"], id="lln-func"),
    pytest.param(["concentration", "--check", "jacobi", "--n", "16", "--func", "bogus",
                  "--reps", "4"], id="jacobi-func"),
    pytest.param(["concentration", "--check", "jacobi", "--n", "16", "--func", "x,x2",
                  "--reps", "4"], id="jacobi-two-funcs"),
    pytest.param(["expect", "--beta", "0"], id="expect-beta-0"),
    pytest.param(["expect", "--beta", "abc"], id="expect-beta-abc"),
    pytest.param(["expect", "--beta", "1/0"], id="expect-beta-1/0"),
    pytest.param(["expect", "--a", "x"], id="expect-a-x"),
    pytest.param(["expect", "--b", "x"], id="expect-b-x"),
    pytest.param(["expect", "--beta", "1e400"], id="expect-beta-1e400"),
    pytest.param(["expect", "--a", "1e400"], id="expect-a-1e400"),
]


@pytest.mark.parametrize("argv", _BAD_USAGE)
def test_bad_function_order_is_usage_error(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "usage"


def test_reversed_function_range_is_usage_error(capsys):
    code, out = _run(capsys, "fluct", "--n", "16", "--funcs", "gamma4..gamma1,x", "--reps", "4")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "usage" and "'gamma4..gamma1'" in error["message"]


@pytest.mark.parametrize("argv", [
    ["extremal", "--n", "50", "--reps", "0"],
    ["extremal", "--n", "50", "--reps", "1"],
    ["lln", "--sizes", "50", "--reps", "0"],
    ["concentration", "--check", "jacobi", "--n", "16", "--reps", "1"],
], ids=["extremal-0", "extremal-1", "lln-0", "jacobi-1"])
def test_too_few_replicates_exit_one(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


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


def test_concentration_jacobi_runs_the_named_function(capsys):
    argv = ["concentration", "--check", "jacobi", "--n", "32", "--reps", "50", "--seed", "3"]
    results = {}
    for func in ("x2", "gamma3"):
        code, out = _run(capsys, *argv, "--func", func)
        assert code == 0
        results[func] = json.loads(out)["results"]
    rep = conc.jacobi_poincare_check(from_ratios(32, 2.0, 2.0, 2.0), spectral.monomial(2), 50, 3)
    assert results["x2"]["points"][0]["variance"] == rep.variance
    assert results["x2"]["points"][0]["bound"] == rep.bound
    assert results["gamma3"]["points"][0]["variance"] != rep.variance


def test_fluct_fixed_seed_matches_monomial_trace_route(tmp_path, capsys):
    # means and variances of this run as computed through monomial power
    # traces contracted with monomial coefficients, before the Chebyshev
    # trace engine; the two routes differ by rounding only
    means = [-0.08359857620265189, -266.7080875300771, -0.0137665426177864,
             -89.03455632237103, 199.981900377322]
    variances = [0.9789679616600143, 1.70019108282363, 2.9871182446211715,
                 4.713589814530081, 0.04588912320281308]
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
    ["spectrum", "--a", "0.3", "--b", "0.4", "--nodes", "256"],
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
        args = cli._build_parser().parse_args(argv)
        assert args.subcommand == call[0]
        cli._resolve(args)


@pytest.mark.parametrize("argv,side", [
    (["--check", "jacobi", "--n", "16", "--reps", "50"], 2.0),
    (["--check", "coupling", "--sizes", "100,1000"], 1.0),
], ids=["jacobi", "coupling"])
def test_concentration_config_records_the_p_and_q_it_ran(capsys, argv, side):
    code, out = _run(capsys, "concentration", *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["q"]) == (side, side)
