import json

import pytest

from betajacobi import cli


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


def test_invalid_params_exit_one(capsys):
    code, out = _run(capsys, "sample", "--n", "10", "--n1", "5", "--n2", "30")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "validation"


def test_expect_beta_two_vanishes(capsys):
    code, out = _run(capsys, "expect", "--k", "2", "--beta", "2", "--a", "1/4",
                     "--b", "1/2", "--base-n", "256")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["order1"]) <= 1e-6


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


def test_eig_subcommand_quick(capsys):
    code, out = _run(capsys, "eig", "--matrices", "50", "--max-n", "64", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["worst_trace_identity"] <= 1e-12


def test_concentration_beta_subcommand(capsys):
    code, out = _run(capsys, "concentration", "--check", "beta")
    assert code == 0
    assert json.loads(out)["results"]["worst_ratio"] <= 1.0 + 1e-8


def test_spectrum_subcommand(capsys):
    code, out = _run(capsys, "spectrum", "--a", "0.25", "--b", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["density_mass"] - 1.0) <= 1e-10


def test_threads_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("BETAJACOBI_THREADS", "2")
    code, out = _run(capsys, "fluct", "--n", "32", "--funcs", "x", "--reps", "20", "--seed", "2")
    assert code == 0
    assert json.loads(out)["config"]["threads"] == 2
    monkeypatch.setenv("BETAJACOBI_THREADS", "nope")
    code, out = _run(capsys, "fluct", "--n", "32", "--funcs", "x", "--reps", "20", "--seed", "2")
    assert code == 1


@pytest.mark.slow
def test_verify_all_quick(capsys):
    code, out = _run(capsys, "verify-all", "--quick", "--seed", "3")
    assert code == 0
    tail = out[out.index("{"):]
    doc = json.loads(tail)
    assert doc["results"]["passed"]
    assert "bridge-combinatorics" in doc["results"]["families"]
    # one pass/fail line per family precedes the JSON report
    assert out.count("[PASS]") >= 10


def test_validation_error_honours_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = _run(
        capsys, "--out", str(report), "sample", "--n", "10", "--n1", "5", "--n2", "30"
    )
    assert code == 1
    assert out == ""
    assert json.loads(report.read_text())["error"]["type"] == "validation"
