import collections
import math

import pytest

from betajacobi import checks, eig
from betajacobi.errors import ParameterError


@pytest.mark.slow
def test_every_gate_names_a_measured_quantity(verify_all_quick):
    # a check's report holds its runner's values, its wall time, its gates and its verdict
    reports = verify_all_quick[2]["results"]["checks"]
    for check in checks.REGISTRY:
        measured = set(reports[check.id]) - {"gates", "passed"}
        for gate in check.gates:
            assert gate.quantity in measured, (check.id, gate.quantity)
            assert gate.comparison in ("<=", "<", ">=", ">")


def test_every_criterion_once_and_names_unique():
    # criterion 12 runs as its deterministic half and its Monte Carlo half
    counts = collections.Counter(check.criterion for check in checks.REGISTRY)
    assert counts == {**{c: 1 for c in range(1, 17)}, 12: 2}
    names = [check.name for check in checks.REGISTRY]
    assert len(set(names)) == len(names)
    assert checks.CHECKS == {check.name: check for check in checks.REGISTRY}


def test_slow_marks_sit_on_the_monte_carlo_criteria():
    slow = {(check.criterion, check.name) for check in checks.REGISTRY if check.slow}
    assert slow == {(7, "clt"), (12, "jacobi-poincare"), (15, "extremal-moments"), (16, "lln")}


def test_quick_inputs_keep_the_input_names():
    for check in checks.REGISTRY:
        assert set(check.inputs(quick=True)) == set(check.full), check.id


def _toy(seed=None):
    def runner(reps, seed=None):
        return {"value": 0.25, "count": 2, "seed_used": seed}

    return checks.Check(0, "toy", runner,
                        (("value", "<=", 0.5, True), ("count", ">", 1), ("wall_clock_s", "<", 60.0)),
                        full={"reps": 400}, quick={"reps": 100}, seed=seed)


def test_run_reports_value_threshold_and_margin():
    outcome = checks.run(_toy())
    assert outcome.passed and outcome.wall_clock_s >= 0.0
    value, count, wall = outcome.gates
    assert (value.threshold, value.margin) == (0.5, 0.25)
    assert (count.threshold, count.margin) == (1, 1)
    assert wall.value == outcome.wall_clock_s
    block = checks.report([outcome])
    assert block["gates"]["value"] == {"value": 0.25, "comparison": "<=", "threshold": 0.5,
                                       "margin": 0.25, "passed": True}
    assert block["passed"] and block["wall_clock_s"] == outcome.wall_clock_s


def test_standard_error_gates_widen_with_fewer_replicates():
    check = _toy()
    quick = checks.run(check, check.inputs(quick=True))
    assert quick.gates[0].threshold == 0.5 * math.sqrt(400 / 100)
    assert quick.gates[1].threshold == 1  # a gate not in standard errors stays put


def test_seed_override_reaches_seeded_entries_only():
    assert checks.run(_toy(seed=7)).values["seed_used"] == 7
    assert checks.run(_toy(seed=7), seed=3).values["seed_used"] == 3
    assert checks.run(_toy(), seed=3).values["seed_used"] is None


def test_failed_gate_fails_the_check():
    check = checks.Check(0, "toy", lambda: {"x": 2.0}, (("x", "<=", 1.0),), full={})
    outcome = checks.run(check)
    assert not outcome.passed and outcome.gates[0].margin == -1.0
    assert outcome.line().startswith("[FAIL] criterion 00-toy")


def test_eigensolver_check_makes_one_oracle_call(monkeypatch):
    shapes = []
    oracle = eig.sturm_eigenvalues

    def counted(diag, off, *args, **kwargs):
        shapes.append(diag.shape)
        return oracle(diag, off, *args, **kwargs)

    monkeypatch.setattr(eig, "sturm_eigenvalues", counted)
    outcome = checks.run(checks.CHECKS["eigensolver"], {"matrices": 5, "max_n": 16})
    assert outcome.passed
    assert shapes == [(100, 10)]


def test_path_sum_oracle_checks_stream_under_its_own_name():
    # stream was handed to model.replicate_stream as its seed, so the message named "seed"
    for stream in (2.5, True, -1, 2**64):
        with pytest.raises(ParameterError, match=r"^stream must be an integer in \[0, "):
            checks._path_sum_oracle(5, stream, 0)


@pytest.mark.parametrize("name,inputs", [
    ("coupling", {"sizes": (100,), "p": 1.0, "q": 1.0}),
    ("coupling", {"sizes": (100, 100), "p": 1.0, "q": 1.0}),
    ("frobenius-gap", {"sizes": (128,), "reps": 4}),
], ids=["coupling-one-size", "coupling-repeated-size", "frobenius-gap-one-size"])
def test_scaling_checks_need_two_increasing_sizes(name, inputs):
    # these compare nothing, and would pass with band_ratio 1.0
    with pytest.raises(ParameterError, match="increasing order"):
        checks.run(checks.CHECKS[name], inputs, 1)
