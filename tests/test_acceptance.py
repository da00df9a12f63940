"""Acceptance suite: every entry of the check registry at its full inputs.

The criteria, their inputs, seeds and gates live in betajacobi.checks, the
same entries that `betajacobi verify-all` runs.  Each test prints the
entry's PASS/FAIL line (visible under pytest -s or on failure).  Monte
Carlo criteria use fixed seeds; the counter-based stream discipline makes
every number bit-reproducible.
"""

import pytest

from betajacobi import checks


@pytest.mark.parametrize("check", [
    pytest.param(check, id=check.id, marks=[pytest.mark.slow] if check.slow else [])
    for check in checks.REGISTRY
])
def test_criterion(check):
    outcome = checks.run(check)
    print(outcome.line())
    failed = [f"{g.quantity} = {g.value!r} not {g.comparison} {g.threshold!r}"
              for g in outcome.gates if not g.passed]
    assert not failed, f"criterion {check.id}: " + "; ".join(failed)
