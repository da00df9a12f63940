import contextlib
import io
import json
import os

import pytest

from betajacobi import cli


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running or exited but unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "running" if pid == 0 else f"unreaped (pid {pid}, reaped now)"
    pytest.fail(f"the test left a child process {state}")


@pytest.fixture(scope="session")
def verify_all_quick():
    """Exit code, stdout and JSON report of one `verify-all --quick --seed 3` run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.dispatch(["verify-all", "--quick", "--seed", "3"])
    out = stdout.getvalue()
    return code, out, json.loads(out[out.index("{"):])
