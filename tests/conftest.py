import contextlib
import io
import json

import pytest

from betajacobi import cli


@pytest.fixture(scope="session")
def verify_all_quick():
    """Exit code, stdout and JSON report of one `verify-all --quick --seed 3` run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.dispatch(["verify-all", "--quick", "--seed", "3"])
    out = stdout.getvalue()
    return code, out, json.loads(out[out.index("{"):])
