"""The command line imports no scipy module; a route loads it when it calls it,
and the polynomial routes and the coupling gap load none.

Each case runs in a fresh interpreter, so no other test's imports count.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs argv through cli.dispatch, if any, and prints the exit code and the
# scipy modules loaded by then.
PROBE = """
import contextlib, io, json, sys
from betajacobi import cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert _fresh() == [0, []]


@pytest.mark.parametrize("argv", [
    ("fluct", "--n", "32", "--reps", "64", "--funcs", "gamma1..gamma3,x", "--seed", "1"),
    ("expect", "--k", "3", "--base-n", "64"),
    ("lln", "--sizes", "50,100", "--reps", "4"),
    ("extremal", "--n", "200", "--reps", "1000"),
    ("cov", "--K", "4"),
], ids=lambda argv: argv[0])
def test_polynomial_routes_load_no_scipy(argv):
    assert _fresh(*argv) == [0, []]


def test_coupling_route_loads_no_scipy():
    # its Beta quantiles and Gauss-Hermite rule are numpy and math code
    assert _fresh("concentration", "--check", "coupling", "--sizes", "100,1000") == [0, []]


@pytest.mark.parametrize("argv,module", [
    (("eig", "--matrices", "5", "--max-n", "16"), "scipy.linalg"),
])
def test_scipy_routes_import_it_and_pass(argv, module):
    code, loaded = _fresh(*argv)
    assert code == 0 and module in loaded
