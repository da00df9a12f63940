"""The command line imports no scipy module; a route loads it when it calls it,
and the polynomial routes and the coupling gap load none.  A sterf statistic
loads it when it is built, before map_replicates times its first replicate.

Each case runs in a fresh interpreter, so no other test's imports count.
No module of the package reads another's private names: a module's layout
stays behind its public functions.
"""

import ast
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


def _fresh(*argv, script=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
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


# Builds a sterf statistic, then records the CPU seconds that map_replicates
# projects for the replicates left after its probe.
SHARD_PROBE = """
import json, sys
import betajacobi as bj
from betajacobi import model, spectral
projected = []
count = model._worker_count
model._worker_count = lambda left, s: projected.append(s) or count(left, s)
statistic = spectral.trace_statistic([spectral.exp_function()])
loaded = "scipy.linalg" in sys.modules
model.map_replicates(bj.from_ratios(128, 1.0, 2.0, 2.0), 1, 136, statistic)
print(json.dumps([loaded, projected, model._SHARD_MIN_S]))
"""


def test_sterf_run_projects_its_solves_not_the_scipy_import():
    # 7 replicates of about 0.5 ms each are left after the probe of replicates
    # 0..128; a replicate 0 that paid the 0.2-0.35 s import would project them
    # from it alone, to 1.5 s or more
    loaded, projected, shard_min_s = _fresh(script=SHARD_PROBE)
    assert loaded and len(projected) == 1 and projected[0] < shard_min_s


def _private_reaches(path):
    """(module, name) for each attribute module._name in the file at path,
    where module is a betajacobi module that the file imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 and node.module is None
                                                 or node.module == "betajacobi"):
            modules.update(alias.asname or alias.name for alias in node.names)
    return sorted(
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
        and not node.attr.startswith("__"))


def test_no_module_reaches_into_another_modules_private_names():
    package = os.path.join(SRC, "betajacobi")
    reaches = {name: _private_reaches(os.path.join(package, name))
               for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert {name: found for name, found in reaches.items() if found} == {}
