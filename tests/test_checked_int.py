"""One rule for every integer argument: params.checked_int at each public boundary.

The table lists, per public function, each count, order, node count,
replicate count or seed it takes, with one integer it refuses and one it
accepts.  The signature scan makes every such parameter of a public name
either sit in the table or carry a reason in _EXEMPT.
"""

import dataclasses
import inspect
import re

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import checks, cli, concentration, covariance, eig, model, paths, spectral
from betajacobi import experiments as ex
from betajacobi import params as P
from betajacobi.errors import ParameterError

_P8 = bj.from_ratios(8, 2.0, 2.0, 2.0)
_ASYM = bj.shape_params(0.25, 0.5, 2.0)
_SUP = bj.support_edges(_ASYM)
_FACTOR = model.deterministic_factor(_P8)
_GRAM = model.assemble_gram(_FACTOR)
_COV = covariance.theory_covariance(4, 2.0, _SUP)


def _row_sums(grams):
    return grams.diag.sum(axis=-1)


def _report(result):
    out = result.to_json_dict()
    del out["wall_clock_s"]
    return out


# (module, function, parameter): (call of the value, an integer refused, an integer accepted)
_TABLE = {
    (P, "EnsembleParams", "n"): (lambda v: P.EnsembleParams(v, 2.0, 20.0, 20.0), 0, 8),
    (P, "from_ratios", "n"): (lambda v: P.from_ratios(v, 2.0, 2.0, 2.0), 0, 8),
    (P, "from_shape", "n"): (lambda v: P.from_shape(v, 2.0, 0.25, 0.5), 0, 8),
    (model, "checked_seed", "seed"): (model.checked_seed, 2**64, 5),
    (model, "sample_factor", "seed"): (lambda v: model.sample_factor(_P8, v, 3), -1, 5),
    (model, "sample_factor", "replicate"): (lambda v: model.sample_factor(_P8, 1, v), -1, 3),
    (model, "map_replicates", "seed"): (
        lambda v: model.map_replicates(_P8, v, 3, _row_sums), -1, 2),
    (model, "map_replicates", "replicates"): (
        lambda v: model.map_replicates(_P8, 0, v, _row_sums), 1, 3),
    (model, "chebyshev_traces", "K"): (
        lambda v: model.chebyshev_traces(_GRAM, 0.5, 0.5, v), -1, 4),
    (ex, "run_fluctuations", "replicates"): (
        lambda v: _report(ex.run_fluctuations(_P8, [spectral.monomial(1)], v, 0)), 1, 3),
    (ex, "run_fluctuations", "seed"): (
        lambda v: _report(ex.run_fluctuations(_P8, [spectral.monomial(1)], 3, v)), -1, 2),
    (ex, "sample_summary", "seed"): (lambda v: ex.sample_summary(_P8, v), -1, 2),
    (spectral, "monomial_table", "K"): (lambda v: spectral.monomial_table(v, 0.5, 0.5), -1, 4),
    (spectral, "monomial", "k"): (lambda v: spectral.monomial(v).chebyshev, 13, 3),
    (spectral, "chebyshev_test_function", "m"): (
        lambda v: spectral.chebyshev_test_function(v, _SUP).chebyshev, -1, 3),
    (spectral, "chebyshev_coefficients", "N"): (
        lambda v: spectral.chebyshev_coefficients(np.exp, v, _SUP), -1, 20),
    (spectral, "variance_functionals", "N"): (
        lambda v: spectral.variance_functionals(np.exp, v, 2.0, _SUP), -1, 20),
    (spectral, "jacobi_probability_quadrature", "nnodes"): (
        lambda v: spectral.jacobi_probability_quadrature(v, 1.0, 1.0), 0, 5),
    (spectral, "jacobi_probability_quadratures", "nnodes"): (
        lambda v: spectral.jacobi_probability_quadratures(v, [(1.0, 1.0), (2.0, 3.0)]), 0, 5),
    (spectral, "hermite_quadrature", "nnodes"): (spectral.hermite_quadrature, 0, 5),
    (covariance, "covariance_matrix", "K"): (
        lambda v: covariance.covariance_matrix(v, _ASYM), 0, 3),
    (covariance, "theory_covariance", "K"): (
        lambda v: covariance.theory_covariance(v, 2.0, _SUP), 33, 3),
    (covariance, "laplace_partial_sum", "K"): (
        lambda v: covariance.laplace_partial_sum(v, 2.0, 3.0, _COV), 5, 3),
    (paths, "enumerate_bridges", "k"): (
        lambda v: [b.steps for b in paths.enumerate_bridges(v)], 11, 3),
    (paths, "weight_polynomial", "k"): (paths.weight_polynomial, -1, 3),
    (paths, "power_table", "degree"): (lambda v: paths.power_table(0.3, 0.7, v), -1, 4),
    (paths, "trace_via_paths", "k"): (
        lambda v: paths.trace_via_paths(_FACTOR, v), paths._MAX_PATH_K + 1, 3),
    (paths, "expected_trace_exact", "k"): (lambda v: paths.expected_trace_exact(_P8, v), 0, 3),
    (paths, "trace_expansion", "k"): (
        lambda v: paths.trace_expansion(v, 2.0, 0.25, 0.5, base_n=8), paths._MAX_PATH_K + 1, 2),
    (paths, "trace_expansion", "base_n"): (
        lambda v: paths.trace_expansion(2, 2.0, 0.25, 0.5, base_n=v), 0, 8),
}

# Parameters with an integer-like name that the rule does not cover, and why
_EXEMPT = {
    (covariance, "CovarianceMatrix", "K"): "a result record; K is checked against the entries' shape",
    (paths, "WeightPolynomial", "k"): "a record that weight_polynomial builds after checking k",
    (ex, "RunResult", "seed"): "a result record that run_fluctuations fills after its checks",
    (ex, "RunResult", "replicates"): "a result record that run_fluctuations fills after its checks",
    (concentration, "CouplingReport", "nodes"): "a result record of the rule that confirmed the gap",
    (concentration, "coupling_report", "n"): "the coupling formulas take n as a real",
    (concentration, "coupling_gap", "n"): "the coupling formulas take n as a real",
    (concentration, "independent_coupling_gap", "n"): "the coupling formulas take n as a real",
}

_COUNT_NAMES = {"n", "k", "K", "N", "m", "nodes", "nnodes", "nterms", "degree",
                "replicates", "replicate", "seed", "base_n"}
_SCANNED = (P, model, eig, spectral, covariance, paths, ex, concentration)


def _plain(x):
    """x with arrays as lists and dataclasses as dicts, comparable by ==."""
    if dataclasses.is_dataclass(x):
        return _plain(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {key: _plain(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(value) for value in x]
    return x.tolist() if isinstance(x, np.ndarray) else x


def _label(key):
    module, name, param = key
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}:{param}"


_KEYS = sorted(_TABLE, key=_label)


@pytest.mark.parametrize("key", _KEYS, ids=[_label(k) for k in _KEYS])
def test_every_integer_argument_is_checked(key):
    call, refused, accepted = _TABLE[key]
    name = key[2]
    for value in (2.5, True, refused):
        with pytest.raises(ParameterError, match=rf"^{re.escape(name)}\b.* must be an integer"):
            call(value)
    assert _plain(call(np.int64(accepted))) == _plain(call(accepted))


def test_every_public_count_parameter_is_in_the_table_or_exempt():
    uncovered = []
    for module in _SCANNED:
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            for param in inspect.signature(obj).parameters:
                key = (module, name, param)
                if param in _COUNT_NAMES and key not in _TABLE and key not in _EXEMPT:
                    uncovered.append(_label(key))
    assert uncovered == []
    stale = [_label(key) for key in (*_TABLE, *_EXEMPT) if key[1] not in key[0].__all__]
    assert stale == []


def test_no_public_callable_takes_a_node_count():
    # the theta grid and the sigma-rule are the module constants
    # spectral.THETA_NODES and covariance.SIGMA_NODES, set by no caller
    takers = [_label((module, name, "nodes"))
              for module in (spectral, covariance, ex) for name in module.__all__
              if callable(getattr(module, name))
              and "nodes" in inspect.signature(getattr(module, name)).parameters]
    takers += [check.id for check in checks.REGISTRY
               if "nodes" in inspect.signature(check.runner).parameters]
    takers += [f"cli {name}" for name in cli._SUBCOMMANDS
               if "nodes" in {action.dest for action in cli._subparser(name)._actions}]
    assert takers == []


def _runner_inputs(check):
    """A registry entry's quick inputs with its seed, as checks.run passes them."""
    inputs = dict(check.inputs(quick=True))
    if check.seed is not None:
        inputs["seed"] = check.seed
    return inputs


# (check id, input name) for every integer input of a registry runner
_RUNNER_INTS = [(check.id, name) for check in checks.REGISTRY
                for name, value in _runner_inputs(check).items() if type(value) is int]


@pytest.mark.parametrize("check_id, name", _RUNNER_INTS, ids=[f"{c}:{n}" for c, n in _RUNNER_INTS])
def test_every_runner_integer_input_is_checked(check_id, name):
    check = next(c for c in checks.REGISTRY if c.id == check_id)
    inputs = _runner_inputs(check)
    for value in (2.5, True):
        with pytest.raises(ParameterError, match="must be an integer"):
            check.runner(**{**inputs, name: value})


def test_checked_int_rule():
    assert P.checked_int("n", np.int64(8), 1) == 8
    assert type(P.checked_int("n", np.uint8(8), 1, 8)) is int
    for value in (2.5, 3.0, "3", None, True, np.bool_(True)):
        with pytest.raises(ParameterError, match=r"^n must be an integer >= 1, got "):
            P.checked_int("n", value, 1)
    with pytest.raises(ParameterError, match=r"^m must be an integer in \[0, 4\], got 5$"):
        P.checked_int("m", 5, 0, 4)


def test_integer_n_of_any_kind_gives_equal_params():
    assert bj.from_ratios(np.int64(8), 2.0, 2.0, 2.0) == bj.from_ratios(8, 2.0, 2.0, 2.0)
    assert type(bj.EnsembleParams(np.int64(8), 2.0, 20.0, 20.0).n) is int


def test_run_reports_the_seed_it_sampled_with():
    result = ex.run_fluctuations(_P8, [spectral.monomial(1)], 4, np.uint64(2))
    assert type(result.seed) is int and result.seed == 2
    assert np.array_equal(result.samples,
                          ex.run_fluctuations(_P8, [spectral.monomial(1)], 4, 2).samples)
