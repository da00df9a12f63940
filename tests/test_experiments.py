import math
from fractions import Fraction

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import concentration as conc
from betajacobi import experiments as ex
from betajacobi import model, spectral
from betajacobi.errors import ParameterError


@pytest.fixture(scope="module")
def support():
    return bj.support_edges(bj.shape_params(0.25, 0.5, 2.0))


@pytest.fixture(scope="module")
def small_run(support):
    funcs = [spectral.chebyshev_test_function(i, support) for i in (1, 2, 3)]
    funcs.append(spectral.monomial(1))
    cfg = ex.ExperimentConfig(
        params=bj.from_ratios(500, 2.0, 2.0, 2.0),
        test_functions=funcs,
        replicates=3000,
        seed=101,
    )
    return ex.run_fluctuations(cfg)


def test_fluctuation_variances_near_theory(small_run):
    ratios = small_run.variances / small_run.theory_sigma_sq
    assert np.all(np.abs(ratios - 1.0) <= 0.10)


def test_fluctuation_covariance_against_theory_3se(small_run):
    m = small_run.replicates
    cov = small_run.covariance
    theo = small_run.theory_covariance
    for i in range(cov.shape[0]):
        for j in range(cov.shape[1]):
            se = math.sqrt((theo[i, i] * theo[j, j] + theo[i, j] ** 2) / m)
            assert abs(cov[i, j] - theo[i, j]) <= 3 * se


def test_normality_diagnostics_small(small_run):
    assert np.all(np.abs(small_run.skewness) <= 0.25)
    assert np.all(np.abs(small_run.excess_kurtosis) <= 0.4)
    assert np.all(small_run.ks_distance <= 0.03)


def test_constant_function_is_null():
    cfg = ex.ExperimentConfig(
        params=bj.from_ratios(200, 2.0, 2.0, 2.0),
        test_functions=[spectral.monomial(0)],
        replicates=50,
        seed=7,
    )
    res = ex.run_fluctuations(cfg)
    assert np.max(np.abs(res.samples)) <= 1e-12 * 200


def test_map_replicates_matches_hand_loop(support):
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)

    def statistic(gram):
        return model.chebyshev_traces(gram, support.center, support.half_width, 4)

    expected = np.empty((64, 5))
    traces = np.empty(64)
    for m in range(64):
        gram = model.assemble_gram(model.sample_factor(params, model.replicate_stream(99, m)))
        expected[m] = statistic(gram)
        traces[m] = gram.diag.sum()
    assert np.array_equal(model.map_replicates(params, 99, 64, statistic), expected)
    scalars = model.map_replicates(params, 99, 64, lambda grams: grams.diag.sum(axis=-1))
    assert scalars.shape == (64, 1)
    assert np.array_equal(scalars[:, 0], traces)
    funcs = [spectral.chebyshev_test_function(1, support), spectral.monomial(2)]
    config = ex.ExperimentConfig(params=params, test_functions=funcs, replicates=64, seed=99)
    first, again = ex.run_fluctuations(config), ex.run_fluctuations(config)
    assert np.array_equal(first.samples, again.samples)
    assert np.array_equal(first.covariance, again.covariance)


def test_fixed_seed_values_pinned():
    # values computed by each check's own replicate loop before the checks
    # shared model.map_replicates; the engine reproduces them exactly
    assert ex.trotter_gap(bj.from_ratios(128, 2.0, 2.0, 2.0), 10, seed=41) == 0.10104380031024267
    assert ex.extremal_moments(200, 2.0, 500, seed=51) == (
        0.05736713133015508, 0.009201598777808332)
    points = ex.lln_check("proportional", [100, 200], spectral.monomial(1), replicates=8, seed=61)
    assert [p.value for p in points] == [0.5014124900926948, 0.5007355963343174]
    rep = conc.jacobi_poincare_check(bj.from_ratios(64, 2.0, 2.0, 2.0), spectral.monomial(1),
                                     200, seed=31)
    assert rep.variance == 0.044310163964314454
    assert rep.bound == 0.25


def test_fixed_seed_routes_pinned():
    # means, variances and the Poincare report as computed one replicate at
    # a time, before the replicate engine ran in blocks
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    funcs = [spectral.chebyshev_test_function(m, support) for m in (1, 2)] + [spectral.monomial(1)]
    res = ex.run_fluctuations(ex.ExperimentConfig(params=params, test_functions=funcs,
                                                  replicates=300, seed=17))
    assert res.means.tolist() == [0.015188175732993905, -42.62113950382774, 32.00328833650548]
    assert res.variances.tolist() == [1.069165291349699, 2.0862887840659923, 0.050117123032017284]
    res = ex.run_fluctuations(ex.ExperimentConfig(
        params=bj.from_ratios(32, 1.0, 2.0, 3.0),
        test_functions=[spectral.exp_function(), spectral.monomial(1)], replicates=100, seed=19))
    assert res.means.tolist() == [48.95113194347157, 12.801933903498886]
    assert res.variances.tolist() == [0.18764429718401832, 0.07599718956256034]
    rep = conc.jacobi_poincare_check(bj.from_ratios(48, 2.0, 2.0, 3.0), spectral.monomial(2),
                                     150, seed=23)
    assert rep == conc.PoincareReport(
        variance=0.03467013226956315, bound=0.20814005391079185, ratio=0.16657116983558895,
        variance_se=0.0040801564863553585, bound_se=0.0003167312263757197)


def test_run_fluctuations_computes_coefficients_once_per_function(monkeypatch):
    calls = []
    coefficients = spectral.chebyshev_coefficients

    def counted(f, *args, **kwargs):
        calls.append(f.name)
        return coefficients(f, *args, **kwargs)

    monkeypatch.setattr(spectral, "chebyshev_coefficients", counted)
    params = bj.from_ratios(32, 2.0, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    funcs = [spectral.chebyshev_test_function(2, support), spectral.monomial(1),
             spectral.exp_function()]
    res = ex.run_fluctuations(ex.ExperimentConfig(params=params, test_functions=funcs,
                                                  replicates=4, seed=0))
    assert calls == ["gamma2", "x", "exp"]
    assert res.theory_covariance.diagonal() == pytest.approx(res.theory_sigma_sq, rel=1e-12)


def test_config_accepts_numpy_integer_replicates():
    cfg = ex.ExperimentConfig(params=bj.from_ratios(16, 2.0, 2.0, 2.0),
                              test_functions=[spectral.monomial(1)], replicates=np.int32(5), seed=0)
    assert ex.run_fluctuations(cfg).samples.shape == (5, 1)


_REPLICATE_CALLERS = {
    "run_fluctuations": lambda r: ex.run_fluctuations(ex.ExperimentConfig(
        params=bj.from_ratios(16, 2.0, 2.0, 2.0), test_functions=[spectral.monomial(1)],
        replicates=r, seed=0)),
    "lln_check": lambda r: ex.lln_check("proportional", [16], spectral.monomial(1),
                                        replicates=r, seed=0),
    "trotter_gap": lambda r: ex.trotter_gap(bj.from_ratios(16, 2.0, 2.0, 2.0), r, seed=0),
    "extremal_moments": lambda r: ex.extremal_moments(16, 2.0, r, seed=0),
    "jacobi_poincare_check": lambda r: conc.jacobi_poincare_check(
        bj.from_ratios(16, 2.0, 2.0, 2.0), spectral.monomial(1), r, seed=0),
}


@pytest.mark.parametrize("replicates", [0, 1, -3, 2.5])
@pytest.mark.parametrize("caller", sorted(_REPLICATE_CALLERS))
def test_too_few_replicates_raise_parameter_error(caller, replicates):
    with pytest.raises(ParameterError, match="two replicates"):
        _REPLICATE_CALLERS[caller](replicates)


def test_polynomial_fast_path_matches_eigensolver(support):
    poly_funcs = [spectral.chebyshev_test_function(2, support), spectral.monomial(3)]
    eig_funcs = [
        spectral.TestFunction(fn=f.fn, derivative=f.derivative, name=f.name, chebyshev=None)
        for f in poly_funcs
    ]
    base = dict(params=bj.from_ratios(80, 2.0, 2.0, 2.0), replicates=32, seed=5)
    fast = ex.run_fluctuations(ex.ExperimentConfig(test_functions=poly_funcs, **base))
    slow = ex.run_fluctuations(ex.ExperimentConfig(test_functions=eig_funcs, **base))
    assert np.max(np.abs(fast.samples - slow.samples)) <= 1e-8 * 80


def test_extremal_run_suppresses_theory():
    res = ex.run_fluctuations(
        ex.ExperimentConfig(
            params=bj.from_ratios(100, 2.0, 1.0, 1.0),
            test_functions=[spectral.monomial(1)],
            replicates=32,
            seed=0,
        )
    )
    assert res.extremal
    assert res.theory_sigma_sq is None and res.theory_covariance is None


def test_run_result_serialization(small_run, tmp_path):
    doc = small_run.to_json_dict()
    assert doc["schema"] == 1
    assert doc["params"]["n"] == 500
    assert len(doc["variances"]) == 4
    csv_path = tmp_path / "samples.csv"
    small_run.write_samples_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == small_run.replicates + 1


def test_lln_proportional_first_moment():
    pts = ex.lln_check("proportional", [5000], spectral.monomial(1), replicates=2, seed=3)
    assert pts[0].distance <= 0.01


def test_lln_all_regimes_shrink():
    sizes = [125, 250, 500, 1000]
    for regime in ("sublinear", "proportional", "superlinear"):
        pts = ex.lln_check(regime, sizes, spectral.monomial(1), replicates=48, seed=11)
        d = [p.distance for p in pts]
        violations = sum(1 for i in range(len(d) - 1) if d[i + 1] >= d[i])
        assert violations <= 1, (regime, d)


def test_lln_targets():
    pts = ex.lln_check("sublinear", [64], spectral.monomial(1), replicates=2, seed=0)
    assert pts[0].target == pytest.approx(0.5, abs=1e-10)
    pts = ex.lln_check("superlinear", [64], spectral.monomial(2), replicates=2, seed=0)
    assert pts[0].target == pytest.approx(0.25, abs=1e-12)
    pts = ex.lln_check("proportional", [64], spectral.monomial(1), replicates=2, seed=0)
    assert pts[0].target == pytest.approx(0.5, abs=1e-10)


def test_lln_trace_route_matches_eigensolver():
    f = spectral.monomial(2)
    spectrum_f = spectral.TestFunction(fn=f.fn, derivative=f.derivative, name=f.name)
    for regime in ("sublinear", "proportional"):
        fast = ex.lln_check(regime, [50, 200], f, replicates=4, seed=2)
        slow = ex.lln_check(regime, [50, 200], spectrum_f, replicates=4, seed=2)
        for a, b in zip(fast, slow):
            assert a.value == pytest.approx(b.value, rel=1e-12)


def test_lln_regime_validation():
    with pytest.raises(ParameterError):
        ex.lln_check("linearish", [64], spectral.monomial(1))


def test_trotter_gap_properties():
    params = bj.from_ratios(128, 2.0, 2.0, 2.0)
    gap = ex.trotter_gap(params, 10, seed=2)
    assert gap >= 0.0
    det = model.assemble_gram(model.deterministic_factor(params))
    assert model.frobenius_gap_sq(det, det) == 0.0


def test_deviation_check_vanishing_cases():
    rep1 = ex.deviation_check(1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), (64, 128, 256))
    assert abs(rep1.order1) <= 1e-10 and abs(rep1.expected) <= 1e-10
    rep2 = ex.deviation_check(2, Fraction(1), Fraction(1, 4), Fraction(1, 2), (256, 512, 1024))
    assert abs(rep2.order1) <= 1e-6 and rep2.expected == pytest.approx(0.0, abs=1e-12)


def test_deviation_check_beta_four():
    rep = ex.deviation_check(2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), (512, 1024, 2048))
    assert rep.expected == pytest.approx(-3.0 / 128.0, abs=1e-10)
    assert rep.order1 == pytest.approx(rep.expected, rel=0.01)


def test_extremal_moments_beta_one_and_two():
    m2, m4 = ex.extremal_moments(2000, 2.0, 10000, seed=11)
    assert m2 == pytest.approx(1.0 / 16.0, rel=0.05)
    assert m4 == pytest.approx(3.0 / 256.0, rel=0.10)
    assert m4 / m2**2 == pytest.approx(3.0, rel=0.10)  # Gaussian kurtosis
    m2b, _ = ex.extremal_moments(2000, 1.0, 10000, seed=13)
    assert m2b == pytest.approx(1.0 / 8.0, rel=0.05)


def test_extremal_moments_requires_unit_ratios():
    # internal construction pins p = q = 1; the guard trips if not extremal
    with pytest.raises(ParameterError):
        ex.extremal_moments(0, 2.0, 10, seed=0)


def test_diagnostic_helpers_on_gaussian():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200_000)
    assert abs(ex.skewness(x)) <= 0.02
    assert abs(ex.excess_kurtosis(x)) <= 0.04
    assert ex.ks_normal_distance(x) <= 0.005


def test_config_validation():
    params = bj.from_ratios(16, 2.0, 2.0, 2.0)
    with pytest.raises(ParameterError):
        ex.ExperimentConfig(params=params, test_functions=[], replicates=10, seed=0)
    with pytest.raises(ParameterError):
        ex.ExperimentConfig(
            params=params, test_functions=[spectral.monomial(1)], replicates=1, seed=0
        )
