import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import checks, cli
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
    return ex.run_fluctuations(bj.from_ratios(500, 2.0, 2.0, 2.0), funcs, 3000, 101)


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
    res = ex.run_fluctuations(bj.from_ratios(200, 2.0, 2.0, 2.0), [spectral.monomial(0)], 50, 7)
    assert np.max(np.abs(res.samples)) <= 1e-12 * 200


def test_map_replicates_matches_hand_loop(support):
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)

    def statistic(gram):
        return model.chebyshev_traces(gram, support.center, support.half_width, 4)

    expected = np.empty((64, 5))
    traces = np.empty(64)
    for m in range(64):
        gram = model.assemble_gram(model.sample_factor(params, 99, m))
        expected[m] = statistic(gram)
        traces[m] = gram.diag.sum()
    assert np.array_equal(model.map_replicates(params, 99, 64, statistic), expected)
    scalars = model.map_replicates(params, 99, 64, lambda grams: grams.diag.sum(axis=-1))
    assert scalars.shape == (64, 1)
    assert np.array_equal(scalars[:, 0], traces)
    funcs = [spectral.chebyshev_test_function(1, support), spectral.monomial(2)]
    first, again = (ex.run_fluctuations(params, funcs, 64, 99) for _ in range(2))
    assert np.array_equal(first.samples, again.samples)
    assert np.array_equal(first.covariance, again.covariance)


def test_normal_cdf_matches_scipy_ndtr():
    ndtr = pytest.importorskip("scipy.special").ndtr
    z = np.linspace(-8.0, 8.0, 16001)
    # both evaluate an erfc at the same rounded argument; the gate, fixed
    # before the first run, allows two implementations a few ulps each
    assert np.max(np.abs(ex._normal_cdf(z) / ndtr(z) - 1.0)) <= 1e-14


def test_sharded_run_is_bit_identical_at_the_small_clt_inputs(monkeypatch):
    # fluct --n 64 --beta 2 --p 2 --q 2 --funcs gamma1..gamma2,x --reps 5000
    # --seed 1, sharded over 2 processes whatever this host's clock says, and
    # on 1 CPU
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)
    funcs = cli._parse_funcs("gamma1..gamma2,x", params)
    monkeypatch.setattr(model, "_SHARD_MIN_S", 1e-12)
    forked = []
    fork_worker = model._fork_worker
    monkeypatch.setattr(model, "_fork_worker",
                        lambda fill, lo, hi: forked.append((lo, hi)) or fork_worker(fill, lo, hi))
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        runs[cpus] = ex.run_fluctuations(params, funcs, 5000, 1)
    assert len(forked) == 1
    arrays = 0
    for field in dataclasses.fields(ex.RunResult):
        sharded, serial = getattr(runs[2], field.name), getattr(runs[1], field.name)
        if isinstance(serial, np.ndarray):
            arrays += 1
            assert sharded.dtype == serial.dtype and sharded.shape == serial.shape, field.name
            assert sharded.tobytes() == serial.tobytes(), field.name
        elif field.name != "wall_clock_s":
            assert sharded == serial, field.name
    assert arrays == 9


def test_fixed_seed_values_pinned():
    # values first computed by each check's own replicate loop before the
    # checks shared model.map_replicates, re-taken on Cheng's Beta draws and
    # on the Gram matrix formed from the squared factor entries
    gap = checks._frobenius_gap((128, 256), 10, seed=41)
    assert gap["gap_over_log_n"][0] == 0.09732572695577854 / math.log(128)
    moments = checks._extremal(200, 2.0, 500, seed=51)
    assert (moments["second_moment"], moments["fourth_moment"]) == (
        0.06635279350233461, 0.012645378449283201)
    lln = checks._lln(("proportional",), (100, 200), spectral.monomial(1), 2.0, 2.0, 2.0, 8, 61)
    assert [p["value"] for p in lln["points"]] == [0.5007261323292439, 0.5004812999829856]
    point = checks._jacobi_poincare(
        (64,), 2.0, 2.0, 2.0, spectral.monomial(1), 200, 31)["points"][0]
    assert point["variance"] == 0.04963326231553999
    assert point["bound"] == 0.25


def test_fixed_seed_routes_pinned():
    # means, variances and the Poincare report, first computed one replicate
    # at a time before the replicate engine ran in blocks, re-taken on
    # Cheng's Beta draws and on the Gram matrix formed from the squared
    # factor entries
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    funcs = [spectral.chebyshev_test_function(m, support) for m in (1, 2)] + [spectral.monomial(1)]
    res = ex.run_fluctuations(params, funcs, 300, 17)
    assert res.means.tolist() == [0.06201543821614097, -42.65459735454776, 32.0134267362305]
    assert res.variances.tolist() == [1.0284149514920689, 1.9716560383814583, 0.04820695085119072]
    res = ex.run_fluctuations(bj.from_ratios(32, 1.0, 2.0, 3.0),
                              [spectral.exp_function(), spectral.monomial(1)], 100, 19)
    assert res.means.tolist() == [49.04517799577084, 12.87028774643031]
    assert res.variances.tolist() == [0.2063382451125651, 0.07978690996831168]
    point = checks._jacobi_poincare(
        (48,), 2.0, 2.0, 3.0, spectral.monomial(2), 150, 23)["points"][0]
    assert point == {
        "n": 48, "variance": 0.031574165191108484, "bound": 0.20832763730835574,
        "ratio": 0.15156013671087742, "variance_se": 0.0037642576787392033,
        "bound_se": 0.0003022588818996642}


def test_quarter_shape_values_pinned():
    # beta = 1/2 puts the first c' shape at 1/4; its pair took the gamma ratio,
    # with the whole set, until each pair with both shapes at most 2^24 took
    # Cheng's BA, and the values were re-taken then
    params = bj.from_ratios(64, 0.5, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    funcs = [spectral.chebyshev_test_function(m, support) for m in (1, 2)] + [spectral.monomial(1)]
    res = ex.run_fluctuations(params, funcs, 300, 17)
    assert res.means.tolist() == [0.09354019839344162, -39.6974249634271, 32.02025204702094]
    assert res.variances.tolist() == [4.031965444355981, 7.645435111240383, 0.18899838020418627]
    assert hashlib.sha256(res.samples.tobytes()).hexdigest() == (
        "418ad3e180f1eaea37da7184fd9171c02d47a473442e75e1c2cc8350ac93d707")


def test_all_gamma_values_pinned():
    # beta = 2^26 puts a shape above 2^24 in every Beta pair, so every draw
    # is a gamma ratio; the values were taken before the route was chosen
    # pair by pair, which left sets of gamma pairs alone bit-identical
    params = bj.from_ratios(8, 2.0**26, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    funcs = [spectral.chebyshev_test_function(m, support) for m in (1, 2)] + [spectral.monomial(1)]
    res = ex.run_fluctuations(params, funcs, 300, 17)
    assert res.means.tolist() == [-1.6976776720273126e-05, -6.365592467034713, 3.999996324420021]
    assert res.variances.tolist() == [2.7935441661017832e-08, 6.482208752909349e-08,
                                      1.309473827860213e-09]
    assert hashlib.sha256(res.samples.tobytes()).hexdigest() == (
        "4d9c5eafd7d78aaddc7555ee64ae918624dba2f43562a6851d2a3348c328aa14")


def test_small_shape_refill_values_pinned():
    # at beta = 1e-3 every replicate's Cheng array runs out and refills from
    # the next pools of its stream; the values were taken when refills moved
    # into the block (before, each such row was redrawn alone, with fresh
    # pairs from pool 0 after its array)
    params = bj.from_ratios(64, 1e-3, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    funcs = [spectral.chebyshev_test_function(m, support) for m in (1, 2)] + [spectral.monomial(1)]
    res = ex.run_fluctuations(params, funcs, 300, 17)
    assert res.means.tolist() == [0.8857579273442722, 183.79290188220023, 32.1917722166709]
    assert res.variances.tolist() == [256.2710729393654, 89.4058882483984, 12.012706544032746]
    assert hashlib.sha256(res.samples.tobytes()).hexdigest() == (
        "479cf112d388ae9108913dc80bacfd7f274e5d289f73bd00494da3ffa03a90b1")


def test_shape_moments_match_the_power_formula():
    # the power formula, column by column: recentred, c**3 and c**4 by pow.
    # Recentring moves c by the rounding of the column mean, about
    # sqrt(5000) eps 40 = 3e-13 for the first column, which moves the
    # skewness by 3 / sigma times that; products move it by a few eps
    rng = np.random.default_rng(5)
    samples = np.column_stack([40.0 + 3.0 * rng.standard_normal(5000), rng.gamma(2.0, size=5000),
                               np.full(5000, 7.5)])
    samples -= samples.mean(axis=0)
    skew, kurt = ex._shape_moments(np.ascontiguousarray(samples.T))
    for j in range(3):
        c = samples[:, j] - samples[:, j].mean()
        m2 = np.mean(c**2)
        expected = (0.0, 0.0) if m2 == 0 else (np.mean(c**3) / m2**1.5, np.mean(c**4) / m2**2 - 3.0)
        for got in ((skew[j], kurt[j]), (ex.skewness(samples[:, j]), ex.excess_kurtosis(samples[:, j]))):
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert (skew[2], kurt[2]) == (0.0, 0.0)


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
    res = ex.run_fluctuations(params, funcs, 4, 0)
    assert calls == ["gamma2", "x", "exp"]
    assert res.theory_covariance.diagonal() == pytest.approx(res.theory_sigma_sq, rel=1e-12)
    # bit-identical to each function run alone
    alone = [spectral.variance_functionals(f, 64, 2.0, support) for f in funcs]
    assert res.theory_sigma_sq.tolist() == [vf.sigma_sq for vf in alone]
    assert np.array_equal(res.theory_covariance, spectral.limit_covariance(
        np.array([vf.coefficients for vf in alone]), 2.0))


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_theory_reaches_high_chebyshev_degrees(beta):
    # Gamma_m = 2 T_m has the single coefficient 1 at degree m, so its CLT
    # variance is (2/beta) m whatever m; a series cut at a fixed length lost
    # m > 64.  m = 1023 is the top degree whose 2 m terms stay below the panels
    params = bj.from_ratios(32, beta, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    orders = (3, 60, 70, 100, 1023)
    funcs = [spectral.chebyshev_test_function(m, support) for m in orders]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a polynomial shows no false "no visible decay"
        res = ex.run_fluctuations(params, funcs, 4, 0)
    assert res.theory_sigma_sq == pytest.approx([2.0 / beta * m for m in orders], rel=1e-9)


def test_theory_refuses_aliased_chebyshev_degrees(monkeypatch):
    # 2 * 1024 terms alias on the 2048 theory panels (read 4096 before); the
    # run is refused before any replicate is drawn
    monkeypatch.setattr(model, "map_replicates", lambda *args: pytest.fail("sampled"))
    params = bj.from_ratios(32, 2.0, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    with pytest.raises(ParameterError, match="alias"):
        ex.run_fluctuations(params, [spectral.chebyshev_test_function(1024, support)], 4, 0)


def test_config_accepts_numpy_integer_replicates():
    res = ex.run_fluctuations(bj.from_ratios(16, 2.0, 2.0, 2.0), [spectral.monomial(1)],
                              np.int32(5), 0)
    assert res.samples.shape == (5, 1) and res.to_json_dict()["replicates"] == 5


_REPLICATE_CALLERS = {
    "run_fluctuations": lambda r: ex.run_fluctuations(
        bj.from_ratios(16, 2.0, 2.0, 2.0), [spectral.monomial(1)], r, 0),
    "lln_check": lambda r: checks._lln(("proportional",), (16, 32), spectral.monomial(1),
                                       2.0, 2.0, 2.0, r, 0),
    "trotter_gap": lambda r: checks._frobenius_gap((16, 32), r, 0),
    "extremal_moments": lambda r: checks._extremal(16, 2.0, r, 0),
    "jacobi_poincare_check": lambda r: checks._jacobi_poincare(
        (16,), 2.0, 2.0, 2.0, spectral.monomial(1), r, 0),
}


@pytest.mark.parametrize("replicates", [0, 1, -3, 2.5])
@pytest.mark.parametrize("caller", sorted(_REPLICATE_CALLERS))
def test_too_few_replicates_raise_parameter_error(caller, replicates):
    with pytest.raises(ParameterError, match="replicates must be an integer >= 2"):
        _REPLICATE_CALLERS[caller](replicates)


def test_polynomial_fast_path_matches_eigensolver(support):
    poly_funcs = [spectral.chebyshev_test_function(2, support), spectral.monomial(3)]
    eig_funcs = [
        spectral.TestFunction(fn=f.fn, derivative=f.derivative, name=f.name, chebyshev=None)
        for f in poly_funcs
    ]
    params = bj.from_ratios(80, 2.0, 2.0, 2.0)
    fast = ex.run_fluctuations(params, poly_funcs, 32, 5)
    slow = ex.run_fluctuations(params, eig_funcs, 32, 5)
    assert np.max(np.abs(fast.samples - slow.samples)) <= 1e-8 * 80


def test_extremal_run_suppresses_theory():
    res = ex.run_fluctuations(bj.from_ratios(100, 2.0, 1.0, 1.0), [spectral.monomial(1)], 32, 0)
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


def _lln_points(regime, sizes, f, reps, seed):
    """The points of the LLN runner at beta = p = q = 2."""
    return checks._lln((regime,), sizes, f, 2.0, 2.0, 2.0, reps, seed)["points"]


def test_lln_proportional_first_moment():
    pts = _lln_points("proportional", (64, 5000), spectral.monomial(1), 2, 3)
    assert pts[1]["n"] == 5000 and pts[1]["distance"] <= 0.01


def test_lln_all_regimes_shrink():
    sizes = (125, 250, 500, 1000)
    for regime in ("sublinear", "proportional", "superlinear"):
        d = [p["distance"] for p in _lln_points(regime, sizes, spectral.monomial(1), 48, 11)]
        violations = sum(1 for i in range(len(d) - 1) if d[i + 1] >= d[i])
        assert violations <= 1, (regime, d)


def test_lln_targets():
    pts = _lln_points("sublinear", (64, 128), spectral.monomial(1), 2, 0)
    assert pts[0]["target"] == pytest.approx(0.5, abs=1e-10)
    pts = _lln_points("superlinear", (64, 128), spectral.monomial(2), 2, 0)
    assert pts[0]["target"] == pytest.approx(0.25, abs=1e-12)
    pts = _lln_points("proportional", (64, 128), spectral.monomial(1), 2, 0)
    assert pts[0]["target"] == pytest.approx(0.5, abs=1e-10)


def test_lln_trace_route_matches_eigensolver():
    f = spectral.monomial(2)
    spectrum_f = spectral.TestFunction(fn=f.fn, derivative=f.derivative, name=f.name)
    for regime in ("sublinear", "proportional"):
        fast = _lln_points(regime, (50, 200), f, 4, 2)
        slow = _lln_points(regime, (50, 200), spectrum_f, 4, 2)
        for a, b in zip(fast, slow):
            assert a["value"] == pytest.approx(b["value"], rel=1e-12)


def test_lln_regime_validation():
    with pytest.raises(ParameterError):
        _lln_points("linearish", (64,), spectral.monomial(1), 64, 0)


def test_lln_checks_every_regime_before_sampling(monkeypatch):
    def sample(*args):
        raise AssertionError("sampled before the regimes were checked")

    monkeypatch.setattr(model, "map_replicates", sample)
    with pytest.raises(ParameterError, match="got 'bogus'"):
        checks._lln(("proportional", "bogus"), (40, 80), spectral.monomial(1),
                    2.0, 2.0, 2.0, 4, 0)


def test_trotter_gap_properties():
    params = bj.from_ratios(128, 2.0, 2.0, 2.0)
    assert checks._frobenius_gap((128, 256), 10, seed=2)["gap_over_log_n"][0] >= 0.0
    det = model.assemble_gram(model.deterministic_factor(params))
    assert model.frobenius_gap_sq(det, det) == 0.0


def _deviation_case(k, beta, base_n):
    return checks._deviation(0.25, 0.5, ((k, beta, base_n),))["cases"][0]


def test_deviation_check_vanishing_cases():
    rep1 = _deviation_case(1, 4.0, 64)
    assert abs(rep1["order1"]) <= 1e-10 and abs(rep1["expected"]) <= 1e-10
    rep2 = _deviation_case(2, 2.0, 256)
    assert abs(rep2["order1"]) <= 1e-6 and rep2["expected"] == pytest.approx(0.0, abs=1e-12)


def test_deviation_check_beta_four():
    rep = _deviation_case(2, 4.0, 512)
    assert rep["expected"] == pytest.approx(-3.0 / 128.0, abs=1e-10)
    assert rep["order1"] == pytest.approx(rep["expected"], rel=0.01)


def test_deviation_check_quartic():
    # (2/beta - 1) nu(x^4) = -(1/2)(97/512 - 443/4096) at a = 1/4, b = 1/2
    rep = _deviation_case(4, 4.0, 512)
    assert rep["expected"] == pytest.approx(-333.0 / 8192.0, abs=1e-10)
    assert rep["order1"] == pytest.approx(rep["expected"], rel=0.01)


def test_extremal_moments_beta_one_and_two():
    moments = checks._extremal(2000, 2.0, 10000, seed=11)
    m2, m4 = moments["second_moment"], moments["fourth_moment"]
    assert m2 == pytest.approx(1.0 / 16.0, rel=0.05)
    assert m4 == pytest.approx(3.0 / 256.0, rel=0.10)
    assert m4 / m2**2 == pytest.approx(3.0, rel=0.10)  # Gaussian kurtosis
    m2b = checks._extremal(2000, 1.0, 10000, seed=13)["second_moment"]
    assert m2b == pytest.approx(1.0 / 8.0, rel=0.05)


def test_diagnostic_helpers_on_gaussian():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200_000)
    assert abs(ex.skewness(x)) <= 0.02
    assert abs(ex.excess_kurtosis(x)) <= 0.04
    assert ex.ks_normal_distance(x) <= 0.005


def test_config_validation():
    params = bj.from_ratios(16, 2.0, 2.0, 2.0)
    with pytest.raises(ParameterError, match="test function"):
        ex.run_fluctuations(params, [], 10, 0)
    with pytest.raises(ParameterError, match="replicates must be an integer >= 2"):
        ex.run_fluctuations(params, [spectral.monomial(1)], 1, 0)
