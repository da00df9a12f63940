import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import betainccinv, betaincinv, ndtr, ndtri

import betajacobi as bj
from betajacobi import checks
from betajacobi import concentration as conc
from betajacobi import spectral
from betajacobi.errors import ExtremalRegimeError, ParameterError, QuadratureError


def _sin_like():
    return spectral.TestFunction(
        fn=lambda x: np.sin(3.0 * np.asarray(x, dtype=float)),
        derivative=lambda x: 3.0 * np.cos(3.0 * np.asarray(x, dtype=float)),
        name="sin3x",
    )


def test_weighted_linear_is_equality_case():
    for p in (0.5, 1.0, 2.0, 8.0):
        for q in (0.5, 1.0, 2.0, 8.0):
            rep = conc.beta_poincare_ratio(p, q, spectral.monomial(1), weighted=True)
            assert abs(rep.ratio - 1.0) <= 1e-6


def test_unweighted_linear_exact_values():
    rep = conc.beta_poincare_ratio(3.0, 5.0, spectral.monomial(1))
    assert rep.variance == pytest.approx(15.0 / 576.0, rel=1e-12)
    assert rep.bound == pytest.approx(1.0 / 32.0, rel=1e-12)
    assert rep.ratio < 1.0


def test_quadratic_ratio_below_one():
    rep = conc.beta_poincare_ratio(2.0, 2.0, spectral.monomial(2))
    assert rep.ratio < 1.0


def test_poincare_grid_never_exceeds_one():
    funcs = [spectral.monomial(1), spectral.monomial(2), spectral.monomial(3), _sin_like()]
    for p in (0.5, 1.0, 2.0, 8.0):
        for q in (0.5, 1.0, 2.0, 8.0):
            for f in funcs:
                assert conc.beta_poincare_ratio(p, q, f).ratio <= 1.0 + 1e-8


def test_poincare_requires_derivative():
    f = spectral.TestFunction(fn=lambda x: np.asarray(x) ** 2, name="noderiv")
    with pytest.raises(ParameterError):
        conc.beta_poincare_ratio(2.0, 2.0, f)
    with pytest.raises(ParameterError, match="derivative"):
        _jacobi_point(64, 2.0, 2.0, f, 10, 0)


def _jacobi_point(n, p, q, f, reps, seed):
    """The ensemble variance bound of criterion 12 at one size, beta = 2."""
    return checks._jacobi_poincare((n,), 2.0, p, q, f, reps, seed)["points"][0]


def test_jacobi_variance_bound_holds():
    rep = _jacobi_point(128, 2.0, 2.0, spectral.monomial(1), 2000, 17)
    assert rep["variance"] + 3 * rep["variance_se"] < rep["bound"] - 3 * rep["bound_se"]
    assert rep["ratio"] < 1.0


def test_jacobi_bound_prefactor_n_independent():
    # for f(x) = x the bound is alpha/(4 min(p-1, q-1)) independent of n
    bounds = {}
    for n in (64, 256):
        bounds[n] = _jacobi_point(n, 2.0, 2.0, spectral.monomial(1), 400, 5)["bound"]
    assert bounds[64] == pytest.approx(bounds[256], rel=1e-10)
    assert bounds[64] == pytest.approx(0.25, rel=1e-10)  # alpha/4 at beta = 2


def test_jacobi_bound_constant_function_degenerate():
    rep = _jacobi_point(64, 2.0, 2.0, spectral.monomial(0), 200, 1)
    assert rep["variance"] <= 1e-20
    assert rep["bound"] == 0.0
    assert rep["ratio"] == 0.0


def test_jacobi_bound_trace_route_matches_eigensolver():
    params = bj.from_ratios(96, 2.0, 2.0, 3.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    for f in (spectral.monomial(3), spectral.chebyshev_test_function(5, support)):
        spectrum_f = spectral.TestFunction(fn=f.fn, derivative=f.derivative, name=f.name)
        fast = _jacobi_point(96, 2.0, 3.0, f, 40, 3)
        slow = _jacobi_point(96, 2.0, 3.0, spectrum_f, 40, 3)
        assert fast["variance"] == pytest.approx(slow["variance"], rel=1e-9)
        assert fast["bound"] == pytest.approx(slow["bound"], rel=1e-11)


def test_jacobi_bound_rejects_extremal():
    with pytest.raises(ExtremalRegimeError):
        _jacobi_point(64, 1.0, 1.0, spectral.monomial(1), 100, 0)


def test_coupling_gap_positive_and_scaling():
    gaps = {n: conc.coupling_gap(n, 1.0, 1.0) for n in (100, 1000)}
    assert all(g >= 0.0 for g in gaps.values())
    scaled = [n * n * gaps[n] for n in gaps]
    assert 0.5 <= scaled[0] / scaled[1] <= 2.0


def test_coupling_beats_independent():
    gap = conc.coupling_gap(100, 1.0, 1.0)
    indep = conc.independent_coupling_gap(100, 1.0, 1.0)
    assert gap <= indep


def test_coupling_gap_asymmetric_shapes():
    assert conc.coupling_gap(200, 2.0, 3.0) >= 0.0


@pytest.mark.parametrize("n", [100, 10**6])
def test_coupling_gap_keeps_its_digits_at_large_p_over_q(n):
    # the gap falls as (q / p)^2, with relative corrections of order q / p;
    # forming Y - mu next to 1 left (p/q)^2 gap off by 9.2e-5 to 3.6 at
    # n = 100 and by up to 4.5e6 times at n = 10^6
    scaled = [ratio * ratio * conc.coupling_gap(n, ratio, 1.0) for ratio in (1e10, 1e12, 1e14)]
    assert max(scaled) - min(scaled) <= 1e-8 * min(scaled), scaled


def test_coupling_gap_domain():
    with pytest.raises(ParameterError):
        conc.coupling_gap(1, 0.25, 0.25)  # n <= 1/p


def _legendre_coupling_gap(n, p, q, nodes):
    """The quantile-grid route: Gauss-Legendre in u on (0, 1), the Beta(1, 1)
    Gauss rule, O(nodes^-2)."""
    u, w = spectral.jacobi_probability_quadrature(nodes, 1.0, 1.0)
    sigma = math.sqrt(q) / (2.0 * (p + q) * math.sqrt(n))
    diff = np.sqrt(betaincinv(n * p, n * q, u)) - math.sqrt(p / (p + q)) - sigma * ndtri(u)
    return float(w @ (diff * diff))


# Gauss-Hermite values; the 4096-node Gauss-Legendre rule gave
# 5.850784886689607e-07 and 5.858502152085262e-09, about 3e-6 low.
@pytest.mark.parametrize("n,seed_value,legendre_value", [
    (100, 5.850802494240968e-07, 5.850784886689607e-07),
    (1000, 5.858520227889121e-09, 5.858502152085262e-09),
])
def test_coupling_gap_seed_values(n, seed_value, legendre_value):
    gap = conc.coupling_gap(n, 1.0, 1.0)
    assert gap == pytest.approx(seed_value, rel=1e-9)
    # Richardson extrapolation of the nodes^-2 Legendre error
    coarse, fine = (_legendre_coupling_gap(n, 1.0, 1.0, m) for m in (4096, 8192))
    extrapolated = (4.0 * fine - coarse) / 3.0
    assert abs(gap / extrapolated - 1.0) <= 1e-7
    assert abs(gap - extrapolated) < abs(legendre_value - extrapolated)


def test_independent_coupling_gap_closed_form():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for n in (3, 10, 100, 1000, 10000):
        for p in (0.5, 1.0, 2.0, 4.0):
            for q in (0.5, 1.0, 4.0):
                if n <= max(1.0 / p, 1.0 / q):
                    continue
                # float lgamma differences cancel to O(1/n); evaluate at 40 digits
                a, b = mpmath.mpf(n) * p, mpmath.mpf(n) * q
                mu = mpmath.sqrt(a / (a + b))
                sigma = mpmath.sqrt(q) / (2 * (p + q) * mpmath.sqrt(n))
                mean = mpmath.exp(mpmath.loggamma(a + 0.5) + mpmath.loggamma(a + b)
                                  - mpmath.loggamma(a) - mpmath.loggamma(a + b + 0.5))
                exact = float(a / (a + b) - 2 * mu * mean + mu**2 + sigma**2)
                assert conc.independent_coupling_gap(n, p, q) == pytest.approx(exact, rel=1e-9)


def test_coupling_gap_confirms_by_doubling(monkeypatch):
    rep = conc.coupling_report(5, 0.25, 0.25)  # 16 and 32 nodes differ by 2.4e-8
    assert rep.nodes == 32 and rep.doubling_rel_gap <= 1e-8
    assert rep.gap == conc.coupling_gap(5, 0.25, 0.25)
    monkeypatch.setattr(conc, "_MAX_NODES", 32)
    with pytest.raises(QuadratureError):
        conc.coupling_gap(5, 0.25, 0.25)


def test_coupling_gap_builds_no_legendre_rule(monkeypatch):
    def forbidden(nnodes, shapes):
        raise AssertionError(f"Gauss rules of {nnodes} nodes built for {shapes}")

    # an empty cache, so that a rule cached by an earlier test is built again
    monkeypatch.setattr(spectral, "_BETA_RULES", {})
    monkeypatch.setattr(spectral, "_beta_rules", forbidden)
    assert conc.coupling_gap(10000, 1.0, 1.0) > 0.0
    assert conc.independent_coupling_gap(10000, 1.0, 1.0) > 0.0


@pytest.mark.parametrize("n,p,q", [
    pytest.param(100, 0.0, 1.0, id="0.0-1.0"),
    pytest.param(100, -0.5, 1.0, id="-0.5-1.0"),
    pytest.param(100, 1.0, 0.0, id="1.0-0.0"),
    pytest.param(0, 1.0, 1.0, id="n-0"),
    pytest.param(-5, 1.0, 1.0, id="n-negative"),
])
def test_coupling_gaps_reject_nonpositive_shapes(n, p, q):
    for gap in (conc.coupling_gap, conc.independent_coupling_gap):
        with pytest.raises(ParameterError):
            gap(n, p, q)


@pytest.mark.parametrize("n,p,q", [(100, math.inf, 1.0), (100, 1.0, math.nan),
                                   (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0)])
def test_coupling_gaps_reject_nonfinite_inputs(n, p, q):
    # an infinite or NaN p reached the continued fraction as a NaN
    for gap in (conc.coupling_gap, conc.independent_coupling_gap):
        with pytest.raises(ParameterError, match="finite"):
            gap(n, p, q)


# at p / q from 1e15 the quantile solver divided by a zero derivative, took
# a logarithm of 0 or overflowed, and these escaped as bare ZeroDivisionError,
# ValueError and OverflowError
@pytest.mark.parametrize("n", [100, 10**6])
@pytest.mark.parametrize("ratio", [1e15, 1e16, 1e300])
def test_coupling_solver_failures_are_quadrature_errors(n, ratio):
    for p, q in ((ratio, 1.0), (1.0, ratio)):
        with pytest.raises(QuadratureError, match=r"^Beta\(.*\) quantile at Phi\(.*\) failed"):
            conc.coupling_gap(n, p, q)


def _mp_betainc(mpmath, a, b, x):
    """I_x(a, b) at the working precision: the power term by loggamma and the
    Lentz form of the continued fraction, not the BFRAC form of the route."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if x > (a + 1) / (a + b + 2):
        return 1 - _mp_betainc(mpmath, b, a, 1 - x)
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    c, d = mpmath.mpf(1), 1 / (1 - (a + b) * x / (a + 1))
    fraction, m = d, 1
    while True:
        for num in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d, c = 1 / (1 + num * d), 1 + num / c
            fraction *= d * c
        if abs(d * c - 1) < tol:
            break
        m += 1
    log_power = a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a) - mpmath.log(mpmath.beta(a, b))
    return mpmath.exp(log_power) * fraction


def _mp_tail_quantile(mpmath, a, b, u, t):
    """t with I_t(a, b) = u, by Newton steps in ln t from t (ln I is concave in ln t)."""
    a, b, u, s = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(u), mpmath.log(t)
    for _ in range(20):
        t = mpmath.exp(s)
        i = _mp_betainc(mpmath, a, b, t)
        slope = t ** a * (1 - t) ** (b - 1) / mpmath.beta(a, b) / i
        step = (mpmath.log(i) - mpmath.log(u)) / slope
        s -= step
        if abs(step) < mpmath.mpf(10) ** -30:
            return mpmath.exp(s)
    raise AssertionError(f"no 40-digit quantile of Beta({a}, {b}) at {u}")


def _mp_quantile(mpmath, a, b, z, x, u):
    """The 40-digit Beta(a, b) quantile at z, from the route's x, with u = Phi(-|z|) given."""
    if z <= 0:
        return _mp_tail_quantile(mpmath, a, b, u, x)
    return 1 - _mp_tail_quantile(mpmath, b, a, u, max(1.0 - x, 1e-300))


_SPOT_Z = (-37.5, -37.0, -20.0, -8.0, -2.76, -0.3, 0.0, 0.3, 2.76, 8.0, 20.0, 37.0, 37.5)
_SPOT_SHAPES = (1.25, 2.5, 100.0, 1000.0, 8000.0, 1e6)
_SPOT_PAIRS = [(a, a) for a in _SPOT_SHAPES] + [
    (1.25, 2.5), (2.5, 100.0), (100.0, 1000.0), (8000.0, 1000.0), (1000.0, 8000.0),
    (8000.0, 1e6), (1.25, 1e6), (1e6, 1.25), (2.5, 8000.0), (1e6, 100.0)]


@pytest.mark.parametrize("a,b", _SPOT_PAIRS, ids=[f"{a:g}-{b:g}" for a, b in _SPOT_PAIRS])
def test_beta_quantile_matches_40_digits(a, b):
    """The route's quantile against the 40-digit quantile of the same Phi(z).

    Phi(z) is the float conc._phi(z) that the route inverts; at z = -37.5
    it is still a normal float.  This test measures the inversion;
    test_beta_quantile_at_the_exact_phi measures Phi and the inversion.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    assert conc._phi(-37.5) >= sys.float_info.min
    for z in _SPOT_Z:
        x = conc._beta_quantile(a, b, z)
        u = conc._phi(-abs(z))  # the tail probability solved for
        exact = _mp_quantile(mpmath, a, b, z, x, u)
        assert abs(x - exact) <= 4e-14 * exact, (z, x, exact)


def test_phi_matches_40_digits():
    """Phi from math.erfc at the rounded -z / sqrt 2 alone is 1.9e-13 off at
    z = -37.5; with the rounding corrected, a few ulps."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    worst = max((abs(conc._phi(z) / mpmath.ncdf(z) - 1), z)
                for z in np.linspace(-37.5, 8.0, 4551).tolist())
    assert worst[0] <= 1e-15, worst
    assert conc._phi(-38.7) == 0.0 and conc._phi(-1e308) == 0.0 and conc._phi(1e308) == 1.0


_SMALL_SHAPE_PAIRS = [(a, b) for a, b in _SPOT_PAIRS if min(a, b) <= 2.5]


@pytest.mark.parametrize("a,b", _SMALL_SHAPE_PAIRS, ids=[f"{a:g}-{b:g}" for a, b in _SMALL_SHAPE_PAIRS])
def test_beta_quantile_at_the_exact_phi(a, b):
    """The route's quantile against the 40-digit quantile of the exact Phi(z).

    At a shape near 1 the quantile moves with Phi almost one for one, so
    the error of Phi shows here in full.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for z in _SPOT_Z:
        x = conc._beta_quantile(a, b, z)
        u = mpmath.ncdf(-abs(z))
        exact = _mp_quantile(mpmath, a, b, z, x, u)
        assert abs(x - exact) <= 4e-14 * exact, (z, x, exact)


def test_mp_reference_matches_mpmath_betainc():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a, b, x in ((1.25, 2.5, 0.3), (2.5, 1.25, 0.9), (100.0, 20.0, 0.8), (8000.0, 1000.0, 0.88)):
        ours = _mp_betainc(mpmath, a, b, x)
        assert abs(ours / mpmath.betainc(a, b, 0, x, regularized=True) - 1) < 1e-30


def test_beta_quantiles_match_scipy_over_the_coupling_sweep():
    """Every node of the 64-node rule at every sweep point, against scipy.

    The largest difference, 9e-12 at (1000, 8000), is scipy's own error:
    there the route is within 4e-14 of 40 digits.
    """
    z = spectral.hermite_quadrature(64)[0]
    worst = (0.0,)
    for n in (5, 10, 100, 1000, 10**4, 10**5, 10**6):
        for p in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            for q in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                if n <= max(1.0 / p, 1.0 / q):
                    continue
                a, b = n * p, n * q
                x = np.array([conc._beta_quantile(a, b, zi) for zi in z.tolist()])
                ref = np.where(z <= 0, betaincinv(a, b, ndtr(z)), betainccinv(a, b, ndtr(-z)))
                rel = np.abs(x / ref - 1.0)
                i = int(np.argmax(rel))
                if rel[i] > worst[0]:
                    worst = (rel[i], a, b, float(z[i]), x[i])
    rel, a, b, zi, xi = worst
    assert rel <= 2e-11, worst
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    u = conc._phi(-abs(zi))
    exact = _mp_quantile(mpmath, a, b, zi, xi, u)
    assert abs(xi - exact) <= 4e-14 * exact


def test_coupling_rule_of_1024_nodes_warns_nothing():
    z = spectral.hermite_quadrature(1024)[0]
    a, b = 100.0, 100.0
    assert conc._phi(z[0]) == 0.0  # Phi underflows at the ends
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conc._beta_quantile(a, b, z[0]) == 0.0
        assert conc._beta_quantile(a, b, z[-1]) == 1.0
        gap = conc._gaussian_gap(a, b, math.sqrt(0.5), conc._sigma(100, 1.0, 1.0), 1024)
    assert gap == pytest.approx(conc.coupling_gap(100, 1.0, 1.0), rel=1e-9)
