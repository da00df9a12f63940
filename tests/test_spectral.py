import math
from fractions import Fraction

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import model, paths, spectral
from betajacobi.errors import ParameterError, QuadratureError


@pytest.fixture(scope="module")
def asym():
    return bj.shape_params(0.25, 0.5, 2.0)


@pytest.fixture(scope="module")
def support(asym):
    return bj.support_edges(asym)


def test_shifted_chebyshev_base_cases(support):
    xs = np.linspace(0.0, 1.0, 7)
    assert np.allclose(spectral.shifted_chebyshev(0, xs, support), 2.0)
    assert spectral.shifted_chebyshev(1, support.center, support) == pytest.approx(0.0, abs=1e-14)
    assert spectral.shifted_chebyshev(1, support.lambda_plus, support) == pytest.approx(2.0)


def test_shifted_chebyshev_cosine_identity(support):
    x = support.center + support.half_width * math.cos(math.pi / 9)
    assert spectral.shifted_chebyshev(3, x, support) == pytest.approx(
        2 * math.cos(math.pi / 3), abs=1e-12
    )


def test_chebyshev_forms_match_functions(support):
    from numpy.polynomial.chebyshev import chebval

    xs = np.linspace(0.0, 1.0, 11)
    for m in range(31):
        form = spectral.chebyshev_test_function(m, support).chebyshev
        assert form.coeffs == (0.0,) * m + (2.0,)
        u = (xs - form.center) / form.half_width
        ref = spectral.shifted_chebyshev(m, xs, support)
        assert np.max(np.abs(chebval(u, form.coeffs) - ref)) <= 1e-12 * np.max(np.abs(ref))
    for k in range(13):
        form = spectral.monomial(k).chebyshev
        assert (form.center, form.half_width) == (0.5, 0.5)
        assert np.max(np.abs(chebval(2.0 * xs - 1.0, form.coeffs) - xs**k)) <= 1e-14
        moved = form.on(support.center, support.half_width)
        u = (xs - support.center) / support.half_width
        assert np.max(np.abs(chebval(u, moved.coeffs) - xs**k)) <= 1e-13


def test_chebyshev_form_identity_move_is_exact(support):
    form = spectral.chebyshev_test_function(7, support).chebyshev
    assert form.on(support.center, support.half_width) is form


def test_chebyshev_derivative_closed_form(support):
    # d/dx Gamma_m = 2 m U_{m-1}(u) / r = 2 m sin(m t) / (r sin t), u = cos t
    r = support.half_width
    theta = np.linspace(0.05, math.pi - 0.05, 37)
    x = support.center + r * np.cos(theta)
    for m in range(31):
        closed = 2.0 * m * np.sin(m * theta) / (r * np.sin(theta))
        got = spectral.chebyshev_test_function(m, support).derivative(x)
        assert np.max(np.abs(got - closed)) <= 1e-12 * max(1.0, np.max(np.abs(closed))), m
    with pytest.raises(ParameterError):
        spectral.chebyshev_test_function(-1, support)


def test_coefficients_of_basis_functions(support):
    f2 = spectral.chebyshev_test_function(2, support)
    coeffs = spectral.chebyshev_coefficients(f2, 6, support)
    expected = np.zeros(7)
    expected[2] = 1.0
    assert np.max(np.abs(coeffs.fhat - np.array([0, 0, 1, 0, 0, 0, 0]))) <= 1e-12


def test_orthonormality_grid(support):
    for m in range(1, 11):
        fm = spectral.chebyshev_test_function(m, support)
        fhat = spectral.chebyshev_coefficients(fm, 10, support).fhat
        expected = np.zeros(11)
        expected[m] = 1.0
        assert np.max(np.abs(fhat - expected)) <= 1e-10


def test_coefficients_of_linear_and_quadratic(support):
    c, r = support.center, support.half_width
    lin = spectral.chebyshev_coefficients(spectral.monomial(1), 5, support).fhat
    assert lin[1] == pytest.approx(r / 2, abs=1e-13)
    assert np.max(np.abs(lin[2:])) <= 1e-13
    quad = spectral.chebyshev_coefficients(spectral.monomial(2), 5, support).fhat
    assert quad[1] == pytest.approx(c * r, abs=1e-13)
    assert quad[2] == pytest.approx(r * r / 4, abs=1e-13)


def test_variance_functionals_basis(support):
    for beta in (1.0, 2.0, 4.0):
        for i in (1, 2, 3):
            fi = spectral.chebyshev_test_function(i, support)
            vf = spectral.variance_functionals(fi, 32, beta, support)
            assert vf.sigma_sq == pytest.approx(2.0 / beta * i, rel=1e-10)
            assert vf.tau_sq == pytest.approx(float(i * i), rel=1e-10)
            assert vf.tau_sq >= vf.sigma_sq * beta / 2 - 1e-12


def test_variance_functional_linear(support):
    vf = spectral.variance_functionals(spectral.monomial(1), 32, 2.0, support)
    assert vf.sigma_sq == pytest.approx(support.half_width**2 / 4, rel=1e-12)


def test_tau_identity_cubic(support):
    f = spectral.monomial(3)
    vf = spectral.variance_functionals(f, 32, 2.0, support)
    assert vf.tau_sq == pytest.approx(spectral.tau_integral(f, support), abs=1e-8)


def test_density_mass_and_moments(asym, support):
    assert spectral.integrate_density(spectral.monomial(0), asym) == pytest.approx(1.0, abs=1e-10)
    assert spectral.integrate_density(spectral.monomial(1), asym) == pytest.approx(asym.b, abs=1e-10)
    te = paths.trace_expansion(2, Fraction(1), Fraction(1, 4), Fraction(1, 2), (256, 512, 1024))
    assert spectral.integrate_density(spectral.monomial(2), asym) == pytest.approx(
        te.order0, abs=1e-6
    )


def test_density_moment_chain(asym):
    for k in (1, 2, 3):
        te = paths.trace_expansion(
            k, Fraction(1), Fraction(1, 4), Fraction(1, 2), (256, 512, 1024)
        )
        assert spectral.integrate_density(spectral.monomial(k), asym) == pytest.approx(
            te.order0, abs=1e-5
        )


def test_density_mass_at_degenerate_edges():
    # edges touching 0 and 1: the integrand limit handling keeps mass = 1
    asym_edge = bj.shape_params(0.25, 0.25, 2.0)
    assert spectral.integrate_density(spectral.monomial(0), asym_edge) == pytest.approx(
        1.0, abs=1e-8
    )


def test_deviation_measure_moments(support):
    assert spectral.integrate_deviation(spectral.monomial(0), support) == pytest.approx(0.0, abs=1e-10)
    assert spectral.integrate_deviation(spectral.monomial(1), support) == pytest.approx(0.0, abs=1e-10)
    assert spectral.integrate_deviation(spectral.monomial(2), support) == pytest.approx(
        support.half_width**2 / 4, abs=1e-12
    )


def test_edge_weight_integral_value(support, asym):
    assert spectral.edge_weight_integral(support) == pytest.approx(
        2 * math.pi * asym.a, abs=1e-8
    )


def test_arcsine_integral():
    assert spectral.arcsine_integral(spectral.monomial(0)) == pytest.approx(1.0, abs=1e-12)
    assert spectral.arcsine_integral(spectral.monomial(1)) == pytest.approx(0.5, abs=1e-12)


# log(x - min x) and its derivative: infinite at the lowest node of any grid
_SINGULAR = spectral.TestFunction(fn=lambda x: np.log(x - np.min(x)),
                                  derivative=lambda x: 1.0 / (x - np.min(x)), name="log")
_LOG = spectral.TestFunction(fn=np.log, derivative=lambda x: 1.0 / x, name="log")


@pytest.mark.parametrize("integral", [
    lambda s, a: spectral.chebyshev_coefficients(_SINGULAR, 8, s),
    lambda s, a: spectral.tau_integral(_SINGULAR, s),
    lambda s, a: spectral.integrate_density(_SINGULAR, a),
    lambda s, a: spectral.integrate_deviation(_SINGULAR, s),
    lambda s, a: spectral.arcsine_integral(_SINGULAR),
    lambda s, a: spectral.arcsine_integral(np.log),
    lambda s, a: spectral.tau_integral(_LOG, bj.SupportInterval(0.0, 0.5)),
], ids=["chebyshev_coefficients", "tau_integral", "integrate_density", "integrate_deviation",
        "arcsine_integral", "arcsine_integral-log", "tau_integral-log-edge"])
def test_non_finite_integrand_raises_quadrature_error(integral, support, asym):
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError):
        integral(support, asym)


@pytest.mark.parametrize("make", [
    lambda s: spectral.monomial(3),
    lambda s: spectral.chebyshev_test_function(4, s),
], ids=["x^3", "gamma4"])
def test_squared_derivative_form_is_exact(make, support):
    f = make(support)
    g = spectral.squared_derivative(f)
    assert g.is_polynomial
    assert (g.chebyshev.center, g.chebyshev.half_width) == (f.chebyshev.center,
                                                            f.chebyshev.half_width)
    x = np.linspace(support.lambda_minus, support.lambda_plus, 41)
    series = np.polynomial.Chebyshev(g.chebyshev.coeffs, domain=[
        g.chebyshev.center - g.chebyshev.half_width, g.chebyshev.center + g.chebyshev.half_width])
    assert np.allclose(series(x), f.derivative(x) ** 2, rtol=1e-12, atol=1e-10)
    assert np.allclose(g(x), f.derivative(x) ** 2, rtol=0, atol=0)
    assert not spectral.squared_derivative(spectral.exp_function()).is_polynomial
    with pytest.raises(ParameterError):
        spectral.squared_derivative(spectral.TestFunction(fn=np.exp))


def test_trace_statistic_routes_agree(support):
    params = bj.from_ratios(40, 2.0, 2.0, 2.0)
    funcs = [spectral.monomial(2), spectral.chebyshev_test_function(3, support)]
    plain = [spectral.TestFunction(fn=f.fn, name=f.name) for f in funcs]
    banded = model.map_replicates(params, 4, 12, spectral.trace_statistic(funcs))
    on_support = model.map_replicates(
        params, 4, 12, spectral.trace_statistic(funcs, support.center, support.half_width))
    spectrum = model.map_replicates(params, 4, 12, spectral.trace_statistic(plain))
    assert banded.shape == spectrum.shape == (12, 2)
    assert np.allclose(banded, spectrum, rtol=1e-11, atol=1e-11)
    assert np.allclose(on_support, spectrum, rtol=1e-11, atol=1e-11)


def test_stieltjes_leading_examples(asym):
    m0, _ = spectral.stieltjes_pair(2.0, bj.shape_params(0.25, 0.25, 2.0))
    assert m0 == pytest.approx(math.sqrt(2.5) - 1.0, abs=1e-12)
    m0big, _ = spectral.stieltjes_pair(1e6, asym)
    assert m0big * 1e6 == pytest.approx(1.0, abs=1e-5)


def test_stieltjes_quadrature_oracle():
    # m0(x) equals the integral of the density against 1/(x - t)
    asym = bj.shape_params(0.25, 0.25, 2.0)
    x0 = 2.0
    m0, _ = spectral.stieltjes_pair(x0, asym)
    resolvent = spectral.integrate_density(
        spectral.TestFunction(fn=lambda t: 1.0 / (x0 - t), name="resolvent"), asym
    )
    assert m0 == pytest.approx(resolvent, abs=1e-9)


def test_stieltjes_correction_tail(asym, support):
    _, m1 = spectral.stieltjes_pair(1e3, asym)
    assert m1 * 1e9 == pytest.approx(-(support.half_width**2) / 4, rel=0.01)


def test_stieltjes_quadratic_equation(asym):
    a, b = asym.a, asym.b
    for x in (1.5, 3.0, -0.7):
        m0, _ = spectral.stieltjes_pair(x, asym)
        resid = a * m0 * m0 + ((b - a) - (1 - 2 * a) * x) / (x * (1 - x)) * m0 + (1 - a) / (
            x * (1 - x)
        )
        assert abs(resid) <= 1e-10


def test_stieltjes_domain_errors(asym, support):
    with pytest.raises(ParameterError):
        spectral.stieltjes_pair(support.center, asym)
    with pytest.raises(ParameterError):
        spectral.stieltjes_pair(0.0, bj.shape_params(0.25, 0.25, 2.0))


def test_jacobi_roots_small_cases():
    assert spectral.jacobi_roots(1, 0.0, 0.0)[0] == pytest.approx(0.5, abs=1e-14)
    r, s = 2.3, 0.7
    assert spectral.jacobi_roots(1, r, s)[0] == pytest.approx((r + 1) / (r + s + 2), abs=1e-13)


def test_jacobi_roots_resolvent_model(asym):
    # (1/n) sum 1/(2 - root) tracks m0(2) + m1(2)/n with O(1/n^2) residual
    a, b = asym.a, asym.b
    m0, m1 = spectral.stieltjes_pair(2.0, asym)
    residuals = {}
    for n in (100, 200):
        roots = spectral.jacobi_roots(n, n * (b / a - 1), n * ((1 - b) / a - 1))
        residuals[n] = abs(float(np.mean(1.0 / (2.0 - roots))) - m0 - m1 / n)
    assert 2.0 <= residuals[100] / residuals[200] <= 8.0


def test_jacobi_probability_quadrature_moments():
    for p, q in ((2.0, 3.0), (0.5, 0.5), (8.0, 0.5)):
        nodes, w = spectral.jacobi_probability_quadrature(96, p, q)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert float(w @ nodes) == pytest.approx(p / (p + q), rel=1e-10)
        exact_var = p * q / ((p + q) ** 2 * (p + q + 1))
        assert float(w @ (nodes - p / (p + q)) ** 2) == pytest.approx(exact_var, rel=1e-9)


def test_test_function_library_derivatives(support):
    grid = np.linspace(0.05, 0.95, 11)
    for f in (
        spectral.monomial(1),
        spectral.monomial(4),
        spectral.exp_function(),
        spectral.chebyshev_test_function(3, support),
    ):
        assert f.check_derivative(grid)


def test_piecewise_linear_flagged():
    f = spectral.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert "not C1" in f.name
    assert not f.is_polynomial
    assert f(np.asarray(0.25)) == pytest.approx(0.5)


def test_nondecay_warning(support):
    f = spectral.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    with pytest.warns(UserWarning):
        vf = spectral.variance_functionals(f, 64, 2.0, support)
    assert not vf.coefficients_decayed
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vf_smooth = spectral.variance_functionals(spectral.monomial(2), 64, 2.0, support)
    assert vf_smooth.coefficients_decayed


def test_quadrature_rejects_nonfinite(asym):
    bad = spectral.TestFunction(fn=lambda x: np.where(x > 0.5, np.inf, 1.0), name="bad")
    with pytest.raises(Exception):
        spectral.integrate_density(bad, asym)


def test_gauss_legendre_rule_is_cached_and_read_only():
    t, w = spectral._gauss_legendre(64)
    t2, w2 = spectral._gauss_legendre(64)
    assert t2 is t and w2 is w
    assert not t.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ParameterError):
        spectral._gauss_legendre(0)


def test_beta_rule_is_cached_read_only_and_unchanged():
    nodes, w = spectral.jacobi_probability_quadrature(160, 0.5, 8.0)
    again = spectral.jacobi_probability_quadrature(160, 0.5, 8.0)
    assert again[0] is nodes and again[1] is w
    assert not nodes.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    fresh_nodes, fresh_w = spectral._beta_rule.__wrapped__(160, 0.5, 8.0)
    assert np.array_equal(fresh_nodes, nodes) and np.array_equal(fresh_w, w)


@pytest.mark.parametrize("nodes", [64, 512])
def test_gauss_legendre_rule_matches_numpy(nodes):
    t, w = spectral._gauss_legendre(nodes)
    t_ref, w_ref = np.polynomial.legendre.leggauss(nodes)
    assert np.max(np.abs(t - t_ref)) <= 1e-15
    # both rules lose digits in the weights of the outermost nodes
    interior = np.abs(t_ref) < 0.9
    assert np.max(np.abs(w[interior] / w_ref[interior] - 1.0)) <= 1e-12
    assert w.sum() == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize(
    "nnodes,p,q",
    [(800, 1e3, 1e3), (400, 1e4, 1e4), (800, 1e4, 1e4), (800, 1e4, 3.0)],
)
def test_jacobi_probability_quadrature_large_shapes(nnodes, p, q):
    nodes, w = spectral.jacobi_probability_quadrature(nnodes, p, q)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    mean = p / (p + q)
    assert float(w @ nodes) == pytest.approx(mean, rel=1e-10)
    exact_var = p * q / ((p + q) ** 2 * (p + q + 1))
    assert float(w @ (nodes - mean) ** 2) == pytest.approx(exact_var, rel=1e-9)
