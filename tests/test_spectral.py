import math
import tracemalloc

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import eig, model, paths, spectral
from betajacobi.errors import ParameterError, QuadratureError


@pytest.fixture(scope="module")
def asym():
    return bj.shape_params(0.25, 0.5, 2.0)


@pytest.fixture(scope="module")
def support(asym):
    return bj.support_edges(asym)


def test_shifted_chebyshev_base_cases(support):
    xs = np.linspace(0.0, 1.0, 7)
    gamma0, gamma1 = (spectral.chebyshev_test_function(m, support) for m in (0, 1))
    assert np.allclose(gamma0(xs), 2.0)
    assert gamma1(support.center) == pytest.approx(0.0, abs=1e-14)
    assert gamma1(support.lambda_plus) == pytest.approx(2.0)


def test_shifted_chebyshev_cosine_identity(support):
    # Gamma_m(c + r cos t) = 2 cos(m t); t is read back from x as the form
    # reads it, so that rounding x is not charged to the evaluation
    x = support.center + support.half_width * np.cos(np.linspace(0.0, math.pi, 37))
    theta = np.arccos((x - support.center) / support.half_width)
    for m in range(101):
        got = spectral.chebyshev_test_function(m, support)(x)
        assert np.max(np.abs(got - 2.0 * np.cos(m * theta))) <= 1e-13, m


def test_chebyshev_forms_match_functions(support):
    from numpy.polynomial.chebyshev import chebval

    xs = np.linspace(0.0, 1.0, 11)
    for m in range(31):
        form = spectral.chebyshev_test_function(m, support).chebyshev
        assert form.coeffs == (0.0,) * m + (2.0,)
        assert (form.center, form.half_width) == (support.center, support.half_width)
    for k in range(13):
        form = spectral.monomial(k).chebyshev
        assert (form.center, form.half_width) == (0.5, 0.5)
        assert np.max(np.abs(chebval(2.0 * xs - 1.0, form.coeffs) - xs**k)) <= 1e-14
        moved = form.on(support.center, support.half_width)
        u = (xs - support.center) / support.half_width
        assert np.max(np.abs(chebval(u, moved.coeffs) - xs**k)) <= 1e-13


def test_monomial_forms_match_numpy_basis_change():
    # numpy's own basis change is the reference, bit for bit
    for k in range(13):
        reference = np.polynomial.Polynomial.basis(k).convert(
            kind=np.polynomial.Chebyshev, domain=[0.0, 1.0]).coef
        assert spectral.monomial(k).chebyshev.coeffs == tuple(reference.tolist()), k


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
    fhat = spectral.chebyshev_coefficients(f2, 6, support)
    assert np.max(np.abs(fhat - np.array([0, 0, 1, 0, 0, 0, 0]))) <= 1e-12
    assert not fhat.flags.writeable


def test_chebyshev_coefficients_refuse_aliased_degrees(support, monkeypatch):
    # cos(n t) and cos((2 nodes - n) t) agree on the grid of `nodes` panels
    f = spectral.chebyshev_test_function(5, support)
    monkeypatch.setattr(spectral, "THETA_NODES", 64)
    assert spectral.chebyshev_coefficients(f, 63, support)[5] == pytest.approx(1.0)
    with pytest.raises(ParameterError, match="alias"):
        spectral.chebyshev_coefficients(f, 64, support)
    with pytest.raises(ParameterError, match="alias"):  # refused before f is evaluated
        spectral.chebyshev_coefficients(lambda x: pytest.fail("evaluated"), 64, support)


@pytest.mark.parametrize("f", [
    spectral.exp_function(),
    spectral.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
    spectral.TestFunction(fn=lambda x: 3.0, name="constant"),
], ids=["exp", "pwl", "scalar-constant"])
def test_chebyshev_coefficients_match_the_cosine_sum(f, support, monkeypatch):
    # the trapezoid sum (1/pi) sum_j w_j f(x_j) cos(n t_j), written out
    nodes, N = 256, 40
    monkeypatch.setattr(spectral, "THETA_NODES", nodes)
    t = np.linspace(0.0, math.pi, nodes + 1)
    w = np.full(nodes + 1, math.pi / nodes)
    w[[0, -1]] *= 0.5
    vals = np.broadcast_to(f(support.center + support.half_width * np.cos(t)), t.shape)
    expected = [math.fsum(w * vals * np.cos(n * t)) / math.pi for n in range(N + 1)]
    fhat = spectral.chebyshev_coefficients(f, N, support)
    assert fhat.shape == (N + 1,) and fhat.flags.c_contiguous and not fhat.flags.writeable
    assert np.max(np.abs(fhat - expected)) <= 1e-14 * max(1.0, np.max(np.abs(vals)))


def test_chebyshev_coefficients_peak_memory(support):
    # the transform holds a few arrays of 2 nodes doubles (32 KiB at 2048
    # nodes); an (N + 1) x (nodes + 1) cosine table at N = 2046 took 33 MB
    f = spectral.chebyshev_test_function(1023, support)
    tracemalloc.start()
    try:
        fhat = spectral.chebyshev_coefficients(f, 2046, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fhat[1023] == pytest.approx(1.0, abs=1e-12)
    assert peak <= 1 << 20


def test_orthonormality_grid(support):
    for m in range(1, 11):
        fm = spectral.chebyshev_test_function(m, support)
        fhat = spectral.chebyshev_coefficients(fm, 10, support)
        expected = np.zeros(11)
        expected[m] = 1.0
        assert np.max(np.abs(fhat - expected)) <= 1e-10


def test_coefficients_of_linear_and_quadratic(support):
    c, r = support.center, support.half_width
    lin = spectral.chebyshev_coefficients(spectral.monomial(1), 5, support)
    assert lin[1] == pytest.approx(r / 2, abs=1e-13)
    assert np.max(np.abs(lin[2:])) <= 1e-13
    quad = spectral.chebyshev_coefficients(spectral.monomial(2), 5, support)
    assert quad[1] == pytest.approx(c * r, abs=1e-13)
    assert quad[2] == pytest.approx(r * r / 4, abs=1e-13)


def test_variance_functionals_basis(support):
    for beta in (1.0, 2.0, 4.0):
        for i in (1, 2, 3):
            fi = spectral.chebyshev_test_function(i, support)
            vf = spectral.variance_functionals(fi, 32, beta, support)
            assert vf.sigma_sq == pytest.approx(2.0 / beta * i, rel=1e-10)


def test_variance_functional_linear(support):
    vf = spectral.variance_functionals(spectral.monomial(1), 32, 2.0, support)
    assert vf.sigma_sq == pytest.approx(support.half_width**2 / 4, rel=1e-12)


def test_density_mass_and_moments(asym, support):
    assert spectral.integrate_density(spectral.monomial(0), asym) == pytest.approx(1.0, abs=1e-10)
    assert spectral.integrate_density(spectral.monomial(1), asym) == pytest.approx(asym.b, abs=1e-10)
    te = paths.trace_expansion(2, 2.0, 0.25, 0.5, 256)
    assert spectral.integrate_density(spectral.monomial(2), asym) == pytest.approx(
        te.order0, abs=1e-6
    )


def test_density_moment_chain(asym):
    for k in (1, 2, 3):
        te = paths.trace_expansion(k, 2.0, 0.25, 0.5, 256)
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


@pytest.mark.parametrize("a,b", [(0.1, 0.9), (0.1, 0.1), (0.25, 0.75), (0.4, 0.4)])
def test_edge_weight_integral_with_an_edge_at_zero_or_one(a, b):
    # p = 1 or q = 1: the integrand tends to 2 r at the edge, and the rule
    # must count that end term
    support = bj.SupportInterval.from_shape(a, b)
    assert abs(spectral.edge_weight_integral(support) - 2 * math.pi * a) <= 1e-12


def test_quadratures_reject_zero_nodes():
    # an empty Beta rule raised an IndexError
    with pytest.raises(ParameterError):
        spectral.jacobi_probability_quadrature(0, 1.0, 1.0)


def test_arcsine_integral():
    assert spectral.arcsine_integral(spectral.monomial(0)) == pytest.approx(1.0, abs=1e-12)
    assert spectral.arcsine_integral(spectral.monomial(1)) == pytest.approx(0.5, abs=1e-12)


# log(x - min x): infinite at the lowest node of any grid
_SINGULAR = spectral.TestFunction(fn=lambda x: np.log(x - np.min(x)), name="log")


@pytest.mark.parametrize("integral", [
    lambda s, a: spectral.chebyshev_coefficients(_SINGULAR, 8, s),
    lambda s, a: spectral.integrate_density(_SINGULAR, a),
    lambda s, a: spectral.integrate_deviation(_SINGULAR, s),
    lambda s, a: spectral.arcsine_integral(_SINGULAR),
    lambda s, a: spectral.arcsine_integral(np.log),
], ids=["chebyshev_coefficients", "integrate_density", "integrate_deviation",
        "arcsine_integral", "arcsine_integral-log"])
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


# x = 1 itself and 1e-9 to each side: the old leading term, a 0/0 there, lost
# 1e-7 to 2.5e-5 relative at 1 +- 1e-9 and refused x = 1.  The gate leaves
# room for the rounding of lambda_+, which costs the root up to 6e-15 at
# (0.45, 0.5), where 1 is 0.0025 from lambda_+
@pytest.mark.parametrize("a, b", [(0.25, 0.25), (0.001, 0.001), (0.3, 0.6), (0.45, 0.5)])
def test_stieltjes_leading_term_near_one_matches_mpmath(a, b):
    import mpmath

    asym = bj.shape_params(a, b, 2.0)
    mpmath.mp.dps = 40
    A, B = mpmath.mpf(a), mpmath.mpf(b)
    u, v = mpmath.sqrt(B * (1 - A)), mpmath.sqrt(A * (1 - B))
    lam_m, lam_p = (u - v) ** 2, (u + v) ** 2
    for x in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        X = mpmath.mpf(x)
        root = mpmath.sqrt((X - lam_m) * (X - lam_p))
        if x == 1.0:  # the limit of the quotient below, by its conjugate
            exact = 2 * (1 - A) / ((A - B) + (1 - 2 * A) * X + root)
        else:
            exact = ((A - B) + (1 - 2 * A) * X - root) / (2 * A * X * (1 - X))
        m0, _ = spectral.stieltjes_pair(x, asym)
        assert abs(m0 - exact) <= 1e-13 * abs(exact), x


@pytest.mark.parametrize("a, b", [(0.25, 0.25), (0.001, 0.001)])
def test_limit_measures_quadratic_residual_at_small_and_equal_shapes(a, b):
    # at (1/4, 1/4) the point lambda_+ + 1/4 rounded next to 1, where m0 was
    # 100 % off (residual 6.8e15); at (0.001, 0.001) lambda_+ + 1 gave 3.9e-9
    from betajacobi import checks

    assert checks._limit_measures(a, b)["stieltjes_quadratic_residual"] <= 1e-15


def test_stieltjes_domain_errors(asym, support):
    with pytest.raises(ParameterError):
        spectral.stieltjes_pair(support.center, asym)
    with pytest.raises(ParameterError):
        spectral.stieltjes_pair(0.0, bj.shape_params(0.25, 0.25, 2.0))


def _frozen_roots(n, r, s):
    """Spectrum of the frozen Gram for the weight x^r (1-x)^s: the degree-n Jacobi roots."""
    frozen = model.deterministic_factor(bj.EnsembleParams(n, 2.0, n + r, n + s))
    return eig.eigenvalues(model.assemble_gram(frozen)).values


def test_jacobi_roots_small_cases():
    assert _frozen_roots(1, 0.0, 0.0)[0] == pytest.approx(0.5, abs=1e-14)
    r, s = 2.3, 0.7
    assert _frozen_roots(1, r, s)[0] == pytest.approx((r + 1) / (r + s + 2), abs=1e-13)


def test_jacobi_roots_resolvent_model(asym):
    # (1/n) sum 1/(2 - root) tracks m0(2) + m1(2)/n with O(1/n^2) residual
    a, b = asym.a, asym.b
    m0, m1 = spectral.stieltjes_pair(2.0, asym)
    residuals = {}
    for n in (100, 200):
        roots = _frozen_roots(n, n * (b / a - 1), n * ((1 - b) / a - 1))
        residuals[n] = abs(float(np.mean(1.0 / (2.0 - roots))) - m0 - m1 / n)
    assert 2.0 <= residuals[100] / residuals[200] <= 8.0


@pytest.mark.parametrize("n,r,s", [(1, 0.0, 0.0), (2, 2.3, 0.7), (40, -0.5, 7.0),
                                   (160, 0.3, 1e3), (400, 1e4, -0.75)])
def test_jacobi_matrix_shares_the_frozen_gram_spectrum(n, r, s):
    frozen = model.deterministic_factor(bj.EnsembleParams(n, 2.0, n + r, n + s))
    jacobi = model.jacobi_matrix(frozen.raw_c, frozen.raw_cp)
    assert np.all(jacobi.off > 0.0)
    gap = np.max(np.abs(eig.eigenvalues(jacobi).values - _frozen_roots(n, r, s)))
    assert gap <= 1e-13


def test_jacobi_probability_quadrature_moments():
    for p, q in ((2.0, 3.0), (0.5, 0.5), (8.0, 0.5)):
        nodes, w = spectral.jacobi_probability_quadrature(96, p, q)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert float(w @ nodes) == pytest.approx(p / (p + q), rel=1e-10)
        exact_var = p * q / ((p + q) ** 2 * (p + q + 1))
        assert float(w @ (nodes - p / (p + q)) ** 2) == pytest.approx(exact_var, rel=1e-9)


def test_test_function_library_derivatives(support):
    # the stored derivative against a central difference of step h
    grid, h = np.linspace(0.05, 0.95, 11), 1e-6
    for f in (
        spectral.monomial(1),
        spectral.monomial(4),
        spectral.exp_function(),
        spectral.chebyshev_test_function(3, support),
    ):
        difference = (f(grid + h) - f(grid - h)) / (2 * h)
        assert np.max(np.abs(difference - f.derivative(grid))) <= 1e-5


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


def test_beta_rule_is_cached_read_only_and_unchanged():
    nodes, w = spectral.jacobi_probability_quadrature(160, 0.5, 8.0)
    again = spectral.jacobi_probability_quadrature(160, 0.5, 8.0)
    assert again[0] is nodes and again[1] is w
    assert not nodes.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    fresh_nodes, fresh_w = spectral._beta_rules(160, [(0.5, 8.0)])[0]
    assert np.array_equal(fresh_nodes, nodes) and np.array_equal(fresh_w, w)


def _recurrence_by_scalar_loop(nterms, r_param, s_param):
    """The textbook Jacobi recurrence for x^r (1-x)^s on [0, 1], one Python
    step per entry: (centers, squared off-diagonals), offsq[0] unused."""
    A, B = float(s_param), float(r_param)
    diag = np.empty(nterms)
    offsq = np.zeros(nterms)
    apb = A + B
    diag[0] = (B - A) / (apb + 2.0)
    for k in range(1, nterms):
        den = (2.0 * k + apb) * (2.0 * k + apb + 2.0)
        diag[k] = (B * B - A * A) / den
        if k == 1:
            offsq[k] = 4.0 * (A + 1.0) * (B + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
        else:
            t = 2.0 * k + apb
            offsq[k] = 4.0 * k * (k + A) * (k + B) * (k + apb) / (t * t * (t + 1.0) * (t - 1.0))
    return (1.0 + diag) / 2.0, offsq / 4.0


@pytest.mark.parametrize("nterms", [1, 2, 3, 160, 801])
def test_jacobi_recurrence_matches_scalar_loop(nterms):
    # model.jacobi_matrix, from the frozen factor's Beta means, against the
    # textbook recurrence; the worst gap, 9.4e-14, is at r = -0.999, 801 terms
    for r in (-0.999, -0.5, 0.0, 0.3, 7.0, 1e4 - 1, 1e8):
        for s in (-0.75, 0.0, 2.5, 1e3):
            frozen = model.deterministic_factor(
                bj.EnsembleParams(nterms, 2.0, nterms + r, nterms + s))
            jacobi = model.jacobi_matrix(frozen.raw_c, frozen.raw_cp)
            ref_diag, ref_offsq = _recurrence_by_scalar_loop(nterms, r, s)
            assert np.max(np.abs(jacobi.diag - ref_diag)) <= 1e-12
            assert np.max(np.abs(jacobi.off**2 - ref_offsq[1:]), initial=0.0) <= 1e-12


def _beta_rule_matrices(nnodes, shapes):
    """The stacked Jacobi matrix that spectral._beta_rules builds for shapes."""
    built, jacobi_matrix = [], model.jacobi_matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "jacobi_matrix",
                      lambda odd, even: built.append(jacobi_matrix(odd, even)) or built[-1])
        spectral._beta_rules(nnodes, shapes)
    return built[0]


def _frozen_jacobi(n, p, q):
    """model.jacobi_matrix of the frozen factor whose weight is the Beta(p, q) density."""
    frozen = model.deterministic_factor(bj.EnsembleParams(n, 2.0, n - 1 + p, n - 1 + q))
    return model.jacobi_matrix(frozen.raw_c, frozen.raw_cp)


@pytest.mark.parametrize("nnodes", [1, 160])
def test_beta_canonical_moments_match_the_frozen_factor_bit_for_bit(nnodes):
    # at crit 12's dyadic shapes Beta(p, q)'s own canonical moments and the
    # frozen factor's Beta means are the same doubles
    shapes = [(p, q) for p in (0.5, 1.0, 2.0, 8.0) for q in (0.5, 1.0, 2.0, 8.0)]
    stacked = _beta_rule_matrices(nnodes, shapes)
    for (p, q), jac in zip(shapes, stacked):
        frozen = _frozen_jacobi(nnodes, p, q)
        assert np.array_equal(jac.diag, frozen.diag) and np.array_equal(jac.off, frozen.off)


def test_beta_canonical_moments_match_the_frozen_factor_off_the_dyadic_grid():
    # there the frozen factor rounds n1 = n - 1 + p, and the two part by that rounding
    shapes = [(1.0 / 3.0, 0.7), (2.9, 17.1)]
    for nnodes in (40, 160):
        for (p, q), jac in zip(shapes, _beta_rule_matrices(nnodes, shapes)):
            frozen = _frozen_jacobi(nnodes, p, q)
            assert np.max(np.abs(jac.diag - frozen.diag)) <= 1e-13
            assert np.max(np.abs(jac.off - frozen.off)) <= 1e-13


def test_stacked_jacobi_matrix_matches_each_matrix_alone():
    factors = [model.deterministic_factor(bj.EnsembleParams(50, beta, 50 + r, 50 + s))
               for beta, r, s in ((2.0, 1.0 / 3.0, 0.7), (1.0, 2.9, 17.1), (4.0, -0.5, 1e4))]
    odd, even = np.stack([f.raw_c for f in factors]), np.stack([f.raw_cp for f in factors])
    stacked = model.jacobi_matrix(odd, even)
    assert odd.flags.writeable and even.flags.writeable  # the caller's arrays stay its own
    for factor, diag, off in zip(factors, stacked.diag, stacked.off):
        alone = model.jacobi_matrix(factor.raw_c, factor.raw_cp)
        assert np.array_equal(diag, alone.diag) and np.array_equal(off, alone.off)


@pytest.mark.parametrize("nnodes,p,q", [(160, 1e-3, 1.0), (800, 1e-3, 2.0), (160, 1e-6, 1.0),
                                         (40, 1e-8, 1.0)])
def test_beta_rule_mean_at_small_shapes(nnodes, p, q):
    # a shape rounded through n1 = n - 1 + p moves these means by 4.8e-12 to 8.3e-8
    nodes, w = spectral.jacobi_probability_quadrature(nnodes, p, q)
    assert abs(float(w @ nodes) / (p / (p + q)) - 1.0) <= 1e-14


def test_stacked_beta_rules_match_rules_built_alone():
    # large shapes rescale their recurrences at some nodes and not at others
    shapes = [(0.5, 8.0), (2.0, 2.0), (1e4, 1e4), (1e4, 3.0), (1e3, 1e3)]
    stacked = spectral._beta_rules(800, shapes)
    for shape, (nodes, w) in zip(shapes, stacked):
        alone_nodes, alone_w = spectral._beta_rules(800, [shape])[0]
        assert np.array_equal(nodes, alone_nodes) and np.array_equal(w, alone_w)
    # the cached route returns the same rules, in the order asked for
    cached = spectral.jacobi_probability_quadratures(800, shapes[::-1])
    for (nodes, w), (ref_nodes, ref_w) in zip(cached, stacked[::-1]):
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(w, ref_w)
    assert spectral.jacobi_probability_quadrature(800, 1e4, 3.0)[1] is cached[1][1]


def test_beta_rule_cache_keeps_the_last_rules_built():
    shapes = [(1.0 + i, 2.0) for i in range(spectral._BETA_RULES_KEPT + 6)]
    rules = spectral.jacobi_probability_quadratures(8, shapes)
    assert len(rules) == len(shapes) and len(spectral._BETA_RULES) == spectral._BETA_RULES_KEPT
    assert spectral.jacobi_probability_quadrature(8, *shapes[-1]) is rules[-1]
    first = spectral.jacobi_probability_quadrature(8, *shapes[0])
    assert first is not rules[0] and np.array_equal(first[1], rules[0][1])


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


@pytest.mark.parametrize("nnodes,p,q", [(160, 1e16, 3.0), (8, 1e40, 1e40), (8, 1e80, 1e80),
                                         (8, 1e103, 1e103), (160, 1e103, 3.0),
                                         (8, 1e301, 3.0), (40, 1e308, 1e308)])
def test_beta_rule_at_huge_shapes_raises(nnodes, p, q):
    # rounded shapes make these rules wrong by 0.1 or more in mass, or NaN;
    # at (1e308, 1e308) p + q overflows and every canonical moment is 0
    with pytest.raises(QuadratureError):
        spectral.jacobi_probability_quadrature(nnodes, p, q)


def test_beta_rule_below_the_shape_floor_raises():
    for p, q in ((1e-12, 1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ParameterError, match="finite and at least 1e-9"):
            spectral.jacobi_probability_quadrature(40, p, q)


def test_beta_rules_match_mpmath():
    mpmath = pytest.importorskip("mpmath", minversion="1.3")
    ctx = mpmath.mp.clone()
    ctx.dps = 40

    def worst_errors(nnodes, p, q):
        # W(x) = (1 - x)^(q - 1) (1 + x)^(p - 1) on (-1, 1), x = 2y - 1
        xs, ws = ctx.gauss_quadrature(nnodes, "jacobi", q - 1, p - 1)
        total = ctx.fsum(ws)
        order = sorted(range(nnodes), key=lambda i: xs[i])
        ref_nodes = np.array([float((xs[i] + 1) / 2) for i in order])
        ref_w = np.array([float(ws[i] / total) for i in order])
        nodes, w = spectral.jacobi_probability_quadrature(nnodes, p, q)
        return (np.max(np.abs(nodes - ref_nodes) / ref_nodes),
                np.max(np.abs(w - ref_w) / ref_w))

    for p, q in ((0.5, 8.0), (8.0, 0.5), (2.0, 2.0), (0.5, 0.5), (1.0, 1.0)):
        node_err, weight_err = worst_errors(40, p, q)
        assert node_err <= 1e-12 and weight_err <= 2e-12, (p, q)
    assert worst_errors(40, 1e4, 3.0)[1] <= 1e-10
    assert max(worst_errors(160, 0.5, 8.0)) <= 1e-11


@pytest.mark.parametrize("nnodes", [1, 2, 3, 16, 17, 32, 64, 256, 512, 1024])
def test_hermite_rule_matches_scipy(nnodes):
    from scipy.special import roots_hermitenorm

    nodes, w = spectral.hermite_quadrature(nnodes)
    ref_nodes, ref_w = roots_hermitenorm(nnodes)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-13
    kept = ref_w >= 1e-300
    assert np.max(np.abs(w[kept] / ref_w[kept] - 1.0)) <= 1e-12
    assert w.sum() == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(w, w[::-1])


def test_hermite_rule_weights_match_40_digits():
    """At 128 nodes, where scipy's weights are 1.2e-12 off at the outer nodes.

    The weight of a root z of He_n is sqrt(2 pi) n! / (n He_(n-1)(z))^2.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    nnodes = 128
    nodes, w = spectral.hermite_quadrature(nnodes)

    def he(k, x):
        return mpmath.hermite(k, x / mpmath.sqrt(2)) / mpmath.sqrt(2) ** k

    for i in (0, 1, 40, 63, 64):
        root = mpmath.findroot(lambda x: he(nnodes, x) / he(nnodes - 1, x), mpmath.mpf(nodes[i]))
        exact = mpmath.sqrt(2 * mpmath.pi) * mpmath.factorial(nnodes) / (nnodes * he(nnodes - 1, root)) ** 2
        assert abs(nodes[i] - root) <= 1e-14 * max(1.0, abs(float(root)))
        assert abs(w[i] / exact - 1) <= 1e-13


def test_hermite_rule_is_cached_read_only():
    nodes, w = spectral.hermite_quadrature(16)
    again = spectral.hermite_quadrature(np.int64(16))
    assert again[0] is nodes and again[1] is w
    assert not nodes.flags.writeable and not w.flags.writeable
    # a polynomial of degree 2 * 16 - 1 is integrated exactly: E Z^30 = 29!!
    assert float(w @ nodes**30) / math.sqrt(2.0 * math.pi) == pytest.approx(
        math.prod(range(1, 30, 2)), rel=1e-12)
