import numpy as np
import pytest

import betajacobi as bj
from betajacobi import covariance, paths, spectral
from betajacobi.errors import ParameterError


@pytest.fixture(scope="module")
def asym():
    return bj.shape_params(0.25, 0.5, 2.0)


@pytest.fixture(scope="module")
def support(asym):
    return bj.support_edges(asym)


def test_entry_weights_boundary(asym, support):
    x, y = covariance.entry_weights(-asym.a, asym)
    assert y == pytest.approx(0.0, abs=1e-15)
    x0, y0 = covariance.entry_weights(0.0, asym)
    assert (x0 + y0) ** 2 == pytest.approx(support.lambda_plus, abs=1e-13)


def test_entry_weights_bounded(asym):
    sig = np.linspace(-asym.a, 0.0, 1000)
    x, y = covariance.entry_weights(sig, asym)
    assert np.all(x * x + y * y < 1.0)


def test_entry_weights_domain(asym):
    with pytest.raises(ParameterError):
        covariance.entry_weights(-asym.a - 0.01, asym)


def test_spot_entries(asym, support):
    r = support.half_width
    c = support.center
    cov = covariance.covariance_matrix(2, asym)
    assert cov.entry(1, 1) == pytest.approx(3 / 64, abs=1e-10)
    assert cov.entry(2, 2) == pytest.approx(105 / 2048, abs=1e-8)
    assert cov.entry(1, 2) == pytest.approx((r / 2) * (c * r), abs=1e-10)


@pytest.mark.parametrize("beta", [4.0, 2.0, 1.0])
def test_spot_entries_scale_with_alpha(beta):
    alpha = 2.0 / beta
    cov = covariance.covariance_matrix(8, bj.shape_params(0.25, 0.5, beta))
    assert abs(cov.entry(1, 1) - 3 * alpha / 64) <= 1e-10
    assert abs(cov.entry(2, 2) - 105 * alpha / 2048) <= 1e-8


def test_matrix_symmetric_and_psd(asym):
    cov = covariance.covariance_matrix(8, asym)
    assert np.max(np.abs(cov.entries - cov.entries.T)) == 0.0
    assert np.linalg.eigvalsh(cov.entries).min() >= -1e-10


def _covariance_on(monkeypatch, nodes, K, asym):
    """covariance_matrix with SIGMA_NODES set to nodes for this call."""
    with monkeypatch.context() as patch:
        patch.setattr(covariance, "SIGMA_NODES", nodes)
        return covariance.covariance_matrix(K, asym)


def test_quadrature_error_shrinks_geometrically(asym, monkeypatch):
    reference = _covariance_on(monkeypatch, 400, 6, asym).entries
    err25 = np.max(np.abs(_covariance_on(monkeypatch, 25, 6, asym).entries - reference))
    err50 = np.max(np.abs(_covariance_on(monkeypatch, 50, 6, asym).entries - reference))
    assert err50 <= err25 / 4 or err50 <= 1e-14


def test_basis_change_rows(support):
    # x^n in the shifted Chebyshev basis Gamma_k = 2 T_k: half the table row
    c, r = support.center, support.half_width
    L = 0.5 * spectral.monomial_table(4, c, r)
    assert L[0, 0] == 0.5
    assert L[1, 0] == pytest.approx(c / 2) and L[1, 1] == pytest.approx(r / 2)
    assert L[2, 0] == pytest.approx(c * c / 2 + r * r / 4)
    assert L[2, 1] == pytest.approx(c * r)
    assert L[2, 2] == pytest.approx(r * r / 4)


def test_basis_change_reconstructs_monomials(support):
    N = 10
    L = 0.5 * spectral.monomial_table(N, support.center, support.half_width)
    xs = np.linspace(support.lambda_minus, support.lambda_plus, 9)
    gammas = np.vstack([spectral.chebyshev_test_function(k, support)(xs) for k in range(N + 1)])
    for n in range(N + 1):
        recon = L[n] @ gammas
        assert np.max(np.abs(recon - xs**n)) <= 1e-12


def test_theory_covariance_entries(asym, support):
    theo = covariance.theory_covariance(4, 2.0, support)
    r, c = support.half_width, support.center
    assert theo.entry(1, 1) == pytest.approx(r * r / 4, rel=1e-14)
    assert theo.entry(1, 2) == pytest.approx((r / 2) * 1.0 * (c * r), rel=1e-14)


def test_diagonalization_gap_three_alphas(support):
    for beta in (1.0, 2.0, 4.0):
        asb = bj.shape_params(0.25, 0.5, beta)
        num = covariance.covariance_matrix(8, asb)
        theo = covariance.theory_covariance(8, beta, support)
        assert np.max(np.abs(num.entries - theo.entries)) <= 1e-8


def test_constant_shift_changes_nothing(support):
    # the zero eigenvalue of the diagonal factor kills constants: theory
    # covariances depend only on coefficients with index >= 1
    f = spectral.monomial(2)
    shifted = spectral.TestFunction(fn=lambda x: f(x) + 7.5, name="shifted")
    a1 = spectral.chebyshev_coefficients(f, 8, support)[1:]
    a2 = spectral.chebyshev_coefficients(shifted, 8, support)[1:]
    assert np.max(np.abs(a1 - a2)) <= 1e-12


def test_laplace_identity_and_series(support):
    cf, tf = covariance.laplace_closed(2.0, 3.0, support, 2.0)
    assert cf == pytest.approx(1.0 * tf, abs=1e-14)
    series = covariance.laplace_bessel_series(2.0, 3.0, support)
    assert series == pytest.approx(tf, abs=1e-12)


def test_laplace_near_diagonal(support):
    cf, tf = covariance.laplace_closed(2.0, 2.0 + 1e-8, support, 2.0)
    assert cf == pytest.approx(tf, rel=1e-10)
    cf_eq, tf_eq = covariance.laplace_closed(2.0, 2.0, support, 2.0)
    assert cf_eq == pytest.approx(tf_eq, rel=1e-12)


def test_laplace_decay(support):
    vals = []
    for om in (1e3, 2e3):
        cf, _ = covariance.laplace_closed(1.5, om, support, 2.0)
        vals.append(cf * om * om)
    assert vals[0] == pytest.approx(vals[1], rel=0.01)  # decays like omega^-2


def test_laplace_domain_error(support):
    with pytest.raises(ParameterError):
        covariance.laplace_closed(0.5, 3.0, support, 2.0)


def test_partial_sum_single_term(asym, support):
    cov = covariance.covariance_matrix(1, asym)
    eta, om = 2.0, 3.0
    assert covariance.laplace_partial_sum(1, eta, om, cov) == pytest.approx(
        cov.entry(1, 1) / (eta * eta * om * om), rel=1e-14
    )


def test_partial_sum_converges_monotonically(asym, support):
    cf, _ = covariance.laplace_closed(2.0, 3.0, support, 2.0)
    cov = covariance.covariance_matrix(40, asym)
    errs = [
        abs(covariance.laplace_partial_sum(K, 2.0, 3.0, cov) - cf) for K in (5, 10, 20, 40)
    ]
    assert all(errs[i + 1] <= errs[i] for i in range(3))
    assert errs[-1] <= 1e-6


def _leggauss_rule(nodes, lo, hi):
    t, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * t, half * w


@pytest.mark.parametrize("K", [8, 40])
def test_covariance_matrix_matches_numpy_rule(asym, monkeypatch, K):
    points = [asym] + [bj.shape_params(a, b, beta)
                       for beta, a, b in ((2.0, 0.45, 0.5), (1.0, 0.3, 0.35), (4.0, 0.2, 0.7))]
    covs = [covariance.covariance_matrix(K, point) for point in points]
    monkeypatch.setattr(covariance, "_sigma_rule", _leggauss_rule)
    half = covariance.SIGMA_NODES // 2
    for point, cov in zip(points, covs):
        ref = covariance.covariance_matrix(K, point)
        assert np.max(np.abs(cov.entries - ref.entries)) <= 1e-13
        # Gauss rules do not nest: the reference error estimate is the gap
        # between the rules of 2 * nodes and nodes points, each built alone
        coarse = _covariance_on(monkeypatch, half, K, point)
        ref_error = float(np.max(np.abs(ref.entries - coarse.entries)))
        assert cov.error_estimate == pytest.approx(ref_error, abs=1e-13)


def _direct_weights(N):
    """Clenshaw-Curtis weights on [-1, 1] by the direct cosine sum."""
    theta = np.arange(N + 1) * np.pi / N
    w = np.empty(N + 1)
    for j, t in enumerate(theta):
        total = 1.0
        for k in range(1, N // 2 + 1):
            b = 1.0 if 2 * k == N else 2.0
            total -= b * np.cos(2 * k * t) / (4 * k * k - 1)
        w[j] = (1.0 if j in (0, N) else 2.0) / N * total
    return w


@pytest.mark.parametrize("N", [1, 2, 3, 25, 200, 401])
def test_sigma_rule_is_clenshaw_curtis(N):
    x, w = covariance._sigma_rule(N, -1.0, 1.0)
    assert np.all(w > 0.0) and abs(w.sum() - 2.0) <= 1e-15 * N
    assert np.array_equal(x, np.cos(np.linspace(0.0, np.pi, N + 1)))
    for k in range(N + 1):
        exact = 2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0
        t_k = np.polynomial.chebyshev.Chebyshev.basis(k)(x)
        assert abs(w @ t_k - exact) <= 1e-15 * N
    assert np.max(np.abs(w - _direct_weights(N))) <= 1e-15


@pytest.mark.parametrize("nodes", [26, 200])
def test_nested_rule_keeps_the_fine_entries(asym, monkeypatch, nodes):
    # entries are the 2 * nodes panel rule alone; the coarse rule only sets
    # error_estimate, from the even-index nodes
    K = 8
    sig, w = covariance._sigma_rule(2 * nodes, -asym.a, 0.0)
    x, y = covariance.entry_weights(sig, asym)
    powers = paths.power_table(x, y, 2 * K)
    polys = [paths.weight_polynomial(k) for k in range(1, K + 1)]
    dx = np.array([poly.dx(x, y, powers) for poly in polys])
    dy = np.array([poly.dy(x, y, powers) for poly in polys])
    inverse = 1.0 / (1.0 + 2.0 * sig)
    w_common = w * (inverse * (1.0 - x * x - y * y))
    w_cross = w * (inverse * (2.0 * x * y))

    def dot(u, v):
        return np.einsum("kn,ln->kl", u, v)

    out = asym.alpha / 4.0 * (dot(dx * w_common, dx) + dot(dy * w_common, dy)
                              - (dot(dx * w_cross, dy) + dot(dy * w_cross, dx)))
    cov = _covariance_on(monkeypatch, nodes, K, asym)
    assert np.array_equal(cov.entries, 0.5 * (out + out.T))
    # the coarse rule of nodes panels is the fine rule of nodes / 2, up to
    # the order of the sums
    coarse = _covariance_on(monkeypatch, nodes // 2, K, asym)
    gap = float(np.max(np.abs(cov.entries - coarse.entries)))
    assert cov.error_estimate == pytest.approx(gap, abs=1e-15)


@pytest.mark.parametrize("K", [1.5, 0], ids=["K-1.5", "K-0"])
def test_covariance_matrix_rejects_bad_counts(asym, K):
    with pytest.raises(ParameterError):
        covariance.covariance_matrix(K, asym)
