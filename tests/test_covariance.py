import numpy as np
import pytest

import betajacobi as bj
from betajacobi import covariance, spectral
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


def test_quadrature_error_shrinks_geometrically(asym):
    reference = covariance.covariance_matrix(6, asym, nodes=400).entries
    err25 = np.max(np.abs(covariance.covariance_matrix(6, asym, nodes=25).entries - reference))
    err50 = np.max(np.abs(covariance.covariance_matrix(6, asym, nodes=50).entries - reference))
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


@pytest.mark.parametrize("K", [8, 40])
def test_covariance_matrix_matches_numpy_rule(asym, monkeypatch, K):
    cov = covariance.covariance_matrix(K, asym)
    monkeypatch.setattr(spectral, "_gauss_legendre", np.polynomial.legendre.leggauss)
    ref = covariance.covariance_matrix(K, asym)
    assert np.max(np.abs(cov.entries - ref.entries)) <= 1e-13
    assert cov.error_estimate == pytest.approx(ref.error_estimate, abs=1e-13)
