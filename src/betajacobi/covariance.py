"""Limiting covariance of centered monomial traces and its diagonalization.

The covariance of (tr A^k, tr A^l) fluctuations converges to a sigma-integral
over [-a, 0] built from the bridge weight polynomials.  In the shifted
Chebyshev basis it diagonalizes as C = alpha * L D L^T with D = diag(0,1,2,..)
and L the monomial-to-Chebyshev basis change; closed-form bivariate Laplace
transforms certify the identity numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ParameterError
from .params import AsymptoticParams, SupportInterval
from .paths import power_table, weight_polynomial

__all__ = [
    "CovarianceMatrix",
    "entry_weights",
    "covariance_matrix",
    "theory_covariance",
    "laplace_closed",
    "laplace_bessel_series",
    "laplace_partial_sum",
]

DEFAULT_SIGMA_NODES = 200
# Terms of the Bessel series oracle laplace_bessel_series
_BESSEL_TERMS = 60


@dataclass(frozen=True)
class CovarianceMatrix:
    """K x K symmetric limiting covariance, 1-based trace powers."""

    K: int
    entries: np.ndarray
    error_estimate: float = 0.0

    def __post_init__(self):
        self.entries.setflags(write=False)
        if self.entries.shape != (self.K, self.K):
            raise ParameterError("covariance matrix shape mismatch")

    def entry(self, k: int, l: int) -> float:
        return float(self.entries[k - 1, l - 1])


def entry_weights(sigma, asym: AsymptoticParams):
    """Limiting diagonal/subdiagonal entry magnitudes along the depth sigma.

    x = sqrt((b+s)(1-a+s))/(1+2s), y = sqrt((1-b+s)(a+s))/(1+2s) for
    sigma in [-a, 0].
    """
    s = np.asarray(sigma, dtype=float)
    a, b = asym.a, asym.b
    if np.any(s < -a - 1e-12) or np.any(s > 1e-12):
        raise ParameterError("sigma must lie in [-a, 0]")
    denom = 1.0 + 2.0 * s
    x = np.sqrt(np.maximum((b + s) * (1.0 - a + s), 0.0)) / denom
    y = np.sqrt(np.maximum((1.0 - b + s) * (a + s), 0.0)) / denom
    return x, y


def _sigma_rule(nodes: int, lo: float, hi: float):
    t, w = spectral._gauss_legendre(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * t, half * w


def covariance_matrix(
    K: int, asym: AsymptoticParams, nodes: int = DEFAULT_SIGMA_NODES
) -> CovarianceMatrix:
    """C_{k,l} for trace powers 1..K by Gauss-Legendre quadrature over sigma
    in [-a, 0].

    The integrand is analytic on the interval (denominator 1 + 2 sigma >=
    1 - 2a > 0); error_estimate is the largest change of an entry when the
    node count doubles.
    """
    if K < 1:
        raise ParameterError("K must be >= 1")
    asym.require_bulk()

    def fill(n_nodes: int) -> np.ndarray:
        sig, w = _sigma_rule(n_nodes, -asym.a, 0.0)
        x, y = entry_weights(sig, asym)
        powers = power_table(x, y, 2 * K)
        polys = [weight_polynomial(k) for k in range(1, K + 1)]
        dx = np.array([poly.dx(x, y, powers) for poly in polys])
        dy = np.array([poly.dy(x, y, powers) for poly in polys])
        base = w / (1.0 + 2.0 * sig)
        w_common = base * (1.0 - x * x - y * y)
        w_cross = base * (2.0 * x * y)
        # sum_n u[k, n] v[l, n] by einsum, not matmul: OpenBLAS splits a
        # (K x N)(N x K) gemm over its threads, and on a shared 2-core host a
        # threaded gemm issued right after another waited 22-32 ms (K = 40,
        # N = 800: 32 ms back to back, 0.06 ms on one thread, 0.2-0.3 ms by
        # einsum, which calls no BLAS)
        def dot(u, v):
            return np.einsum("kn,ln->kl", u, v)

        common = dot(dx * w_common, dx) + dot(dy * w_common, dy)
        cross = dot(dx * w_cross, dy) + dot(dy * w_cross, dx)
        out = asym.alpha / 4.0 * (common - cross)
        # the integrand is symmetric in (k, l); enforce it exactly
        return 0.5 * (out + out.T)

    coarse = fill(nodes)
    fine = fill(2 * nodes)
    err = float(np.max(np.abs(fine - coarse)))
    return CovarianceMatrix(K=K, entries=fine, error_estimate=err)


def theory_covariance(K: int, beta: float, support: SupportInterval) -> CovarianceMatrix:
    """Closed-form covariance alpha * (L D L^T) restricted to powers 1..K.

    Row n of L holds the coefficients of x^n in the shifted Chebyshev basis
    Gamma_k = 2 T_k on the support: half the row of spectral.monomial_table.
    """
    if not (1 <= K <= 32):
        raise ParameterError("theory covariance limited to K <= 32")
    L = 0.5 * spectral.monomial_table(K, support.center, support.half_width)
    return CovarianceMatrix(K=K, entries=spectral.limit_covariance(L[1:], beta))


def _check_outside(value: float, support: SupportInterval, name: str) -> None:
    if value <= support.lambda_plus:
        raise ParameterError(
            f"{name} = {value} must exceed the upper support edge {support.lambda_plus}"
        )


def laplace_closed(
    eta: float, omega: float, support: SupportInterval, beta: float
) -> tuple[float, float]:
    """Closed-form bivariate Laplace transforms (covariance form, basis form).

    The first is the transform of the covariance generating function; the
    second is the diagonalized-basis expression in terms of the support
    center and half-width.  The identity C_form = alpha * T_form is the
    numerical certificate of the diagonalization.  At eta = omega the
    removable singularity is evaluated through the rationalized difference
    quotient, which is exact (the bracketed difference factors as
    2 r (eta - omega) over the conjugate sum).
    """
    _check_outside(eta, support, "eta")
    _check_outside(omega, support, "omega")
    lam_m, lam_p = support.lambda_minus, support.lambda_plus
    c, r = support.center, support.half_width
    alpha = 2.0 / beta
    sw = math.sqrt((omega - lam_m) * (omega - lam_p))
    se = math.sqrt((eta - lam_m) * (eta - lam_p))
    if abs(eta - omega) >= 1e-4 * (eta + omega):
        bracket = math.sqrt((omega - lam_m) * (eta - lam_p)) - math.sqrt(
            (omega - lam_p) * (eta - lam_m)
        )
        c_form = (alpha / 4.0) * bracket**2 / ((eta - omega) ** 2 * sw * se)
    else:
        conj = math.sqrt((omega - lam_m) * (eta - lam_p)) + math.sqrt(
            (omega - lam_p) * (eta - lam_m)
        )
        c_form = alpha * r * r / (conj**2 * sw * se)
    om_t, et_t = omega - c, eta - c
    swt = math.sqrt(om_t * om_t - r * r)
    set_ = math.sqrt(et_t * et_t - r * r)
    denom = (
        math.sqrt((om_t + r) * (et_t - r)) + math.sqrt((om_t - r) * (et_t + r))
    ) ** 2
    t_form = r * r / (set_ * swt * denom)
    return c_form, t_form


def laplace_bessel_series(eta: float, omega: float, support: SupportInterval) -> float:
    """Series oracle sum_k k Lp[e^(ct) I_k(rt)](eta) Lp[e^(cs) I_k(rs)](omega).

    Lp[I_k(rt)](w) = r^k / ((w + sqrt(w^2 - r^2))^k sqrt(w^2 - r^2)); the
    exponential shift moves the argument by the support center.
    """
    _check_outside(eta, support, "eta")
    _check_outside(omega, support, "omega")
    c, r = support.center, support.half_width
    om_t, et_t = omega - c, eta - c
    sw = math.sqrt(om_t * om_t - r * r)
    se = math.sqrt(et_t * et_t - r * r)
    rho_w = r / (om_t + sw)
    rho_e = r / (et_t + se)
    ks = np.arange(1, _BESSEL_TERMS + 1, dtype=float)
    terms = ks * (rho_w**ks) * (rho_e**ks)
    return float(terms.sum() / (sw * se))


def laplace_partial_sum(
    K: int, eta: float, omega: float, cov: CovarianceMatrix
) -> float:
    """Direct tail: sum over k, l <= K of C_{k,l} eta^-(k+1) omega^-(l+1)."""
    if K > cov.K:
        raise ParameterError(f"K={K} exceeds covariance table size {cov.K}")
    ks = np.arange(1, K + 1)
    ve = eta ** (-(ks + 1.0))
    vw = omega ** (-(ks + 1.0))
    return float(ve @ cov.entries[:K, :K] @ vw)
