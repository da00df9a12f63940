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
from .params import AsymptoticParams, SupportInterval, checked_int
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

# Panels of the coarse sigma-rule of covariance_matrix, whose fine rule has
# twice as many; read at call time, so a test may patch it
SIGMA_NODES = 200
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
    """Clenshaw-Curtis nodes and weights of `nodes` panels on [lo, hi].

    The nodes sit at x = cos(j pi / nodes), 0 <= j <= nodes, the theta grid
    of spectral._theta_values, mapped to [lo, hi]; so the even-index nodes
    of 2 nodes panels are the nodes of `nodes` panels.  The weights
    (c_j / nodes)(1 - sum_k b_k cos(2 k j pi / nodes) / (4 k^2 - 1)), over
    1 <= k <= nodes / 2, with c_j = 1 at the ends and 2 inside and b_k = 1
    at k = nodes / 2 and 2 below, come from one inverse real FFT of the
    moments (Waldvogel, BIT 46, 2006), in O(nodes log nodes) time and
    O(nodes) memory.
    """
    k = np.arange(1, nodes // 2 + 1)
    w = np.fft.irfft(np.concatenate(([1.0], -1.0 / (4.0 * k * k - 1.0))), n=nodes)
    w = np.append(w, w[0])
    w[1:-1] *= 2.0
    x = np.cos(np.linspace(0.0, math.pi, nodes + 1))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def covariance_matrix(K: int, asym: AsymptoticParams) -> CovarianceMatrix:
    """C_{k,l} for trace powers 1..K by Clenshaw-Curtis quadrature over sigma
    in [-a, 0], on 2 * SIGMA_NODES panels.

    The integrand is analytic on the interval (denominator 1 + 2 sigma >=
    1 - 2a > 0); error_estimate is the largest change of an entry from the
    rule of SIGMA_NODES panels, whose nodes are the even-index ones of the
    rule used.
    """
    K = checked_int("K", K, 1)
    asym.require_bulk()
    sig, w_fine = _sigma_rule(2 * SIGMA_NODES, -asym.a, 0.0)
    _, w_coarse = _sigma_rule(SIGMA_NODES, -asym.a, 0.0)
    x, y = entry_weights(sig, asym)
    powers = power_table(x, y, 2 * K)
    polys = [weight_polynomial(k) for k in range(1, K + 1)]
    dx = np.array([poly.dx(x, y, powers) for poly in polys])
    dy = np.array([poly.dy(x, y, powers) for poly in polys])
    inverse = 1.0 / (1.0 + 2.0 * sig)
    common_w = inverse * (1.0 - x * x - y * y)
    cross_w = inverse * (2.0 * x * y)

    # sum_n u[k, n] v[l, n] by einsum, not matmul: OpenBLAS splits a
    # (K x N)(N x K) gemm over its threads, and on a shared 2-core host a
    # threaded gemm issued right after another waited 22-32 ms (K = 40,
    # N = 800: 32 ms back to back, 0.06 ms on one thread, 0.2-0.3 ms by
    # einsum, which calls no BLAS)
    def dot(u, v):
        return np.einsum("kn,ln->kl", u, v)

    def integrate(w, every: int) -> np.ndarray:
        """The sigma-integral with weights w on every `every`-th node."""
        cols = slice(None, None, every)
        u, v = dx[:, cols], dy[:, cols]
        w_common, w_cross = w * common_w[cols], w * cross_w[cols]
        common = dot(u * w_common, u) + dot(v * w_common, v)
        cross = dot(u * w_cross, v) + dot(v * w_cross, u)
        out = asym.alpha / 4.0 * (common - cross)
        # the integrand is symmetric in (k, l); enforce it exactly
        return 0.5 * (out + out.T)

    fine = integrate(w_fine, 1)
    err = float(np.max(np.abs(fine - integrate(w_coarse, 2))))
    return CovarianceMatrix(K=K, entries=fine, error_estimate=err)


def theory_covariance(K: int, beta: float, support: SupportInterval) -> CovarianceMatrix:
    """Closed-form covariance alpha * (L D L^T) restricted to powers 1..K.

    Row n of L holds the coefficients of x^n in the shifted Chebyshev basis
    Gamma_k = 2 T_k on the support: half the row of spectral.monomial_table.
    """
    K = checked_int("K", K, 1, 32)
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
    K = checked_int("K", K, 0, cov.K)
    ks = np.arange(1, K + 1)
    ve = eta ** (-(ks + 1.0))
    vw = omega ** (-(ks + 1.0))
    return float(ve @ cov.entries[:K, :K] @ vw)
