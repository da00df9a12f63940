"""Deterministic numerics of the concentration criteria: the Beta Poincare
ratio and the sqrt-Beta to Gaussian coupling gap.  The Monte Carlo ensemble
variance bound is a runner of betajacobi.checks.

Beta expectations are computed with spectral's Gauss rules, whose nodes
are the spectrum of model.jacobi_matrix (no new solver); the coupling uses
the comonotone (quantile) pairing, which is optimal for squared distance
in one dimension, integrated as a Gaussian expectation by doubling
Gauss-Hermite rules.
The coupling's Hermite rule comes from spectral and its Beta quantiles are
solved here with numpy and the math module (the incomplete Beta function
of DiDonato and Morris's Algorithm 708), so the coupling gap loads no
scipy; the Beta rules of the Poincare ratios load scipy.linalg through eig.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ParameterError, QuadratureError

__all__ = [
    "PoincareReport",
    "beta_poincare_ratio",
    "CouplingReport",
    "coupling_report",
    "coupling_gap",
    "independent_coupling_gap",
]

# Gauss nodes of the Beta(p, q) rule behind beta_poincare_ratio
BETA_NODES = 160


@dataclass(frozen=True)
class PoincareReport:
    """Variance against its inequality bound; ratio should be <= 1."""

    variance: float
    bound: float
    ratio: float


def beta_poincare_ratio(
    p: float,
    q: float,
    f: spectral.TestFunction,
    weighted: bool = False,
) -> PoincareReport:
    """Poincare ratio for Y ~ Beta(p, q).

    Unweighted: Var f(Y) against (1/(4(p+q))) E|f'(Y)|^2 on [0, 1].
    Weighted: with X = 2Y - 1 on [-1, 1], Var f(X) against
    (1/(p+q)) E[(1 - X^2) |f'(X)|^2]; linear f attains equality.
    Quadrature nodes are Beta-weighted, so endpoint singularities for
    p or q < 1 are handled by construction.
    """
    if f.derivative is None:
        raise ParameterError("Poincare ratio needs the derivative of f")
    ynodes, w = spectral.jacobi_probability_quadrature(BETA_NODES, p, q)
    x = 2.0 * ynodes - 1.0 if weighted else ynodes
    vals = np.asarray(f(x), dtype=float)
    dsq = np.asarray(f.derivative(x), dtype=float) ** 2
    mean = float(w @ vals)
    variance = float(w @ (vals - mean) ** 2)
    weight, scale = (1.0 - x * x, p + q) if weighted else (1.0, 4.0 * (p + q))
    bound = float(w @ (weight * dsq)) / scale
    ratio = variance / bound if bound > 0 else (0.0 if variance == 0.0 else math.inf)
    return PoincareReport(variance=variance, bound=bound, ratio=ratio)


# Doubling schedule of the Gauss-Hermite coupling rule: the first rule, and
# the largest rule evaluated before an unconfirmed gap is an error.
_FIRST_NODES = 16
_MAX_NODES = 1024
# Two successive rules agree when they differ by at most _GAP_RTOL relative,
# or by the cancellation floor 2 * _QUANTILE_RTOL * nu * sqrt(gap), nu =
# min(p, q) / ((p + q) mu), whichever is larger.  The integrand (Y - mu -
# c z)^2 is O(gap) and _gaussian_gap forms Y - mu from the smaller of x and
# 1 - x, so a relative error kappa in the sqrt-Beta quantiles moves the gap
# by about 2 kappa nu sqrt(gap); nu = mu for p <= q.  Successive rules of
# 32..1024 nodes at n <= 1e6 and p, q in {1/4, 1/2, 1, 2, 4, 8} differ by up
# to kappa = 1.0e-16 in this sense at n = 10..1e6 (1.6e-9 relative at n =
# 1e6, p = 1, q = 2), and by 1.8e-14 at n = 5, p = q = 1/4, where 32 and 64
# nodes still differ by quadrature error.  _QUANTILE_RTOL keeps the margin
# it was set with when scipy's quantiles reached kappa ~ 4.4e-14: twice
# that, rounded up.
_GAP_RTOL = 1e-8
_QUANTILE_RTOL = 1e-13


@dataclass(frozen=True)
class CouplingReport:
    """A doubling-confirmed coupling gap and the rule that confirmed it."""

    gap: float
    nodes: int  # Gauss-Hermite nodes of the returned value
    doubling_rel_gap: float  # relative difference to the rule of 2 * nodes


def _gaussian_gap(a: float, b: float, mu: float, slope: float, nodes: int) -> float:
    """E (Y - mu - slope Z)^2 with Y = F^{-1}(Phi(Z)), Z standard normal.

    F is the law of sqrt(Beta(a, b)).  Substituting u = Phi(z) turns the
    quantile integral over u in (0, 1), singular at both ends, into a
    Gaussian expectation with a smooth integrand, which Gauss-Hermite
    integrates spectrally.  Y - mu is (x - m) / (Y + mu), m = a / (a + b),
    or, for m > 1/2, ((1 - m) - (1 - x)) / (Y + mu) from the Beta(b, a)
    quantile 1 - x at -z, so that no difference rounds next to 1.
    """
    z, w = spectral.hermite_quadrature(nodes)
    if a <= b:
        x = np.array([_beta_quantile(a, b, zi) for zi in z.tolist()])
        d = x - a / (a + b)
    else:
        y = np.array([_beta_quantile(b, a, -zi) for zi in z.tolist()])
        x, d = 1.0 - y, b / (a + b) - y
    diff = d / (np.sqrt(x) + mu) - slope * z
    return float(w @ (diff * diff)) / math.sqrt(2.0 * math.pi)


def _beta_quantile(a: float, b: float, z: float) -> float:
    """The Beta(a, b) quantile x at Phi(z), for a, b > 1.

    Each half solves in its own small tail: the lower half I_x(a, b) =
    Phi(z), the upper half I_(1-x)(b, a) = Phi(-z), so the upper tail keeps
    its digits; the solver carries both t and 1 - t, so x keeps its own.
    Where its arithmetic breaks down (p / q near 1e15 and beyond: a zero
    derivative, a logarithm of 0, an overflow), a QuadratureError.
    """
    try:
        return _tail_quantile(a, b, z)[0] if z <= 0.0 else _tail_quantile(b, a, -z)[1]
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise QuadratureError(f"Beta({a}, {b}) quantile at Phi({z}) failed: {exc}") from exc


# Steps of the quantile solver before it gives up
_SOLVER_STEPS = 100
# sqrt(1/2) as a double and the rest, sqrt(1/2) - _SQRT_HALF, to 50 digits
_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_LO = -4.833646656726457e-17
# Veltkamp's splitter 2^27 + 1: the high half of v is c - (c - v), c = _SPLIT v
_SPLIT = 134217729.0


def _product_error(a: float, b: float) -> float:
    """a b - fl(a b), exactly, by Dekker's two-product, for |a|, |b| < 2^995."""
    p = a * b
    c, d = _SPLIT * a, _SPLIT * b
    a_hi, b_hi = c - (c - a), d - (d - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _phi(z: float) -> float:
    """Phi(z) = erfc(x) / 2 at x = -z / sqrt 2, the rounding of x corrected.

    math.erfc at the rounded x = fl(-z _SQRT_HALF) inherits its relative
    error times 2 x^2, up to 1.9e-13 at z = -37.5.  The rounding delta =
    -z sqrt(1/2) - x (Dekker's product error plus -z _SQRT_HALF_LO) enters
    to first order: erfc(x + delta) = erfc(x) - delta (2 / sqrt pi) e^(-x^2).
    Within 4e-16 relative of the 40-digit Phi on [-37.5, 0].  Phi is 0 from
    z = -38.5, before e^(-x^2) underflows at z = -38.6 and the splitting
    of -z could overflow.
    """
    x = -z * _SQRT_HALF
    slope = math.exp(-x * x)
    if slope == 0.0:
        return 0.5 * math.erfc(x)
    delta = _product_error(-z, _SQRT_HALF) - z * _SQRT_HALF_LO
    return 0.5 * (math.erfc(x) - delta * (2.0 / math.sqrt(math.pi)) * slope)


@functools.lru_cache(maxsize=4096)
def _tail_quantile(a: float, b: float, z: float) -> tuple[float, float]:
    """(t, 1 - t) with I_t(a, b) = Phi(z), for z <= 0 and a, b > 1.

    (0, 1) where Phi(z) underflows.  Safeguarded Halley steps on
    G(s) = ln I_(e^s)(a, b) - ln Phi(z) in s = ln t, applied to the smaller
    of t and 1 - t, so that both keep their relative digits.  G is concave
    in s (t times the Beta density is log-concave in s for b >= 1), so a
    Newton step from below the root stays below it; a Halley step is taken
    when its factor lies in [1/2, 2] and it stays inside the bracket of the
    values of s seen so far.  Cached, so that the mirrored node of a
    symmetric rule at a = b, and the independent gap after the coupled one,
    reuse each solve.
    """
    u = _phi(z)
    if u == 0.0:
        return 0.0, 1.0
    # the tail's leading term t^a / (a B(a, b)) = u, which lies below the
    # quantile as (1 - t)^(b - 1) <= 1 ...
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    t = math.exp((math.log(u) + math.log(a) + log_beta) / a)
    y = 1.0 - t
    # ... or the Cornish-Fisher start of Abramowitz and Stegun 26.5.22, if larger
    r = (z * z - 3.0) / 6.0
    inv_a, inv_b = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
    h = 2.0 / (inv_a + inv_b)
    if h + r > 0.0:
        w = -z * math.sqrt(h + r) / h - (inv_b - inv_a) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
        odds = b * math.exp(min(2.0 * w, 700.0))
        if a / (a + odds) > t:
            t, y = a / (a + odds), odds / (a + odds)
    if t == 0.0:
        return 0.0, 1.0
    lo, hi = -math.inf, 0.0
    for _ in range(_SOLVER_STEPS):
        g, g1 = _log_cdf_ratio(a, b, t, y, u)
        s = math.log(t) if t <= 0.5 else math.log1p(-y)
        if g < 0.0:
            lo = s
        else:
            hi = s
        step = g / g1
        # half of G'' / G', from G'' = G' (a - (b - 1) t / (1 - t) - G')
        k = 0.5 * (a - (b - 1.0) * t / y - g1)
        factor = 1.0 - step * k
        halley = 0.5 <= factor <= 2.0 and lo < s - step / factor < hi
        if halley:
            step /= factor
        if t <= 0.5:
            t *= math.exp(-step)
            y = 1.0 - t
        else:
            y -= t * math.expm1(-step)
            t = 1.0 - y
        # the error left is about k^2 |step|^3 after a Halley step and
        # |k| step^2 after a Newton step, far below the rounding of t
        if abs(step) <= 1e-9 / (1.0 + abs(k)):
            return t, y
    raise QuadratureError(
        f"Beta({a}, {b}) quantile at Phi({z}) not converged in {_SOLVER_STEPS} steps")


# Stirling-series coefficients B_2k / (2k (2k - 1)), k = 1..10; from s = 8 on,
# the terms past the tenth are below 1e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400, 43867 / 244188, -174611 / 125400)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
# Steps of the Beta continued fraction before it gives up
_FRACTION_STEPS = 100000


def _stirling_correction(s: float) -> float:
    """lgamma(s) - ((s - 1/2) ln s - s + ln(2 pi) / 2), for s > 0."""
    if s < 8.0:
        return math.lgamma(s) - (s - 0.5) * math.log(s) + s - _HALF_LOG_2PI
    r = 1.0 / (s * s)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * r + c
    return acc / s


def _log_cdf_ratio(a: float, b: float, t: float, y: float, u: float) -> tuple[float, float]:
    """(ln(I_t(a, b) / u), d ln I_t(a, b) / d ln t) for 0 < t = 1 - y < 1 and a, b > 1.

    Up to the mean, I_t = P r with the power term P = t^a (1 - t)^b / B(a, b)
    and the continued fraction r of _beta_fraction; above it, I_t =
    1 - I_(1-t)(b, a) (DiDonato and Morris, ACM TOMS 18, 1992, Algorithm
    708).  ln P is their deviation form: with lam = a - (a + b) t and
    rlog1(e) = e - ln(1 + e),

        ln P = -a rlog1(-lam / a) - b rlog1(lam / b)
               + ln sqrt(a b / (2 pi (a + b))) - (d(a) + d(b) - d(a + b)),

    d the Stirling correction, so no difference of large lgamma values
    cancels.  Far below the mean, where rlog1(-lam / a) holds -ln t, the
    binary exponents of t^a and u are summed exactly (_log_power_over).
    """
    lam = a - (a + b) * t if t <= 0.5 else (a + b) * y - b
    log_t, log_y = (math.log(t), math.log1p(-t)) if t <= 0.5 else (math.log1p(-y), math.log(y))
    e = lam / b  # y / y0 - 1 with y0 = b / (a + b)
    rlog1 = e - (math.log1p(e) if abs(e) <= 0.6 else log_y + math.log1p(a / b))
    rest = (0.5 * math.log(a * b / (a + b)) - _HALF_LOG_2PI - b * rlog1
            - _stirling_correction(a) - _stirling_correction(b) + _stirling_correction(a + b))
    e = -lam / a  # t / x0 - 1 with x0 = a / (a + b)
    if abs(e) <= 0.6:
        log_p = rest - a * (e - math.log1p(e))
        log_p_over_u = log_p - math.log(u)
    else:
        rest -= a * (e - math.log1p(b / a))  # ln(t / x0) = ln t + ln(1 + b / a)
        log_p = rest + a * log_t
        log_p_over_u = rest + _log_power_over(a, t, u)
    if lam >= 0.0:
        r = _beta_fraction(a, b, t, y, lam)
        return log_p_over_u + math.log(r), 1.0 / (r * y)
    p = math.exp(log_p)
    w = p * _beta_fraction(b, a, y, t, -lam)  # I_(1-t)(b, a) < 0.64 above the mean
    return math.log1p(-w) - math.log(u), p / ((1.0 - w) * y)


def _log_power_over(a: float, t: float, u: float) -> float:
    """a ln t - ln u, with the binary exponents of t and u summed exactly.

    a is split into two halves of at most 27 bits, so each times an
    exponent is exact; the digits of a ln t - ln u then do not depend on
    the size of ln u.
    """
    mt, kt = math.frexp(t)
    mu, ku = math.frexp(u)
    split = a * 134217729.0  # 2^27 + 1 (Veltkamp)
    high = split - (split - a)
    exponent = math.fsum((high * kt, (a - high) * kt, -ku))
    return a * math.log(mt) - math.log(mu) + _LN2 * exponent



def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """r with I_x(a, b) = x^a y^b r / B(a, b), for y = 1 - x, a, b > 1 and
    lam = (a + b) y - b >= 0, i.e. x at most the mean.

    The continued fraction BFRAC of Algorithm 708, contracted so that its
    first terms are formed from lam and keep their digits next to the
    mean; it stops once a convergent moves r by at most eps r.  It takes
    550 steps at the mean of Beta(1e6, 1e6), 89 two deviations below it and
    24 five below.
    """
    c, c0, c1, yp1 = lam + 1.0, b / a, 1.0 / a + 1.0, y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _FRACTION_STEPS):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _EPS * r:
            return r
        # rescaled so that bnp1 = 1
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise QuadratureError(f"Beta({a}, {b}) continued fraction at {x} not converged")


def _check_coupling(n: float, p: float, q: float) -> None:
    """ParameterError unless n, p and q are finite, p, q > 0 and n > max(1/p, 1/q);
    run before any division by n."""
    if not all(math.isfinite(v) for v in (n, p, q)):
        raise ParameterError(f"n, p and q must be finite, got n={n}, p={p}, q={q}")
    if p <= 0 or q <= 0:
        raise ParameterError("p and q must be positive")
    if n <= max(1.0 / p, 1.0 / q):
        raise ParameterError("need n > max(1/p, 1/q)")


def _confirmed_gap(n: float, p: float, q: float, slope: float) -> CouplingReport:
    """Double the Gauss-Hermite rule from _FIRST_NODES until two agree."""
    mu = math.sqrt(p / (p + q))
    floor = 2.0 * _QUANTILE_RTOL * min(p, q) / (p + q) / mu
    nodes = _FIRST_NODES
    value = _gaussian_gap(n * p, n * q, mu, slope, nodes)
    while 2 * nodes <= _MAX_NODES:
        doubled = _gaussian_gap(n * p, n * q, mu, slope, 2 * nodes)
        diff = abs(value - doubled)
        if diff <= max(_GAP_RTOL * doubled, floor * math.sqrt(doubled)):
            return CouplingReport(gap=value, nodes=nodes,
                                  doubling_rel_gap=diff / doubled if doubled > 0 else 0.0)
        nodes, value = 2 * nodes, doubled
    raise QuadratureError(
        f"coupling gap not confirmed by doubling up to {_MAX_NODES} Gauss-Hermite nodes "
        f"(n={n}, p={p}, q={q})"
    )


def _sigma(n: float, p: float, q: float) -> float:
    return math.sqrt(q) / (2.0 * (p + q) * math.sqrt(n))


def coupling_report(n: int, p: float, q: float) -> CouplingReport:
    """coupling_gap with its confirmed Gauss-Hermite node count."""
    _check_coupling(n, p, q)
    return _confirmed_gap(n, p, q, _sigma(n, p, q))


def coupling_gap(n: int, p: float, q: float) -> float:
    """E (Y - mu - sigma X)^2 under the comonotone coupling.

    Y ~ sqrt(Beta(np, nq)), mu = sqrt(p/(p+q)), sigma = sqrt(q)/(2(p+q)
    sqrt(n)), X standard normal.  The monotone pairing minimizes the
    expected squared distance in one dimension.  Integrated by the
    Gauss-Hermite rule that a rule of twice as many nodes confirms;
    QuadratureError if none of up to _MAX_NODES nodes is confirmed.
    """
    return coupling_report(n, p, q).gap


def independent_coupling_gap(n: int, p: float, q: float) -> float:
    """E (Y - mu - sigma X)^2 when Y and X are independent: E(Y-mu)^2 + sigma^2."""
    _check_coupling(n, p, q)
    sigma = _sigma(n, p, q)
    return _confirmed_gap(n, p, q, 0.0).gap + sigma * sigma
