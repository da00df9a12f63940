"""Testable concentration inequalities: Beta Poincare, ensemble variance
bound, and the sqrt-Beta to Gaussian coupling gap.

Beta expectations are computed with Gauss nodes from the spectral module's
recurrence machinery (no new solver); the coupling uses the comonotone
(quantile) pairing, which is optimal for squared distance in one dimension,
integrated as a Gaussian expectation by doubling Gauss-Hermite rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainccinv, betaincinv, ndtr, roots_hermitenorm

from . import model, spectral
from .errors import ExtremalRegimeError, ParameterError, QuadratureError
from .params import EnsembleParams, derive_asymptotic

__all__ = [
    "PoincareReport",
    "beta_poincare_ratio",
    "jacobi_poincare_check",
    "CouplingReport",
    "coupling_report",
    "coupling_gap",
    "independent_coupling_gap",
]

# Gauss nodes of the Beta(p, q) rule behind beta_poincare_ratio
_BETA_NODES = 160


@dataclass(frozen=True)
class PoincareReport:
    """Variance against its inequality bound; ratio should be <= 1."""

    variance: float
    bound: float
    ratio: float
    variance_se: float = 0.0
    bound_se: float = 0.0


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
    ynodes, w = spectral.jacobi_probability_quadrature(_BETA_NODES, p, q)
    if weighted:
        x = 2.0 * ynodes - 1.0
        vals = np.asarray(f(x), dtype=float)
        dsq = np.asarray(f.derivative(x), dtype=float) ** 2
        mean = float(w @ vals)
        variance = float(w @ (vals - mean) ** 2)
        bound = float(w @ ((1.0 - x * x) * dsq)) / (p + q)
    else:
        vals = np.asarray(f(ynodes), dtype=float)
        dsq = np.asarray(f.derivative(ynodes), dtype=float) ** 2
        mean = float(w @ vals)
        variance = float(w @ (vals - mean) ** 2)
        bound = float(w @ dsq) / (4.0 * (p + q))
    ratio = variance / bound if bound > 0 else (0.0 if variance == 0.0 else math.inf)
    return PoincareReport(variance=variance, bound=bound, ratio=ratio)


def jacobi_poincare_check(
    params: EnsembleParams,
    f: spectral.TestFunction,
    replicates: int,
    seed: int,
) -> PoincareReport:
    """Monte Carlo check of the ensemble variance bound.

    Compares Var tr f(A) with (alpha / (4 n min(p-1, q-1))) E sum f'(l_i)^2,
    both estimated over the replicate set; standard errors are attached.
    Both are linear statistics, tr f(A) and tr (f')^2(A), so one
    spectral.trace_statistic computes them.  Requires the non-extremal
    regime p, q > 1.
    """
    if f.derivative is None:
        raise ParameterError("variance bound needs the derivative of f")
    asym = derive_asymptotic(params)
    margin = min(asym.p - 1.0, asym.q - 1.0)
    if margin <= 0:
        raise ExtremalRegimeError("variance bound needs p > 1 and q > 1")
    statistics = spectral.trace_statistic([f, spectral.squared_derivative(f)])
    # contiguous rows, so no reduction below depends on the stride of a column view
    stats = model.map_replicates(params, seed, replicates, statistics)
    traces, grads = np.ascontiguousarray(stats.T)
    centered = traces - traces.mean()
    variance = float(centered @ centered) / (replicates - 1)
    m2 = centered**2
    variance_se = math.sqrt(max(float(np.var(m2)) / replicates, 0.0))
    prefactor = asym.alpha / (4.0 * params.n * margin)
    bound = prefactor * float(grads.mean())
    bound_se = prefactor * float(grads.std(ddof=1)) / math.sqrt(replicates)
    ratio = variance / bound if bound > 0 else (0.0 if variance == 0.0 else math.inf)
    return PoincareReport(
        variance=variance,
        bound=bound,
        ratio=ratio,
        variance_se=variance_se,
        bound_se=bound_se,
    )


# Doubling schedule of the Gauss-Hermite coupling rule: the first rule, and
# the largest rule evaluated before an unconfirmed gap is an error.
_FIRST_NODES = 16
_MAX_NODES = 1024
# Two successive rules agree when they differ by at most _GAP_RTOL relative,
# or by the cancellation floor 2 * _QUANTILE_RTOL * mu * sqrt(gap), whichever
# is larger.  The integrand (Y - mu - c z)^2 is O(gap) while Y ~ mu = O(1), so
# a relative error kappa in the sqrt-Beta quantiles moves the gap by about
# 2 kappa mu sqrt(gap).  Successive rules of 32..1024 nodes at n <= 1e6 and
# p, q in {1/4, 1/2, 1, 2, 4, 8} differ by up to kappa ~ 4.4e-14 in this sense
# (3.8e-7 relative at n = 1e6, p = 1/2, q = 4); _QUANTILE_RTOL is twice that,
# rounded up.
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
    integrates spectrally.  The upper half inverts the complementary Beta
    function at Phi(-z), so the upper tail keeps its digits.
    """
    z, w = roots_hermitenorm(nodes)
    lower = z <= 0
    x = np.empty_like(z)
    x[lower] = betaincinv(a, b, ndtr(z[lower]))
    x[~lower] = betainccinv(a, b, ndtr(-z[~lower]))
    if not np.all(np.isfinite(x)):
        raise QuadratureError(f"Beta quantile inversion failed at {nodes} Gauss-Hermite nodes")
    diff = np.sqrt(x) - mu - slope * z
    return float(w @ (diff * diff)) / math.sqrt(2.0 * math.pi)


def _check_coupling(n: float, p: float, q: float) -> None:
    """ParameterError unless p, q > 0 and n > max(1/p, 1/q); run before any division by n."""
    if p <= 0 or q <= 0:
        raise ParameterError("p and q must be positive")
    if n <= max(1.0 / p, 1.0 / q):
        raise ParameterError("need n > max(1/p, 1/q)")


def _confirmed_gap(n: float, p: float, q: float, slope: float) -> CouplingReport:
    """Double the Gauss-Hermite rule from _FIRST_NODES until two agree."""
    mu = math.sqrt(p / (p + q))
    nodes = _FIRST_NODES
    value = _gaussian_gap(n * p, n * q, mu, slope, nodes)
    while 2 * nodes <= _MAX_NODES:
        doubled = _gaussian_gap(n * p, n * q, mu, slope, 2 * nodes)
        diff = abs(value - doubled)
        if diff <= max(_GAP_RTOL * doubled, 2.0 * _QUANTILE_RTOL * mu * math.sqrt(doubled)):
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
