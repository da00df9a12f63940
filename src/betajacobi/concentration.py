"""Testable concentration inequalities: Beta Poincare, ensemble variance
bound, and the sqrt-Beta to Gaussian coupling gap.

Beta expectations are computed with Gauss nodes from the spectral module's
recurrence machinery (no new solver); the coupling uses the comonotone
(quantile) pairing, which is optimal for squared distance in one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, ndtri

from . import eig, model, spectral
from .errors import ExtremalRegimeError, ParameterError
from .params import EnsembleParams, derive_asymptotic

__all__ = [
    "PoincareReport",
    "beta_poincare_ratio",
    "jacobi_poincare_check",
    "coupling_gap",
    "independent_coupling_gap",
]


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
    nnodes: int = 160,
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
    ynodes, w = spectral.jacobi_probability_quadrature(nnodes, p, q)
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
    Requires the non-extremal regime p, q > 1.
    """
    if f.derivative is None:
        raise ParameterError("variance bound needs the derivative of f")
    if replicates < 2:
        raise ParameterError("need at least two replicates")
    asym = derive_asymptotic(params)
    margin = min(asym.p - 1.0, asym.q - 1.0)
    if margin <= 0:
        raise ExtremalRegimeError("variance bound needs p > 1 and q > 1")
    traces = np.empty(replicates)
    grads = np.empty(replicates)
    for m in range(replicates):
        rng = model.replicate_stream(seed, m)
        factor = model.sample_factor(params, rng)
        lam = eig.eigenvalues(model.assemble_gram(factor)).values
        traces[m] = np.sum(f(lam))
        grads[m] = np.sum(np.asarray(f.derivative(lam), dtype=float) ** 2)
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


def _comonotone_setup(n: int, p: float, q: float, nodes: int):
    """Shared set-up of the coupling gaps.

    Returns the quantile levels u and their weights (Gauss-Legendre on
    [0, 1]), the quantiles of Y ~ sqrt(Beta(np, nq)) at u, and the
    Gaussian model's mu and sigma.
    """
    if p <= 0 or q <= 0:
        raise ParameterError("p and q must be positive")
    if n <= max(1.0 / p, 1.0 / q):
        raise ParameterError("need n > max(1/p, 1/q)")
    t, w = spectral._gauss_legendre(nodes)
    u = 0.5 * (1.0 + t)
    yq = np.sqrt(betaincinv(n * p, n * q, u))
    if not np.all(np.isfinite(yq)):
        raise ParameterError("Beta quantile inversion failed")
    mu = math.sqrt(p / (p + q))
    sigma = math.sqrt(q) / (2.0 * (p + q) * math.sqrt(n))
    return u, 0.5 * w, yq, mu, sigma


def coupling_gap(n: int, p: float, q: float, nodes: int = 4096) -> float:
    """E (Y - mu - sigma X)^2 under the comonotone coupling.

    Y ~ sqrt(Beta(np, nq)), mu = sqrt(p/(p+q)), sigma = sqrt(q)/(2(p+q)
    sqrt(n)), X standard normal.  Quantile-grid quadrature; the monotone
    pairing minimizes the expected squared distance in one dimension.
    """
    u, w, yq, mu, sigma = _comonotone_setup(n, p, q, nodes)
    diff = yq - mu - sigma * ndtri(u)
    return float(w @ (diff * diff))


def independent_coupling_gap(n: int, p: float, q: float, nodes: int = 4096) -> float:
    """E (Y - mu - sigma X)^2 when Y and X are independent: E(Y-mu)^2 + sigma^2."""
    _, w, yq, mu, sigma = _comonotone_setup(n, p, q, nodes)
    return float(w @ ((yq - mu) ** 2)) + sigma * sigma
