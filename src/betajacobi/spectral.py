"""Limiting spectral objects and Chebyshev analysis on the support interval.

All integrals over the support are computed in theta coordinates,
x = c + r cos(theta), where the Chebyshev weight is flat and the closed
trapezoid rule is spectrally accurate (and exact for polynomials of degree
below half the panel count).  The grid has THETA_NODES panels.

trace_statistic is the one map from test functions to rows of tr f(A) over
stacked Gram matrices: banded Chebyshev traces when every function is a
polynomial, the eigensolver's spectrum otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebmul, chebval

from . import eig, model
from .errors import ParameterError, QuadratureError
from .params import AsymptoticParams, SupportInterval, checked_int

__all__ = [
    "ChebyshevForm",
    "TestFunction",
    "VarianceFunctionals",
    "monomial_table",
    "monomial",
    "exp_function",
    "piecewise_linear",
    "chebyshev_test_function",
    "squared_derivative",
    "trace_statistic",
    "chebyshev_coefficients",
    "variance_functionals",
    "limit_covariance",
    "integrate_density",
    "edge_weight_integral",
    "integrate_deviation",
    "arcsine_integral",
    "stieltjes_pair",
    "jacobi_probability_quadrature",
    "jacobi_probability_quadratures",
    "hermite_quadrature",
]

# Panels of the closed theta grid; read at call time, so a test may patch it
THETA_NODES = 2048
# |q| past which _christoffel_weights rescales its recurrence; its square,
# summed over every recurrence step, stays far inside the float range
_RESCALE_AT = 2.0**256


@dataclass(frozen=True)
class ChebyshevForm:
    """The polynomial sum_k coeffs[k] T_k((x - center) / half_width).

    The map (center, half_width) is part of the form: Gamma_m is held
    exactly on its support, monomials on [0, 1] (center = half_width = 1/2).
    """

    coeffs: tuple
    center: float = 0.5
    half_width: float = 0.5

    def on(self, center: float, half_width: float) -> "ChebyshevForm":
        """The same polynomial in Chebyshev coefficients on another map."""
        if (center, half_width) == (self.center, self.half_width):
            return self
        series = np.polynomial.Chebyshev(
            self.coeffs, domain=[self.center - self.half_width, self.center + self.half_width]
        )
        moved = series.convert(domain=[center - half_width, center + half_width])
        return ChebyshevForm(tuple(moved.coef.tolist()), center, half_width)

    def __call__(self, x):
        """The polynomial at x, by Clenshaw's recurrence."""
        return chebval((np.asarray(x, dtype=float) - self.center) / self.half_width, self.coeffs)

    def derivative(self) -> "ChebyshevForm":
        """The derivative in x, on the same map."""
        return replace(self, coeffs=tuple(chebder(self.coeffs, scl=1.0 / self.half_width).tolist()))


@dataclass(frozen=True)
class TestFunction:
    """A test function on [0, 1], optionally with derivative and polynomial form.

    chebyshev, when present, writes the function exactly as a ChebyshevForm;
    it lets trace_statistic evaluate tr f(A) from the banded Chebyshev traces
    of model.chebyshev_traces instead of a full eigendecomposition.
    """

    fn: Callable
    derivative: Optional[Callable] = None
    name: str = "f"
    chebyshev: Optional[ChebyshevForm] = None

    def __call__(self, x):
        return self.fn(x)

    @property
    def is_polynomial(self) -> bool:
        return self.chebyshev is not None


def _chebyshev_rows(forms: Sequence[ChebyshevForm], center: float, half_width: float) -> np.ndarray:
    """Coefficients of each form on the map (center, half_width), one row
    each, zero-padded to the largest degree."""
    moved = [form.on(center, half_width).coeffs for form in forms]
    rows = np.zeros((len(moved), max(len(c) for c in moved)))
    for row, coeffs in zip(rows, moved):
        row[: len(coeffs)] = coeffs
    return rows


def monomial_table(K: int, center: float, half_width: float) -> np.ndarray:
    """Row n, for n <= K: the coefficients of x^n in T_j((x - center) / half_width).

    Each row is the one before times x = center + half_width u, with
    u T_0 = T_1 and u T_j = (T_{j+1} + T_{j-1}) / 2 for j >= 1.
    """
    K = checked_int("K", K, 0)
    c, r = center, half_width
    table = np.zeros((K + 1, K + 1))
    table[0, 0] = 1.0
    for n in range(1, K + 1):
        prev, row = table[n - 1, :n], table[n]
        row[:n] = c * prev
        row[1] += r * prev[0]
        row[2 : n + 1] += 0.5 * r * prev[1:]
        row[: n - 1] += 0.5 * r * prev[1:]
    return table


def monomial(k: int) -> TestFunction:
    """x^k for 0 <= k <= 12."""
    k = checked_int("k", k, 0, 12)
    if k == 0:
        return TestFunction(
            fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="1",
            chebyshev=ChebyshevForm((1.0,)),
        )
    return TestFunction(
        fn=lambda x, k=k: np.asarray(x, dtype=float) ** k,
        derivative=lambda x, k=k: k * np.asarray(x, dtype=float) ** (k - 1),
        name=f"x^{k}" if k > 1 else "x",
        chebyshev=ChebyshevForm(tuple(monomial_table(k, 0.5, 0.5)[k].tolist())),
    )


def exp_function() -> TestFunction:
    return TestFunction(fn=np.exp, derivative=np.exp, name="exp")


def piecewise_linear(knots: Sequence[float], values: Sequence[float]) -> TestFunction:
    """Piecewise-linear interpolant; not C^1, flagged in the name."""
    kn = np.asarray(knots, dtype=float)
    vals = np.asarray(values, dtype=float)
    if kn.ndim != 1 or kn.shape != vals.shape or kn.shape[0] < 2:
        raise ParameterError("need matching 1-d knots and values, at least two")
    if np.any(np.diff(kn) <= 0):
        raise ParameterError("knots must be strictly increasing")
    slopes = np.diff(vals) / np.diff(kn)

    def deriv(x, kn=kn, slopes=slopes):
        idx = np.clip(np.searchsorted(kn, np.asarray(x, dtype=float), side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    return TestFunction(
        fn=lambda x, kn=kn, vals=vals: np.interp(np.asarray(x, dtype=float), kn, vals),
        derivative=deriv,
        name="piecewise-linear (not C1)",
    )


def chebyshev_test_function(m: int, support: SupportInterval) -> TestFunction:
    """The m-th shifted Chebyshev polynomial Gamma_m = 2 T_m as a TestFunction.

    Its Chebyshev form is exact: the coefficient 2 at degree m on the
    support's own map.  The function and its derivative evaluate that form.
    """
    m = checked_int("m", m, 0)
    form = ChebyshevForm((0.0,) * m + (2.0,), support.center, support.half_width)
    return TestFunction(fn=form, derivative=form.derivative(), name=f"gamma{m}", chebyshev=form)


def squared_derivative(f: TestFunction) -> TestFunction:
    """(f')^2 as a TestFunction, so that sum_i f'(l_i)^2 = tr (f')^2(A).

    For a polynomial f it carries the exact form chebmul(chebder(c), .) on
    the map of f's own form.
    """
    if f.derivative is None:
        raise ParameterError("squared derivative needs the derivative of f")
    form = f.chebyshev
    if form is not None:
        dform = form.derivative().coeffs
        form = replace(form, coeffs=tuple(chebmul(dform, dform)))
    return TestFunction(
        fn=lambda x, d=f.derivative: np.asarray(d(x), dtype=float) ** 2,
        name=f"({f.name})'^2",
        chebyshev=form,
    )


def trace_statistic(
    funcs: Sequence[TestFunction],
    center: Optional[float] = None,
    half_width: Optional[float] = None,
):
    """Stacked Gram matrices -> (b, len(funcs)) rows of tr f(A).

    When every function is a polynomial, its Chebyshev form is moved once
    onto the map (center, half_width), by default the first form's own map,
    and each block costs one call of model.chebyshev_sums; otherwise every
    function is summed over the spectrum of each matrix.
    """
    if all(f.is_polynomial for f in funcs):
        if center is None:
            center, half_width = funcs[0].chebyshev.center, funcs[0].chebyshev.half_width
        rows = _chebyshev_rows([f.chebyshev for f in funcs], center, half_width)
        return lambda grams: model.chebyshev_sums(grams, rows, center, half_width)
    def spectrum_sums(grams):
        spectra = (eig.eigenvalues(gram).values for gram in grams)
        return np.array([[float(np.sum(f(lam))) for f in funcs] for lam in spectra])

    return spectrum_sums


def _theta_values(f: Callable, center: float, half_width: float):
    """(theta, w, x, f(x)) on the closed trapezoid grid of THETA_NODES
    panels on [0, pi], weights summing to pi, at x = center + half_width cos(theta).

    QuadratureError if f is not finite at every node.
    """
    theta = np.linspace(0.0, math.pi, THETA_NODES + 1)
    w = np.full(THETA_NODES + 1, math.pi / THETA_NODES)
    w[0] *= 0.5
    w[-1] *= 0.5
    x = center + half_width * np.cos(theta)
    values = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(values)):
        raise QuadratureError("integrand produced non-finite values on the quadrature grid")
    return theta, w, x, values


def chebyshev_coefficients(f: Callable, N: int, support: SupportInterval) -> np.ndarray:
    """The read-only fhat[n] = (1/pi) integral of f(c + r cos t) cos(n t) dt,
    0 <= n <= N.

    fhat[n] is the coefficient of Gamma_n for n >= 1.  fhat[0] is the
    theta-average of f, the coefficient of Gamma_0 / 2: the n = 0 basis
    function has squared norm 2.  On the closed theta grid of
    _theta_values these trapezoid sums are a DCT-I, one real FFT of the
    values' even extension (Trefethen, ATAP, ch. 3).  cos(n t) and
    cos((2 THETA_NODES - n) t) agree on that grid, so N must stay below
    THETA_NODES.
    """
    N, nodes = checked_int("N", N, 0), THETA_NODES
    if N >= nodes:
        raise ParameterError(
            f"Chebyshev coefficients up to n = {N} alias on {nodes} quadrature panels "
            f"(need n < {nodes})")
    _, _, x, vals = _theta_values(f, support.center, support.half_width)
    vals = np.broadcast_to(vals, x.shape)
    fhat = np.fft.rfft(np.concatenate((vals, vals[-2:0:-1])))[: N + 1].real / (2 * nodes)
    fhat.setflags(write=False)
    return fhat


@dataclass(frozen=True)
class VarianceFunctionals:
    """CLT variance sigma^2 = (2/beta) sum n fhat_n^2, with the coefficients
    it was computed from."""

    sigma_sq: float
    coefficients_decayed: bool
    coefficients: np.ndarray


def variance_functionals(
    f: Callable, N: int, beta: float, support: SupportInterval
) -> VarianceFunctionals:
    """Variance functional from the Chebyshev coefficients.

    Coefficients of the last decade that do not visibly decay trigger a
    warning and clear coefficients_decayed.
    """
    fhat = chebyshev_coefficients(f, N, support)
    ns = np.arange(1, N + 1)
    sigma = (2.0 / beta) * float(np.sum(ns * fhat[1:] ** 2))
    cut = max(1, N - max(N // 10, 1))
    head = float(np.max(np.abs(fhat[1:]), initial=0.0))
    tail_mag = float(np.max(np.abs(fhat[1:][ns >= cut]), initial=0.0))
    decayed = tail_mag <= max(1e-6 * head, 1e-13)
    if not decayed:
        warnings.warn(
            f"Chebyshev coefficients show no visible decay for {getattr(f, 'name', 'f')}; "
            "the function may not be smooth enough for the variance formula",
            stacklevel=2,
        )
    return VarianceFunctionals(sigma_sq=sigma, coefficients_decayed=decayed, coefficients=fhat)


def limit_covariance(fhat: np.ndarray, beta: float) -> np.ndarray:
    """Limiting covariance (2/beta) sum_{n >= 1} n fhat[i, n] fhat[j, n] of
    the statistics whose Chebyshev coefficients are the rows of fhat."""
    ns = np.arange(1, fhat.shape[1], dtype=float)
    return (2.0 / beta) * (fhat[:, 1:] * ns) @ fhat[:, 1:].T


def integrate_density(f: Callable, asym: AsymptoticParams) -> float:
    """Integral of f against the limiting spectral density.

    The density is sqrt(-(x - l-)(x - l+)) / (2 pi a x (1 - x)); in theta
    coordinates the integrand is (r^2/(2 pi a)) f(x) sin^2(t) / (x(1-x)).
    Endpoint limits are substituted when an edge sits at 0 or 1.
    """
    asym.require_bulk()
    sup = SupportInterval.from_shape(asym.a, asym.b)
    r = sup.half_width
    theta, w, x, vals = _theta_values(f, sup.center, r)
    denom = x * (1.0 - x)
    ratio = np.empty_like(x)
    interior = slice(1, -1)
    ratio[interior] = np.sin(theta[interior]) ** 2 / denom[interior]
    # sin^2/denominator limits at the endpoints; nonzero only if an edge
    # touches 0 or 1 (then sin^2 and x(1-x) vanish together)
    lam_p, lam_m = sup.lambda_plus, sup.lambda_minus
    ratio[0] = 2.0 / r if abs(1.0 - lam_p) < 1e-14 else 0.0
    ratio[-1] = 2.0 / r if abs(lam_m) < 1e-14 else 0.0
    total = float(np.sum(w * vals * ratio))
    return r * r * total / (2.0 * math.pi * asym.a)


def integrate_deviation(f: Callable, support: SupportInterval) -> float:
    """f(l-)/4 + f(l+)/4 - (1/2pi) integral of f(c + r cos t) dt."""
    _, w, _, vals = _theta_values(f, support.center, support.half_width)
    edge = float(f(np.asarray(support.lambda_minus))) / 4.0 + float(
        f(np.asarray(support.lambda_plus))
    ) / 4.0
    return edge - float(np.sum(w * vals)) / (2.0 * math.pi)


def arcsine_integral(f: Callable) -> float:
    """(1/pi) integral of f(x)/sqrt(x(1-x)) dx over [0, 1], in theta form."""
    _, w, _, vals = _theta_values(f, 0.5, 0.5)
    return float(np.sum(w * vals) / math.pi)


def edge_weight_integral(support: SupportInterval) -> float:
    """Integral of sqrt(-(x - l-)(x - l+)) / (x(1-x)) over the support.

    Second-kind Gauss-Chebyshev rule of THETA_NODES open nodes in x space,
    independent of the theta-trapezoid route used by integrate_density;
    the value should be 2 pi a.  Where an edge touches 0 or 1 the integrand
    tends to 2 r there, so the end term h r of the closed rule of step
    h = pi / (THETA_NODES + 1), which the open nodes miss, is added.
    """
    nodes = THETA_NODES
    j = np.arange(1, nodes + 1)
    t = j * math.pi / (nodes + 1)
    u = np.cos(t)
    w = math.pi / (nodes + 1) * np.sin(t) ** 2
    c, r = support.center, support.half_width
    x = c + r * u
    denom = x * (1.0 - x)
    if np.any(denom <= 0):
        raise QuadratureError("support node fell outside (0, 1)")
    edges = (abs(1.0 - support.lambda_plus) < 1e-14) + (abs(support.lambda_minus) < 1e-14)
    return r * r * float(np.sum(w / denom)) + edges * math.pi / (nodes + 1) * r


def stieltjes_pair(x: float, asym: AsymptoticParams) -> tuple[float, float]:
    """Leading and 1/n Stieltjes-transform terms of the mean spectral measure.

    The square-root branch is fixed so the leading term behaves like 1/x at
    +infinity (sign(x - center) outside the support).  The leading term is
    ((a - b) + (1 - 2a) x - root) / (2a x (1 - x)), a 0/0 at x = 0 and x = 1;
    it is taken in the conjugate form 2 (1 - a) / ((a - b) + (1 - 2a) x +
    root), whose two terms share a sign, so neither term has a pole there.
    """
    asym.require_bulk()
    sup = SupportInterval.from_shape(asym.a, asym.b)
    lam_m, lam_p = sup.lambda_minus, sup.lambda_plus
    if lam_m <= x <= lam_p:
        raise ParameterError(f"x={x} lies inside the support [{lam_m}, {lam_p}]")
    a, b = asym.a, asym.b
    root = math.copysign(math.sqrt((x - lam_m) * (x - lam_p)), x - sup.center)
    m0 = 2.0 * (1.0 - a) / ((a - b) + (1.0 - 2.0 * a) * x + root)
    m1 = (-x + sup.center + root) / (2.0 * (x - lam_p) * (x - lam_m))
    return m0, m1


def jacobi_probability_quadrature(nnodes: int, p_shape: float, q_shape: float):
    """Gauss nodes and weights for the Beta(p, q) probability measure.

    The nodes are the spectrum of model.jacobi_matrix of Beta(p, q)'s
    canonical moments; the weights are the Christoffel sums of the
    orthonormal polynomials, so no Beta normalization constant is ever
    formed.  Handles p or q below one (the endpoint-singular weights).
    Shapes not finite or below 1e-9 are a ParameterError: rules lose digits
    as a shape falls but keep their mass (40 nodes: 2.8e-8 off at p = 1e-9,
    2.2e-5 at 1e-12).  Weights not finite, nonnegative and of sum 1 within
    _RULE_MASS_TOL are a QuadratureError.  Cached per (nnodes, p, q), the
    last _BETA_RULES_KEPT rules built; the arrays are shared by every
    caller, so they are read-only.
    """
    return jacobi_probability_quadratures(nnodes, [(p_shape, q_shape)])[0]


def jacobi_probability_quadratures(nnodes: int, shapes) -> list:
    """jacobi_probability_quadrature of each (p, q) in shapes.

    The rules not yet cached are built together from one stacked Jacobi
    matrix, their Christoffel sums as one stacked recurrence.  Each rule is
    bit-identical to the same rule built alone.
    """
    nnodes = checked_int("nnodes", nnodes, 1)
    keys = [(nnodes, float(p), float(q)) for p, q in shapes]
    if not all(1e-9 <= x < math.inf for key in keys for x in key[1:]):
        raise ParameterError("Beta shapes must be finite and at least 1e-9")
    missing = [key for key in dict.fromkeys(keys) if key not in _BETA_RULES]
    if missing:
        _BETA_RULES.update(zip(missing, _beta_rules(nnodes, [key[1:] for key in missing])))
    rules = [_BETA_RULES[key] for key in keys]
    while len(_BETA_RULES) > _BETA_RULES_KEPT:
        del _BETA_RULES[next(iter(_BETA_RULES))]
    return rules


# Cached Beta rules by (nnodes, p, q), oldest first; the oldest go past _BETA_RULES_KEPT
_BETA_RULES: dict = {}
_BETA_RULES_KEPT = 64
# Largest |sum of weights - 1| of a Beta rule; good rules stay below 4e-9
# (160 nodes at (1e6, 0.5)), while rounded shapes past about 1e15 miss by 0.1
_RULE_MASS_TOL = 1e-6


def _beta_rules(nnodes: int, shapes) -> list:
    """Uncached (nodes, weights) of the Beta(p, q) rule for each (p, q) in shapes,
    from Beta(p, q)'s canonical moments, a row per rule (all 0 if p + q overflows)."""
    p, q = np.array(shapes, dtype=float).T[:, :, None]
    k = np.arange(nnodes, dtype=float)
    r, s, j = p + k, q + k, k[1:]
    with np.errstate(all="ignore"):  # a NaN or infinite weight fails both tests
        jac = model.jacobi_matrix(r / (r + s), j / (j + ((p + q) + (j - 1.0))))
        nodes = np.array([eig.eigenvalues(rule).values for rule in jac])
        weights = _christoffel_weights(nodes, jac.diag, jac.off)[0]
        good = np.all(weights >= 0.0, axis=1) & (abs(weights.sum(axis=1) - 1.0) <= _RULE_MASS_TOL)
    if not good.all():
        bad = [shape for shape, ok in zip(shapes, good) if not ok]
        raise QuadratureError(f"the {nnodes}-node Beta rules at (p, q) = {bad} lost their accuracy")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return list(zip(nodes, weights))


def _christoffel_weights(nodes: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """Gauss weights 1 / sum_k q_k(x)^2 of probability measures, a row per rule.

    q_k are the polynomials orthonormal for the measure whose Jacobi matrix
    has diagonal diag (rules, m) and off-diagonal off (rules, m - 1); nodes
    (rules, m) are its eigenvalues.  Returns (weights, q_(m-2), q_(m-1)),
    the last two at the nodes divided by the same power of two (q_(-1) = 0).
    """
    # orthonormal recurrence evaluated at the nodes, a row per rule; at large
    # shapes or nodes the values grow past the float range, so once |q| at a
    # node passes _RESCALE_AT its q's and sum are divided by a power of two
    # (exact), whose exponent is carried in `scale` and restored in the weight
    qprev, qcur = np.zeros_like(nodes), np.ones_like(nodes)
    total = qcur.copy()
    scale = np.zeros(nodes.shape, dtype=int)
    if nodes.shape[1] > 1:
        centers, steps = diag.T[:, :, None], off.T[:, :, None]  # step k of every rule
        qprev, qcur = qcur, (nodes - centers[0]) / steps[0]
        total += qcur * qcur
        for k in range(1, nodes.shape[1] - 1):
            qnext = ((nodes - centers[k]) * qcur - steps[k - 1] * qprev) / steps[k]
            qprev, qcur = qcur, qnext
            total += qcur * qcur
            # total >= q^2, so its maximum (one pass, where the test of every
            # |q| takes three) rules out any |q| past _RESCALE_AT at most steps
            if total.max() <= _RESCALE_AT * _RESCALE_AT:
                continue
            big = np.abs(qcur) > _RESCALE_AT
            if big.any():
                shift = np.where(big, np.frexp(qcur)[1], 0)
                qprev = np.ldexp(qprev, -shift)
                qcur = np.ldexp(qcur, -shift)
                total = np.ldexp(total, -2 * shift)
                scale += shift
    return np.ldexp(1.0 / total, -2 * scale), qprev, qcur


def hermite_quadrature(nnodes: int):
    """Gauss-Hermite nodes and weights for the weight exp(-z^2 / 2) on the line.

    The probabilists' rule: the nodes are the eigenvalues of the Jacobi
    matrix of the Hermite polynomials He_k (zero diagonal, off-diagonal
    sqrt(k)), made exactly symmetric about 0 and refined by one Newton
    step on He_n; the weights are sqrt(2 pi) times its Christoffel weights,
    so they sum to sqrt(2 pi), and underflow to 0 in the far tails of large
    rules.  Cached per node count; the arrays are shared by every caller, so
    they are read-only.
    """
    nnodes = checked_int("nnodes", nnodes, 1)
    rule = _HERMITE_RULES.get(nnodes)
    if rule is None:
        off = np.sqrt(np.arange(1.0, nnodes))
        diag = np.zeros((1, nnodes))
        # eigvalsh, not eigh: the eigenvector path costs 100 times more
        nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        nodes = 0.5 * (nodes - nodes[::-1])
        # eigvalsh's nodes are off by up to 7e-13 at 1024 nodes; Newton on
        # He_n = sqrt(n!) q_n with q_n = (z q_(n-1) - sqrt(n-1) q_(n-2)) / sqrt(n)
        # and He_n' = n He_(n-1) takes them to the float grid
        _, qprev, qcur = _christoffel_weights(nodes[None], diag, off[None])
        nodes = nodes - ((nodes * qcur - math.sqrt(nnodes - 1) * qprev) / (nnodes * qcur))[0]
        weights = math.sqrt(2.0 * math.pi) * _christoffel_weights(nodes[None], diag, off[None])[0][0]
        nodes.setflags(write=False)
        weights.setflags(write=False)
        rule = _HERMITE_RULES[nnodes] = (nodes, weights)
    return rule


# Cached Gauss-Hermite rules by node count
_HERMITE_RULES: dict = {}
