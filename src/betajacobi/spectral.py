"""Limiting spectral objects and Chebyshev analysis on the support interval.

All integrals over the support are computed in theta coordinates,
x = c + r cos(theta), where the Chebyshev weight is flat and the closed
trapezoid rule is spectrally accurate (and exact for polynomials of degree
below half the panel count).  Default node count is 2048.

trace_statistic is the one map from test functions to rows of tr f(A) over
stacked Gram matrices: banded Chebyshev traces when every function is a
polynomial, the eigensolver's spectrum otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebmul
from scipy.special import roots_legendre

from . import eig, model
from .errors import ParameterError, QuadratureError
from .model import SymTridiagonal
from .params import AsymptoticParams, SupportInterval

__all__ = [
    "ChebyshevForm",
    "TestFunction",
    "ChebyshevCoefficients",
    "VarianceFunctionals",
    "monomial",
    "exp_function",
    "piecewise_linear",
    "chebyshev_test_function",
    "shifted_chebyshev",
    "squared_derivative",
    "trace_statistic",
    "chebyshev_coefficients",
    "variance_functionals",
    "tau_integral",
    "integrate_density",
    "edge_weight_integral",
    "integrate_deviation",
    "arcsine_integral",
    "stieltjes_pair",
    "jacobi_recurrence_01",
    "jacobi_roots",
    "jacobi_probability_quadrature",
]

DEFAULT_NODES = 2048
# |q| past which jacobi_probability_quadrature rescales its recurrence; its
# square, summed over every recurrence step, stays far inside the float range
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

    def check_derivative(self, grid: np.ndarray, tol: float = 1e-5, h: float = 1e-6) -> bool:
        """Central finite-difference check of the stored derivative."""
        if self.derivative is None:
            return True
        fd = (self.fn(grid + h) - self.fn(grid - h)) / (2 * h)
        return bool(np.max(np.abs(fd - self.derivative(grid))) <= tol)


def _chebyshev_rows(forms: Sequence[ChebyshevForm], center: float, half_width: float) -> np.ndarray:
    """Coefficients of each form on the map (center, half_width), one row
    each, zero-padded to the largest degree."""
    moved = [form.on(center, half_width).coeffs for form in forms]
    rows = np.zeros((len(moved), max(len(c) for c in moved)))
    for row, coeffs in zip(rows, moved):
        row[: len(coeffs)] = coeffs
    return rows


def monomial(k: int) -> TestFunction:
    """x^k for 0 <= k <= 12."""
    if not (0 <= k <= 12):
        raise ParameterError("monomial degree limited to 0..12")
    if k == 0:
        return TestFunction(
            fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="1",
            chebyshev=ChebyshevForm((1.0,)),
        )
    coeffs = np.polynomial.Polynomial.basis(k).convert(
        kind=np.polynomial.Chebyshev, domain=[0.0, 1.0]
    ).coef
    return TestFunction(
        fn=lambda x, k=k: np.asarray(x, dtype=float) ** k,
        derivative=lambda x, k=k: k * np.asarray(x, dtype=float) ** (k - 1),
        name=f"x^{k}" if k > 1 else "x",
        chebyshev=ChebyshevForm(tuple(coeffs.tolist())),
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


def shifted_chebyshev(m: int, x, support: SupportInterval):
    """2 T_m((2x - l+ - l-)/(l+ - l-)) by the three-term recurrence."""
    if m < 0:
        raise ParameterError("order must be nonnegative")
    u = (np.asarray(x, dtype=float) - support.center) / support.half_width
    if m == 0:
        return 2.0 * np.ones_like(u)
    t_prev = np.ones_like(u)
    t_cur = u.copy()
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * u * t_cur - t_prev
    return 2.0 * t_cur


def _shifted_chebyshev_derivative(m: int, x, support: SupportInterval):
    """d/dx 2 T_m(u) = 2 m U_{m-1}(u) / r, by the second-kind recurrence."""
    u = (np.asarray(x, dtype=float) - support.center) / support.half_width
    if m == 0:
        return np.zeros_like(u)
    u_prev = np.zeros_like(u)  # U_{-1}
    u_cur = np.ones_like(u)  # U_0
    for _ in range(m - 1):
        u_prev, u_cur = u_cur, 2.0 * u * u_cur - u_prev
    return (2.0 * m / support.half_width) * u_cur


def chebyshev_test_function(m: int, support: SupportInterval) -> TestFunction:
    """The m-th shifted Chebyshev polynomial Gamma_m = 2 T_m as a TestFunction.

    Its Chebyshev form is exact: the coefficient 2 at degree m on the
    support's own map.
    """
    if m < 0:
        raise ParameterError("order must be nonnegative")
    return TestFunction(
        fn=lambda x, m=m, s=support: shifted_chebyshev(m, x, s),
        derivative=lambda x, m=m, s=support: _shifted_chebyshev_derivative(m, x, s),
        name=f"gamma{m}",
        chebyshev=ChebyshevForm((0.0,) * m + (2.0,), support.center, support.half_width),
    )


def squared_derivative(f: TestFunction) -> TestFunction:
    """(f')^2 as a TestFunction, so that sum_i f'(l_i)^2 = tr (f')^2(A).

    For a polynomial f it carries the exact form chebmul(chebder(c), .) on
    the map of f's own form.
    """
    if f.derivative is None:
        raise ParameterError("squared derivative needs the derivative of f")
    form = f.chebyshev
    if form is not None:
        dform = chebder(form.coeffs, scl=1.0 / form.half_width)
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


def _theta_values(f: Callable, center: float, half_width: float, nodes: int):
    """(theta, w, x, f(x)) on the closed trapezoid grid of nodes panels on
    [0, pi], weights summing to pi, at x = center + half_width cos(theta).

    QuadratureError if f is not finite at every node.
    """
    if nodes < 8:
        raise ParameterError("need at least 8 quadrature panels")
    theta = np.linspace(0.0, math.pi, nodes + 1)
    w = np.full(nodes + 1, math.pi / nodes)
    w[0] *= 0.5
    w[-1] *= 0.5
    x = center + half_width * np.cos(theta)
    values = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(values)):
        raise QuadratureError("integrand produced non-finite values on the quadrature grid")
    return theta, w, x, values


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per node count.

    Built by scipy's roots_legendre (Golub-Welsch plus Newton polishing):
    O(nodes^2) time and O(nodes) memory, where a dense eigensolve of the
    companion matrix costs O(nodes^3) and O(nodes^2).  The arrays are
    shared by every caller, so they are read-only.
    """
    if nodes < 1:
        raise ParameterError("need at least one Gauss-Legendre node")
    t, w = roots_legendre(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class ChebyshevCoefficients:
    """fhat[n] for 0 <= n <= N; fhat[0] is the theta-average of f.

    fhat[0] is the coefficient of (Gamma_0 / 2); the n = 0 basis function
    has squared norm 2, so it is stored as the plain average instead.
    """

    fhat: np.ndarray
    N: int

    def __post_init__(self):
        self.fhat.setflags(write=False)


def chebyshev_coefficients(
    f: Callable,
    N: int,
    support: SupportInterval,
    nodes: int = DEFAULT_NODES,
) -> ChebyshevCoefficients:
    """fhat[n] = (1/pi) integral of f(c + r cos t) cos(n t) dt, n >= 1."""
    theta, w, _, vals = _theta_values(f, support.center, support.half_width, nodes)
    wv = w * vals
    ns = np.arange(N + 1)
    fhat = (np.cos(np.outer(ns, theta)) @ wv) / math.pi
    return ChebyshevCoefficients(fhat=fhat, N=N)


@dataclass(frozen=True)
class VarianceFunctionals:
    """CLT variance sigma^2 = (2/beta) sum n fhat_n^2 and tau^2 = sum n^2 fhat_n^2,
    with the coefficients they were computed from."""

    sigma_sq: float
    tau_sq: float
    sigma_tail: float
    tau_tail: float
    coefficients_decayed: bool
    coefficients: ChebyshevCoefficients


def variance_functionals(
    f: Callable,
    N: int,
    beta: float,
    support: SupportInterval,
    nodes: int = DEFAULT_NODES,
) -> VarianceFunctionals:
    """Variance functionals from the Chebyshev coefficients.

    The tail fields hold the contribution of the last decade of
    coefficients; visible non-decay triggers a warning state.
    """
    coeffs = chebyshev_coefficients(f, N, support, nodes=nodes)
    ns = np.arange(1, N + 1)
    sq = coeffs.fhat[1:] ** 2
    sigma = (2.0 / beta) * float(np.sum(ns * sq))
    tau = float(np.sum(ns * ns * sq))
    cut = max(1, N - max(N // 10, 1))
    tail_idx = ns >= cut
    sigma_tail = (2.0 / beta) * float(np.sum(ns[tail_idx] * sq[tail_idx]))
    tau_tail = float(np.sum((ns[tail_idx] ** 2) * sq[tail_idx]))
    head = float(np.max(np.abs(coeffs.fhat[1:]), initial=0.0))
    tail_mag = float(np.max(np.abs(coeffs.fhat[1:][tail_idx]), initial=0.0))
    decayed = tail_mag <= max(1e-6 * head, 1e-13)
    if not decayed:
        warnings.warn(
            f"Chebyshev coefficients show no visible decay for {getattr(f, 'name', 'f')}; "
            "the function may not be smooth enough for the variance formula",
            stacklevel=2,
        )
    return VarianceFunctionals(
        sigma_sq=sigma,
        tau_sq=tau,
        sigma_tail=sigma_tail,
        tau_tail=tau_tail,
        coefficients_decayed=decayed,
        coefficients=coeffs,
    )


def tau_integral(f: TestFunction, support: SupportInterval, nodes: int = DEFAULT_NODES) -> float:
    """(1/2pi) integral of |f'|^2 sqrt((l+ - x)(x - l-)) dx, in theta form."""
    r = support.half_width
    theta, w, _, vals = _theta_values(squared_derivative(f), support.center, r, nodes)
    return float(np.sum(w * vals * (r * np.sin(theta)) ** 2) / (2.0 * math.pi))


def integrate_density(
    f: Callable,
    asym: AsymptoticParams,
    nodes: int = DEFAULT_NODES,
    support: SupportInterval | None = None,
) -> float:
    """Integral of f against the limiting spectral density.

    The density is sqrt(-(x - l-)(x - l+)) / (2 pi a x (1 - x)); in theta
    coordinates the integrand is (r^2/(2 pi a)) f(x) sin^2(t) / (x(1-x)).
    Endpoint limits are substituted when an edge sits at 0 or 1.
    """
    asym.require_bulk()
    sup = support if support is not None else SupportInterval.from_shape(asym.a, asym.b)
    r = sup.half_width
    theta, w, x, vals = _theta_values(f, sup.center, r, nodes)
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


def integrate_deviation(f: Callable, support: SupportInterval, nodes: int = DEFAULT_NODES) -> float:
    """f(l-)/4 + f(l+)/4 - (1/2pi) integral of f(c + r cos t) dt."""
    _, w, _, vals = _theta_values(f, support.center, support.half_width, nodes)
    edge = float(f(np.asarray(support.lambda_minus))) / 4.0 + float(
        f(np.asarray(support.lambda_plus))
    ) / 4.0
    return edge - float(np.sum(w * vals)) / (2.0 * math.pi)


def arcsine_integral(f: Callable, nodes: int = DEFAULT_NODES) -> float:
    """(1/pi) integral of f(x)/sqrt(x(1-x)) dx over [0, 1], in theta form."""
    _, w, _, vals = _theta_values(f, 0.5, 0.5, nodes)
    return float(np.sum(w * vals) / math.pi)


def edge_weight_integral(support: SupportInterval, nodes: int = DEFAULT_NODES) -> float:
    """Integral of sqrt(-(x - l-)(x - l+)) / (x(1-x)) over the support.

    Second-kind Gauss-Chebyshev rule in x space (open nodes), independent
    of the theta-trapezoid route used by integrate_density; the value
    should be 2 pi a.
    """
    j = np.arange(1, nodes + 1)
    t = j * math.pi / (nodes + 1)
    u = np.cos(t)
    w = math.pi / (nodes + 1) * np.sin(t) ** 2
    c, r = support.center, support.half_width
    x = c + r * u
    denom = x * (1.0 - x)
    if np.any(denom <= 0):
        raise QuadratureError("support node fell outside (0, 1)")
    return r * r * float(np.sum(w / denom))


def stieltjes_pair(x: float, asym: AsymptoticParams) -> tuple[float, float]:
    """Leading and 1/n Stieltjes-transform terms of the mean spectral measure.

    The square-root branch is fixed so the leading term behaves like 1/x at
    +infinity (sign(x - center) outside the support).
    """
    asym.require_bulk()
    sup = SupportInterval.from_shape(asym.a, asym.b)
    lam_m, lam_p = sup.lambda_minus, sup.lambda_plus
    if lam_m <= x <= lam_p:
        raise ParameterError(f"x={x} lies inside the support [{lam_m}, {lam_p}]")
    if x in (0.0, 1.0):
        raise ParameterError("poles at x = 0 and x = 1")
    a, b = asym.a, asym.b
    root = math.copysign(math.sqrt((x - lam_m) * (x - lam_p)), x - sup.center)
    m0 = ((a - b) + (1.0 - 2.0 * a) * x - root) / (2.0 * a * x * (1.0 - x))
    m1 = (-x + sup.center + root) / (2.0 * (x - lam_p) * (x - lam_m))
    return m0, m1


def jacobi_recurrence_01(nterms: int, r_param: float, s_param: float):
    """Symmetric three-term recurrence for the weight x^r (1-x)^s on [0, 1].

    Returns (diag, offsq): diag[k] are the recurrence centers and offsq[k]
    the squared off-diagonals (offsq[0] unused).
    """
    if r_param <= -1 or s_param <= -1:
        raise ParameterError("weight exponents must exceed -1")
    A, B = float(s_param), float(r_param)  # [-1,1] convention (1-u)^A (1+u)^B
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
        if not np.isfinite(diag[k]) or not np.isfinite(offsq[k]):
            raise QuadratureError("recurrence coefficient overflow")
    # map u in [-1, 1] to x = (1 + u)/2
    return (1.0 + diag) / 2.0, offsq / 4.0


def jacobi_roots(n: int, r_param: float, s_param: float) -> np.ndarray:
    """Roots in (0, 1) of the degree-n polynomial orthogonal for x^r (1-x)^s.

    Computed as eigenvalues of the symmetric recurrence matrix.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    diag, offsq = jacobi_recurrence_01(n, r_param, s_param)
    A = SymTridiagonal(diag=diag, off=np.sqrt(offsq[1:n]))
    return eig.eigenvalues(A).values


def jacobi_probability_quadrature(nnodes: int, p_shape: float, q_shape: float):
    """Gauss nodes and weights for the Beta(p, q) probability measure.

    Weights come from the Christoffel sums of the recurrence orthonormal
    with respect to the probability measure, so they sum to one and no Beta
    normalization constant is ever formed.  Handles p or q below one (the
    endpoint-singular weights).  Cached per (nnodes, p, q); the arrays are
    shared by every caller, so they are read-only.
    """
    if p_shape <= 0 or q_shape <= 0:
        raise ParameterError("Beta shapes must be positive")
    return _beta_rule(int(nnodes), float(p_shape), float(q_shape))


@lru_cache(maxsize=64)
def _beta_rule(nnodes: int, p_shape: float, q_shape: float):
    diag, offsq = jacobi_recurrence_01(nnodes, p_shape - 1.0, q_shape - 1.0)
    off = np.sqrt(offsq[1:nnodes])
    nodes = eig.eigenvalues(SymTridiagonal(diag=diag, off=off)).values
    # orthonormal recurrence evaluated at the nodes; at large shapes the
    # values grow past the float range, so once |q| at a node passes
    # _RESCALE_AT its q's and sum are divided by a power of two (exact),
    # whose exponent is carried in `scale` and restored in the weight
    qprev = np.ones_like(nodes)
    total = qprev.copy()
    scale = np.zeros(nodes.shape, dtype=int)
    if nnodes > 1:
        qcur = (nodes - diag[0]) / off[0]
        total += qcur * qcur
        for k in range(1, nnodes - 1):
            qnext = ((nodes - diag[k]) * qcur - off[k - 1] * qprev) / off[k]
            qprev, qcur = qcur, qnext
            total += qcur * qcur
            big = np.abs(qcur) > _RESCALE_AT
            if big.any():
                shift = np.where(big, np.frexp(qcur)[1], 0)
                qprev = np.ldexp(qprev, -shift)
                qcur = np.ldexp(qcur, -shift)
                total = np.ldexp(total, -2 * shift)
                scale += shift
    weights = np.ldexp(1.0 / total, -2 * scale)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
