"""Path counting behind traces of powers of the Gram matrix.

tr A^k expands over closed lattice paths of length 2k whose odd steps never
go up and whose even steps never go down ("alternating bridges").  The
module enumerates them and builds their weight polynomial.  The same trace
is a sum over the closed walks on the factor's bipartite graph, a path of
its 2n Beta variables; the BEST theorem counts those walks in closed form,
so one chain sum along the path, with nothing enumerated, serves both
exact sums.  Each supplies only its table of vertex moments: powers of a
sampled factor's raw Beta draws for path-sum traces, and Beta moments at
the sampler's own shapes for E tr A^k, k <= 12, from which the 1/n
expansion of the mean is extracted.  Everything here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import model
from .errors import ParameterError
from .params import EnsembleParams, checked_int, from_shape

__all__ = [
    "AlternatingBridge",
    "WeightPolynomial",
    "enumerate_bridges",
    "weight_polynomial",
    "power_table",
    "trace_via_paths",
    "expected_trace_exact",
    "TraceExpansion",
    "trace_expansion",
]

_MAX_ENUM_K = 10
_MAX_PATH_K = 12


@dataclass(frozen=True)
class AlternatingBridge:
    """Length-2k bridge; odd steps in {0,-1}, even steps in {0,+1}, sum 0."""

    steps: tuple

    def __post_init__(self):
        if len(self.steps) % 2 != 0:
            raise ParameterError("bridge length must be even")
        if sum(self.steps) != 0:
            raise ParameterError("bridge must return to its starting height")
        for idx, s in enumerate(self.steps):
            odd = idx % 2 == 0  # step number idx+1
            if odd and s == 1:
                raise ParameterError("odd steps must not travel up")
            if not odd and s == -1:
                raise ParameterError("even steps must not travel down")

    def horizontal_count(self) -> int:
        return sum(1 for s in self.steps if s == 0)


def enumerate_bridges(k: int) -> list[AlternatingBridge]:
    """All alternating bridges of length 2k; there are C(2k, k) of them.

    Down-steps occupy odd positions, up-steps even positions, equal counts;
    the two placements are independent.
    """
    k = checked_int("k", k, 0, _MAX_ENUM_K)
    odd_slots = list(range(0, 2 * k, 2))
    even_slots = list(range(1, 2 * k, 2))
    out = []
    for i in range(k + 1):
        for downs in combinations(odd_slots, i):
            for ups in combinations(even_slots, i):
                steps = [0] * (2 * k)
                for d in downs:
                    steps[d] = -1
                for u in ups:
                    steps[u] = 1
                out.append(AlternatingBridge(steps=tuple(steps)))
    return out


def power_table(x, y, degree: int) -> tuple:
    """(x^j, y^j) for 0 <= j <= degree, each stacked on a new first axis.

    Built by repeated products, one pass per degree for all points; the
    WeightPolynomial derivatives of every k <= degree / 2 read it.
    """
    degree = checked_int("degree", degree, 0)

    def powers(v):
        v = np.asarray(v, dtype=float)
        out = np.empty((degree + 1,) + v.shape)
        out[0] = 1.0
        out[1:] = v
        return np.multiply.accumulate(out, axis=0, out=out)

    return powers(x), powers(y)


@dataclass(frozen=True)
class WeightPolynomial:
    """Bridge weight polynomial: sum over l of C(k,l)^2 x^(2l) y^(2(k-l))."""

    k: int
    coeffs: tuple  # coeffs[l] = C(k, l)^2, exact integers

    def value(self, x, y):
        x2, y2 = np.asarray(x) ** 2, np.asarray(y) ** 2
        acc = 0.0
        for l in range(self.k, -1, -1):
            acc = acc * x2 + float(self.coeffs[l]) * y2 ** (self.k - l)
        return acc

    @cached_property
    def _slopes(self) -> np.ndarray:
        """2l C(k,l)^2 for l = 1..k, the coefficients of dx."""
        return np.array([2.0 * l * float(c) for l, c in enumerate(self.coeffs)][1:])

    def dx(self, x, y, powers=None):
        """d/dx = sum over l >= 1 of 2l C(k,l)^2 x^(2l-1) y^(2(k-l)).

        powers is power_table(x, y, d) for some d >= 2k, which callers that
        differentiate several k share; by default it is built here.
        """
        k = self.k
        xp, yp = power_table(x, y, 2 * k) if powers is None else powers
        # x^(2l-1) and y^(2(k-l)) for l = 1..k
        return np.einsum("l,l...,l...->...", self._slopes, xp[1 : 2 * k : 2], yp[: 2 * k : 2][::-1])

    def dy(self, x, y, powers=None):
        """d/dy, which is dx with x and y swapped: the polynomial is symmetric."""
        return self.dx(y, x, None if powers is None else powers[::-1])


@lru_cache(maxsize=None)
def weight_polynomial(k: int) -> WeightPolynomial:
    k = checked_int("k", k, 0)
    coeffs = tuple(math.comb(k, l) ** 2 for l in range(k + 1))
    return WeightPolynomial(k=k, coeffs=coeffs)


def _on_path(z: np.ndarray) -> np.ndarray:
    """z_0..z_(2n-1) in the order of the factor's bipartite path:
    z_(n-1), z_(2n-1), z_(n-2), z_(2n-2), ..., z_0, z_n."""
    return z.reshape(2, -1)[:, ::-1].T.ravel()


def _chain_sum(k: int, table: np.ndarray) -> float:
    """Sum over the closed walks of length 2k from the rows of the factor's
    bipartite graph, the path of its 2n variables in the order of _on_path.

    The squared entry on the edge from vertex v to the next vertex w is
    z_v (1 - z_w), and the last vertex is c'_0 = 0.  table[v, u, w], for
    0 <= u, w <= k, is the moment of z_v^u (1 - z_v)^w.  A walk that crosses
    a run of edges m_1, ..., m_L >= 1 times each way, sum m = k, takes
    z^(m next) (1 - z)^(m prev) at each vertex of the run.  By the BEST
    theorem on a tree (van Aardenne-Ehrenfest and de Bruijn, 1951) there are
    k prod_v (deg_v - 1)! / prod_e m_e! (m_e - 1)! such walks, deg_v the sum
    of m at v: k / m_L times C(a + b - 1, a) at each inner vertex crossed a
    times in and b times out, all integers but the last division.  The runs
    from every start vertex are walked at once, one edge per step; the state
    is (last multiplicity, budget used).
    """
    counts = np.arange(1, k + 1)
    inner = np.array([[math.comb(a + b - 1, a) for a in counts] for b in counts], dtype=float)
    # state[p, a - 1, s]: runs from vertex p, their last edge crossed a times, s = sum of m
    state = np.zeros((len(table) - 1, k, k + 1))
    state[:, counts - 1, counts] = table[:-1, 1:, 0]
    closed = []  # per step: the runs that end there, in numpy's pairwise sum
    for t in range(1, min(k, len(table) - 1) + 1):
        end = table[t:]  # the vertex each run has reached
        closed.append((state[:, :, k] * end[:, 0, 1:] * k / counts).sum())
        flow = (end[:-1, 1:, 1:] * inner) @ state[:-1]
        state = np.zeros_like(flow)
        for b in range(1, k - t + 1):
            state[:, b - 1, b:] = flow[:, b - 1, : k + 1 - b]
    return math.fsum(closed)


def trace_via_paths(factor: model.TridiagonalFactor, k: int) -> float:
    """tr A^k of one factor as a chain sum over the powers of its raw Beta draws z."""
    k = checked_int("k", k, 1, _MAX_PATH_K)
    z = _on_path(np.concatenate((factor.raw_c, [0.0], factor.raw_cp)))
    zu, wv = power_table(z, 1.0 - z, k)
    return _chain_sum(k, zu.T[:, :, None] * wv.T[:, None, :])


def expected_trace_exact(params: EnsembleParams, k: int) -> float:
    """E tr A^k as a float chain sum of the Beta moments
    E[z^u (1-z)^w] = (r)_u (s)_w / (r+s)_(u+w) at the sampler's shapes (r, s).

    A closed walk crosses each edge an even number of times, so signs from
    the subdiagonal cancel and its expectation is a product of moments.
    """
    k = checked_int("k", k, 1, _MAX_PATH_K)
    n = params.n
    r, s = model.beta_shapes(params)
    # c'_0 = 0 exactly: Beta shapes (0, 1)
    r = _on_path(np.insert(r, n, 0.0))[:, None, None]
    s = _on_path(np.insert(s, n, 1.0))[:, None, None]
    u, w = np.arange(k + 1.0)[:, None], np.arange(float(k))
    table = np.ones((2 * n, k + 1, k + 1))
    table[:, 1:, :1] = np.cumprod((r + u[:-1]) / (r + s + u[:-1]), axis=1)  # E z^u
    table[:, :, 1:] = (s + w) / (r + s + u + w)
    return _chain_sum(k, np.cumprod(table, axis=2))


@dataclass(frozen=True)
class TraceExpansion:
    """Leading and first-order coefficients of (1/n) E tr A^k in powers of 1/n."""

    order0: float
    order1: float
    residual0: float
    residual1: float


def trace_expansion(k: int, beta: float, a: float, b: float, base_n: int = 512) -> TraceExpansion:
    """Richardson extraction of the 1/n expansion of (1/n) E tr A^k.

    v(m) is E tr A^k / m at from_shape(m, beta, a, b).  The first stage
    eliminates the 1/n and 1/n^2 terms from v(n), v(2n), v(4n), n = base_n,
    to get the limit; the second stage forms m * (v(m) - limit) at m = 2n,
    4n and eliminates the remaining 1/m term.  Residuals of the last
    eliminations are reported as error estimates.
    """
    n0 = checked_int("base_n", base_n, 1)
    v = [expected_trace_exact(from_shape(m, beta, a, b), k) / m for m in (n0, 2 * n0, 4 * n0)]
    a1 = 2 * v[1] - v[0]
    a2 = 2 * v[2] - v[1]
    order0 = (4 * a2 - a1) / 3
    b2 = 2 * n0 * (v[1] - order0)
    b4 = 4 * n0 * (v[2] - order0)
    return TraceExpansion(order0=order0, order1=2 * b4 - b2,
                          residual0=abs(a2 - a1) / 3, residual1=abs(b4 - b2))
