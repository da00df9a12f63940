"""Lattice-bridge combinatorics behind traces of powers of the Gram matrix.

tr A^k expands over closed lattice paths of length 2k whose odd steps never
go up and whose even steps never go down ("alternating bridges").  The
module enumerates them and builds their weight polynomial.  A bridge's
weight depends only on its level profile: the horizontal steps and the
crossings at each level it visits.  One walk over the placed profiles
serves both bridge sums, and each supplies only its moment map: powers of
a sampled factor's raw Beta draws for path-sum traces, and Beta moments at
the sampler's own shapes for E tr A^k, k <= 8, from which the 1/n
expansion of the mean is extracted.  Everything here is a pure function.
"""

from __future__ import annotations

import math
from collections import Counter
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
_MAX_PATH_K = 8


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

    def level_step_counts(self):
        """(horizontal steps at height m, crossings between m and m+1) maps."""
        flat: dict[int, int] = {}
        cross: dict[int, int] = {}
        h = 0
        for s in self.steps:
            if s == 0:
                flat[h] = flat.get(h, 0) + 1
            else:
                lower = min(h, h + s)
                cross[lower] = cross.get(lower, 0) + 1
            h += s
        return flat, cross


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


@lru_cache(maxsize=None)
def _level_profiles(k: int) -> tuple:
    """(profile, multiplicity) pairs over the alternating bridges of length 2k.

    A profile lists (horizontal steps, crossings to the level above) at each
    level a bridge visits, counted up from its lowest level.  There are at
    most 2^k profiles against C(2k, k) bridges.
    """
    profiles = Counter()
    for bridge in enumerate_bridges(k):
        flat, cross = bridge.level_step_counts()
        low = min(flat.keys() | cross.keys())
        high = max(flat.keys() | {lo + 1 for lo in cross})
        profiles[tuple((flat.get(m, 0), cross.get(m, 0)) for m in range(low, high + 1))] += 1
    return tuple(profiles.items())


def _bridge_sum(k: int, n: int, moment) -> float:
    """Sum over the bridges of length 2k placed in an n x n factor.

    Its variables are z_j = c_(j+1)^2 and z_(n+j) = c'_j^2, 0 <= j < n, with
    c'_0 = 0 for s'_0 = 1.  A level at row n - i, with h horizontal steps on
    d = c_(i+1) s'_i and b and a crossings below and above it on entries -s c',
    takes z_i^(h/2) (1 - z_i)^(b/2) z_(n+i)^(a/2) (1 - z_(n+i))^(h/2); all
    counts are even.  moment(term, rows, u, v) multiplies term, one entry per
    placement, in place by the moment of z^u (1 - z)^v of the variable slice
    rows, for u + v > 0.  The terms are summed with math.fsum.
    """
    terms = []
    for profile, count in _level_profiles(k):
        places = n - len(profile) + 1
        if places < 1:
            continue
        term = np.full(places, float(count))
        below = 0
        for level, (horiz, above) in enumerate(profile):
            i = len(profile) - 1 - level  # variable of the first placement
            for j, u, v in ((i, horiz // 2, below // 2), (n + i, above // 2, horiz // 2)):
                if u or v:
                    moment(term, slice(j, j + places), u, v)
            below = above
        terms.append(term)
    return math.fsum(np.concatenate(terms).tolist())


def trace_via_paths(factor: model.TridiagonalFactor, k: int) -> float:
    """tr A^k of one factor as a bridge sum over its raw Beta draws z."""
    k = checked_int("k", k, 1, _MAX_PATH_K)
    z = np.concatenate((factor.raw_c, [0.0], factor.raw_cp))
    zu, wv = power_table(z, 1.0 - z, k)

    def powers(term, rows, u, v):
        term *= zu[u, rows] * wv[v, rows]

    return _bridge_sum(k, factor.n, powers)


def expected_trace_exact(params: EnsembleParams, k: int) -> float:
    """E tr A^k as a float bridge sum of the Beta moments
    E[z^u (1-z)^v] = (r)_u (s)_v / (r+s)_(u+v) at the sampler's shapes (r, s).

    Each bridge visits each variable an even number of times, so signs from
    the subdiagonal cancel and its expectation is a product of moments.
    """
    k = checked_int("k", k, 1, _MAX_PATH_K)
    n = params.n
    shapes = model._shape_arrays(params)
    # c'_0 = 0 exactly: Beta shapes (0, 1)
    r = np.concatenate((shapes[:n], [0.0], shapes[2 * n : 3 * n - 1]))
    s = np.concatenate((shapes[n : 2 * n], [1.0], shapes[3 * n - 1 :]))

    def beta_moments(term, rows, u, v):
        r_, s_ = r[rows], s[rows]
        for t in range(u):
            term *= (r_ + t) / (r_ + s_ + t)
        for t in range(v):
            term *= (s_ + t) / (r_ + s_ + u + t)

    return _bridge_sum(k, n, beta_moments)


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
