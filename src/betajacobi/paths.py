"""Lattice-bridge combinatorics behind traces of powers of the Gram matrix.

tr A^k expands over closed lattice paths of length 2k whose odd steps never
go up and whose even steps never go down ("alternating bridges").  The
module enumerates them, builds their weight polynomial, evaluates path-sum
traces against a sampled factor, and computes E tr A^k exactly in rational
arithmetic from the Beta moments of the matrix entries.  Everything here is
a pure function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .model import TridiagonalFactor

__all__ = [
    "AlternatingBridge",
    "WeightPolynomial",
    "RationalModel",
    "enumerate_bridges",
    "weight_polynomial",
    "trace_via_paths",
    "expected_trace_exact",
    "TraceExpansion",
    "trace_expansion",
]

_MAX_ENUM_K = 10
_MAX_PATH_K = 8
_MAX_EXACT_K = 5


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

    @property
    def k(self) -> int:
        return len(self.steps) // 2

    def heights(self, start: int = 0) -> tuple:
        """Vertices (h_0 = start, h_1, ..., h_2k)."""
        out = [start]
        for s in self.steps:
            out.append(out[-1] + s)
        return tuple(out)

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
    if not (0 <= k <= _MAX_ENUM_K):
        raise ParameterError(f"bridge enumeration limited to k <= {_MAX_ENUM_K}")
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

    def dx(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        acc = 0.0
        for l in range(1, self.k + 1):
            acc = acc + 2 * l * float(self.coeffs[l]) * x ** (2 * l - 1) * y ** (2 * (self.k - l))
        return acc

    def dy(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        acc = 0.0
        for l in range(0, self.k):
            m = self.k - l
            acc = acc + 2 * m * float(self.coeffs[l]) * x ** (2 * l) * y ** (2 * m - 1)
        return acc


def weight_polynomial(k: int) -> WeightPolynomial:
    if k < 0:
        raise ParameterError("k must be nonnegative")
    coeffs = tuple(math.comb(k, l) ** 2 for l in range(k + 1))
    return WeightPolynomial(k=k, coeffs=coeffs)


def trace_via_paths(factor: TridiagonalFactor, k: int) -> float:
    """tr A^k as a sum over shifted bridges of products of factor entries.

    Paths that walk off the edge of the matrix contribute zero, which the
    zero-padded entry arrays realize automatically.
    """
    if not (1 <= k <= _MAX_PATH_K):
        raise ParameterError(f"path-sum trace limited to 1 <= k <= {_MAX_PATH_K}")
    n = factor.n
    pad = k + 1
    # padded entry arrays indexed by matrix row m = 1..n at position pad+m-1
    d = np.zeros(n + 2 * pad)
    d[pad : pad + n] = factor.diag
    e_row = np.zeros(n + 2 * pad)  # subdiagonal entry sitting in row m
    e_row[pad + 1 : pad + n] = factor.sub
    total = 0.0
    starts = np.arange(pad, pad + n)
    for bridge in enumerate_bridges(k):
        prod = np.ones(n)
        h = starts
        for idx, s in enumerate(bridge.steps):
            nxt = h + s
            odd = idx % 2 == 0
            if odd:
                # entry B[h, nxt]: diagonal d_h if flat, else subdiagonal in row h
                prod = prod * np.where(s == 0, d[h], e_row[h])
            else:
                # entry B[nxt, h]: diagonal d_nxt if flat, else subdiagonal in row nxt
                prod = prod * np.where(s == 0, d[nxt], e_row[nxt])
            h = nxt
        total += prod.sum()
    return float(total)


@dataclass(frozen=True)
class RationalModel:
    """Exact-rational ensemble parameters for the expectation pipeline.

    alpha, a and b are ints or Fractions: a float is not exact, and would
    compare and hash equal to the Fraction it rounds to.
    """

    n: int
    alpha: Fraction
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not all(isinstance(v, numbers.Rational) for v in (self.alpha, self.a, self.b)):
            raise ParameterError("alpha, a and b must be exact rationals (int or Fraction)")
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.alpha <= 0 or not (0 < self.a < 1) or not (0 < self.b < 1):
            raise ParameterError("need alpha > 0 and a, b in (0, 1)")

    def c_shapes(self, i: int) -> tuple[Fraction, Fraction]:
        base = Fraction(i - self.n) / self.alpha
        r = Fraction(self.n) * self.b / (self.alpha * self.a) + base
        s = Fraction(self.n) * (1 - self.b) / (self.alpha * self.a) + base
        if r <= 0 or s <= 0:
            raise ParameterError(f"nonpositive Beta shape at i={i}")
        return r, s

    def cp_shapes(self, j: int) -> tuple[Fraction, Fraction]:
        r = Fraction(j) / self.alpha
        s = Fraction(self.n) / (self.alpha * self.a) + Fraction(j - 2 * self.n + 1) / self.alpha
        if r <= 0 or s <= 0:
            raise ParameterError(f"nonpositive Beta shape at j={j}")
        return r, s


def _beta_moment(r: Fraction, s: Fraction, u: int, v: int) -> Fraction:
    """E[z^u (1-z)^v] for z ~ Beta(r, s): (r)_u (s)_v / (r+s)_(u+v)."""
    num = 1
    den = 1
    rn, rd = r.numerator, r.denominator
    sn, sd = s.numerator, s.denominator
    # work over the common denominator lcm(rd, sd) to stay in integers
    for t in range(u):
        num *= rn + t * rd
        den *= rd
    for t in range(v):
        num *= sn + t * sd
        den *= sd
    rs = r + s
    tn, td = rs.numerator, rs.denominator
    dnum = 1
    dden = 1
    for t in range(u + v):
        dnum *= tn + t * td
        dden *= td
    return Fraction(num * dden, den * dnum)


def _pairwise_sum(values: list[Fraction]) -> Fraction:
    """Balanced pairwise sum keeps intermediate denominators small."""
    if not values:
        return Fraction(0)
    vals = values
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def expected_trace_exact(model: RationalModel, k: int) -> Fraction:
    """E tr A^k in exact rational arithmetic.

    Every bridge visits each matrix entry an even number of times, so each
    path expectation is a product of independent Beta moments
    E[z^u (1-z)^v]; signs from the subdiagonal cancel pairwise.  Computed
    once per (model, k) in a process: the model is frozen and the result
    exact, so a repeat is the same value.
    """
    if not (1 <= k <= _MAX_EXACT_K):
        raise ParameterError(f"exact expectation limited to 1 <= k <= {_MAX_EXACT_K}")
    return _exact_trace(model, k)


@lru_cache(maxsize=64)
def _exact_trace(model: RationalModel, k: int) -> Fraction:
    """expected_trace_exact after its check of k.  The cache sits here so that
    the public name stays a plain function, which perfbench's tracer wraps."""
    n = model.n
    bridges = [b.level_step_counts() for b in enumerate_bridges(k)]
    c_cache: dict[int, tuple[Fraction, Fraction]] = {}
    cp_cache: dict[int, tuple[Fraction, Fraction]] = {}
    terms: list[Fraction] = []
    for flat, cross in bridges:
        min_off = min(list(flat) + [lo for lo in cross])
        max_off = max([m for m in flat] + [lo + 1 for lo in cross])
        for start in range(1, n + 1):
            if start + min_off < 1 or start + max_off > n:
                continue  # walks off the edge of the matrix
            term = Fraction(1)
            # horizontal steps at height m use d_m = c_{n-m+1} s'_{n-m};
            # crossings of (m, m+1) use the row-(m+1) subdiagonal -s_{n-m} c'_{n-m}
            exps: dict[tuple[str, int], list[int]] = {}
            for off, cnt in flat.items():
                m = start + off
                _bump(exps, ("c", n - m + 1), cnt, 0)
                if n - m >= 1:
                    _bump(exps, ("cp", n - m), 0, cnt)
            for off, cnt in cross.items():
                m = start + off
                _bump(exps, ("c", n - m), 0, cnt)
                _bump(exps, ("cp", n - m), cnt, 0)
            for (kind, idx), (uu, vv) in exps.items():
                if uu % 2 or vv % 2:
                    raise AssertionError("odd entry multiplicity on a bridge")
                cache = c_cache if kind == "c" else cp_cache
                if idx not in cache:
                    cache[idx] = (
                        model.c_shapes(idx) if kind == "c" else model.cp_shapes(idx)
                    )
                r, s = cache[idx]
                term *= _beta_moment(r, s, uu // 2, vv // 2)
            terms.append(term)
    return _pairwise_sum(terms)


def _bump(exps: dict, key: tuple, u: int, v: int) -> None:
    cur = exps.get(key)
    if cur is None:
        exps[key] = [u, v]
    else:
        cur[0] += u
        cur[1] += v


@dataclass(frozen=True)
class TraceExpansion:
    """Leading and first-order coefficients of (1/n) E tr A^k in powers of 1/n."""

    order0: float
    order1: float
    residual0: float
    residual1: float


def trace_expansion(
    k: int,
    alpha: Fraction,
    a: Fraction,
    b: Fraction,
    n_grid: Sequence[int] = (512, 1024, 2048),
) -> TraceExpansion:
    """Richardson extraction of the 1/n expansion of (1/n) E tr A^k.

    Uses exact rationals throughout: the first stage eliminates the 1/n and
    1/n^2 terms from v(n), v(2n), v(4n) to get the limit; the second stage
    forms m * (v(m) - limit) at m = 2n, 4n and eliminates the remaining 1/m
    term.  Residuals of the last eliminations are reported as error
    estimates.
    """
    if len(n_grid) != 3 or n_grid[1] != 2 * n_grid[0] or n_grid[2] != 4 * n_grid[0]:
        raise ParameterError("n_grid must be (n, 2n, 4n)")
    alpha, a, b = Fraction(alpha), Fraction(a), Fraction(b)
    v = [
        expected_trace_exact(RationalModel(n=m, alpha=alpha, a=a, b=b), k) / m
        for m in n_grid
    ]
    n0 = n_grid[0]
    a1 = 2 * v[1] - v[0]
    a2 = 2 * v[2] - v[1]
    order0 = (4 * a2 - a1) / 3
    residual0 = abs(a2 - a1) / 3
    b2 = 2 * n0 * (v[1] - order0)
    b4 = 4 * n0 * (v[2] - order0)
    order1 = 2 * b4 - b2
    residual1 = abs(b4 - b2)
    return TraceExpansion(
        order0=float(order0),
        order1=float(order1),
        residual0=float(residual0),
        residual1=float(residual1),
    )
