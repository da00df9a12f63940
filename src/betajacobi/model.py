"""Sampling of the bidiagonal factor B and assembly of the Gram matrix BB^T.

The factor is lower bidiagonal.  Writing rows m = 1..n, the diagonal entry is
d_m = c_{n-m+1} * s'_{n-m} (with s'_0 = 1) and the subdiagonal entry in row
m >= 2 is -s_{n-m+1} * c'_{n-m+1}, where

    c_i^2  ~ Beta(beta/2 (n1 - n + i),  beta/2 (n2 - n + i)),   i = 1..n
    c'_j^2 ~ Beta(beta/2 j,  beta/2 (n1 + n2 - 2n + 1 + j)),    j = 1..n-1

all 2n-1 draws independent, s = sqrt(1 - c^2) and s' = sqrt(1 - c'^2).
The eigenvalues of A = BB^T then follow the beta-Jacobi law.

Sampling is pure given an explicit generator stream; factors are immutable.
Every Monte Carlo check runs through map_replicates, which draws replicate m
from the counter-based stream keyed by (seed, m) and reduces its Gram matrix
to a row of statistics, so each row depends on (seed, m) alone.

Polynomial linear statistics need no eigensolve: chebyshev_traces returns
tr T_k((A - cI)/r) for k <= K from the banded Chebyshev recurrence, so any
polynomial written in that basis is a dot product with its coefficients.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterError
from .params import EnsembleParams

__all__ = [
    "BetaSpec",
    "TridiagonalFactor",
    "SymTridiagonal",
    "replicate_stream",
    "map_replicates",
    "beta_sample",
    "sample_factor",
    "deterministic_factor",
    "assemble_gram",
    "factor_to_dense",
    "gram_to_dense",
    "chebyshev_traces",
    "frobenius_gap_sq",
    "dump_factor_csv",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BetaSpec:
    """Shape pair of a Beta distribution."""

    shape1: float
    shape2: float

    def __post_init__(self):
        if not (self.shape1 > 0 and self.shape2 > 0):
            raise ParameterError(
                f"Beta shapes must be positive, got ({self.shape1}, {self.shape2})"
            )


@dataclass(frozen=True)
class TridiagonalFactor:
    """Bidiagonal factor: diagonal d, subdiagonal e, and the raw Beta draws.

    raw_c[i-1] = c_i^2 and raw_cp[j-1] = c'_j^2; d and e are derived.
    Arrays are marked read-only after construction.
    """

    diag: np.ndarray
    sub: np.ndarray
    raw_c: np.ndarray
    raw_cp: np.ndarray

    def __post_init__(self):
        for arr in (self.diag, self.sub, self.raw_c, self.raw_cp):
            arr.setflags(write=False)
        n = self.diag.shape[0]
        if self.sub.shape[0] != n - 1 or self.raw_c.shape[0] != n or self.raw_cp.shape[0] != n - 1:
            raise ParameterError("inconsistent factor array lengths")

    @property
    def n(self) -> int:
        return self.diag.shape[0]


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix in compact (diag, off) form."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        self.diag.setflags(write=False)
        self.off.setflags(write=False)
        if self.off.shape[0] != self.diag.shape[0] - 1:
            raise ParameterError("off-diagonal must have length n - 1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate index).

    Streams for distinct replicates are independent by construction, so a
    run is bit-reproducible no matter how replicates are scheduled.
    """
    if not (0 <= seed <= _MASK64):
        raise ParameterError(f"seed must fit in 64 bits, got {seed!r}")
    if replicate < 0:
        raise ParameterError(f"replicate index must be nonnegative, got {replicate}")
    key = np.array([seed, replicate & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _beta_draws(shape1: np.ndarray, shape2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Beta draws via the gamma ratio G1/(G1+G2).

    The gamma generator handles shapes < 1 correctly, which matters because
    the first c' shape is beta/2 < 1 whenever beta < 2.
    """
    g1 = rng.standard_gamma(shape1)
    g2 = rng.standard_gamma(shape2)
    total = g1 + g2
    bad = total == 0.0
    while np.any(bad):  # underflow of both gammas; essentially never at these shapes
        g1 = np.where(bad, rng.standard_gamma(shape1), g1)
        g2 = np.where(bad, rng.standard_gamma(shape2), g2)
        total = g1 + g2
        bad = total == 0.0
    return g1 / total


def beta_sample(spec: BetaSpec, rng: np.random.Generator) -> float:
    """One draw from Beta(shape1, shape2)."""
    return float(
        _beta_draws(np.array([spec.shape1]), np.array([spec.shape2]), rng)[0]
    )


@lru_cache(maxsize=16)
def _shape_arrays(params: EnsembleParams):
    """Beta shape pairs of the c and c' draws, cached per parameter set.

    Every replicate of a run needs the same arrays, so they are built once;
    they are shared, hence read-only.
    """
    n, h = params.n, 0.5 * params.beta
    i = np.arange(1, n + 1, dtype=np.float64)
    j = np.arange(1, n, dtype=np.float64)
    c_shapes = (h * (params.n1 - n + i), h * (params.n2 - n + i))
    cp_shapes = (h * j, h * (params.n1 + params.n2 - 2 * n + 1 + j))
    for arr in (*c_shapes, *cp_shapes):
        if arr.size and arr.min() <= 0:
            raise ParameterError(
                "nonpositive Beta shape; parameters violate n1, n2 > n - 1"
            )
        arr.setflags(write=False)
    return c_shapes, cp_shapes


def _build_factor(raw_c: np.ndarray, raw_cp: np.ndarray) -> TridiagonalFactor:
    c = np.sqrt(raw_c)
    s = np.sqrt(1.0 - raw_c)
    cp = np.sqrt(raw_cp)
    sp = np.sqrt(1.0 - raw_cp)
    # row m: d_m = c_{n-m+1} s'_{n-m}, sub in row m+1: -s_{n-m} c'_{n-m}
    diag = c[::-1] * np.concatenate([sp[::-1], [1.0]])
    sub = -s[::-1][1:] * cp[::-1]
    return TridiagonalFactor(diag=diag, sub=sub, raw_c=raw_c, raw_cp=raw_cp)


def sample_factor(params: EnsembleParams, rng: np.random.Generator) -> TridiagonalFactor:
    """Draw the 2n-1 independent Beta variables and lay out the factor."""
    (c1, c2), (p1, p2) = _shape_arrays(params)
    raw_c = _beta_draws(c1, c2, rng)
    raw_cp = _beta_draws(p1, p2, rng)
    return _build_factor(raw_c, raw_cp)


def deterministic_factor(params: EnsembleParams) -> TridiagonalFactor:
    """Factor with every Beta(x, y) draw replaced by its mean x/(x+y)."""
    (c1, c2), (p1, p2) = _shape_arrays(params)
    return _build_factor(c1 / (c1 + c2), p1 / (p1 + p2))


def assemble_gram(factor: TridiagonalFactor) -> SymTridiagonal:
    """Symmetric tridiagonal A = BB^T: A_kk = d_k^2 + e_{k-1}^2, A_{k,k+1} = d_k e_k."""
    d, e = factor.diag, factor.sub
    diag = d * d
    diag = diag + np.concatenate([[0.0], e * e])
    off = d[:-1] * e
    return SymTridiagonal(diag=diag, off=off)


def map_replicates(
    params: EnsembleParams, seed: int, replicates: int, statistic: Callable
) -> np.ndarray:
    """Row m is statistic(A_m) for the Gram matrix A_m of replicate m.

    Replicate m samples its factor from replicate_stream(seed, m), so the
    (replicates, k) result is bit-reproducible; statistic returns a scalar
    or k values.  One factor and one Gram matrix are alive at a time.
    """
    if replicates < 2:
        raise ParameterError(f"need at least two replicates, got {replicates!r}")
    out = None
    for m in range(replicates):
        row = statistic(assemble_gram(sample_factor(params, replicate_stream(seed, m))))
        if out is None:
            out = np.empty((replicates, np.size(row)))
        out[m] = row
    return out


def factor_to_dense(factor: TridiagonalFactor) -> np.ndarray:
    """Dense n x n lower-bidiagonal matrix (test oracle helper)."""
    n = factor.n
    out = np.zeros((n, n))
    out[np.arange(n), np.arange(n)] = factor.diag
    if n > 1:
        out[np.arange(1, n), np.arange(n - 1)] = factor.sub
    return out


def gram_to_dense(gram: SymTridiagonal) -> np.ndarray:
    n = gram.n
    out = np.diag(gram.diag)
    if n > 1:
        idx = np.arange(n - 1)
        out[idx, idx + 1] = gram.off
        out[idx + 1, idx] = gram.off
    return out


def chebyshev_traces(gram: SymTridiagonal, center: float, half_width: float, K: int) -> np.ndarray:
    """[tr T_0(B), ..., tr T_K(B)] for B = (A - center I) / half_width.

    T_j(B) is symmetric with bandwidth j, so only its upper bands are kept,
    as rows of a (bands, n) array zero-padded at the right end.  The
    three-term recurrence T_{j+1} = 2 B T_j - T_{j-1} builds T_0..T_h for
    h = ceil(K/2) in O(n h^2), and every higher trace comes from
    tr T_{i+j} = 2 <T_i, T_j>_F - tr T_{i-j} with i = ceil(k/2), j = floor(k/2)
    (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)).  When [center -
    half_width, center + half_width] holds the spectrum, every T_j(B) has
    entries of size at most one, so the recurrence is stable at any degree,
    where monomial power traces lose digits to cancellation.
    """
    if K < 0:
        raise ParameterError("Chebyshev degree K must be >= 0")
    if not half_width > 0:
        raise ParameterError(f"half_width must be positive, got {half_width!r}")
    n = gram.n
    b0 = (gram.diag - center) / half_width
    b1 = gram.off / half_width
    h = (K + 1) // 2
    bands = [np.ones((1, n))]
    if h >= 1:
        t1 = np.zeros((min(2, n), n))
        t1[0] = b0
        t1[1:, :-1] = b1
        bands.append(t1)
    b0, b1 = 2.0 * b0, 2.0 * b1
    for j in range(1, h):
        cur, prev = bands[j], bands[j - 1]
        rc, rows = cur.shape[0], min(j + 2, n)
        # (2 B M)[i, i+o] = b1[i-1] M[i-1, i+o] + b0[i] M[i, i+o] + b1[i] M[i+1, i+o]
        # with b0, b1 doubled; M[i+1, i] on band 0 is read from band 1 by symmetry
        nxt = np.zeros((rows, n))
        np.multiply(b0, cur, out=nxt[:rc])
        nxt[: rc - 1, 1:] += b1 * cur[1:, :-1]
        top = min(rc, rows - 1)
        nxt[1 : top + 1, :-1] += b1 * cur[:top, 1:]
        if rc > 1:
            nxt[0, :-1] += b1 * cur[1, :-1]
        nxt[: prev.shape[0]] -= prev
        bands.append(nxt)
    out = np.empty(K + 1)
    for k in range(min(K, h) + 1):
        out[k] = bands[k][0].sum()
    for k in range(h + 1, K + 1):
        i, j = k - k // 2, k // 2
        rows = bands[j].shape[0]
        band_dots = np.einsum("ij,ij->i", bands[i][:rows], bands[j])
        # <T_i, T_j>_F: band 0 once, each off-diagonal band twice
        out[k] = 2.0 * (2.0 * band_dots.sum() - band_dots[0]) - out[i - j]
    return out


def frobenius_gap_sq(g1: SymTridiagonal, g2: SymTridiagonal) -> float:
    """Squared Frobenius distance between two Gram matrices."""
    dd = g1.diag - g2.diag
    de = g1.off - g2.off
    return float(dd @ dd + 2.0 * (de @ de))


def dump_factor_csv(factor: TridiagonalFactor, path) -> None:
    """Debug dump: one row per index with raw draws and derived entries."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "raw_c", "raw_cp", "d", "e"])
        n = factor.n
        for i in range(n):
            writer.writerow(
                [
                    i + 1,
                    repr(float(factor.raw_c[i])),
                    repr(float(factor.raw_cp[i])) if i < n - 1 else "",
                    repr(float(factor.diag[i])),
                    repr(float(factor.sub[i])) if i < n - 1 else "",
                ]
            )
