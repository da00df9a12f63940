"""Sampling of the bidiagonal factor B and assembly of the Gram matrix BB^T.

The factor is lower bidiagonal.  Writing rows m = 1..n, the diagonal entry is
d_m = c_{n-m+1} * s'_{n-m} (with s'_0 = 1) and the subdiagonal entry in row
m >= 2 is -s_{n-m+1} * c'_{n-m+1}, where

    c_i^2  ~ Beta(beta/2 (n1 - n + i),  beta/2 (n2 - n + i)),   i = 1..n
    c'_j^2 ~ Beta(beta/2 j,  beta/2 (n1 + n2 - 2n + 1 + j)),    j = 1..n-1

all 2n-1 draws independent, s = sqrt(1 - c^2) and s' = sqrt(1 - c'^2).
The eigenvalues of A = BB^T then follow the beta-Jacobi law.

Sampling is pure given an explicit generator stream; factors are immutable.
Factors and Gram matrices may carry leading batch axes: diag (..., n) and
sub/off (..., n - 1) hold one matrix per leading index.

Each of the 2n - 1 Beta pairs takes Cheng's algorithm BA (Comm. ACM 21,
1978) when both its shapes are at most 2^24, else the gamma ratio G1 / (G1
+ G2), where a gamma of shape above 2^24 cannot be 0.  A try of BA takes
one pair of uniforms and is accepted with probability 1/4 to 1, so the
tries of many draws run as one array operation.

Every Monte Carlo check runs through map_replicates.  It draws replicate m
from the counter-based stream keyed by (seed, m) with the calls
sample_factor starts with: one standard_gamma call for the gamma pairs,
when the set has any, then one random call for the uniform pool of the
Cheng pairs, when it has any.  The Beta draws and Gram matrices of a whole
(b, n) block are then formed at once, the Gram matrices straight from the
draws (assemble_gram needs the factor's entries only squared); the
statistic maps the block to (b, k) rows.  A replicate whose pool runs out
is redone by sample_factor's draw routine on its re-keyed stream.  The
block size b = 2^14 // n (at least 1) keeps every (b, n) array near 2^14
doubles.  Each row depends on (seed, m) alone and every batched operation
acts row by row exactly as on one matrix (numpy's elementwise log, log1p,
expm1, logaddexp and exp give an element the same result at any position
in an array of any length, which the tests check against one try at a
time), so row m equals sample_factor(params, replicate_stream(seed, m)) bit
for bit, whatever the block size.  Replicate 0 runs first, alone and timed
in this process, then, unless it alone costs enough to project from, the
block of replicates 1..b.  Once that projects the rest at _SHARD_MIN_S of
CPU time or more, the replicates left are split evenly into contiguous
ranges over forked workers, up to one per CPU in the affinity mask, which
write their rows into a shared anonymous mapping; since rows depend on
(seed, m) alone, the result is the same bit for bit at any worker count.

Polynomial linear statistics need no eigensolve: chebyshev_traces returns
tr T_k((A - cI)/r) for k <= K from the banded Chebyshev recurrence, so any
polynomial written in that basis is a dot product with its coefficients.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import mmap
import os
import signal
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterError
from .params import EnsembleParams, checked_int

__all__ = [
    "TridiagonalFactor",
    "SymTridiagonal",
    "checked_seed",
    "beta_shapes",
    "replicate_stream",
    "map_replicates",
    "sample_factor",
    "deterministic_factor",
    "jacobi_matrix",
    "assemble_gram",
    "factor_to_dense",
    "gram_to_dense",
    "chebyshev_traces",
    "chebyshev_sums",
    "frobenius_gap_sq",
    "dump_factor_csv",
]

_MASK64 = (1 << 64) - 1
# Doubles per (block, n) array of map_replicates (128 KiB); a block holds at
# least one replicate.  The trace engine's band arrays are a few times larger,
# and at 2^16 they fell out of cache: n = 2000 ran no faster than one at a time.
_BLOCK_ELEMENTS = 1 << 14
# Doubles in the bands of T_{j-1}, T_j and T_{j+1} that chebyshev_traces
# holds for one part of a stack (2 MiB): a larger stack runs in parts, which
# keeps them in cache at high degree (K = 20 at n = 2000 ran 1.7x slower in
# blocks of 8 than one matrix at a time).
_TRACE_ELEMENTS = 1 << 18
# Limits on the Beta shapes, checked once per parameter set.  A gamma draw is
# about its shape, so far above _MAX_SHAPE the total G1 + G2 overflows to inf
# and the Beta ratio to 0 or NaN.  Below _LOW_SHAPE, Cheng's v = beta logit(u1)
# with beta = 1 / min(a, b) can overflow: |logit u1| <= 53 ln 2 = 36.74 for
# the doubles u1 of rng.random, and 36.74 / 2.1e-307 = 1.75e308.
_MAX_SHAPE = 1e300
_LOW_SHAPE = 2.1e-307
# Cheng's algorithm BA draws every Beta pair with max(a, b) <= _CHENG_MAX_SHAPE,
# the gamma ratio the others.  Below it the acceptance statistic is rounded by
# about 1e-12 (1e-10 at worst, at |logit u1| = 37 and shape 2^24); above it
# that statistic loses digits, while a gamma of such a shape cannot be 0.
_CHENG_MAX_SHAPE = 2.0**24
# A table with a shape below _EXPM1_MIN_SHAPE takes Cheng's spread in log form:
# there v can pass 709.78, where expm1(v) overflows (36.74 / 0.052 = 706.5).
_EXPM1_MIN_SHAPE = 0.052
_LOG4 = float(np.log(4.0))
# CPU seconds of projected work per process for map_replicates to fork one
# more, projected from replicate 0 or from the first block (_PROBE_MIN_S).
# A fork, _exit and waitpid of a process that holds numpy, scipy.linalg and
# the library (59 MB resident) costs 2.2-3.1 ms of wall and CPU time.  On a
# 2-core host, fluct n = 64 (Gamma_1, Gamma_2, x) sharded over 2 processes
# took 1.16x the serial wall time with 0.009 s of CPU projected, 0.83x at
# 0.027 s, 0.79x at 0.057 s and 0.68x at 0.14 s (medians of 30 alternated
# pairs); at 5000 replicates (0.11 s) the CLI call took 0.079 s in place of
# 0.118 s, for 10 % more CPU time.  CPU time, not wall time, is projected,
# so a core shared with other processes does not make a small run look
# large.
_SHARD_MIN_S = 0.05
# CPU seconds of replicate 0, run alone as a block of 1, from which
# map_replicates projects the rest; a cheaper replicate is followed by a
# full block, and the projection comes from that.  Alone, a replicate also
# pays a block's fixed cost of about 0.2 ms: the statistic of fluct n = 64
# (Gamma_1, Gamma_2, x) took 190-410 us alone against 20-27 us per
# replicate in a block (projecting from it would fork runs of a tenth of
# _SHARD_MIN_S, which run slower sharded), and 0.44-0.52 ms against
# 0.32-0.35 ms at n = 2000; a sterf statistic at n = 1000 took 17 ms alone
# and in a block.  4 ms is 8x above the one and 4x below the other.
_PROBE_MIN_S = 4e-3
# glibc maps each allocation of 128 KiB or more on its own and trims the heap
# past 128 KiB free, so every block of map_replicates faulted in its Beta
# draws and trace bands afresh (fluct n = 2000, Gamma_1..Gamma_4 and x, 1000
# replicates: 33k minor faults, 3.8k with these limits, and 0.1 s less CPU).
with contextlib.suppress(AttributeError, OSError, TypeError):  # no mallopt: no change
    ctypes.CDLL(None).mallopt(-3, 8 * _TRACE_ELEMENTS)  # M_MMAP_THRESHOLD, bytes
    ctypes.CDLL(None).mallopt(-1, 16 * _TRACE_ELEMENTS)  # M_TRIM_THRESHOLD, bytes


@dataclass(frozen=True)
class TridiagonalFactor:
    """Bidiagonal factor: diagonal d, subdiagonal e, and the raw Beta draws.

    raw_c[..., i-1] = c_i^2 and raw_cp[..., j-1] = c'_j^2; d and e are
    derived.  Leading axes, if any, index a stack of factors.  Arrays are
    marked read-only after construction.
    """

    diag: np.ndarray
    sub: np.ndarray
    raw_c: np.ndarray
    raw_cp: np.ndarray

    def __post_init__(self):
        for arr in (self.diag, self.sub, self.raw_c, self.raw_cp):
            arr.setflags(write=False)
        n = self.n
        lengths = (self.sub.shape[-1], self.raw_c.shape[-1], self.raw_cp.shape[-1])
        if lengths != (n - 1, n, n - 1):
            raise ParameterError("inconsistent factor array lengths")

    @property
    def n(self) -> int:
        return self.diag.shape[-1]


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix in compact (diag, off) form.

    Leading axes, if any, index a stack of matrices: diag (..., n) and
    off (..., n - 1); iterating over a (b, n) stack yields its matrices.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        self.diag.setflags(write=False)
        self.off.setflags(write=False)
        if self.off.shape[-1] != self.diag.shape[-1] - 1:
            raise ParameterError("off-diagonal must have length n - 1")

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def __iter__(self):
        return (SymTridiagonal(diag=d, off=e) for d, e in zip(self.diag, self.off))


def checked_seed(seed: int) -> int:
    """seed as an int if it is an integer in [0, 2^64), the range of every seeded stream."""
    return checked_int("seed (64 bits)", seed, 0, _MASK64)


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate index).

    Streams for distinct replicates are independent by construction, so a
    run is bit-reproducible no matter how replicates are scheduled.
    """
    key = np.array([checked_seed(seed), checked_int("replicate", replicate, 0, _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """m -> a generator equal, draw for draw, to replicate_stream(seed, m).

    One Philox generator is re-keyed through its state setter (key
    (seed, m), counter and buffer zeroed), so no replicate pays for the
    entropy-seeded SeedSequence that the constructor builds; the returned
    generator is the same object every time, valid until the next call.
    """
    rng = replicate_stream(seed, 0)
    bitgen = rng.bit_generator
    key = np.array([seed, 0], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(replicate: int) -> np.random.Generator:
        key[1] = replicate
        bitgen.state = state
        return rng

    return stream


@lru_cache(maxsize=16)
def _shape_arrays(params: EnsembleParams):
    """Beta shape pairs of the c and c' draws, cached per parameter set.

    Returns the flat array [c row 0, c row 1, c' row 0, c' row 1] of length
    4n - 2: rows 0 and 1 hold the first and second shapes of the n c pairs,
    then of the n - 1 c' pairs.  Every replicate of a run needs the same
    array, so it is built once; it is shared, hence read-only.  Shapes
    outside [_LOW_SHAPE, _MAX_SHAPE] are a ParameterError.
    """
    n, h = params.n, 0.5 * params.beta
    i = np.arange(1, n + 1, dtype=np.float64)
    j = np.arange(1, n, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        flat = np.concatenate([h * (params.n1 - n + i), h * (params.n2 - n + i),
                               h * j, h * (params.n1 + params.n2 - 2 * n + 1 + j)])
    low, high = float(flat.min()), float(flat.max())
    if low <= 0:
        raise ParameterError("nonpositive Beta shape; parameters violate n1, n2 > n - 1")
    if not high <= _MAX_SHAPE:
        raise ParameterError(f"Beta shape {high:g} exceeds {_MAX_SHAPE:g}: "
                             f"the gamma ratio overflows; reduce beta")
    if low < _LOW_SHAPE:
        raise ParameterError(f"Beta shape {low:g} is below {_LOW_SHAPE:g}: Cheng's "
                             f"v = logit(u) / shape overflows; increase beta or n1, n2")
    flat.setflags(write=False)
    return flat


def beta_shapes(params: EnsembleParams):
    """(r, s): the Beta(r, s) shapes of the 2n - 1 draws, in the order of
    raw_c then raw_cp.  ParameterError as in sample_factor."""
    n = params.n
    c1, c2, cp1, cp2 = np.split(_shape_arrays(params), [n, 2 * n, 3 * n - 1])
    return np.concatenate((c1, cp1)), np.concatenate((c2, cp2))


def _ratios(g: np.ndarray, k: int) -> np.ndarray:
    """x / (x + y) for each pair of g, laid out like the flat shape array with
    k c pairs: the c draws, then the c' draws.  g may carry leading axes."""
    c1, c2, cp1, cp2 = np.split(g, [k, 2 * k, (g.shape[-1] + 2 * k) // 2], axis=-1)
    return np.concatenate((c1 / (c1 + c2), cp1 / (cp1 + cp2)), axis=-1)


def _cheng_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(5, M) rows alpha, beta, gamma, p, ln p: Cheng's BA constants of each Beta(a, b).

    beta is 1 / min(a, b) when min(a, b) <= 1, else sqrt((alpha - 2) /
    (2ab - alpha)) in a form that cannot overflow; p = a / alpha.  When some
    min(a, b) is below _EXPM1_MIN_SHAPE, a sixth row holds ln q = ln(b /
    alpha), and _cheng_try takes the spread of every column in log form.
    """
    alpha = a + b
    small = np.minimum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):  # taken only where small > 1
        wide = np.sqrt((1.0 - 2.0 / alpha) / (2.0 * a * (b / alpha) - 1.0))
    beta = np.where(small <= 1.0, 1.0 / small, wide)
    p = a / alpha
    rows = [alpha, beta, a + 1.0 / beta, p, np.log(p)]
    if np.any(small < _EXPM1_MIN_SHAPE):
        rows.append(np.log(b / alpha))
    table = np.stack(rows)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _routes(params: EnsembleParams):
    """(cheng, table, gamma, shapes, k): the route of each Beta pair, cached, read-only.

    cheng and gamma index, in beta_shapes order, the draws of the pairs with
    max(a, b) <= _CHENG_MAX_SHAPE and of the others; table holds Cheng's BA
    constants of the first, and _ratios(standard_gamma(shapes), k) gives the
    second.  ParameterError as in sample_factor.
    """
    a, b = beta_shapes(params)
    big = np.maximum(a, b) > _CHENG_MAX_SHAPE
    cheng, gamma = np.flatnonzero(~big), np.flatnonzero(big)
    c, cp = gamma[gamma < params.n], gamma[gamma >= params.n]
    shapes = np.concatenate([a[c], b[c], a[cp], b[cp]])
    for arr in (cheng, gamma, shapes):
        arr.setflags(write=False)
    return cheng, _cheng_table(a[cheng], b[cheng]), gamma, shapes, c.size


def _pool_pairs(draws: int) -> int:
    """Spare uniform pairs a replicate of `draws` Beta draws takes for its retries."""
    return draws // 4 + 64


def _cheng_try(u1: np.ndarray, u2: np.ndarray, table: np.ndarray):
    """(accepted, v, L): one try of Cheng's BA per draw from the pair (u1, u2).

    The columns of table hold each draw's constants; a (5, M) or (6, M)
    table broadcasts against (b, M) pairs.  With v = beta logit(u1) and the
    spread L = ln((b + a e^v) / alpha), a try is accepted when gamma v -
    alpha L - ln 4 > 2 ln u1 + ln u2, which fails at u1 = 0; then ln x = ln p
    + v - L and ln(1 - x) = ln q - L.  L is log1p(p expm1(v)), free of
    cancellation, for a (5, M) table, and logaddexp(ln q, ln p + v), which
    cannot overflow, for a (6, M) table, whose last row is ln q.
    """
    alpha, beta, gamma, p, log_p, *log_q = table
    with np.errstate(divide="ignore"):  # u1 or u2 = 0: a logarithm of -inf
        log_u1 = np.log(u1)
        bound = np.log(u2)
    v = np.negative(u1)
    np.log1p(v, out=v)
    np.subtract(log_u1, v, out=v)
    v *= beta
    if log_q:
        spread = np.logaddexp(log_q[0], log_p + v)
    else:
        spread = np.expm1(v)
        spread *= p
        np.log1p(spread, out=spread)
    log_u1 *= 2.0
    bound += log_u1
    bound += _LOG4
    stat = np.multiply(gamma, v)
    stat -= np.multiply(alpha, spread, out=log_u1)
    return np.greater(stat, bound), v, spread


def _cheng_step(u1: np.ndarray, u2: np.ndarray, table: np.ndarray):
    """(accepted, x): the tries of _cheng_try with x = exp(ln p + v - L), capped at 1,
    which x passes by rounding near 1 (at Beta(2^24, 1) and u1 within 4096 ulps
    of 1, about half the tries did)."""
    accepted, v, spread = _cheng_try(u1, u2, table)
    x = np.add(table[4], v, out=v)
    x -= spread
    np.exp(x, out=x)
    np.minimum(x, 1.0, out=x)
    return accepted, x


def _cheng_rounds(table: np.ndarray, uniforms: np.ndarray):
    """(x, stopped): Cheng's BA draws of a stack of replicates from their uniform pools.

    uniforms is (b, 2, M + P): row 0 of replicate r holds its u1 values and
    row 1 its u2 values.  Draw j first tries pair j; the draws a replicate
    rejects then take its pairs M, M + 1, ... in column order, round after
    round.  A replicate whose next round does not fit in its pool stops:
    its draws still rejected are marked in the (b, M) mask stopped, and
    their entries of the (b, M) array x hold no draw.  stopped is None when
    no replicate stops.
    """
    b, _, width = uniforms.shape
    draws = table.shape[1]
    accepted, x = _cheng_step(uniforms[:, 0, :draws], uniforms[:, 1, :draws], table)
    stopped = None
    # flat indexes: draw j of replicate r at r M + j, its pair k at r 2(M + P) + k
    flat_u, flat_x = uniforms.reshape(-1), x.reshape(-1)
    pending = np.flatnonzero(~accepted)
    rows = pending // draws
    cols = pending - rows * draws
    next_pair = np.arange(0, b * 2 * width, 2 * width) + draws
    end = next_pair + (width - draws)
    while pending.size:
        counts = np.bincount(rows, minlength=b)
        full = next_pair + counts > end
        if full.any():
            if stopped is None:
                stopped = np.zeros(x.shape, dtype=bool)
            stop = full[rows]
            stopped.reshape(-1)[pending[stop]] = True
            pending, rows, cols = pending[~stop], rows[~stop], cols[~stop]
            counts[full] = 0
        # rows is sorted, so the draws of a replicate take consecutive pairs
        at = (next_pair - np.cumsum(counts) + counts)[rows] + np.arange(rows.size)
        next_pair += counts
        accepted, tries = _cheng_step(np.take(flat_u, at), np.take(flat_u, at + width),
                                      np.take(table, cols, axis=1))
        flat_x[pending[accepted]] = tries[accepted]
        keep = ~accepted
        pending, rows, cols = pending[keep], rows[keep], cols[keep]
    return x, stopped


def _cheng_draws(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The M Beta draws of one replicate by Cheng's BA, table as in _cheng_table.

    One rng.random((2, M + P)) call gives the pool of _cheng_rounds; if that
    pool runs out, each further round takes fresh rng.random((2, k)) pairs
    for its k draws still rejected.
    """
    draws = table.shape[1]
    x, stopped = _cheng_rounds(table, rng.random((1, 2, draws + _pool_pairs(draws))))
    x, cols = x[0], np.empty(0, np.intp) if stopped is None else np.flatnonzero(stopped[0])
    while cols.size:
        u1, u2 = rng.random((2, cols.size))
        accepted, tries = _cheng_step(u1, u2, table[:, cols])
        x[cols[accepted]] = tries[accepted]
        cols = cols[~accepted]
    return x


def _joined(cheng, gamma, cheng_x, gamma_x) -> np.ndarray:
    """The draws of the pairs cheng and gamma (None for no pairs) in beta_shapes order."""
    if gamma_x is None or cheng_x is None:
        return cheng_x if gamma_x is None else gamma_x
    x = np.empty(cheng_x.shape[:-1] + (cheng.size + gamma.size,))
    x[..., cheng], x[..., gamma] = cheng_x, gamma_x
    return x


def _draws(params: EnsembleParams, rng: np.random.Generator) -> np.ndarray:
    """The 2n - 1 Beta draws of one replicate in beta_shapes order: the gamma
    pairs' ratios from one standard_gamma call, then Cheng's BA for the rest."""
    cheng, table, gamma, shapes, k = _routes(params)
    gamma_x = _ratios(rng.standard_gamma(shapes), k) if gamma.size else None
    return _joined(cheng, gamma, _cheng_draws(table, rng) if cheng.size else None, gamma_x)


def _build_factor(raw_c: np.ndarray, raw_cp: np.ndarray) -> TridiagonalFactor:
    c = np.sqrt(raw_c)
    s = np.sqrt(1.0 - raw_c)
    cp = np.sqrt(raw_cp)
    sp = np.sqrt(1.0 - raw_cp)
    # row m: d_m = c_{n-m+1} s'_{n-m} (s'_0 = 1), sub in row m+1: -s_{n-m} c'_{n-m}
    diag = c[..., ::-1].copy()
    diag[..., :-1] *= sp[..., ::-1]
    sub = -s[..., -2::-1] * cp[..., ::-1]
    return TridiagonalFactor(diag=diag, sub=sub, raw_c=raw_c, raw_cp=raw_cp)


def sample_factor(params: EnsembleParams, rng: np.random.Generator) -> TridiagonalFactor:
    """Draw the 2n-1 independent Beta variables and lay out the factor.

    A Beta pair with a shape above 2^24 is a gamma ratio, the gammas of all
    such pairs from one standard_gamma call.  The M other pairs then come
    from Cheng's algorithm BA (R. C. H. Cheng, Comm. ACM 21, 1978): one
    rng.random((2, M + P)) call gives their first tries and a pool of P
    spare pairs for the retries, and fresh pairs follow if it runs out.
    """
    return _build_factor(*np.split(_draws(params, rng), [params.n]))


def deterministic_factor(params: EnsembleParams) -> TridiagonalFactor:
    """Factor with every Beta(x, y) draw replaced by its mean x/(x+y).

    The beta -> infinity model: BB^T is the frozen Gram; the means, which
    depend on beta only through rounding, are the canonical moments of
    x^(n1 - n) (1 - x)^(n2 - n) on [0, 1], so jacobi_matrix(raw_c, raw_cp) is
    its Jacobi matrix (Killip and Nenciu, IMRN 2004; Dette and Studden, 1997).
    """
    return _build_factor(*np.split(_ratios(_shape_arrays(params), params.n), [params.n]))


def jacobi_matrix(odd: np.ndarray, even: np.ndarray) -> SymTridiagonal:
    """The Jacobi matrix of a measure on [0, 1] from its canonical moments.

    odd (..., n) = p_1, p_3, ..., p_(2n-1) and even (..., n - 1) = p_2, ...,
    p_(2n-2), copied into a factor's raw_c and raw_cp; leading axes index a
    stack.  P B^T B P with B that factor and P the order reversal: (B^T B)_kk
    = d_k^2 + e_k^2 (no e in the last column), (B^T B)_(k,k+1) = d_(k+1) e_k.
    """
    factor = _build_factor(np.array(odd, dtype=float), np.array(even, dtype=float))
    d, e = factor.diag, factor.sub
    diag = d * d
    diag[..., :-1] += e * e
    return SymTridiagonal(diag=diag[..., ::-1], off=-(d[..., 1:] * e)[..., ::-1])


def _squared_entries(raw_c: np.ndarray, raw_cp: np.ndarray):
    """(d^2, e^2) of the factor of these draws, each entry one product:
    d_k^2 = c^2 (1 - c'^2) (no c' in the last row) and e_k^2 = (1 - c^2) c'^2."""
    sq_d = np.empty_like(raw_c)
    sq_d[..., -1] = raw_c[..., 0]
    np.multiply(raw_c[..., :0:-1], 1.0 - raw_cp[..., ::-1], out=sq_d[..., :-1])
    sq_e = 1.0 - raw_c[..., -2::-1]
    sq_e *= raw_cp[..., ::-1]
    return sq_d, sq_e


def assemble_gram(factor: TridiagonalFactor | tuple) -> SymTridiagonal:
    """Symmetric tridiagonal A = BB^T of a factor, or of its draws as a pair (raw_c, raw_cp).

    A needs the entries of B only squared, so it is formed from the draws:
    A_kk = d_k^2 + e_{k-1}^2 and A_{k,k+1} = d_k e_k = -sqrt(d_k^2) sqrt(e_k^2).
    """
    raw_c, raw_cp = (factor.raw_c, factor.raw_cp) if isinstance(factor, TridiagonalFactor) else factor
    sq_d, sq_e = _squared_entries(raw_c, raw_cp)
    off = np.sqrt(sq_d[..., :-1])
    off *= np.sqrt(sq_e)
    np.negative(off, out=off)
    sq_d[..., 1:] += sq_e
    return SymTridiagonal(diag=sq_d, off=off)


def _draw_block(params: EnsembleParams, stream, start: int, b: int):
    """(c^2, c'^2) of replicates start..start + b - 1, row r as _draws gives it from stream(start + r).

    Each replicate makes the first calls of _draws on its stream into (b,
    ...) buffers: its standard_gamma call if the set has gamma pairs, then
    its random pool if it has Cheng pairs.  The draws of the whole block are
    then formed at once.  A replicate whose pool runs out is redone by
    _draws on its re-keyed stream.
    """
    cheng, table, gamma, shapes, k = _routes(params)
    g = np.empty((b, shapes.size)) if gamma.size else None
    uniforms = np.empty((b, 2, cheng.size + _pool_pairs(cheng.size))) if cheng.size else None
    for r in range(b):
        rng = stream(start + r)
        if g is not None:
            g[r] = rng.standard_gamma(shapes)
        if uniforms is not None:
            rng.random(out=uniforms[r])
    x, stopped = (None, None) if uniforms is None else _cheng_rounds(table, uniforms)
    x = _joined(cheng, gamma, x, None if g is None else _ratios(g, k))
    for r in () if stopped is None else np.flatnonzero(stopped.any(axis=1)):
        x[r] = _draws(params, stream(start + r))
    return x[:, : params.n], x[:, params.n :]


def _block_rows(statistic, params, stream, lo, hi, block):
    """(start, rows): the (b, k) rows of the statistic for each block of
    replicates start..start + b - 1 that tiles lo..hi - 1."""
    for start in range(lo, hi, block):
        b = min(block, hi - start)
        gram = assemble_gram(_draw_block(params, stream, start, b))
        rows = np.asarray(statistic(gram))
        if rows.shape[:1] != (b,):
            raise ParameterError(f"statistic must return one row per matrix of the block: "
                                 f"{b} rows, got shape {rows.shape}")
        yield start, rows.reshape(b, -1)


def _worker_count(left: int, projected_s: float) -> int:
    """Processes for the left replicates not yet run, projected to take projected_s.

    One per _SHARD_MIN_S of projected work, at most one per replicate left
    and per CPU this process may run on; 1 where fork or the affinity mask
    is missing.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), left, 1 + int(projected_s / _SHARD_MIN_S)))


def _fork_worker(fill: Callable[[int, int], None], lo: int, hi: int) -> int:
    """Pid of a forked worker that runs fill(lo, hi) and exits: 0 if it returned, else 1.

    The worker never returns into the caller, whatever it raises, and leaves
    by os._exit, which flushes no stdio buffer it inherited.
    """
    parent = os.getpid()
    try:
        pid = os.fork()
        if pid == 0:
            fill(lo, hi)
            os._exit(0)
    finally:
        if os.getpid() != parent:
            os._exit(1)
    return pid


def _sharded(fill: Callable[[int, int], None], ranges: list) -> None:
    """fill(lo, hi) for every (lo, hi) of ranges: the first here, each other in a forked worker.

    Every worker is reaped before this returns or raises; on any exception
    here, KeyboardInterrupt included, the workers still running are killed
    first.  The range of a worker that fails in any way, or could not be
    forked, is filled again here, in order, so its rows or its error come out
    as in a serial run.
    """
    pids = {}
    try:
        for lo, hi in ranges[1:]:
            with contextlib.suppress(OSError):  # no process to spare: filled below
                pids[lo, hi] = _fork_worker(fill, lo, hi)
        fill(*ranges[0])
        for lo, hi in ranges[1:]:
            failed = (lo, hi) not in pids or os.waitpid(pids[lo, hi], 0)[1] != 0
            pids.pop((lo, hi), None)
            if failed:
                fill(lo, hi)
    finally:
        for pid in pids.values():  # reaped already only if interrupted just after its wait
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def map_replicates(
    params: EnsembleParams, seed: int, replicates: int, statistic: Callable
) -> np.ndarray:
    """Row m is the statistic of the Gram matrix A_m of replicate m.

    Replicate m samples its factor from replicate_stream(seed, m).  The
    replicates run in blocks of b = max(1, 2^14 // n).  Each replicate
    makes the first calls of sample_factor's draw routine into block
    buffers: if the set has G Beta pairs with a shape above 2^24, row r of
    a (b, 2G) buffer takes their gammas from one standard_gamma call; then,
    if it has M other pairs, row r of a (b, 2, M + P) buffer takes their
    uniform pool from one random call, and Cheng's accept/reject rounds run
    over the whole block.  The Gram matrices of the block are then formed
    from its draws in one pass, and statistic maps the stacked Gram
    matrices (diag (b, n), off (b, n - 1)) to b values or a (b, k) array.
    A replicate whose pool runs out is redone by that draw routine on its
    re-keyed stream, so row m is bit-identical to sample_factor(params,
    replicate_stream(seed, m)) in every case, and the (replicates, k)
    result is bit-identical whatever the block size.

    Replicate 0 runs here first, alone, timed in CPU seconds; it also checks
    the statistic's row shape.  When it takes at least _PROBE_MIN_S, the
    rest is projected from it; otherwise replicates 1..b run here as one
    block and the rest is projected from that block.  When the rest is
    projected to take at least _SHARD_MIN_S, the replicates left are split
    evenly into contiguous ranges, one per process (see _worker_count), each
    run in blocks of b from its own start: this process fills the first
    range while forked workers fill the others, writing their rows into a
    shared anonymous mapping.  Rows depend on (seed, m) alone, so the result
    is bit-identical at any worker count; a worker that fails has its range
    redone here, which gives its rows, or raises its error, as a serial run
    would.
    """
    replicates = checked_int("replicates", replicates, 2)
    stream = _rekeyed_streams(seed)
    _shape_arrays(params)  # a ParameterError before any work
    block = min(replicates, max(1, _BLOCK_ELEMENTS // params.n))

    def run(lo: int, hi: int, size: int = block):
        return _block_rows(statistic, params, stream, lo, hi, size)

    clock = time.process_time()
    head = [next(run(0, 1, 1))]
    each = time.process_time() - clock  # CPU seconds per replicate
    blocks = run(1, replicates)
    if each < _PROBE_MIN_S:
        clock = time.process_time()
        head.append(next(blocks))
        each = (time.process_time() - clock) / head[-1][1].shape[0]
    start, rows = head[-1]
    done = start + rows.shape[0]
    left = replicates - done
    workers = _worker_count(left, each * left)
    shape = (replicates, rows.shape[1])
    if workers > 1:
        shared = mmap.mmap(-1, max(1, 8 * shape[0] * shape[1]))  # MAP_SHARED
        out = np.frombuffer(shared, count=shape[0] * shape[1]).reshape(shape)
    else:
        out = np.empty(shape)

    def put(blocks) -> None:
        for start, rows in blocks:
            out[start : start + rows.shape[0]] = rows

    put(head)
    if workers == 1:
        # one generator for every full block, so each block's arrays live
        # until the next block's replace them, as in a plain loop; freed
        # between blocks, the allocator handed their memory back and faulted
        # it in again (fluct n = 64, 5000 replicates: 10k minor faults in
        # place of 4k, 7 % more wall time)
        put(blocks)
        return out
    cuts = [done + left * w // workers for w in range(workers + 1)]
    _sharded(lambda lo, hi: put(run(lo, hi)), list(zip(cuts, cuts[1:])))
    return out.copy()


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
    as rows of a (..., bands, n) array zero-padded at the right end.  The
    three-term recurrence T_{j+1} = 2 B T_j - T_{j-1} builds T_0..T_h for
    h = ceil(K/2) in O(n h^2), and every higher trace comes from
    tr T_{i+j} = 2 <T_i, T_j>_F - tr T_{i-j} with i = ceil(k/2), j = floor(k/2)
    (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)).  Those two traces,
    tr T_{2j-1} and tr T_{2j}, are taken as soon as T_j is built, so only
    T_{j-1} and T_j are held.  When [center - half_width, center +
    half_width] holds the spectrum, every T_j(B) has entries of size at most
    one, so the recurrence is stable at any degree, where monomial power
    traces lose digits to cancellation.

    A stack of Gram matrices gives a (..., K + 1) array, each row equal bit
    for bit to the traces of its matrix alone.  A (b, n) stack runs in parts
    whose bands hold at most about _TRACE_ELEMENTS doubles.
    """
    K = checked_int("K", K, 0)
    if not half_width > 0:
        raise ParameterError(f"half_width must be positive, got {half_width!r}")
    lead, n = gram.diag.shape[:-1], gram.n
    h = (K + 1) // 2
    part = max(1, _TRACE_ELEMENTS // (3 * (h + 2) * n))  # T_{j-1}, T_j, T_{j+1}: <= j + 2 bands
    if len(lead) == 1 and lead[0] > part:
        return np.concatenate([
            chebyshev_traces(SymTridiagonal(gram.diag[i : i + part], gram.off[i : i + part]),
                             center, half_width, K)
            for i in range(0, lead[0], part)])
    out = np.empty(lead + (K + 1,))

    def take(j: int, cur: np.ndarray, prev) -> None:
        """tr T_j, and tr T_{2j-1}, tr T_{2j} when above h, from T_j and T_{j-1}."""
        out[..., j] = cur[..., 0, :].sum(axis=-1)
        for k, other in ((2 * j - 1, prev), (2 * j, cur)):
            if h < k <= K:
                band_dots = np.einsum("...ij,...ij->...i", cur[..., : other.shape[-2], :], other)
                # <T_j, other>_F: band 0 once, each off-diagonal band twice; i - j = k mod 2
                dot = 2.0 * band_dots.sum(axis=-1) - band_dots[..., 0]
                out[..., k] = 2.0 * dot - out[..., k % 2]

    b0 = ((gram.diag - center) / half_width)[..., None, :]
    b1 = (gram.off / half_width)[..., None, :]
    out[..., 0] = n  # T_0 = I is never stored: T_2 = 2 B T_1 - I takes 1 off its diagonal
    if h >= 1:
        cur = np.zeros(lead + (min(2, n), n))
        cur[..., :1, :] = b0
        cur[..., 1:, :-1] = b1
        take(1, cur, None)
    b0, b1 = 2.0 * b0, 2.0 * b1
    for j in range(1, h):
        rc, rows = cur.shape[-2], min(j + 2, n)
        # (2 B M)[i, i+o] = b1[i-1] M[i-1, i+o] + b0[i] M[i, i+o] + b1[i] M[i+1, i+o]
        # with b0, b1 doubled; M[i+1, i] on band 0 is read from band 1 by symmetry
        nxt = np.zeros(lead + (rows, n))
        np.multiply(b0, cur, out=nxt[..., :rc, :])
        nxt[..., : rc - 1, 1:] += b1 * cur[..., 1:, :-1]
        top = min(rc, rows - 1)
        nxt[..., 1 : top + 1, :-1] += b1 * cur[..., :top, 1:]
        if rc > 1:
            nxt[..., :1, :-1] += b1 * cur[..., 1:2, :-1]
        if j == 1:
            nxt[..., 0, :] -= 1.0
        else:
            nxt[..., : prev.shape[-2], :] -= prev
        prev, cur = cur, nxt
        take(j + 1, cur, prev)
    return out


def chebyshev_sums(
    gram: SymTridiagonal, rows: np.ndarray, center: float, half_width: float
) -> np.ndarray:
    """rows @ chebyshev_traces(gram, center, half_width, K) for each matrix.

    Entry f is tr p_f(A) for p_f(x) = sum_k rows[f, k] T_k((x - center) /
    half_width).  A stack of Gram matrices gives (..., len(rows)); the
    batched matmul makes, per matrix, the same BLAS call as rows @ traces
    for one matrix, so each row is bit-identical to it (a traces @ rows.T
    product is not).
    """
    traces = chebyshev_traces(gram, center, half_width, rows.shape[1] - 1)
    return np.matmul(rows, traces[..., None])[..., 0]


def _row_dots(x: np.ndarray) -> np.ndarray:
    """x[..., :] @ x[..., :] per row, by the same BLAS dot as a 1-D x @ x."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def frobenius_gap_sq(g1: SymTridiagonal, g2: SymTridiagonal):
    """Squared Frobenius distance between two Gram matrices.

    Stacks broadcast; the result has their leading shape (a float for two
    single matrices).
    """
    gap = _row_dots(g1.diag - g2.diag) + 2.0 * _row_dots(g1.off - g2.off)
    return float(gap) if gap.ndim == 0 else gap


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
