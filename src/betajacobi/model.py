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

Every Monte Carlo check runs through map_replicates.  It draws replicate m
from the counter-based stream keyed by (seed, m) with one standard_gamma call
on the flat shape array, the first call sample_factor makes.  The Beta
ratios, factors and Gram matrices of a whole (b, n) block are then formed at
once; the statistic maps the block to (b, k) rows.  A replicate with a Beta
total of 0 (both gammas underflowed) is redone by sample_factor's draw
routine on its re-keyed stream.  The block size b = 2^14 // n (at least 1)
keeps every (b, n) array near 2^14 doubles.  Each row depends on (seed, m)
alone and every batched operation acts row by row exactly as on one matrix,
so row m equals sample_factor(params, replicate_stream(seed, m)) bit for
bit, whatever the block size.  Once the first block, run and timed in this
process, projects the rest at _SHARD_MIN_S of CPU time or more, the other
blocks are split into contiguous ranges over forked workers, up to one per
CPU in the affinity mask, which write their rows into a shared anonymous
mapping; since rows depend on (seed, m) alone, the result is the same bit for
bit at any worker count.

Polynomial linear statistics need no eigensolve: chebyshev_traces returns
tr T_k((A - cI)/r) for k <= K from the banded Chebyshev recurrence, so any
polynomial written in that basis is a dot product with its coefficients.
"""

from __future__ import annotations

import contextlib
import csv
import mmap
import numbers
import os
import signal
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterError
from .params import EnsembleParams

__all__ = [
    "TridiagonalFactor",
    "SymTridiagonal",
    "checked_seed",
    "replicate_stream",
    "map_replicates",
    "sample_factor",
    "deterministic_factor",
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
# Doubles in the bands of T_0..T_ceil(K/2) that chebyshev_traces holds for
# one part of a stack (2 MiB): a larger stack runs in parts, which keeps
# them in cache at high degree (K = 20 at n = 2000 ran 1.7x slower in blocks
# of 8 than one matrix at a time).
_TRACE_ELEMENTS = 1 << 18
# Limits on the Beta shapes, checked once per parameter set.  A gamma draw is
# about its shape, so far above _MAX_SHAPE the total G1 + G2 overflows to inf
# and the Beta ratio to 0 or NaN.  Below _MIN_SHAPE both gammas of a pair
# underflow to 0 so often that the resample loop, which needs about
# 1 / (1488 a) rounds at shape a, stalls: at n = 20, beta = 1e-8 takes 0.39 s
# per factor and beta = 1e-9 takes 3.6 s.  A log-domain gamma sampler would
# lift the floor.
_MAX_SHAPE = 1e300
_MIN_SHAPE = 1e-9
# CPU seconds of projected work per process for map_replicates to fork one
# more.  A bare fork and exit of a process that holds numpy and scipy costs
# about 15 ms of wall time, and sharding pays only well above that: on a
# 2-core host, fluct n = 64, 5000 replicates (0.12-0.20 s) ran slower
# sharded, n = 2000, 1000 replicates (0.5-0.85 s) 1.6-1.8x faster.  CPU
# time, not wall time, is projected, so a core shared with other processes
# does not make a small run look large.
_SHARD_MIN_S = 0.25


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
    """seed itself if 0 <= seed < 2^64, the range of every seeded stream; else ParameterError."""
    if not (0 <= seed <= _MASK64):
        raise ParameterError(f"seed must fit in 64 bits, got {seed!r}")
    return seed


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate index).

    Streams for distinct replicates are independent by construction, so a
    run is bit-reproducible no matter how replicates are scheduled.
    """
    checked_seed(seed)
    if replicate < 0:
        raise ParameterError(f"replicate index must be nonnegative, got {replicate}")
    key = np.array([seed, replicate & _MASK64], dtype=np.uint64)
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


def _replicate_count(replicates) -> int:
    """The replicate count as an int; anything but an integer >= 2 is a ParameterError."""
    if not isinstance(replicates, numbers.Integral) or replicates < 2:
        raise ParameterError(
            f"need an integer count of at least two replicates, got {replicates!r}")
    return int(replicates)


@lru_cache(maxsize=16)
def _shape_arrays(params: EnsembleParams):
    """Beta shape pairs of the c and c' draws, cached per parameter set.

    Returns the flat array [c row 0, c row 1, c' row 0, c' row 1] of length
    4n - 2: rows 0 and 1 hold the first and second shapes of the n c pairs,
    then of the n - 1 c' pairs.  Every replicate of a run needs the same
    array, so it is built once; it is shared, hence read-only.  Shapes
    outside [_MIN_SHAPE, _MAX_SHAPE] are a ParameterError.
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
    if low < _MIN_SHAPE:
        raise ParameterError(f"Beta shape {low:g} is below {_MIN_SHAPE:g}: "
                             f"the gamma draws underflow; increase beta or n1, n2")
    flat.setflags(write=False)
    return flat


def _ratios(g: np.ndarray, n: int):
    """(c^2, c'^2): x / (x + y) for each pair of g, laid out like the flat shape array.

    g may carry leading axes.  A pair whose total is 0 gives NaN without a
    warning; the shape limits keep every total finite, so no other NaN arises.
    """
    c1, c2, cp1, cp2 = np.split(g, [n, 2 * n, 3 * n - 1], axis=-1)
    with np.errstate(invalid="ignore"):
        return c1 / (c1 + c2), cp1 / (cp1 + cp2)


def _factor_draws(flat: np.ndarray, n: int, rng: np.random.Generator):
    """(c^2, c'^2): Beta draws via the gamma ratio G1/(G1+G2), c first.

    One standard_gamma call draws every gamma from the flat shape array
    (leading axes index a stack of factors).  While any pair's total is 0
    (both gammas underflowed), the whole array is drawn again, further on
    in the stream, and only those pairs take the new gammas.  The gamma
    generator handles shapes < 1 correctly, which matters because the first
    c' shape is beta/2 < 1 whenever beta < 2.
    """
    g = rng.standard_gamma(flat)
    while True:
        c, cp = _ratios(g, n)
        zero = np.isnan(np.concatenate([c, c, cp, cp], axis=-1))
        if not zero.any():
            return c, cp
        g = np.where(zero, rng.standard_gamma(flat), g)


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
    """Draw the 2n-1 independent Beta variables and lay out the factor."""
    return _build_factor(*_factor_draws(_shape_arrays(params), params.n, rng))


def deterministic_factor(params: EnsembleParams) -> TridiagonalFactor:
    """Factor with every Beta(x, y) draw replaced by its mean x/(x+y)."""
    return _build_factor(*_ratios(_shape_arrays(params), params.n))


def assemble_gram(factor: TridiagonalFactor) -> SymTridiagonal:
    """Symmetric tridiagonal A = BB^T: A_kk = d_k^2 + e_{k-1}^2, A_{k,k+1} = d_k e_k."""
    d, e = factor.diag, factor.sub
    diag = d * d
    diag[..., 1:] += e * e
    off = d[..., :-1] * e
    return SymTridiagonal(diag=diag, off=off)


def _block_rows(statistic, flat, n, stream, lo, hi, block):
    """(start, rows): the (b, k) rows of the statistic for each block of
    replicates start..start + b - 1 that tiles lo..hi - 1."""
    for start in range(lo, hi, block):
        b = min(block, hi - start)
        g = np.empty((b, 4 * n - 2))
        for r in range(b):
            g[r] = stream(start + r).standard_gamma(flat)
        raw_c, raw_cp = _ratios(g, n)
        for r in np.flatnonzero(np.isnan(raw_c).any(axis=1) | np.isnan(raw_cp).any(axis=1)):
            raw_c[r], raw_cp[r] = _factor_draws(flat, n, stream(start + r))
        rows = np.asarray(statistic(assemble_gram(_build_factor(raw_c, raw_cp))))
        if rows.shape[:1] != (b,):
            raise ParameterError(f"statistic must return one row per matrix of the block: "
                                 f"{b} rows, got shape {rows.shape}")
        yield start, rows.reshape(b, -1)


def _worker_count(blocks: int, projected_s: float) -> int:
    """Processes for the blocks left after the first, projected to take projected_s.

    One per _SHARD_MIN_S of projected work, at most one per block and per
    CPU this process may run on; 1 where fork or the affinity mask is missing.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), blocks, 1 + int(projected_s / _SHARD_MIN_S)))


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
    replicates run in blocks of b = max(1, 2^14 // n).  Row r of a
    (b, 4n - 2) block buffer takes all the gammas of its replicate from one
    standard_gamma call on the flat shape array, the first call of
    sample_factor's draw routine.  The Beta ratios, factors and Gram
    matrices of the block are then formed in one pass, and statistic maps
    the stacked Gram matrices (diag (b, n), off (b, n - 1)) to b values or
    a (b, k) array.  A replicate with any Beta total of 0 is redone by that
    draw routine on its re-keyed stream, so row m is bit-identical to
    sample_factor(params, replicate_stream(seed, m)) in every case, and the
    (replicates, k) result is bit-identical whatever the block size.

    The first block runs here, timed in CPU seconds.  When the rest is
    projected to take at least _SHARD_MIN_S, the blocks are split into
    contiguous ranges, one per process (see _worker_count): this process
    fills the first range while forked workers fill the others, writing
    their rows into a shared anonymous mapping.  Rows depend on (seed, m) alone, so the result is
    bit-identical at any worker count; a worker that fails has its range
    redone here, which gives its rows, or raises its error, as a serial run
    would.
    """
    replicates = _replicate_count(replicates)
    stream = _rekeyed_streams(seed)
    flat = _shape_arrays(params)
    n = params.n
    block = min(replicates, max(1, _BLOCK_ELEMENTS // n))
    blocks = _block_rows(statistic, flat, n, stream, 0, replicates, block)
    clock = time.process_time()
    _, first = next(blocks)
    projected_s = (time.process_time() - clock) * (replicates - block) / block
    starts = range(0, replicates, block)
    workers = _worker_count(len(starts) - 1, projected_s)
    shape = (replicates, first.shape[1])
    if workers > 1:
        shared = mmap.mmap(-1, max(1, 8 * shape[0] * shape[1]))  # MAP_SHARED
        out = np.frombuffer(shared, count=shape[0] * shape[1]).reshape(shape)
    else:
        out = np.empty(shape)
    out[:block] = first

    def put(blocks) -> None:
        for start, rows in blocks:
            out[start : start + rows.shape[0]] = rows

    if workers == 1:
        # the same generator on, so each block's arrays live until the next
        # block's replace them, as in a plain loop; freed between blocks, the
        # allocator handed their memory back and faulted it in again (fluct
        # n = 64, 5000 replicates: 10k minor faults in place of 4k, 7 % more
        # wall time)
        put(blocks)
        return out
    cuts = [starts[len(starts) * w // workers] for w in range(workers)] + [replicates]
    _sharded(lambda lo, hi: put(_block_rows(statistic, flat, n, stream, lo, hi, block)),
             [(max(lo, block), hi) for lo, hi in zip(cuts, cuts[1:])])
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
    (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)).  When [center -
    half_width, center + half_width] holds the spectrum, every T_j(B) has
    entries of size at most one, so the recurrence is stable at any degree,
    where monomial power traces lose digits to cancellation.

    A stack of Gram matrices gives a (..., K + 1) array, each row equal bit
    for bit to the traces of its matrix alone.  A (b, n) stack runs in parts
    whose bands hold at most about _TRACE_ELEMENTS doubles.
    """
    if K < 0:
        raise ParameterError("Chebyshev degree K must be >= 0")
    if not half_width > 0:
        raise ParameterError(f"half_width must be positive, got {half_width!r}")
    lead, n = gram.diag.shape[:-1], gram.n
    h = (K + 1) // 2
    part = max(1, _TRACE_ELEMENTS // (n * (h + 1) * (h + 2) // 2))  # T_j has <= j + 1 bands
    if len(lead) == 1 and lead[0] > part:
        return np.concatenate([
            chebyshev_traces(SymTridiagonal(gram.diag[i : i + part], gram.off[i : i + part]),
                             center, half_width, K)
            for i in range(0, lead[0], part)])
    b0 = ((gram.diag - center) / half_width)[..., None, :]
    b1 = (gram.off / half_width)[..., None, :]
    bands = [np.ones(lead + (1, n))]
    if h >= 1:
        t1 = np.zeros(lead + (min(2, n), n))
        t1[..., :1, :] = b0
        t1[..., 1:, :-1] = b1
        bands.append(t1)
    b0, b1 = 2.0 * b0, 2.0 * b1
    for j in range(1, h):
        cur, prev = bands[j], bands[j - 1]
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
        nxt[..., : prev.shape[-2], :] -= prev
        bands.append(nxt)
    out = np.empty(lead + (K + 1,))
    for k in range(min(K, h) + 1):
        out[..., k] = bands[k][..., 0, :].sum(axis=-1)
    for k in range(h + 1, K + 1):
        i, j = k - k // 2, k // 2
        rows = bands[j].shape[-2]
        band_dots = np.einsum("...ij,...ij->...i", bands[i][..., :rows, :], bands[j])
        # <T_i, T_j>_F: band 0 once, each off-diagonal band twice
        out[..., k] = 2.0 * (2.0 * band_dots.sum(axis=-1) - band_dots[..., 0]) - out[..., i - j]
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
