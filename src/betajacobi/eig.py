"""Eigenvalues of symmetric tridiagonal matrices.

The primary solver is the implicit QL/QR iteration with Wilkinson shifts
(LAPACK sterf, values-only, O(n^2) with small constants).  Its module,
scipy.linalg, is imported at the first call of dsterf, not with this one:
a caller that never solves a spectrum never loads scipy.  A hand-written
Sturm-sequence bisection is kept as an independent oracle and as the
fallback when the QL iteration fails to converge.  Pure functions, one
factorization at a time; model.map_replicates shards replicates, hence
matrices, over processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverError, ParameterError
from .model import SymTridiagonal

__all__ = ["Spectrum", "eigenvalues", "sturm_eigenvalues", "sturm_count"]

# Relative tolerance of the fallback bisection and of the trace-residual budget
_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues plus the residual of the trace identity."""

    values: np.ndarray
    residual_trace_error: float

    def __post_init__(self):
        self.values.setflags(write=False)


def dsterf(diag: np.ndarray, off: np.ndarray):
    """LAPACK dsterf: (eigenvalues, info) of the symmetric tridiagonal (diag, off).

    Imports scipy.linalg on its first call (0.2-0.35 s after numpy on a
    shared 2-core host); eigenvalues calls it by this module's name, so a
    test can replace it.
    """
    from scipy.linalg.lapack import dsterf as lapack_dsterf

    return lapack_dsterf(diag, off)


def _validate(A: SymTridiagonal) -> None:
    if not (np.all(np.isfinite(A.diag)) and np.all(np.isfinite(A.off))):
        raise ParameterError("matrix entries must be finite")


def eigenvalues(A: SymTridiagonal) -> Spectrum:
    """All eigenvalues, ascending; deterministic given the input.

    Falls back to Sturm bisection if LAPACK dsterf reports a failure
    (info != 0, e.g. its QL sweep cap exceeded), and raises
    EigenSolverError if that fails too.  The trace residual is
    checked against n * scale * max(_TOL, eps) * 100.
    """
    _validate(A)
    n = A.n
    if n == 1:
        vals = A.diag.astype(float).copy()
    else:
        vals, info = dsterf(A.diag, A.off)
        if info != 0:
            try:
                vals = sturm_eigenvalues(A.diag, A.off, tol=_TOL)
            except Exception:
                raise EigenSolverError(
                    f"QL iteration (sterf info {info}) and bisection both failed")
    vals = np.sort(vals)
    residual = abs(float(vals.sum() - A.diag.sum()))
    scale = max(float(np.max(np.abs(A.diag), initial=0.0)), float(np.max(np.abs(A.off), initial=0.0)), 1e-300)
    budget = n * scale * max(_TOL, np.finfo(float).eps) * 100.0
    if residual > budget:
        raise EigenSolverError(
            f"trace residual {residual:.3e} exceeds budget {budget:.3e}"
        )
    return Spectrum(values=vals, residual_trace_error=residual)


def sturm_count(diag: np.ndarray, off_sq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in x.

    Standard Sturm sequence on the shifted LDL^T recurrence, vectorized
    across shifts and leading batch axes: diag (..., n), off_sq (..., n-1)
    and x (..., m) give counts (..., m).  A pivot below pivmin = 4 tiny
    max(1, max off_sq) of its matrix is nudged to +-pivmin, as LAPACK
    dstebz does, so that off_sq / pivot stays finite.
    """
    diag = np.asarray(diag, dtype=float)
    off_sq = np.asarray(off_sq, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = diag.shape[-1]
    if n == 0:
        return np.zeros(np.broadcast_shapes(diag.shape[:-1] + (1,), x.shape), dtype=np.int64)
    # a (..., 1) column, 4 tiny exactly wherever every off_sq <= 1
    tiny = np.finfo(float).tiny * 4.0 * np.max(off_sq, axis=-1, initial=1.0)[..., None]
    q = diag[..., 0, None] - x
    count = (q < 0).astype(np.int64)
    for i in range(1, n):
        # the nudge costs two more passes, so only a step with a tiny pivot pays it
        small = np.abs(q) < tiny
        denom = np.where(small, np.where(q >= 0, tiny, -tiny), q) if np.count_nonzero(small) else q
        q = (diag[..., i, None] - x) - off_sq[..., i - 1, None] / denom
        count += q < 0
    return count


def sturm_eigenvalues(diag: np.ndarray, off: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues by bisection with Sturm counts (independent oracle).

    Takes leading batch axes, diag (..., n) and off (..., n-1), and returns
    (..., n) ascending rows; order 0 gives an empty (..., 0) array.  Each
    matrix bisects from its own Gershgorin interval and stops at its own
    iteration cap or width test, so a row is bit-identical to the same
    matrix solved alone.

    Matrices of different orders stack by padding: a +inf diagonal entry
    whose off-diagonal neighbours are 0 is decoupled and adds no Sturm count
    below any finite shift.  A row with k finite diagonal entries returns
    its k eigenvalues, bit-identical to that order-k matrix solved alone,
    then +inf in place of each padding entry.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.shape[-1]
    if off.shape != diag.shape[:-1] + (max(n - 1, 0),):
        raise ParameterError(f"off shape {off.shape} does not fit diag shape {diag.shape}")
    if n <= 1:
        return diag.copy()
    # one batch axis, so every per-matrix quantity below is an array
    batch = diag.shape[:-1]
    diag = diag.reshape(-1, n)
    off = off.reshape(-1, n - 1)
    pad = diag == np.inf
    order = n - np.count_nonzero(pad, axis=1)
    off_sq = off * off
    edge = np.zeros((diag.shape[0], 1))
    radius = np.concatenate([np.abs(off), edge], axis=1) + np.concatenate([edge, np.abs(off)], axis=1)
    # the Gershgorin interval of each row's own entries (diag - radius is +inf at padding)
    lo = np.min(diag - radius, axis=1)
    hi = np.max(np.where(pad, -np.inf, diag + radius), axis=1)
    # a row of padding alone bisects [0, 0] and returns +inf throughout
    lo[order == 0] = hi[order == 0] = 0.0
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    lo -= 1e-3 * scale
    hi += 1e-3 * scale
    lows = np.repeat(lo[:, None], n, axis=1)
    highs = np.repeat(hi[:, None], n, axis=1)
    targets = np.arange(1, n + 1)
    # the columns past a row's order: their widths stay out of its width test
    beyond = targets > order[:, None]
    width = tol * scale
    # bisection until the interval width is below tol * scale
    max_iter = np.ceil(np.log2((hi - lo) / np.maximum(width, 1e-300))).astype(np.int64) + 4
    active = np.ones(diag.shape[0], dtype=bool)
    done = 0
    while active.any():
        mids = 0.5 * (lows + highs)
        below = sturm_count(diag, off_sq, mids) >= targets
        live = active[:, None]
        np.copyto(highs, mids, where=below & live)
        np.copyto(lows, mids, where=live > below)  # live and not below
        done += 1
        # a row stops after max(max_iter, 1) steps or once its widest interval fits
        widest = np.max(np.where(beyond, 0.0, highs - lows), axis=1)
        active &= (done < max_iter) & (widest > width)
    vals = np.where(beyond, np.inf, 0.5 * (lows + highs))
    # an order-1 row is its one finite entry, as when solved alone
    vals[order == 1, 0] = np.min(diag[order == 1], axis=1)
    return vals.reshape(batch + (n,))
