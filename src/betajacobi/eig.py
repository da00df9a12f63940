"""Eigenvalues of symmetric tridiagonal matrices.

The primary solver is the implicit QL/QR iteration with Wilkinson shifts
(LAPACK sterf, values-only, O(n^2) with small constants).  A hand-written
Sturm-sequence bisection is kept as an independent oracle and as the
fallback when the QL iteration fails to converge.  Pure functions, one
factorization at a time; model.map_replicates shards replicates, hence
matrices, over processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal

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

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _validate(A: SymTridiagonal) -> None:
    if not (np.all(np.isfinite(A.diag)) and np.all(np.isfinite(A.off))):
        raise ParameterError("matrix entries must be finite")


def eigenvalues(A: SymTridiagonal) -> Spectrum:
    """All eigenvalues, ascending; deterministic given the input.

    Falls back to Sturm bisection if the QL sweep cap is exceeded, and
    raises EigenSolverError if that fails too.  The trace residual is
    checked against n * scale * max(_TOL, eps) * 100.
    """
    _validate(A)
    n = A.n
    if n == 1:
        vals = A.diag.astype(float).copy()
    else:
        try:
            vals = eigvalsh_tridiagonal(A.diag, A.off, lapack_driver="sterf")
        except LinAlgError as exc:
            try:
                vals = sturm_eigenvalues(A.diag, A.off, tol=_TOL)
            except Exception:
                raise EigenSolverError(f"QL iteration and bisection both failed: {exc}")
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
    and x (..., m) give counts (..., m).  Zero pivots are nudged by a tiny
    epsilon.
    """
    diag = np.asarray(diag, dtype=float)
    off_sq = np.asarray(off_sq, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = diag.shape[-1]
    count = np.zeros(np.broadcast_shapes(diag.shape[:-1] + (1,), x.shape), dtype=np.int64)
    q = np.ones(count.shape)
    tiny = np.finfo(float).tiny * 4.0
    for i in range(n):
        denom = np.where(np.abs(q) < tiny, np.where(q >= 0, tiny, -tiny), q)
        esq = off_sq[..., i - 1, None] if i > 0 else 0.0
        q = (diag[..., i, None] - x) - esq / denom
        count += q < 0
    return count


def sturm_eigenvalues(diag: np.ndarray, off: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues by bisection with Sturm counts (independent oracle).

    Takes leading batch axes, diag (..., n) and off (..., n-1), and returns
    (..., n) ascending rows.  Each matrix bisects from its own Gershgorin
    interval and stops at its own iteration cap or width test, so a row is
    bit-identical to the same matrix solved alone.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.shape[-1]
    if off.shape != diag.shape[:-1] + (max(n - 1, 0),):
        raise ParameterError(f"off shape {off.shape} does not fit diag shape {diag.shape}")
    if n == 1:
        return diag.copy()
    # one batch axis, so every per-matrix quantity below is an array
    batch = diag.shape[:-1]
    diag = diag.reshape(-1, n)
    off = off.reshape(-1, n - 1)
    off_sq = off * off
    edge = np.zeros((diag.shape[0], 1))
    radius = np.concatenate([np.abs(off), edge], axis=1) + np.concatenate([edge, np.abs(off)], axis=1)
    lo = np.min(diag - radius, axis=1)
    hi = np.max(diag + radius, axis=1)
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    lo -= 1e-3 * scale
    hi += 1e-3 * scale
    lows = np.repeat(lo[:, None], n, axis=1)
    highs = np.repeat(hi[:, None], n, axis=1)
    targets = np.arange(1, n + 1)
    width = tol * scale
    # bisection until the interval width is below tol * scale
    max_iter = np.ceil(np.log2((hi - lo) / np.maximum(width, 1e-300))).astype(np.int64) + 4
    active = np.ones(diag.shape[0], dtype=bool)
    done = 0
    while np.any(active):
        mids = 0.5 * (lows + highs)
        below = sturm_count(diag, off_sq, mids) >= targets
        live = active[:, None]
        highs = np.where(below & live, mids, highs)
        lows = np.where(~below & live, mids, lows)
        done += 1
        # a row stops after max(max_iter, 1) steps or once its widest interval fits
        active &= (done < max_iter) & (np.max(highs - lows, axis=1) > width)
    return (0.5 * (lows + highs)).reshape(batch + (n,))
