import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

import betajacobi as bj
from betajacobi import eig, model
from betajacobi.errors import EigenSolverError, ParameterError


def test_diagonal_matrix():
    diag = np.array([3.0, -1.0, 2.0, 0.5])
    A = model.SymTridiagonal(diag=diag, off=np.zeros(3))
    assert np.allclose(eig.eigenvalues(A).values, np.sort(diag), atol=1e-15)


def test_known_three_by_three():
    A = model.SymTridiagonal(diag=np.ones(3), off=np.ones(2))
    expected = np.array([1.0 - math.sqrt(2), 1.0, 1.0 + math.sqrt(2)])
    assert np.allclose(eig.eigenvalues(A).values, expected, atol=1e-14)


def test_matches_sturm_oracle_small():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(-1, 1, n - 1)
        A = model.SymTridiagonal(diag=diag, off=off)
        vals = eig.eigenvalues(A).values
        oracle = eig.sturm_eigenvalues(diag, off)
        assert np.max(np.abs(vals - oracle)) <= 1e-10


def test_trace_and_frobenius_identities():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 513))
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(-1, 1, n - 1)
        vals = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off)).values
        scale = np.max(np.abs(vals))
        assert abs(vals.sum() - diag.sum()) <= 1e-12 * n * scale
        frob = np.sum(diag**2) + 2 * np.sum(off**2)
        assert abs(np.sum(vals**2) - frob) <= 1e-12 * n * scale**2


def test_gram_spectra_in_unit_interval():
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)
    for m in range(20):
        gram = model.assemble_gram(model.sample_factor(params, 4, m))
        vals = eig.eigenvalues(gram).values
        assert vals[0] >= -1e-10 and vals[-1] <= 1 + 1e-10


def test_sturm_count_monotone():
    rng = np.random.default_rng(2)
    diag = rng.uniform(-1, 1, 16)
    off = rng.uniform(-1, 1, 15)
    xs = np.linspace(-3, 3, 41)
    counts = eig.sturm_count(diag, off * off, xs)
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] == 0 and counts[-1] == 16


def test_rejects_non_finite():
    with pytest.raises(ParameterError):
        eig.eigenvalues(model.SymTridiagonal(diag=np.array([1.0, np.nan]), off=np.array([0.1])))
    with pytest.raises(ParameterError):
        eig.eigenvalues(model.SymTridiagonal(diag=np.array([1.0, np.inf]), off=np.array([0.1])))


def test_single_entry():
    spec = eig.eigenvalues(model.SymTridiagonal(diag=np.array([0.7]), off=np.zeros(0)))
    assert spec.values.tolist() == [0.7]
    assert spec.residual_trace_error == 0.0


def test_spectrum_residual_reported():
    rng = np.random.default_rng(3)
    diag = rng.uniform(0, 1, 100)
    off = rng.uniform(-0.5, 0.5, 99)
    spec = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off))
    assert spec.residual_trace_error <= 1e-10


def _sturm_eigenvalues_one(diag, off, tol=1e-14):
    """One matrix at a time, the shape the oracle had before it took batch axes."""
    n = diag.shape[0]
    if n == 1:
        return diag.copy()
    off_sq = off * off
    radius = np.concatenate([np.abs(off), [0.0]]) + np.concatenate([[0.0], np.abs(off)])
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    scale = max(abs(lo), abs(hi), 1e-300)
    lo -= 1e-3 * scale
    hi += 1e-3 * scale
    lows, highs = np.full(n, lo), np.full(n, hi)
    tiny = np.finfo(float).tiny * 4.0
    max_iter = int(np.ceil(np.log2((hi - lo) / max(tol * scale, 1e-300)))) + 4
    for _ in range(max(max_iter, 1)):
        mids = 0.5 * (lows + highs)
        counts = np.zeros(n, dtype=np.int64)
        q = np.ones(n)
        for i in range(n):
            denom = np.where(np.abs(q) < tiny, np.where(q >= 0, tiny, -tiny), q)
            q = (diag[i] - mids) - (off_sq[i - 1] if i > 0 else 0.0) / denom
            counts += q < 0
        take_low = counts >= np.arange(1, n + 1)
        highs = np.where(take_low, mids, highs)
        lows = np.where(take_low, lows, mids)
        if np.max(highs - lows) <= tol * scale:
            break
    return 0.5 * (lows + highs)


def _stack(n, seed):
    """Matrices of order n whose bisections stop at different iteration counts.

    The cap and the width test both depend on (hi - lo) / scale of the
    Gershgorin interval: about 2 for a matrix centred on 0, about 2e-3 for
    one shifted far from it.  The zero rows hit exact zero pivots.
    """
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-1.0, 1.0, (6, n))
    off = rng.uniform(-1.0, 1.0, (6, n - 1))
    diag[1] += 100.0
    diag[2] *= 1e-200
    off[2] *= 1e-200
    diag[3] = 0.0
    off[3] = 0.0
    diag[4] = 0.0
    off[5, ::2] = 0.0
    return diag, off


@pytest.mark.parametrize("n", [1, 2, 5, 10, 33])
def test_stacked_sturm_oracle_matches_one_at_a_time(n):
    diag, off = _stack(n, n)
    stacked = eig.sturm_eigenvalues(diag, off)
    assert stacked.shape == diag.shape
    for row in range(diag.shape[0]):
        alone = eig.sturm_eigenvalues(diag[row], off[row])
        assert np.array_equal(stacked[row], alone)
        assert np.array_equal(alone, _sturm_eigenvalues_one(diag[row], off[row]))
    # two batch axes give the same rows
    nested = eig.sturm_eigenvalues(diag.reshape(2, 3, n), off.reshape(2, 3, max(n - 1, 0)))
    assert np.array_equal(nested.reshape(6, n), stacked)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 33])
def test_stacked_sturm_count_matches_one_at_a_time(n):
    diag, off = _stack(n, 100 + n)
    off_sq = off * off
    shifts = np.linspace(-2.0, 2.0, 9)
    shifts = np.stack([shifts + 100.0 * (row == 1) for row in range(6)])
    shifts[3, 4] = 0.0  # exactly on the zero matrix's eigenvalue
    stacked = eig.sturm_count(diag, off_sq, shifts)
    shared = eig.sturm_count(diag, off_sq, shifts[0])
    for row in range(diag.shape[0]):
        assert np.array_equal(stacked[row], eig.sturm_count(diag[row], off_sq[row], shifts[row]))
        assert np.array_equal(shared[row], eig.sturm_count(diag[row], off_sq[row], shifts[0]))


def _sturm_count_every_step(diag, off_sq, x):
    """sturm_count as it read when every step built the nudged pivot."""
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


@pytest.mark.parametrize("n", [1, 2, 5, 10, 33])
def test_sturm_count_pivot_skip_matches_every_step_nudge(n):
    diag, off = _stack(n, 200 + n)
    off_sq = off * off
    shifts = np.linspace(-2.0, 2.0, 9)
    shifts = np.stack([shifts + 100.0 * (row == 1) for row in range(6)])
    shifts[3, 4] = 0.0  # exact zero pivots at every step of the zero matrix
    shifts[0, 0] = diag[0, 0]  # an exact zero first pivot in a coupled matrix
    diag[4, 0] = -0.0  # at shift 0 a pivot of -0.0, which the nudge makes +tiny
    for x in (shifts, shifts[0]):
        expected = _sturm_count_every_step(diag, off_sq, x)
        assert np.array_equal(eig.sturm_count(diag, off_sq, x), expected)
    # the bisection that calls it, on the same stack
    rows = np.array([_sturm_eigenvalues_one(d, e) for d, e in zip(diag, off)])
    assert np.array_equal(eig.sturm_eigenvalues(diag, off), rows)


def test_padded_stack_of_mixed_orders_matches_one_at_a_time():
    # _stack's rows at every order 1..33, padded to order 33 with +inf diagonal
    # entries beside zero off-diagonals, then one row of padding alone
    top = 33
    rows = [row for n in range(1, top + 1) for row in zip(*_stack(n, 300 + n))]
    diag, off = np.full((len(rows) + 1, top), np.inf), np.zeros((len(rows) + 1, top - 1))
    for i, (d, e) in enumerate(rows):
        diag[i, :d.shape[0]], off[i, :e.shape[0]] = d, e
    stacked = eig.sturm_eigenvalues(diag, off)
    for i, (d, e) in enumerate(rows):
        assert np.array_equal(stacked[i, :d.shape[0]], _sturm_eigenvalues_one(d, e))
        assert np.all(stacked[i, d.shape[0]:] == np.inf)
    assert np.all(stacked[-1] == np.inf)


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_sturm_oracle_of_order_zero_is_empty(shape):
    assert eig.sturm_eigenvalues(np.zeros(shape), np.zeros(shape)).shape == shape


def test_sturm_oracle_rejects_mismatched_shapes():
    with pytest.raises(ParameterError):
        eig.sturm_eigenvalues(np.zeros((3, 4)), np.zeros((2, 3)))


def _failed_sterf(monkeypatch):
    """A random 40 x 40 matrix whose QL iteration reports no convergence (info > 0).

    eig.dsterf imports LAPACK's dsterf at its first call and eigenvalues
    calls it through the module, so replacing it replaces the solver.
    """
    rng = np.random.default_rng(5)
    A = model.SymTridiagonal(diag=rng.uniform(-1, 1, 40), off=rng.uniform(-1, 1, 39))
    monkeypatch.setattr(eig, "dsterf", lambda d, e: (np.full_like(d, np.nan), 3))
    return A


def test_failed_sterf_falls_back_to_bisection(monkeypatch):
    A = _failed_sterf(monkeypatch)
    spectrum = eig.eigenvalues(A)
    expected = eig.sturm_eigenvalues(A.diag, A.off, tol=eig._TOL)
    assert np.array_equal(spectrum.values, expected)
    assert spectrum.residual_trace_error == abs(float(expected.sum() - A.diag.sum()))
    # the fallback's values face the same trace-residual check
    monkeypatch.setattr(eig, "sturm_eigenvalues", lambda d, e, tol: expected + 1e-6)
    with pytest.raises(EigenSolverError, match="trace residual"):
        eig.eigenvalues(A)


def test_failed_sterf_and_bisection_raise(monkeypatch):
    A = _failed_sterf(monkeypatch)

    def failed_bisection(diag, off, tol):
        raise FloatingPointError("no convergence")

    monkeypatch.setattr(eig, "sturm_eigenvalues", failed_bisection)
    with pytest.raises(EigenSolverError, match="both failed"):
        eig.eigenvalues(A)


def test_sturm_pivot_nudge_scales_with_the_off_diagonal():
    # an exact zero pivot was nudged to 4 tiny, and off_sq / (4 tiny)
    # overflowed once off_sq passed 16; both calls warned under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = eig.sturm_eigenvalues(np.zeros(3), np.array([100.0, 100.0]))
        # the Hermite Jacobi matrix of order 1024, off_sq = k, at the shift 0
        count = eig.sturm_count(np.zeros(1024), np.arange(1.0, 1024.0), np.array([0.0, 1.0]))
    assert vals == pytest.approx([-100.0 * math.sqrt(2.0), 0.0, 100.0 * math.sqrt(2.0)],
                                 rel=1e-14, abs=1e-11)
    assert count.tolist() == [512, 512 + int(np.sum(roots_hermitenorm(1024)[0][512:] < 1.0))]
