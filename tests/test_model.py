import os
import subprocess
import sys

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import eig, model, spectral
from betajacobi.errors import EigenSolverError, ParameterError


def _se(x):
    return x.std(ddof=1) / np.sqrt(x.shape[0])


def _beta_sample(p, q, m, rng):
    """m Beta(p, q) draws: the c draws of _factor_draws at n = m, every pair (p, q)."""
    flat = np.repeat([p, q, p, q], [m, m, m - 1, m - 1])
    return model._factor_draws(flat, m, rng)[0]


def test_beta_sample_uniform_mean():
    rng = model.replicate_stream(1, 0)
    draws = _beta_sample(1.0, 1.0, 10**6, rng)
    assert abs(draws.mean() - 0.5) < 0.002


def test_beta_sample_moments_vs_exact():
    # exact Beta moments: mean p/(p+q), variance pq/((p+q)^2 (p+q+1))
    rng = model.replicate_stream(2, 0)
    m = 200_000
    draws = _beta_sample(3.0, 3.0, m, rng)
    assert abs(draws.mean() - 0.5) < 3 * _se(draws)
    var = draws.var(ddof=1)
    var_se = np.sqrt(np.var((draws - draws.mean()) ** 2) / m)
    assert abs(var - 1.0 / 28.0) < 3 * var_se

    draws = _beta_sample(1.0, 6.0, m, rng)
    assert abs(draws.mean() - 1.0 / 7.0) < 3 * _se(draws)


def test_shape_arrays_small_case():
    # n=2, beta=2, p=q=2: c shapes (3,3), (4,4); c' shape (1,6)
    flat = model._shape_arrays(bj.from_ratios(2, 2.0, 2.0, 2.0))
    assert flat.tolist() == [3.0, 4.0, 3.0, 4.0, 1.0, 6.0]


def test_shape_positivity_guard():
    params = bj.EnsembleParams(n=4, beta=2.0, n1=3.0, n2=6.0)  # n1 = n - 1 exactly
    with pytest.raises(ParameterError):
        model.sample_factor(params, model.replicate_stream(0, 0))


@pytest.mark.parametrize("beta, match", [(1e308, "overflows"), (1e-300, "underflow")])
def test_shape_limits_guard(beta, match):
    # inf shapes gave NaN statistics; shapes near 1e-300 stalled the resample loop
    params = bj.from_ratios(8, beta, 2.0, 2.0)
    with pytest.raises(ParameterError, match=match):
        model.map_replicates(params, 0, 10, lambda gram: gram.diag.sum(axis=-1))


def test_raw_means_match_expectation_formula():
    # E c_i^2 = (b - a + a i/n) / (1 - 2a + 2a i/n) in the proportional
    # regime, equivalently (b + s)/(1 + 2s) at s = a(i/n - 1); checked at
    # asymmetric ratios where the mean actually varies with i
    n, reps = 8, 100_000
    params = bj.from_ratios(n, 2.0, 2.0, 3.0)
    a, b = 0.2, 0.4
    rng = model.replicate_stream(3, 0)
    flat = model._shape_arrays(params)
    draws, _ = model._factor_draws(np.tile(flat, (reps, 1)), n, rng)
    i = np.arange(1, n + 1)
    expected = (b - a + a * i / n) / (1 - 2 * a + 2 * a * i / n)
    se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(draws.mean(axis=0) - expected) < 3 * se)
    # sanity: the last row mean is exactly n1/(n1+n2)
    assert expected[-1] == pytest.approx(params.n1 / (params.n1 + params.n2))


def test_single_row_factor():
    params = bj.from_ratios(1, 2.0, 2.0, 2.0)
    factor = model.sample_factor(params, model.replicate_stream(0, 0))
    gram = model.assemble_gram(factor)
    assert gram.diag.shape == (1,) and gram.off.shape == (0,)
    assert gram.diag[0] == factor.raw_c[0]
    assert 0.0 <= gram.diag[0] <= 1.0


def test_assemble_two_by_two():
    factor = model._build_factor(np.array([0.3, 0.7]), np.array([0.2]))
    d1, d2 = factor.diag
    (e1,) = factor.sub
    gram = model.assemble_gram(factor)
    assert gram.diag[0] == pytest.approx(d1 * d1)
    assert gram.diag[1] == pytest.approx(d2 * d2 + e1 * e1)
    assert gram.off[0] == pytest.approx(d1 * e1)


def test_assemble_matches_dense_product():
    rng = model.replicate_stream(5, 0)
    for n in range(2, 9):
        params = bj.EnsembleParams(n=n, beta=1.5, n1=2.2 * n, n2=3.1 * n)
        factor = model.sample_factor(params, rng)
        B = model.factor_to_dense(factor)
        A = model.gram_to_dense(model.assemble_gram(factor))
        assert np.max(np.abs(A - B @ B.T)) <= 1e-15


def test_offdiagonal_sign_flip_preserves_spectrum():
    rng = model.replicate_stream(6, 0)
    factor = model.sample_factor(bj.from_ratios(12, 2.0, 2.0, 3.0), rng)
    gram = model.assemble_gram(factor)
    flipped = model.SymTridiagonal(diag=gram.diag.copy(), off=-gram.off)
    v1 = eig.eigenvalues(gram).values
    v2 = eig.eigenvalues(flipped).values
    assert np.max(np.abs(v1 - v2)) <= 1e-13


def test_deterministic_factor_symmetric_case():
    params = bj.from_ratios(16, 2.0, 2.0, 2.0)
    det = model.deterministic_factor(params)
    assert np.allclose(det.raw_c, 0.5)  # p = q makes both c shapes equal


def test_deterministic_factor_small_values():
    det = model.deterministic_factor(bj.from_ratios(2, 2.0, 2.0, 2.0))
    assert det.raw_c.tolist() == [0.5, 0.5]
    assert det.raw_cp[0] == pytest.approx(1.0 / 7.0)


def test_sampled_factors_bounded_and_psd():
    # raw entries in [0,1]; every Gram spectrum within [0, 1] up to 1e-12
    reps, n = 1000, 64
    params = bj.from_ratios(n, 2.0, 2.0, 2.0)
    for m in range(reps):
        factor = model.sample_factor(params, model.replicate_stream(7, m))
        assert np.all(factor.raw_c >= 0.0) and np.all(factor.raw_c <= 1.0)
        assert np.all(factor.raw_cp >= 0.0) and np.all(factor.raw_cp <= 1.0)
        vals = eig.eigenvalues(model.assemble_gram(factor)).values
        assert vals[0] >= -1e-12 and vals[-1] <= 1.0 + 1e-12


def test_gram_entries_reconstructible_from_raw_draws():
    # diagonal entries are polynomials in the raw draws; squared
    # off-diagonals are too (only even powers of the square roots appear
    # in any trace path product)
    rng = model.replicate_stream(8, 0)
    factor = model.sample_factor(bj.from_ratios(10, 2.0, 2.5, 3.5), rng)
    gram = model.assemble_gram(factor)
    n = factor.n
    rc = factor.raw_c[::-1]  # rc[m-1] = c_{n-m+1}^2
    rcp = factor.raw_cp[::-1]  # rcp[m-1] = (c'_{n-m})^2 for m <= n-1
    d_sq = rc * np.concatenate([1.0 - rcp, [1.0]])
    e_sq = (1.0 - rc[1:]) * rcp
    diag_poly = d_sq + np.concatenate([[0.0], e_sq])
    off_sq_poly = d_sq[:-1] * e_sq
    assert np.max(np.abs(diag_poly - gram.diag)) <= 1e-15
    assert np.max(np.abs(off_sq_poly - gram.off**2)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_chebyshev_traces_match_dense(n):
    gram = model.assemble_gram(
        model.sample_factor(bj.from_ratios(n, 2.0, 2.0, 2.0), model.replicate_stream(9, n))
    )
    A = model.gram_to_dense(gram)
    for K in sorted({0, 1, 2, 3, 4, max(n - 1, 0), n + 2, 2 * n + 5}):
        T_prev, T = np.eye(n), (A - 0.4 * np.eye(n)) / 0.45
        dense = [float(n)]
        for _ in range(K):
            dense.append(np.trace(T))
            T_prev, T = T, 2.0 * ((A - 0.4 * np.eye(n)) / 0.45) @ T - T_prev
        traces = model.chebyshev_traces(gram, 0.4, 0.45, K)
        assert traces.shape == (K + 1,)
        assert np.allclose(traces, dense, rtol=1e-12, atol=1e-12 * n)


def test_chebyshev_traces_match_spectrum():
    # Gamma_m = 2 T_m on the support, m <= 30, against the sterf spectrum
    params = bj.from_ratios(2000, 2.0, 2.0, 2.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    gram = model.assemble_gram(model.sample_factor(params, model.replicate_stream(9, 0)))
    traces = 2.0 * model.chebyshev_traces(gram, support.center, support.half_width, 30)
    lam = eig.eigenvalues(gram).values
    theta = np.arccos(np.clip((lam - support.center) / support.half_width, -1.0, 1.0))
    assert np.all(np.abs((lam - support.center) / support.half_width) <= 1.0)
    for m in range(31):
        expected = float(np.sum(2.0 * np.cos(m * theta)))
        assert abs(traces[m] - expected) <= 1e-9 * abs(expected), m


def test_chebyshev_traces_validation():
    gram = model.assemble_gram(
        model.sample_factor(bj.from_ratios(4, 2.0, 2.0, 2.0), model.replicate_stream(0, 0))
    )
    with pytest.raises(ParameterError):
        model.chebyshev_traces(gram, 0.5, 0.5, -1)
    with pytest.raises(ParameterError):
        model.chebyshev_traces(gram, 0.5, 0.0, 2)


def test_shape_arrays_cached_and_read_only():
    params = bj.from_ratios(16, 2.0, 2.0, 3.0)
    first = model._shape_arrays(params)
    assert model._shape_arrays(bj.from_ratios(16, 2.0, 2.0, 3.0)) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0


def test_replicate_streams_reproducible_and_disjoint():
    params = bj.from_ratios(32, 2.0, 2.0, 2.0)
    f1 = model.sample_factor(params, model.replicate_stream(42, 3))
    f2 = model.sample_factor(params, model.replicate_stream(42, 3))
    f3 = model.sample_factor(params, model.replicate_stream(42, 4))
    assert np.array_equal(f1.raw_c, f2.raw_c)
    assert np.array_equal(f1.raw_cp, f2.raw_cp)
    assert not np.array_equal(f1.raw_c, f3.raw_c)
    with pytest.raises(ParameterError):
        model.replicate_stream(-1, 0)
    with pytest.raises(ParameterError):
        model.replicate_stream(0, -2)


def _hand_loop(params, seed, replicates, statistic):
    factors = (model.sample_factor(params, model.replicate_stream(seed, m)) for m in range(replicates))
    rows = [statistic(model.assemble_gram(factor)) for factor in factors]
    return np.array(rows).reshape(replicates, -1)


# (n, replicates): a single row; n = 2; three blocks of 256 at n = 64, the
# last one partial; one replicate per block at n = 9000
@pytest.mark.parametrize("n, replicates", [(1, 5), (2, 7), (64, 600), (9000, 3)])
def test_map_replicates_blocks_match_hand_loop(n, replicates):
    block = max(1, model._BLOCK_ELEMENTS // n)
    if n == 64:
        assert replicates > 2 * block and replicates % block != 0
    if n == 9000:
        assert block == 1
    params = bj.from_ratios(n, 2.0, 2.0, 3.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    det = model.assemble_gram(model.deterministic_factor(params))
    rows = np.array([[1.0, 0.5, -2.0, 0.0, 3.0, 1.5], [0.0, 1.0, 0.0, 0.0, 0.0, 0.25]])
    statistics = [
        lambda gram: model.chebyshev_traces(gram, support.center, support.half_width, 7),
        lambda gram: model.chebyshev_sums(gram, rows, support.center, support.half_width),
        lambda gram: gram.diag.sum(axis=-1),
        lambda gram: model.frobenius_gap_sq(gram, det),
    ]
    for statistic in statistics:
        expected = _hand_loop(params, 11, replicates, statistic)
        assert np.array_equal(model.map_replicates(params, 11, replicates, statistic), expected)


def test_map_replicates_redrawn_rows_match_hand_loop():
    # at beta = 1e-4 the smallest gamma shape is 5e-5, and most replicates draw
    # some Beta pair whose gammas both underflow to 0
    params = bj.from_ratios(20, 1e-4, 2.0, 3.0)
    n, flat = params.n, model._shape_arrays(params)
    redrawn = 0
    for m in range(200):
        g = model.replicate_stream(11, m).standard_gamma(flat)
        totals = np.concatenate([g[:n] + g[n : 2 * n], g[2 * n : 3 * n - 1] + g[3 * n - 1 :]])
        redrawn += bool(np.any(totals == 0.0))
    assert 0 < redrawn < 200
    statistic = lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)
    expected = _hand_loop(params, 11, 200, statistic)
    assert np.array_equal(model.map_replicates(params, 11, 200, statistic), expected)


def test_map_replicates_draws_once_and_redraws_only_zero_totals(monkeypatch):
    params = bj.from_ratios(6, 2.0, 2.0, 2.0)
    n, replicates = params.n, 8
    # the first call on replicate 2's stream gets a zero c total, on 5's a zero c' total
    zero_columns = {2: [1, n + 1], 5: [2 * n, 3 * n - 1]}
    calls = []
    rekeyed = model._rekeyed_streams

    class Logged:
        def __init__(self, rng, m):
            self.rng, self.m, self.fresh = rng, m, True

        def standard_gamma(self, shapes):
            calls.append((self.m, np.shape(shapes)))
            g = self.rng.standard_gamma(shapes)
            if self.fresh and self.m in zero_columns:
                g[zero_columns[self.m]] = 0.0
            self.fresh = False
            return g

    def logged_streams(seed):
        stream = rekeyed(seed)
        return lambda m: Logged(stream(m), m)

    monkeypatch.setattr(model, "_rekeyed_streams", logged_streams)
    statistic = lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)
    rows = model.map_replicates(params, 4, replicates, statistic)
    flat = (4 * n - 2,)
    assert calls == [(m, flat) for m in range(replicates)] + [(m, flat) for m in (2, 2, 5, 5)]
    # the same stubbed streams, one sample_factor call per replicate
    stub = [model.sample_factor(params, Logged(model.replicate_stream(4, m), m))
            for m in range(replicates)]
    expected = np.array([statistic(model.assemble_gram(factor)) for factor in stub])
    assert np.array_equal(rows, expected)
    assert not np.array_equal(rows, _hand_loop(params, 4, replicates, statistic))


def test_map_replicates_checks_its_arguments():
    params = bj.from_ratios(8, 2.0, 2.0, 2.0)
    traces = model.map_replicates(params, 0, np.int64(3), lambda gram: gram.diag.sum(axis=-1))
    assert traces.shape == (3, 1)
    for count in (2.5, 3.0, "3", None):
        with pytest.raises(ParameterError, match="two replicates"):
            model.map_replicates(params, 0, count, lambda gram: gram.diag.sum(axis=-1))
    with pytest.raises(ParameterError, match="64 bits"):
        model.map_replicates(params, -1, 3, lambda gram: gram.diag.sum(axis=-1))
    # a statistic of one matrix, not of the block, is caught
    with pytest.raises(ParameterError, match="one row per matrix"):
        model.map_replicates(params, 0, 3, lambda gram: gram.diag.sum())


def _shard_over(monkeypatch, cpus, block=8, n=20):
    """Force map_replicates to shard over cpus processes in blocks of block
    replicates of order n; returns the list of forked ranges, filled as it forks."""
    monkeypatch.setattr(model, "_SHARD_MIN_S", 1e-12)
    monkeypatch.setattr(model, "_BLOCK_ELEMENTS", block * n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked = []
    fork_worker = model._fork_worker

    def logged(fill, lo, hi):
        forked.append((lo, hi))
        return fork_worker(fill, lo, hi)

    monkeypatch.setattr(model, "_fork_worker", logged)
    return forked


def _sharding_cases():
    params = bj.from_ratios(20, 2.0, 2.0, 3.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    rows = np.array([[1.0, 0.5, -2.0, 0.0, 3.0, 1.5], [0.0, 1.0, 0.0, 0.0, 0.0, 0.25]])
    # at beta = 1e-4 most replicates redraw a Beta pair whose gammas underflowed
    redrawn = bj.from_ratios(20, 1e-4, 2.0, 3.0)
    return {
        "chebyshev-sums": (params, lambda gram: model.chebyshev_sums(
            gram, rows, support.center, support.half_width)),
        "sterf-spectrum": (params, spectral.trace_statistic(
            [spectral.exp_function(), spectral.monomial(1)])),
        "scalar": (params, lambda gram: gram.diag.sum(axis=-1)),
        "zero-total-redraws": (redrawn, lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)),
    }


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("case", sorted(_sharding_cases()))
def test_sharded_rows_equal_serial_rows(monkeypatch, case, cpus):
    params, statistic = _sharding_cases()[case]
    replicates = 45  # six blocks of 8, the last one partial
    forked = _shard_over(monkeypatch, 1)
    serial = model.map_replicates(params, 11, replicates, statistic)
    assert forked == []
    forked = _shard_over(monkeypatch, cpus)
    sharded = model.map_replicates(params, 11, replicates, statistic)
    assert forked == [(16, 32), (32, 45)] if cpus == 3 else [(24, 45)]
    assert sharded.shape == serial.shape and np.array_equal(sharded, serial)


def test_small_runs_stay_in_process(monkeypatch):
    forked = _shard_over(monkeypatch, 2)
    monkeypatch.setattr(model, "_SHARD_MIN_S", 1e9)
    params = bj.from_ratios(20, 2.0, 2.0, 3.0)
    model.map_replicates(params, 11, 45, lambda gram: gram.diag.sum(axis=-1))
    assert forked == []


def test_worker_error_is_raised_as_in_a_serial_run(monkeypatch):
    params = bj.from_ratios(20, 2.0, 2.0, 3.0)
    traces = model.map_replicates(params, 11, 45, lambda gram: gram.diag.sum(axis=-1))[:, 0]
    bad = traces[40]  # in the last worker's range

    def statistic(gram):
        sums = gram.diag.sum(axis=-1)
        if np.any(sums == bad):
            raise EigenSolverError(f"no spectrum for trace {bad!r}")
        return sums

    message = f"no spectrum for trace {bad!r}"
    with pytest.raises(EigenSolverError) as serial:
        model.map_replicates(params, 11, 45, statistic)
    forked = _shard_over(monkeypatch, 3)
    with pytest.raises(EigenSolverError) as sharded:
        model.map_replicates(params, 11, 45, statistic)
    assert str(serial.value) == str(sharded.value) == message
    assert forked == [(16, 32), (32, 45)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_worker_range_is_redone_in_process(monkeypatch):
    params = bj.from_ratios(20, 2.0, 2.0, 3.0)
    statistic = lambda gram: gram.diag.sum(axis=-1)
    serial = model.map_replicates(params, 11, 45, statistic)
    parent = os.getpid()

    def dying(gram):
        if os.getpid() != parent:
            os._exit(3)
        return statistic(gram)

    forked = _shard_over(monkeypatch, 3)
    assert np.array_equal(model.map_replicates(params, 11, 45, dying), serial)
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_interrupt_kills_and_reaps_workers(monkeypatch):
    parent, calls = os.getpid(), []

    def interrupted(gram):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 2:  # the first block of this process's own range
                raise KeyboardInterrupt
        return gram.diag.sum(axis=-1)

    forked = _shard_over(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        model.map_replicates(bj.from_ratios(20, 2.0, 2.0, 3.0), 11, 45, interrupted)
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_UNFLUSHED_SCRIPT = """
import os
import betajacobi as bj
from betajacobi import model

model._SHARD_MIN_S = 1e-12
model._BLOCK_ELEMENTS = 64
os.sched_getaffinity = lambda pid: {0, 1, 2}
forked = []
fork_worker = model._fork_worker
model._fork_worker = lambda *args: forked.append(args) or fork_worker(*args)
print("printed before the sharded call")
rows = model.map_replicates(bj.from_ratios(8, 2.0, 2.0, 2.0), 5, 40, lambda g: g.diag.sum(axis=-1))
print(len(forked), rows.shape[0])
"""


def test_workers_do_not_flush_inherited_stdout():
    # stdout is a buffered pipe, so the first line is still in its buffer when
    # the workers fork
    src = os.path.dirname(os.path.dirname(model.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", _UNFLUSHED_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "printed before the sharded call\n2 40\n"


def test_rekeyed_stream_equals_replicate_stream():
    seed = 2**64 - 1
    stream = model._rekeyed_streams(seed)
    for m in (0, 1, 7, 2**40):
        expected, rng = model.replicate_stream(seed, m), stream(m)
        # a 32-bit draw leaves half a word buffered for the next re-key to drop
        assert rng.integers(0, 2**31, dtype=np.int32) == expected.integers(0, 2**31, dtype=np.int32)
        shapes = np.full(9, 0.4)
        assert np.array_equal(rng.standard_gamma(shapes), expected.standard_gamma(shapes))
        assert rng.random() == expected.random()
    with pytest.raises(ParameterError):
        model._rekeyed_streams(-1)


class _ZeroedGammas:
    """Generator stub: the first standard_gamma call has the entries at
    `zero` set to 0, so their Beta ratios are 0/0; later calls pass through."""

    def __init__(self, rng, zero):
        self.rng, self.zero, self.calls = rng, zero, []

    def standard_gamma(self, shapes):
        self.calls.append(np.shape(shapes))
        g = self.rng.standard_gamma(shapes)
        if len(self.calls) == 1:
            g[self.zero] = 0.0
        return g


def test_factor_draws_redraw_only_zero_pairs():
    # c pair 2 and c' pair 1 of n = 5 have both gammas zeroed on the first call
    params = bj.from_ratios(5, 2.0, 2.0, 2.0)
    n, flat = params.n, model._shape_arrays(params)
    zero = [2, n + 2, 2 * n + 1, 3 * n]
    stub = _ZeroedGammas(model.replicate_stream(4, 0), zero)
    factor = model.sample_factor(params, stub)
    assert stub.calls == [(4 * n - 2,), (4 * n - 2,)]
    reference = model.replicate_stream(4, 0)
    first, second = reference.standard_gamma(flat), reference.standard_gamma(flat)
    kept = first.copy()
    kept[zero] = second[zero]
    c = kept[:n] / (kept[:n] + kept[n : 2 * n])
    cp = kept[2 * n : 3 * n - 1] / (kept[2 * n : 3 * n - 1] + kept[3 * n - 1 :])
    assert np.array_equal(factor.raw_c, c) and np.array_equal(factor.raw_cp, cp)


def _stacked_gram(params, seed, count):
    """The Gram matrices of replicates 0..count-1 as one stack, and their factors."""
    factors = [model.sample_factor(params, model.replicate_stream(seed, m)) for m in range(count)]
    raw_c = np.array([f.raw_c for f in factors])
    raw_cp = np.array([f.raw_cp for f in factors])
    return model.assemble_gram(model._build_factor(raw_c, raw_cp)), factors


def test_stacked_gram_iterates_over_its_matrices():
    stacked, factors = _stacked_gram(bj.from_ratios(6, 2.0, 2.0, 2.0), 2, 3)
    assert stacked.n == 6 and stacked.diag.shape == (3, 6)
    for gram, factor in zip(stacked, factors):
        single = model.assemble_gram(factor)
        assert np.array_equal(gram.diag, single.diag) and np.array_equal(gram.off, single.off)


# one matrix per part, and the whole stack in one part
@pytest.mark.parametrize("trace_elements", [1, 1 << 40])
def test_chebyshev_traces_of_a_stack_match_each_matrix(monkeypatch, trace_elements):
    monkeypatch.setattr(model, "_TRACE_ELEMENTS", trace_elements)
    params = bj.from_ratios(40, 2.0, 2.0, 3.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    stacked, _ = _stacked_gram(params, 12, 5)
    for K in (0, 1, 4, 9, 30):
        traces = model.chebyshev_traces(stacked, support.center, support.half_width, K)
        assert traces.shape == (5, K + 1)
        for row, gram in zip(traces, stacked):
            assert np.array_equal(row, model.chebyshev_traces(gram, support.center, support.half_width, K))


def test_factor_arrays_read_only():
    factor = model.sample_factor(bj.from_ratios(4, 2.0, 2.0, 2.0), model.replicate_stream(0, 0))
    with pytest.raises(ValueError):
        factor.diag[0] = 1.0


def test_frobenius_gap_zero_on_identical():
    params = bj.from_ratios(20, 2.0, 2.0, 2.0)
    det = model.assemble_gram(model.deterministic_factor(params))
    assert model.frobenius_gap_sq(det, det) == 0.0
    sampled = model.assemble_gram(model.sample_factor(params, model.replicate_stream(1, 0)))
    assert model.frobenius_gap_sq(sampled, det) >= 0.0


def test_dump_factor_csv(tmp_path):
    factor = model.sample_factor(bj.from_ratios(5, 2.0, 2.0, 2.0), model.replicate_stream(0, 0))
    path = tmp_path / "factor.csv"
    model.dump_factor_csv(factor, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,raw_c,raw_cp,d,e"
    assert len(lines) == 6
    # last row has no raw_cp / e columns filled
    assert lines[-1].split(",")[2] == ""
