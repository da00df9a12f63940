import hashlib
import math
import os
import subprocess
import sys
import time
import types
from fractions import Fraction

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import eig, model, spectral
from betajacobi.errors import EigenSolverError, ParameterError


def _se(x):
    return x.std(ddof=1) / np.sqrt(x.shape[0])


def _beta_sample(p, q, m, rng):
    """m Beta(p, q) draws by the gamma ratio: the c draws of _ratios at n = m, every pair (p, q)."""
    flat = np.repeat([p, q, p, q], [m, m, m - 1, m - 1])
    return model._ratios(rng.standard_gamma(flat), m)[:m]


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
    # a valid parameter set whose first shape n1 - n + 1 rounds to 0
    params = bj.EnsembleParams(n=1, beta=2.0, n1=1e-30, n2=6.0)
    with pytest.raises(ParameterError, match="nonpositive Beta shape"):
        model.sample_factor(params, model.replicate_stream(0, 0))


@pytest.mark.parametrize("beta, match", [(1e308, "overflows"), (1e-307, "logit")])
def test_shape_limits_guard(beta, match):
    # inf shapes gave NaN statistics; at the smallest shape beta / 2 = 5e-308,
    # Cheng's v = logit(u1) / shape can pass the largest double
    params = bj.from_ratios(8, beta, 2.0, 2.0)
    with pytest.raises(ParameterError, match=match):
        model.map_replicates(params, 0, 10, lambda gram: gram.diag.sum(axis=-1))


# the gamma ratio's resample loop took 0.39 s per factor at beta = 1e-8 and
# n = 20, and shapes below 1e-9 were refused; 2.1e-307 is the lowest shape
@pytest.mark.parametrize("n, beta", [(20, 1e-8), (20, 1e-10), (8, 1e-300), (8, 4.2e-307)])
def test_tiny_shapes_draw(n, beta):
    params = bj.from_ratios(n, beta, 2.0, 2.0)
    assert min(s.min() for s in model.beta_shapes(params)) == beta / 2
    clock = time.process_time()
    factor = model.sample_factor(params, model.replicate_stream(3, 0))
    assert time.process_time() - clock < 0.1
    for raw in (factor.raw_c, factor.raw_cp):
        assert np.all((raw >= 0.0) & (raw <= 1.0))
    statistic = lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)
    assert np.array_equal(model.map_replicates(params, 3, 20, statistic),
                          _hand_loop(params, 3, 20, statistic))


def test_raw_means_match_expectation_formula():
    # E c_i^2 = (b - a + a i/n) / (1 - 2a + 2a i/n) in the proportional
    # regime, equivalently (b + s)/(1 + 2s) at s = a(i/n - 1); checked at
    # asymmetric ratios where the mean actually varies with i
    n, reps = 8, 100_000
    params = bj.from_ratios(n, 2.0, 2.0, 3.0)
    a, b = 0.2, 0.4
    rng = model.replicate_stream(3, 0)
    flat = model._shape_arrays(params)
    draws = model._ratios(rng.standard_gamma(np.tile(flat, (reps, 1))), n)[:, :n]
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
    # the factor's entry is sqrt x, and the Gram entry the draw x itself,
    # which (sqrt x)^2 rounds back to only for some x
    assert factor.diag[0] == np.sqrt(factor.raw_c[0])
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


def _ulps(value, exact) -> Fraction:
    """|value - exact| in units of the last place of value."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(value))


# both draw routes: Cheng's at beta = 2, 1, 1/2 (first c' shape 1/4) and
# 1/20, where draws come near 0 and 1 and the spread is taken in log form;
# the gamma ratio at beta = 2^26, where every pair has a shape above 2^24
@pytest.mark.parametrize("n", [1, 2, 3, 40])
@pytest.mark.parametrize("beta, cheng", [(2.0, True), (1.0, True), (0.5, True), (0.05, True),
                                         (2.0**26, False)])
def test_gram_from_draws_against_exact_arithmetic(n, beta, cheng):
    # each squared entry is one product of two roundings, so within 2 ulp,
    # and so is a diagonal sum of two; the off-diagonal is the product of
    # two square roots of them, within 3 ulp of -sqrt(d^2 e^2)
    params = bj.from_ratios(n, beta, 2.0, 3.0)
    cheng_pairs, _, gamma_pairs, _, _ = model._routes(params)
    assert (cheng_pairs.size, gamma_pairs.size) == ((2 * n - 1, 0) if cheng else (0, 2 * n - 1))
    for m in range(4):
        factor = model.sample_factor(params, model.replicate_stream(13, m))
        c = [Fraction(v) for v in factor.raw_c[::-1]]  # c^2 of row k at c[k]
        cp = [Fraction(v) for v in factor.raw_cp[::-1]] + [Fraction(0)]
        sq_d = [c[k] * (1 - cp[k]) for k in range(n)]
        sq_e = [(1 - c[k + 1]) * cp[k] for k in range(n - 1)]
        got_d, got_e = model._squared_entries(factor.raw_c, factor.raw_cp)
        gram = model.assemble_gram(factor)
        assert max(_ulps(float(v), x) for v, x in zip(got_d, sq_d)) <= 2
        assert max((_ulps(float(v), x) for v, x in zip(got_e, sq_e)), default=0) <= 2
        diag = [sq_d[0]] + [sq_d[k] + sq_e[k - 1] for k in range(1, n)]
        assert max(_ulps(float(v), x) for v, x in zip(gram.diag, diag)) <= 2
        for k, off in enumerate(gram.off.tolist()):
            assert off <= 0.0
            size, ulp = Fraction(-off), Fraction(math.ulp(off))
            assert (size - 3 * ulp) ** 2 <= sq_d[k] * sq_e[k] <= (size + 3 * ulp) ** 2


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


def test_chebyshev_traces_bits_are_pinned():
    # sha256 of the float.hex strings of tr T_0..tr T_K, K = 0..8, of fixed
    # matrices, one stack of 3 and one alone, at n = 1, 2, 64 and 2000;
    # taken while the engine still stored T_0 as a band of ones
    parts = []
    for n in (1, 2, 64, 2000):
        rng = np.random.default_rng(n)
        gram = model.SymTridiagonal(diag=rng.random((3, n)), off=0.5 * rng.random((3, n - 1)))
        for K in range(9):
            parts.append(model.chebyshev_traces(gram, 0.45, 0.4, K))
            parts.append(model.chebyshev_traces(model.SymTridiagonal(gram.diag[1], gram.off[1]),
                                                0.45, 0.4, K))
    text = " ".join(float.hex(float(v)) for part in parts for v in part.ravel())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "539052ac462ac5e800de55c250517372c1227b38fc0984ab035403888d692f52")


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


def _pool_runs_out(params, seed, m, pool=None):
    """Whether Cheng's pool of replicate m runs out, its stream as _draws takes it."""
    _, table, gamma, shapes, _ = model._routes(params)
    draws = table.shape[1]
    rng = model.replicate_stream(seed, m)
    if gamma.size:
        rng.standard_gamma(shapes)
    pool = model._pool_pairs(draws) if pool is None else pool
    return model._cheng_rounds(table, rng.random((1, 2, draws + pool)))[1] is not None


def test_map_replicates_redrawn_rows_match_hand_loop():
    # at beta = 1e-4 the smallest shape is 5e-5, where Cheng's BA accepts
    # about a quarter of its tries, and the pools of some replicates run out
    params = bj.from_ratios(20, 1e-4, 2.0, 3.0)
    assert 0 < sum(_pool_runs_out(params, 11, m) for m in range(200)) < 200
    statistic = lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)
    expected = _hand_loop(params, 11, 200, statistic)
    assert np.array_equal(model.map_replicates(params, 11, 200, statistic), expected)


def test_map_replicates_draws_gamma_pairs_then_cheng_pairs(monkeypatch):
    # n = 2, beta = 2: c_1 ~ Beta(2^24, 2) takes Cheng's BA, c_2 ~ Beta(2^24 + 1,
    # 3) and c'_1 ~ Beta(1, 2^24 + 2) the gamma ratio
    params = bj.EnsembleParams(n=2, beta=2.0, n1=2.0**24 + 1, n2=3.0)
    replicates, calls = 8, []
    rekeyed = model._rekeyed_streams

    class Logged:
        def __init__(self, rng, m):
            self.rng, self.m = rng, m

        def standard_gamma(self, shapes):
            calls.append((self.m, "standard_gamma"))
            return self.rng.standard_gamma(shapes)

        def random(self, *args, **kwargs):
            calls.append((self.m, "random"))
            return self.rng.random(*args, **kwargs)

    def logged_streams(seed):
        stream = rekeyed(seed)
        return lambda m: Logged(stream(m), m)

    monkeypatch.setattr(model, "_rekeyed_streams", logged_streams)
    statistic = lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)
    rows = model.map_replicates(params, 4, replicates, statistic)
    assert calls == [(m, call) for m in range(replicates) for call in ("standard_gamma", "random")]
    assert np.array_equal(rows, _hand_loop(params, 4, replicates, statistic))
    table = model._cheng_table(np.array([2.0**24]), np.array([2.0]))
    for m in range(replicates):
        rng = model.replicate_stream(4, m)
        g = rng.standard_gamma([2.0**24 + 1, 3.0, 1.0, 2.0**24 + 2])
        (x,) = model._cheng_draws(table, rng)
        factor = model.sample_factor(params, model.replicate_stream(4, m))
        assert factor.raw_c.tolist() == [x, g[0] / (g[0] + g[1])]
        assert factor.raw_cp.tolist() == [g[2] / (g[2] + g[3])]


def test_map_replicates_checks_its_arguments():
    params = bj.from_ratios(8, 2.0, 2.0, 2.0)
    traces = model.map_replicates(params, 0, np.int64(3), lambda gram: gram.diag.sum(axis=-1))
    assert traces.shape == (3, 1)
    for count in (2.5, 3.0, "3", None):
        with pytest.raises(ParameterError, match="replicates must be an integer >= 2"):
            model.map_replicates(params, 0, count, lambda gram: gram.diag.sum(axis=-1))
    with pytest.raises(ParameterError, match="64 bits"):
        model.map_replicates(params, -1, 3, lambda gram: gram.diag.sum(axis=-1))
    # a statistic of one matrix, not of the block, is caught
    with pytest.raises(ParameterError, match="one row per matrix"):
        model.map_replicates(params, 0, 3, lambda gram: gram.diag.sum())


def _log_forks(monkeypatch, cpus, block=8, n=20):
    """Let map_replicates fork up to cpus processes, in blocks of block
    replicates of order n; returns the list of forked ranges, filled as it forks."""
    monkeypatch.setattr(model, "_BLOCK_ELEMENTS", block * n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked = []
    fork_worker = model._fork_worker

    def logged(fill, lo, hi):
        forked.append((lo, hi))
        return fork_worker(fill, lo, hi)

    monkeypatch.setattr(model, "_fork_worker", logged)
    return forked


def _shard_over(monkeypatch, cpus, probe="block", n=20):
    """Force map_replicates to shard over cpus processes in blocks of 8
    replicates of order n, projecting from replicate 0 alone (probe "one")
    or from the block of replicates 1..8 after it ("block")."""
    monkeypatch.setattr(model, "_SHARD_MIN_S", 1e-12)
    monkeypatch.setattr(model, "_PROBE_MIN_S", 0.0 if probe == "one" else np.inf)
    return _log_forks(monkeypatch, cpus, n=n)


def _sharding_cases():
    params = bj.from_ratios(20, 2.0, 2.0, 3.0)
    support = bj.support_edges(bj.derive_asymptotic(params))
    rows = np.array([[1.0, 0.5, -2.0, 0.0, 3.0, 1.5], [0.0, 1.0, 0.0, 0.0, 0.0, 0.25]])
    # at beta = 1e-4 the Cheng pools of some replicates run out
    redrawn = bj.from_ratios(20, 1e-4, 2.0, 3.0)
    return {
        "chebyshev-sums": (params, lambda gram: model.chebyshev_sums(
            gram, rows, support.center, support.half_width)),
        "sterf-spectrum": (params, spectral.trace_statistic(
            [spectral.exp_function(), spectral.monomial(1)])),
        "scalar": (params, lambda gram: gram.diag.sum(axis=-1)),
        "small-shape-redraws": (redrawn, lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)),
    }


# forked ranges of 45 replicates: the replicates left after replicate 0
# ("one") or after replicates 0..8 ("block") split evenly, so no worker's
# range starts on a multiple of the block size 8
_SHARDED_RANGES = {("one", 2): [(23, 45)], ("one", 3): [(15, 30), (30, 45)],
                   ("block", 2): [(27, 45)], ("block", 3): [(21, 33), (33, 45)]}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("case", sorted(_sharding_cases()))
def test_sharded_rows_equal_serial_rows(monkeypatch, case, cpus):
    params, statistic = _sharding_cases()[case]
    replicates = 45
    for probe in ("one", "block"):
        forked = _shard_over(monkeypatch, 1, probe)
        serial = model.map_replicates(params, 11, replicates, statistic)
        assert forked == []
        forked = _shard_over(monkeypatch, cpus, probe)
        sharded = model.map_replicates(params, 11, replicates, statistic)
        assert forked == _SHARDED_RANGES[probe, cpus]
        assert sharded.shape == serial.shape and np.array_equal(sharded, serial)


# (the probe the rest is projected from: replicate 0 alone ("one") or the
# block of replicates 1..8 after it ("block"); the CPU time of the rest, in
# units of _SHARD_MIN_S; CPUs; replicates; forked ranges).  Each replicate
# costs that time over the replicates left after the probe.  1.5 units fork
# one worker, on 3 CPUs as on 2: one process more runs per whole unit.
@pytest.mark.parametrize("probe, units, cpus, replicates, ranges", [
    ("one", 4.5, 2, 45, [(23, 45)]), ("block", 4.5, 2, 200, [(104, 200)]),
    ("block", 2.5, 3, 45, [(21, 33), (33, 45)]), ("block", 1.5, 2, 45, [(27, 45)]),
    ("block", 1.5, 3, 45, [(27, 45)]), ("block", 0.5, 2, 45, [])])
def test_fork_decision_follows_the_probe(monkeypatch, probe, units, cpus, replicates, ranges):
    forked = _log_forks(monkeypatch, cpus)
    done = 1 if probe == "one" else 9
    cost = units * model._SHARD_MIN_S / (replicates - done)
    assert (cost >= model._PROBE_MIN_S) == (probe == "one")
    clock, sizes, parent = [0.0], [], os.getpid()
    monkeypatch.setattr(model, "time", types.SimpleNamespace(process_time=lambda: clock[0]))
    fork_worker = model._fork_worker
    before_fork = []

    def fork_after(fill, lo, hi):
        before_fork.append(len(sizes))
        return fork_worker(fill, lo, hi)

    monkeypatch.setattr(model, "_fork_worker", fork_after)

    def statistic(gram):
        b = gram.diag.shape[0]
        if os.getpid() == parent:
            sizes.append(b)
        clock[0] += cost * b
        return gram.diag.sum(axis=-1)

    params = bj.from_ratios(20, 2.0, 2.0, 3.0)
    rows = model.map_replicates(params, 11, replicates, statistic)
    assert forked == ranges
    # the statistic runs here on the probe alone before the first fork
    assert before_fork == [1 if probe == "one" else 2] * len(ranges)
    # replicate 0 alone, then blocks of 8 from replicate 1 up to the first fork
    end = ranges[0][0] if ranges else replicates
    assert sizes == [1] + [min(8, end - start) for start in range(1, end, 8)]
    expected = _hand_loop(params, 11, replicates, lambda gram: gram.diag.sum(axis=-1))
    assert np.array_equal(rows, expected)


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
    assert forked == [(21, 33), (33, 45)]
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
            # after replicate 0 and the block 1..8: the first block of this
            # process's own range
            if len(calls) == 3:
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


# the corners of Cheng's shape range, asymmetric pairs, and a shape just
# above 1, where beta switches from 1 / min(a, b) to the square-root form
_CHENG_PAIRS = [(0.5, 0.5), (0.5, 2.0**24), (2.0**24, 0.5), (2.0**24, 2.0**24), (2.0**24, 1.0),
                (1.0, 6000.0), (3000.0, 4000.0), (0.7, 3.0), (1.0 + 1e-7, 1.0)]


@pytest.mark.parametrize("a, b", _CHENG_PAIRS)
def test_cheng_draws_follow_the_beta_law(a, b):
    # gates fixed before the first run: over the 9 pairs, the KS gate
    # sqrt(N) D <= 2.23 and the two |z| <= 4.4 gates fail with probability
    # about 1e-3 in all on correct draws
    from scipy import stats

    count = 200_000
    table = model._cheng_table(np.full(count, a), np.full(count, b))
    draws = model._cheng_draws(table, model.replicate_stream(2024, 0))
    assert np.all((draws > 0.0) & (draws <= 1.0))
    law = stats.beta(a, b)
    mean, var, kurt = (float(m) for m in law.stats(moments="mvk"))
    assert np.sqrt(count) * stats.kstest(draws, law.cdf).statistic <= 2.23
    assert abs(draws.mean() - mean) / np.sqrt(var / count) <= 4.4
    fourth_minus_var_sq = (kurt + 2.0) * var * var
    assert abs(draws.var(ddof=1) - var) / np.sqrt(fourth_minus_var_sq / count) <= 4.4


# shapes below 1/2, where the acceptance rate falls toward 1/4, down to
# 1e-6, where nearly every x rounds to 0 or 1; and a pair on each side of
# _EXPM1_MIN_SHAPE, below which the spread is taken in log form
_SMALL_PAIRS = [(0.05, 0.05), (0.3, 2.0), (0.02, 0.7), (1e-4, 1e-4), (1e-3, 5.0), (2.0, 1e-6),
                (0.052, 0.5), (0.0517, 0.5)]


def _two_tailed_cdf(log_x, log_y, a, b):
    """The Beta(a, b) CDF at x from ln x where x < 1/2, and 1 - S(x) from ln y,
    y = 1 - x, elsewhere: x rounds to 1 or 1 - x to 0 long before the tail
    they fall in is empty.  Below e^-40, I_t(a, b) = t^a / (a B(a, b)) to
    about 1e-17."""
    from scipy import special

    lower = log_x < log_y
    t, first, second = (np.where(lower, u, w) for u, w in ((log_x, log_y), (a, b), (b, a)))
    tail = special.betainc(first, second, np.exp(np.maximum(t, -40.0)))
    lead = np.exp(first * t - np.log(first) - special.betaln(first, second))
    tail = np.where(t < -40.0, lead, tail)
    return np.where(lower, tail, 1.0 - tail)


@pytest.mark.parametrize("a, b", _SMALL_PAIRS)
def test_cheng_draws_follow_the_beta_law_at_small_shapes(a, b):
    # gates fixed before the first run: over the 8 pairs, the two-tailed KS
    # gate sqrt(N) D <= 2.35 and the three |z| <= 4.17 gates fail with
    # probability about 1e-3 in all on correct draws.  ln x = ln p + v - L
    # and ln(1 - x) = ln q - L come from the tries themselves, since x
    # underflows to 0 or rounds to 1 in most draws at the smallest shapes.
    # At (2, 1e-6), ln X is 0 but for about one draw in 10^6, and the mean of
    # 10^5 draws, skewed by -6 (exact cumulants), failed the normal gate at
    # its first run; where that skewness passes 1/4, the gate is Chebyshev's
    # |z| <= 180, which holds at that error rate for any law
    from scipy import special

    table = model._cheng_table(np.array([a]), np.array([b]))
    assert len(table) == (6 if min(a, b) < model._EXPM1_MIN_SHAPE else 5)
    u1, u2 = model.replicate_stream(2025, 0).random((2, 400_000))
    accepted, v, spread = model._cheng_try(u1, u2, table)
    log_x = (table[4] + v - spread)[accepted]
    log_y = (np.log(b / (a + b)) - spread)[accepted]
    count = log_x.size
    uniform = np.sort(_two_tailed_cdf(log_x, log_y, a, b))
    steps = np.arange(count + 1) / count
    assert np.sqrt(count) * max(np.max(steps[1:] - uniform), np.max(uniform - steps[:-1])) <= 2.35
    for logs, first in ((log_x, a), (log_y, b)):
        mean = special.digamma(first) - special.digamma(a + b)
        var, third = (special.polygamma(k, first) - special.polygamma(k, a + b) for k in (1, 2))
        gate = 4.17 if abs(third) / var**1.5 / np.sqrt(count) <= 0.25 else 180.0
        assert abs(logs.mean() - mean) / np.sqrt(var / count) <= gate
    # the draws of the whole route, pool and fresh rounds, on the scale of x
    count = 100_000
    draws = model._cheng_draws(model._cheng_table(np.full(count, a), np.full(count, b)),
                               model.replicate_stream(2025, 1))
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    assert abs(draws.mean() - a / (a + b)) / np.sqrt(var / count) <= 4.17


def test_cheng_step_caps_draws_at_one():
    # at Beta(2^24, 1) and u1 within 4096 ulps of 1, ln p + v - L rounds
    # above 0 for about half of the tries, all of them accepted
    table = model._cheng_table(np.array([2.0**24]), np.array([1.0]))
    u1 = 1.0 - np.arange(1, 4097) * 2.0**-53
    accepted, x = model._cheng_step(u1, np.full(u1.size, 0.5), table)
    assert accepted.all() and np.all(x == 1.0)


# the top of Cheng's range and the next float above it; a shape below 1/2
# is on Cheng's route too (n1 - 1 + 1 is exact at 1/2 - 2^-53)
@pytest.mark.parametrize("first, second, cheng", [
    (0.5, 2.0, True), (0.5 - 2.0**-53, 2.0, True),
    (2.0, 2.0**24, True), (2.0, np.nextafter(2.0**24, np.inf), False)])
def test_route_is_chosen_by_the_shape_range(first, second, cheng):
    # at n = 1 and beta = 2 the one draw is Beta(n1, n2)
    params = bj.EnsembleParams(n=1, beta=2.0, n1=first, n2=second)
    assert [s.tolist() for s in model.beta_shapes(params)] == [[first], [second]]
    cheng_pairs, _, gamma_pairs, shapes, _ = model._routes(params)
    assert (cheng_pairs.tolist(), gamma_pairs.tolist()) == (([0], []) if cheng else ([], [0]))
    factor = model.sample_factor(params, model.replicate_stream(3, 0))
    rng = model.replicate_stream(3, 0)
    if cheng:
        expected = model._cheng_draws(model._cheng_table(np.array([first]), np.array([second])), rng)
    else:
        g = rng.standard_gamma(shapes)
        expected = g[:1] / (g[:1] + g[1:])
    assert np.array_equal(factor.raw_c, expected)


def _layout_oracle(table, rng, pool):
    """Cheng's draws of one replicate by the stream layout, one try at a time."""
    draws = table.shape[1]
    x, pairs = np.empty(draws), rng.random((2, draws + pool))

    def accepted(j, u1, u2):
        ok, value = model._cheng_step(np.array([u1]), np.array([u2]), table[:, j : j + 1])
        x[j] = value[0]
        return ok[0]

    pending = [j for j in range(draws) if not accepted(j, *pairs[:, j])]
    used = draws
    while pending and used + len(pending) <= draws + pool:
        tries = zip(pending, range(used, used + len(pending)))
        used += len(pending)
        pending = [j for j, k in tries if not accepted(j, *pairs[:, k])]
    while pending:
        fresh = rng.random((2, len(pending)))
        pending = [j for i, j in enumerate(pending) if not accepted(j, *fresh[:, i])]
    return x


@pytest.mark.parametrize("pool", [None, 0, 3, 5, 10])
def test_cheng_draws_follow_the_stream_layout(monkeypatch, pool):
    # pair j first, then the pool's pairs in column order round after round,
    # then fresh pairs once a round does not fit.  3 to 10 of the 59 first
    # tries fail in these replicates; with 5 spare pairs, the 5 of replicate
    # 1 fill its pool exactly, and with 10, replicate 2 runs out
    table = model._routes(bj.from_ratios(30, 1.0, 2.0, 3.0))[1]
    if pool is None:
        pool = model._pool_pairs(table.shape[1])
    monkeypatch.setattr(model, "_pool_pairs", lambda draws: pool)
    for m in range(4):
        expected = _layout_oracle(table, model.replicate_stream(8, m), pool)
        assert np.array_equal(model._cheng_draws(table, model.replicate_stream(8, m)), expected)


# a set with gamma pairs and Cheng pairs of shapes down to 3.7e-9 in one
# replicate: c_i for i >= 33 and c'_j for j >= 33 have a shape above 2^24
_MIXED = bj.EnsembleParams(n=64, beta=2.0**20, n1=63 + 1e-14, n2=63 + 1e-14)


# spare pairs per replicate: none, so that every replicate with a rejected
# draw stops; one, three and five, so that replicates stop in their first
# retry round or in a later one
@pytest.mark.parametrize("pool", [0, 1, 3, 5])
def test_map_replicates_rows_match_sample_factor_when_pools_run_out(monkeypatch, pool):
    replicates = 45
    statistic = lambda gram: np.concatenate([gram.diag, gram.off], axis=-1)
    for params in (bj.from_ratios(20, 1.0, 2.0, 3.0), _MIXED):
        monkeypatch.setattr(model, "_pool_pairs", lambda draws: pool)
        assert any(_pool_runs_out(params, 11, m, pool) for m in range(replicates))
        expected = _hand_loop(params, 11, replicates, statistic)
        for block in (1, 7, model._BLOCK_ELEMENTS // params.n):
            monkeypatch.setattr(model, "_BLOCK_ELEMENTS", block * params.n)
            assert np.array_equal(model.map_replicates(params, 11, replicates, statistic), expected)
        forked = _shard_over(monkeypatch, 2, n=params.n)
        assert np.array_equal(model.map_replicates(params, 11, replicates, statistic), expected)
        assert forked == [(27, 45)]
        monkeypatch.undo()


def test_mixed_set_draws_fast():
    # the gamma ratio's redraw loop took 6-16 s of CPU per factor here, for
    # its c_1 pair (3.7e-9, 3.7e-9)
    cheng, _, gamma, _, _ = model._routes(_MIXED)
    a, b = model.beta_shapes(_MIXED)
    assert cheng.size and gamma.size and max(a[0], b[0]) < 4e-9
    clock = time.process_time()
    model.sample_factor(_MIXED, model.replicate_stream(0, 1))
    assert time.process_time() - clock < 0.1


def test_map_replicates_makes_one_random_call_per_replicate(monkeypatch):
    params = bj.from_ratios(24, 2.0, 2.0, 3.0)
    replicates, calls = 40, []
    rekeyed = model._rekeyed_streams

    class Logged:
        def __init__(self, rng, m):
            self.rng, self.m = rng, m

        def random(self, *args, **kwargs):
            calls.append(self.m)
            return self.rng.random(*args, **kwargs)

    def logged_streams(seed):
        stream = rekeyed(seed)
        return lambda m: Logged(stream(m), m)

    monkeypatch.setattr(model, "_rekeyed_streams", logged_streams)
    statistic = lambda gram: gram.diag.sum(axis=-1)
    rows = model.map_replicates(params, 6, replicates, statistic)
    assert calls == list(range(replicates))
    assert np.array_equal(rows, _hand_loop(params, 6, replicates, statistic))


def _stacked_gram(params, seed, count):
    """The Gram matrices of replicates 0..count-1 as one stack, formed from
    their stacked draws as map_replicates forms them, and their factors."""
    factors = [model.sample_factor(params, model.replicate_stream(seed, m)) for m in range(count)]
    raw_c = np.array([f.raw_c for f in factors])
    raw_cp = np.array([f.raw_cp for f in factors])
    return model.assemble_gram((raw_c, raw_cp)), factors


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


def test_chebyshev_traces_hold_two_band_arrays():
    # tr T_{2j-1} and tr T_{2j} are taken as T_j is built, so the engine holds
    # T_{j-1}, T_j and T_{j+1}: 3 (h + 2) n doubles; the gate allows twice
    # that for the recurrence's temporaries.  All of T_0..T_h is (h + 1) / 6
    # times the footprint, 33 times at h = 200
    import tracemalloc

    n, K = 400, 400
    gram = model.assemble_gram(
        model.sample_factor(bj.from_ratios(n, 2.0, 2.0, 2.0), model.replicate_stream(3, 0)))
    h = (K + 1) // 2
    tracemalloc.start()
    try:
        model.chebyshev_traces(gram, 0.5, 0.5, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 3 * (h + 2) * n


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
