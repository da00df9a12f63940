import numpy as np
import pytest

import betajacobi as bj
from betajacobi import eig, model
from betajacobi.errors import ParameterError


def _se(x):
    return x.std(ddof=1) / np.sqrt(x.shape[0])


def test_beta_sample_uniform_mean():
    rng = model.replicate_stream(1, 0)
    draws = model._beta_draws(np.full((2, 10**6), 1.0), rng)
    assert abs(draws.mean() - 0.5) < 0.002


def test_beta_sample_scalar_api():
    rng = model.replicate_stream(1, 1)
    val = model.beta_sample(model.BetaSpec(2.0, 5.0), rng)
    assert 0.0 <= val <= 1.0


def test_beta_sample_moments_vs_exact():
    # exact Beta moments: mean p/(p+q), variance pq/((p+q)^2 (p+q+1))
    rng = model.replicate_stream(2, 0)
    m = 200_000
    draws = model._beta_draws(np.full((2, m), 3.0), rng)
    assert abs(draws.mean() - 0.5) < 3 * _se(draws)
    var = draws.var(ddof=1)
    var_se = np.sqrt(np.var((draws - draws.mean()) ** 2) / m)
    assert abs(var - 1.0 / 28.0) < 3 * var_se

    draws = model._beta_draws(np.array([np.full(m, 1.0), np.full(m, 6.0)]), rng)
    assert abs(draws.mean() - 1.0 / 7.0) < 3 * _se(draws)


def test_beta_spec_validation():
    with pytest.raises(ParameterError):
        model.BetaSpec(0.0, 1.0)
    with pytest.raises(ParameterError):
        model.BetaSpec(1.0, -2.0)


def test_shape_arrays_small_case():
    # n=2, beta=2, p=q=2: c shapes (3,3), (4,4); c' shape (1,6)
    (c1, c2), (p1, p2) = model._shape_arrays(bj.from_ratios(2, 2.0, 2.0, 2.0))
    assert c1.tolist() == [3.0, 4.0] and c2.tolist() == [3.0, 4.0]
    assert p1.tolist() == [1.0] and p2.tolist() == [6.0]


def test_shape_positivity_guard():
    params = bj.EnsembleParams(n=4, beta=2.0, n1=3.0, n2=6.0)  # n1 = n - 1 exactly
    with pytest.raises(ParameterError):
        model.sample_factor(params, model.replicate_stream(0, 0))


def test_raw_means_match_expectation_formula():
    # E c_i^2 = (b - a + a i/n) / (1 - 2a + 2a i/n) in the proportional
    # regime, equivalently (b + s)/(1 + 2s) at s = a(i/n - 1); checked at
    # asymmetric ratios where the mean actually varies with i
    n, reps = 8, 100_000
    params = bj.from_ratios(n, 2.0, 2.0, 3.0)
    a, b = 0.2, 0.4
    rng = model.replicate_stream(3, 0)
    c_shapes, _ = model._shape_arrays(params)
    draws = model._beta_draws(np.tile(c_shapes, reps), rng).reshape(reps, n)
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
    again = model._shape_arrays(bj.from_ratios(16, 2.0, 2.0, 3.0))
    for a, b in zip(first, again):
        assert a is b
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        first[0][0, 0] = 1.0


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
    """Generator stub: the first standard_gamma call has column `zero` set to
    0 in both rows, so that Beta ratio is 0/0; later calls pass through."""

    def __init__(self, rng, zero):
        self.rng, self.zero, self.calls = rng, zero, []

    def standard_gamma(self, shapes):
        self.calls.append(np.shape(shapes))
        g = self.rng.standard_gamma(shapes)
        if len(self.calls) == 1:
            g[..., self.zero] = 0.0
        return g


def test_beta_draws_resample_zero_totals():
    shapes = np.array([[0.3, 2.0, 5.0], [0.7, 1.0, 4.0]])
    stub = _ZeroedGammas(model.replicate_stream(3, 0), zero=1)
    draws = model._beta_draws(shapes, stub)
    reference = model.replicate_stream(3, 0)
    first, second = reference.standard_gamma(shapes), reference.standard_gamma(shapes)
    kept = np.where([False, True, False], second, first)
    assert np.array_equal(draws, kept[0] / (kept[0] + kept[1]))
    assert stub.calls == [(2, 3), (2, 3)]


def test_sample_factor_resamples_c_before_drawing_cp():
    # the resample of the c draws comes before the c' draws, as in the stream's order
    params = bj.from_ratios(5, 2.0, 2.0, 2.0)
    stub = _ZeroedGammas(model.replicate_stream(4, 0), zero=slice(None))
    factor = model.sample_factor(params, stub)
    assert stub.calls == [(2, 5), (2, 5), (2, 4)]
    c_shapes, cp_shapes = model._shape_arrays(params)
    reference = model.replicate_stream(4, 0)
    reference.standard_gamma(c_shapes)  # the draw the stub zeroed
    c = reference.standard_gamma(c_shapes)
    cp = reference.standard_gamma(cp_shapes)
    assert np.array_equal(factor.raw_c, c[0] / (c[0] + c[1]))
    assert np.array_equal(factor.raw_cp, cp[0] / (cp[0] + cp[1]))


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
