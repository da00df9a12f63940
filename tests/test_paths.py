import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import model, paths
from betajacobi.errors import ParameterError


def test_enumerate_k1():
    bridges = {b.steps for b in paths.enumerate_bridges(1)}
    assert bridges == {(0, 0), (-1, 1)}


def test_enumerate_counts():
    assert len(paths.enumerate_bridges(2)) == 6
    assert len(paths.enumerate_bridges(5)) == 252 == math.comb(10, 5)


def test_enumeration_guard():
    with pytest.raises(ParameterError):
        paths.enumerate_bridges(11)


def test_bridge_validation():
    with pytest.raises(ParameterError):
        paths.AlternatingBridge(steps=(1, -1))  # odd step travels up
    with pytest.raises(ParameterError):
        paths.AlternatingBridge(steps=(0, 1))  # does not return to start
    with pytest.raises(ParameterError):
        paths.AlternatingBridge(steps=(0, 0, 0))  # odd length


def test_weight_polynomial_small_cases():
    assert paths.weight_polynomial(1).coeffs == (1, 1)  # x^2 + y^2
    assert paths.weight_polynomial(2).coeffs == (1, 4, 1)  # x^4 + 4x^2y^2 + y^4
    assert paths.weight_polynomial(3).coeffs == (1, 9, 9, 1)


def test_weight_polynomial_matches_enumeration():
    for k in range(1, 7):
        counts = {}
        for bridge in paths.enumerate_bridges(k):
            h = bridge.horizontal_count()
            counts[h] = counts.get(h, 0) + 1
        poly = paths.weight_polynomial(k)
        assert all(counts.get(2 * l, 0) == poly.coeffs[l] for l in range(k + 1))


def test_weight_sum_identity_exact_integers():
    # sum over bridges of x^h y^(2k-h) equals the coefficient table, as
    # exact integers at several integer points
    for k in range(1, 9):
        bridges = paths.enumerate_bridges(k)
        poly = paths.weight_polynomial(k)
        for x, y in ((1, 1), (2, 1), (1, 3)):
            path_sum = sum(
                x ** b.horizontal_count() * y ** (2 * k - b.horizontal_count())
                for b in bridges
            )
            table_sum = sum(
                poly.coeffs[l] * x ** (2 * l) * y ** (2 * (k - l)) for l in range(k + 1)
            )
            assert path_sum == table_sum


def test_total_count_is_central_binomial():
    for k in range(1, 9):
        assert sum(paths.weight_polynomial(k).coeffs) == math.comb(2 * k, k)


def _bessel_i0(z, terms=60):
    acc = 0.0
    term = 1.0
    for m in range(terms):
        if m > 0:
            term *= (z * z / 4.0) / (m * m)
        acc += term
    return acc


def test_exponential_generating_function_identity():
    # sum_k t^k p_k(x, y)/k! equals exp(t(x^2+y^2)) I0(2xyt)
    x, y, t = 0.3, 0.5, 0.7
    partial = sum(
        t**k / math.factorial(k) * paths.weight_polynomial(k).value(x, y)
        for k in range(13)
    )
    target = math.exp(t * (x * x + y * y)) * _bessel_i0(2 * x * y * t)
    assert abs(partial - target) <= 1e-10


def test_partial_derivatives():
    poly = paths.weight_polynomial(2)
    assert poly.dx(1.0, 1.0) == pytest.approx(12.0)  # 4 + 8
    h = 1e-6
    fd = (poly.value(1.0 + h, 1.0) - poly.value(1.0 - h, 1.0)) / (2 * h)
    assert abs(poly.dx(1.0, 1.0) - fd) <= 1e-5
    fd_y = (poly.value(0.4, 0.9 + h) - poly.value(0.4, 0.9 - h)) / (2 * h)
    assert abs(poly.dy(0.4, 0.9) - fd_y) <= 1e-5


def test_trace_via_paths_scalar_case():
    factor = model.sample_factor(bj.from_ratios(1, 2.0, 2.0, 2.0), 0, 0)
    c_sq = factor.raw_c[0]
    for k in (1, 2, 3):
        assert paths.trace_via_paths(factor, k) == pytest.approx(c_sq**k, rel=1e-14)


def test_trace_via_paths_two_by_two_hand_formula():
    factor = model.sample_factor(bj.from_ratios(2, 2.0, 2.0, 2.0), 1, 0)
    c1, c2 = factor.raw_c
    cp1 = factor.raw_cp[0]
    expected = c2 * (1 - cp1) + (1 - c1) * cp1 + c1
    assert paths.trace_via_paths(factor, 1) == pytest.approx(expected, rel=1e-14)


def test_trace_via_paths_dense_oracle():
    # at n = 1, 2, 3 the factor's path of 2n - 1 edges is shorter than some runs
    for rng_idx, n in enumerate((4, 8, 12, 1, 2, 3)):
        factor = model.sample_factor(
            bj.from_ratios(n, 1.3, 2.1, 3.4), 2, rng_idx
        )
        A = model.gram_to_dense(model.assemble_gram(factor))
        P = np.eye(n)
        for k in range(1, paths._MAX_PATH_K + 1):
            P = P @ A
            assert paths.trace_via_paths(factor, k) == pytest.approx(
                np.trace(P), rel=1e-10
            )


def test_chain_sum_counts_the_walks_of_the_all_ones_factor():
    # every moment 1, except z = 0 at the last vertex, counts the closed
    # walks of tr (BB^T)^k for the all-ones n x n lower bidiagonal B: exact
    # integers, so the BEST multiplicities are checked exactly
    for n in range(1, 13):
        factor = [[int(i - j in (0, 1)) for j in range(n)] for i in range(n)]
        gram = [[sum(x * y for x, y in zip(row, col)) for col in factor] for row in factor]
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, paths._MAX_PATH_K + 1):
            power = [[sum(power[i][m] * gram[m][j] for m in range(n)) for j in range(n)]
                     for i in range(n)]
            table = np.ones((2 * n, k + 1, k + 1))
            table[-1, 1:] = 0.0
            assert paths._chain_sum(k, table) == sum(power[i][i] for i in range(n))


def _close(value, exact):
    """value within 1e-15 relative of the exact rational."""
    return abs(value / float(exact) - 1.0) <= 1e-15


# beta = 2, a = 1/4, b = 1/2, so n1 = n2 = 2n: c_i^2 ~ Beta(n + i, n + i) and
# c'_j^2 ~ Beta(j, 2n + 1 + j)
def _ensemble(n):
    return bj.from_shape(n, 2.0, 0.25, 0.5)


def test_expected_trace_small_cases_exact():
    # (1/2)(6/7) + (1/2)(1/7) + 1/2 = 1 = n b, exactly
    assert _close(paths.expected_trace_exact(_ensemble(2), 1), Fraction(1))

    r, s = Fraction(2), Fraction(2)  # c_1 at n = 1
    expected = (r * (r + 1)) / ((r + s) * (r + s + 1))
    assert _close(paths.expected_trace_exact(_ensemble(1), 2), expected)

    assert _close(paths.expected_trace_exact(_ensemble(64), 1), Fraction(32))


# sha256 of the float.hex strings, space-separated, of E tr A^k at
# from_shape(n, beta, 1/4, 1/2) for n in _PINNED_SIZES, beta in (1, 2, 4) and
# k = 1..8, in that nesting order, taken on the chain-sum route.  A route
# change to expected_trace_exact moves these bits and must be recorded with
# the sizes of its changes.
_PINNED_SIZES = (1, 2, 3, 5, 17, 64, 257)
_PINNED_SHA256 = "21593ea15ce9c94f8e990bed20627be6e054db17ba57e6fc5a4e01ff70a9611d"


def test_expected_trace_bits_are_pinned():
    values = [paths.expected_trace_exact(bj.from_shape(n, beta, 0.25, 0.5), k)
              for n in _PINNED_SIZES for beta in (1.0, 2.0, 4.0) for k in range(1, 9)]
    digest = hashlib.sha256(" ".join(map(float.hex, values)).encode()).hexdigest()
    assert digest == _PINNED_SHA256, values


def test_expected_trace_matches_monte_carlo():
    n, reps = 64, 2000
    exact = paths.expected_trace_exact(_ensemble(n), 1)
    params = bj.from_ratios(n, 2.0, 2.0, 2.0)
    traces = np.empty(reps)
    for m in range(reps):
        gram = model.assemble_gram(model.sample_factor(params, 5, m))
        traces[m] = gram.diag.sum()
    se = traces.std(ddof=1) / math.sqrt(reps)
    assert abs(traces.mean() - exact) <= 3 * se


def test_expected_trace_matches_dense_brute_force():
    # independent oracle: enumerate E tr A^k from dense Beta moments via
    # Monte Carlo is noisy, so instead check k=2 against a direct
    # closed-form expansion at n=2
    r1, s1 = Fraction(3), Fraction(3)
    r2, s2 = Fraction(4), Fraction(4)
    rp, sp = Fraction(1), Fraction(6)

    def mom(r, s, u, v):
        num = Fraction(1)
        for t in range(u):
            num *= r + t
        for t in range(v):
            num *= s + t
        den = Fraction(1)
        for t in range(u + v):
            den *= r + s + t
        return num / den

    # tr A^2 = (c2^2 sp1^2)^2 + 2 (c2^2 sp1^2)(s1^2 cp1^2) + (s1^2 cp1^2 + c1^2)^2
    ec2 = mom(r2, s2, 1, 0)
    ec2_sq = mom(r2, s2, 2, 0)
    esp_sq = mom(rp, sp, 0, 2)
    expected = (
        ec2_sq * esp_sq
        + 2 * ec2 * mom(rp, sp, 1, 1) * mom(r1, s1, 0, 1)
        + (
            mom(r1, s1, 0, 2) * mom(rp, sp, 2, 0)
            + 2 * mom(r1, s1, 1, 1) * mom(rp, sp, 1, 0)
            + mom(r1, s1, 2, 0)
        )
    )
    assert _close(paths.expected_trace_exact(_ensemble(2), 2), expected)


def test_trace_expansion_first_moment():
    te = paths.trace_expansion(1, 2.0, 0.25, 0.5, 64)
    assert te.order0 == pytest.approx(0.5, abs=1e-12)  # b
    assert abs(te.order1) <= 1e-12


def test_trace_expansion_second_moment_alpha_one():
    te = paths.trace_expansion(2, 2.0, 0.25, 0.5, 512)
    assert abs(te.order1) <= 1e-6


def test_trace_expansion_alpha_zero_linear_fit():
    # first-order coefficient extrapolated linearly in alpha = 2/beta to alpha = 0
    sup = bj.SupportInterval.from_shape(0.25, 0.5)
    vals = {}
    for alpha in (0.25, 0.5):
        te = paths.trace_expansion(2, 2.0 / alpha, 0.25, 0.5, 256)
        vals[alpha] = te.order1
    slope = (vals[0.5] - vals[0.25]) / 0.25
    at_zero = vals[0.25] - slope * 0.25
    assert at_zero == pytest.approx(-(sup.half_width**2) / 4.0, rel=1e-4)


def test_palindromy_scaling():
    # first-order coefficient at alpha=2 (beta=1) is -2 times the one at alpha=1/2 (beta=4)
    for k in (1, 2, 3, 4):
        base_n = {3: 128, 4: 64}.get(k, 256)
        v2 = paths.trace_expansion(k, 1.0, 0.25, 0.5, base_n).order1
        vh = paths.trace_expansion(k, 4.0, 0.25, 0.5, base_n).order1
        if k == 1:
            assert abs(v2) <= 1e-10 and abs(vh) <= 1e-10
        else:
            assert v2 == pytest.approx(-2.0 * vh, rel=1e-3)


def test_trace_expansion_shape_guard():
    for a, b in ((0.0, 0.5), (1.0, 0.5), (1.5, 0.5), (-0.25, 0.5),
                 (0.25, 0.0), (0.25, 1.0), (0.25, 1.5), (0.25, -0.5)):
        with pytest.raises(ParameterError):
            paths.trace_expansion(2, 2.0, a, b, 64)


def test_exact_k_guard():
    with pytest.raises(ParameterError):
        paths.expected_trace_exact(_ensemble(4), paths._MAX_PATH_K + 1)
