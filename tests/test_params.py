import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betajacobi as bj
from betajacobi import eig, model
from betajacobi.errors import ExtremalRegimeError, ParameterError


def test_derive_asymptotic_direct():
    asym = bj.derive_asymptotic(bj.EnsembleParams(n=100, beta=2.0, n1=200, n2=200))
    assert asym.p == 2.0 and asym.q == 2.0
    assert asym.a == 0.25 and asym.b == 0.5 and asym.alpha == 1.0
    assert not asym.extremal


def test_extremal_flagged_not_rejected():
    asym = bj.derive_asymptotic(bj.EnsembleParams(n=50, beta=1.0, n1=50, n2=50))
    assert asym.p == 1.0 and asym.q == 1.0
    assert asym.extremal
    with pytest.raises(ExtremalRegimeError):
        asym.require_bulk()
    with pytest.raises(ExtremalRegimeError):
        bj.support_edges(asym)
    # p or q below 1, which n1, n2 > n - 1 allows, is extremal too: p = q = 0.95
    # (p + q <= 2), p = 1/2 (n1 = 1/2 at n = 1), p = q = 1e-3 (n1 + n2 near 0
    # at n = 1) and p = 0.98, q = 3 (p + q > 2)
    for n, n1, n2 in ((10, 9.5, 9.5), (1, 0.5, 2.0), (1, 1e-3, 1e-3), (25, 24.5, 75.0)):
        asym = bj.derive_asymptotic(bj.EnsembleParams(n=n, beta=2.0, n1=n1, n2=n2))
        assert asym.extremal and min(asym.p, asym.q) < 1.0
        with pytest.raises(ExtremalRegimeError):
            bj.support_edges(asym)
    # shapes outside the triangle a <= b <= 1 - a stay refused, extremal or not
    for a, b in ((0.3, 0.1), (0.6, 0.1), (0.6, 0.9)):
        with pytest.raises(ParameterError, match="need p, q >= 1"):
            bj.shape_params(a, b, 2.0)


def test_involution_swaps_shapes():
    # the edge formula [sqrt(b(1-a)) +- sqrt(a(1-b))]^2 is invariant under
    # (a, b) -> (1 - b, 1 - a), even though the image pair is not a valid
    # ensemble shape
    s1 = bj.SupportInterval.from_shape(0.2, 0.3)
    a2, b2 = 0.7, 0.8
    lo = (math.sqrt(b2 * (1 - a2)) - math.sqrt(a2 * (1 - b2))) ** 2
    hi = (math.sqrt(b2 * (1 - a2)) + math.sqrt(a2 * (1 - b2))) ** 2
    assert s1.lambda_minus == pytest.approx(lo, abs=1e-15)
    assert s1.lambda_plus == pytest.approx(hi, abs=1e-15)


def test_support_edges_quarter_half():
    sup = bj.support_edges(bj.shape_params(0.25, 0.5, 2.0))
    assert sup.lambda_minus == pytest.approx((2 - math.sqrt(3)) / 4, abs=1e-15)
    assert sup.lambda_plus == pytest.approx((2 + math.sqrt(3)) / 4, abs=1e-15)


def test_support_edges_deterministic_matrix_oracle():
    # extreme eigenvalues of the deterministic factor's Gram matrix approach
    # the support edges
    n = 4096
    params = bj.from_shape(n, 2.0, 0.25, 0.5)
    sup = bj.support_edges(bj.derive_asymptotic(params))
    gram = model.assemble_gram(model.deterministic_factor(params))
    vals = eig.eigenvalues(gram).values
    assert vals[0] >= sup.lambda_minus - 0.01
    assert vals[-1] <= sup.lambda_plus + 0.01
    assert abs(vals[0] - sup.lambda_minus) <= 0.01
    assert abs(vals[-1] - sup.lambda_plus) <= 0.01


def test_edges_at_boundary_shapes():
    assert bj.SupportInterval.from_shape(0.25, 0.25).lambda_minus == 0.0
    assert bj.SupportInterval.from_shape(0.25, 0.75).lambda_plus == 1.0


@given(
    a=st.floats(min_value=0.02, max_value=0.48),
    t=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_edge_product_and_sum_identities(a, t):
    b = a + t * (1.0 - 2.0 * a)
    sup = bj.SupportInterval.from_shape(a, b)
    assert sup.lambda_minus * sup.lambda_plus == pytest.approx((b - a) ** 2, abs=1e-14)
    assert sup.lambda_minus + sup.lambda_plus == pytest.approx(
        2 * (a + b - 2 * a * b), abs=1e-14
    )


@given(
    p=st.floats(min_value=1.0, max_value=50.0),
    q=st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_ratio_roundtrip(p, q):
    params = bj.from_ratios(64, 2.0, p, q)
    asym = bj.derive_asymptotic(params)
    assert asym.p == pytest.approx(p, rel=1e-14)
    assert asym.q == pytest.approx(q, rel=1e-14)
    # reconstruct from shapes
    assert asym.b / asym.a == pytest.approx(p, rel=1e-12)
    assert (1.0 - asym.b) / asym.a == pytest.approx(q, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ParameterError):
        bj.EnsembleParams(n=10, beta=2.0, n1=8.5, n2=20)  # n1 < n - 1
    with pytest.raises(ParameterError):
        bj.EnsembleParams(n=10, beta=0.0, n1=20, n2=20)
    with pytest.raises(ParameterError):
        bj.EnsembleParams(n=0, beta=2.0, n1=20, n2=20)
    with pytest.raises(ParameterError):
        bj.SupportInterval.from_shape(0.25, 0.1)  # b < a
    # integrability needs n1, n2 > n - 1: the boundary itself, where the
    # sampler's first Beta shape beta/2 (n1 - n + 1) is 0, is refused
    for n1, n2, name in ((9, 20, "n1"), (20, 9, "n2")):
        with pytest.raises(ParameterError, match=f"^{name} must satisfy {name} > n - 1 = 9, got "):
            bj.EnsembleParams(n=10, beta=2.0, n1=n1, n2=n2)
    bj.EnsembleParams(n=10, beta=2.0, n1=9.001, n2=9.001)


def test_nonsquare_ratio_shapes():
    asym = bj.derive_asymptotic(bj.EnsembleParams(n=100, beta=2.0, n1=100, n2=300))
    assert asym.a == pytest.approx(0.25)
    assert asym.b == pytest.approx(0.25)  # p = 1 sits on the b = a edge
    bj.support_edges(asym)  # valid, lambda_minus = 0
