import numpy as np
import pytest

import betajacobi as bj
from betajacobi import concentration as conc
from betajacobi import spectral
from betajacobi.errors import ExtremalRegimeError, ParameterError


def _sin_like():
    return spectral.TestFunction(
        fn=lambda x: np.sin(3.0 * np.asarray(x, dtype=float)),
        derivative=lambda x: 3.0 * np.cos(3.0 * np.asarray(x, dtype=float)),
        name="sin3x",
    )


def test_weighted_linear_is_equality_case():
    for p in (0.5, 1.0, 2.0, 8.0):
        for q in (0.5, 1.0, 2.0, 8.0):
            rep = conc.beta_poincare_ratio(p, q, spectral.monomial(1), weighted=True)
            assert abs(rep.ratio - 1.0) <= 1e-6


def test_unweighted_linear_exact_values():
    rep = conc.beta_poincare_ratio(3.0, 5.0, spectral.monomial(1))
    assert rep.variance == pytest.approx(15.0 / 576.0, rel=1e-12)
    assert rep.bound == pytest.approx(1.0 / 32.0, rel=1e-12)
    assert rep.ratio < 1.0


def test_quadratic_ratio_below_one():
    rep = conc.beta_poincare_ratio(2.0, 2.0, spectral.monomial(2))
    assert rep.ratio < 1.0


def test_poincare_grid_never_exceeds_one():
    funcs = [spectral.monomial(1), spectral.monomial(2), spectral.monomial(3), _sin_like()]
    for p in (0.5, 1.0, 2.0, 8.0):
        for q in (0.5, 1.0, 2.0, 8.0):
            for f in funcs:
                assert conc.beta_poincare_ratio(p, q, f).ratio <= 1.0 + 1e-8


def test_poincare_requires_derivative():
    f = spectral.TestFunction(fn=lambda x: np.asarray(x) ** 2, name="noderiv")
    with pytest.raises(ParameterError):
        conc.beta_poincare_ratio(2.0, 2.0, f)


def test_jacobi_variance_bound_holds():
    params = bj.from_ratios(128, 2.0, 2.0, 2.0)
    rep = conc.jacobi_poincare_check(params, spectral.monomial(1), 2000, seed=17)
    assert rep.variance + 3 * rep.variance_se < rep.bound - 3 * rep.bound_se
    assert rep.ratio < 1.0


def test_jacobi_bound_prefactor_n_independent():
    # for f(x) = x the bound is alpha/(4 min(p-1, q-1)) independent of n
    bounds = {}
    for n in (64, 256):
        rep = conc.jacobi_poincare_check(
            bj.from_ratios(n, 2.0, 2.0, 2.0), spectral.monomial(1), 400, seed=5
        )
        bounds[n] = rep.bound
    assert bounds[64] == pytest.approx(bounds[256], rel=1e-10)
    assert bounds[64] == pytest.approx(0.25, rel=1e-10)  # alpha/4 at beta = 2


def test_jacobi_bound_constant_function_degenerate():
    params = bj.from_ratios(64, 2.0, 2.0, 2.0)
    rep = conc.jacobi_poincare_check(params, spectral.monomial(0), 200, seed=1)
    assert rep.variance <= 1e-20
    assert rep.bound == 0.0
    assert rep.ratio == 0.0


def test_jacobi_bound_rejects_extremal():
    with pytest.raises(ExtremalRegimeError):
        conc.jacobi_poincare_check(
            bj.from_ratios(64, 2.0, 1.0, 1.0), spectral.monomial(1), 100, seed=0
        )


def test_coupling_gap_positive_and_scaling():
    gaps = {n: conc.coupling_gap(n, 1.0, 1.0) for n in (100, 1000)}
    assert all(g >= 0.0 for g in gaps.values())
    scaled = [n * n * gaps[n] for n in gaps]
    assert 0.5 <= scaled[0] / scaled[1] <= 2.0


def test_coupling_beats_independent():
    gap = conc.coupling_gap(100, 1.0, 1.0)
    indep = conc.independent_coupling_gap(100, 1.0, 1.0)
    assert gap <= indep


def test_coupling_gap_asymmetric_shapes():
    assert conc.coupling_gap(200, 2.0, 3.0) >= 0.0


def test_coupling_gap_domain():
    with pytest.raises(ParameterError):
        conc.coupling_gap(1, 0.25, 0.25)  # n <= 1/p


@pytest.mark.parametrize("n,seed_value", [(100, 5.850784886689607e-07), (1000, 5.858502152085262e-09)])
def test_coupling_gap_seed_values(n, seed_value):
    assert conc.coupling_gap(n, 1.0, 1.0) == pytest.approx(seed_value, rel=1e-9)


@pytest.mark.parametrize("p,q", [(0.0, 1.0), (-0.5, 1.0), (1.0, 0.0)])
def test_coupling_gaps_reject_nonpositive_shapes(p, q):
    for gap in (conc.coupling_gap, conc.independent_coupling_gap):
        with pytest.raises(ParameterError):
            gap(100, p, q)
