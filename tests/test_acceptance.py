"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible under pytest -s or on
failure).  Monte Carlo criteria use fixed seeds; the counter-based stream
discipline makes every number bit-reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import concentration as conc
from betajacobi import covariance, eig, experiments, model, paths, spectral

A = Fraction(1, 4)
B = Fraction(1, 2)
ASYM = bj.shape_params(0.25, 0.5, 2.0)
SUPPORT = bj.support_edges(ASYM)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_bridge_combinatorics():
    t0 = time.perf_counter()
    ok = True
    worst = ""
    for k in range(1, 9):
        bridges = paths.enumerate_bridges(k)
        if len(bridges) != math.comb(2 * k, k):
            ok, worst = False, f"count mismatch at k={k}"
            break
        counts = {}
        for bridge in bridges:
            h = bridge.horizontal_count()
            counts[h] = counts.get(h, 0) + 1
        poly = paths.weight_polynomial(k)
        if any(counts.get(2 * l, 0) != poly.coeffs[l] for l in range(k + 1)):
            ok, worst = False, f"weight table mismatch at k={k}"
            break
        if any(counts.get(h, 0) for h in range(2 * k + 1) if h % 2):
            ok, worst = False, f"odd horizontal count at k={k}"
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(1, "bridge combinatorics", ok, worst or f"k<=8 exact, {elapsed:.2f}s")


def test_criterion_02_path_sum_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for idx in range(100):
        n = int(rng.integers(2, 17))
        factor = model.sample_factor(
            bj.EnsembleParams(n=n, beta=1.0 + 2.0 * rng.random(),
                              n1=n * (1.1 + 2 * rng.random()), n2=n * (1.1 + 2 * rng.random())),
            model.replicate_stream(20, idx),
        )
        Ad = model.gram_to_dense(model.assemble_gram(factor))
        P = np.eye(n)
        for k in range(1, 7):
            P = P @ Ad
            dense = np.trace(P)
            rel = abs(paths.trace_via_paths(factor, k) - dense) / max(abs(dense), 1e-300)
            worst = max(worst, rel)
    _report(2, "path-sum trace oracle", worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_03_generating_function():
    x, y, t = 0.3, 0.5, 0.7

    def bessel_i0(z):
        acc, term = 0.0, 1.0
        for m in range(1, 80):
            acc += term
            term *= (z * z / 4.0) / (m * m)
        return acc

    partial = sum(
        t**k / math.factorial(k) * paths.weight_polynomial(k).value(x, y)
        for k in range(13)
    )
    target = math.exp(t * (x * x + y * y)) * bessel_i0(2 * x * y * t)
    gap = abs(partial - target)
    _report(3, "exponential generating function", gap <= 1e-10, f"gap {gap:.2e}")


def test_criterion_04_eigensolver():
    rng = np.random.default_rng(1)
    worst_tr = worst_fr = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 513))
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(-1, 1, n - 1)
        vals = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off)).values
        scale = float(np.max(np.abs(vals)))
        worst_tr = max(worst_tr, abs(vals.sum() - diag.sum()) / (n * scale))
        frob = float(np.sum(diag**2) + 2 * np.sum(off**2))
        worst_fr = max(worst_fr, abs(float(np.sum(vals**2)) - frob) / (n * scale**2))
    worst_sturm = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        diag = rng.uniform(-1, 1, n)
        off = rng.uniform(-1, 1, n - 1)
        gap = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off)).values - (
            eig.sturm_eigenvalues(diag, off)
        )
        worst_sturm = max(worst_sturm, float(np.max(np.abs(gap))))
    ok = worst_tr <= 1e-12 and worst_fr <= 1e-12 and worst_sturm <= 1e-10
    _report(4, "eigensolver identities",
            ok, f"trace {worst_tr:.2e}, frobenius {worst_fr:.2e}, sturm {worst_sturm:.2e}")


def test_criterion_05_diagonalization():
    t0 = time.perf_counter()
    worst = 0.0
    spot_ok = True
    for beta in (4.0, 2.0, 1.0):  # alpha = 1/2, 1, 2
        alpha = 2.0 / beta
        asym = bj.shape_params(0.25, 0.5, beta)
        num = covariance.covariance_matrix(8, asym)
        theo = covariance.theory_covariance(8, beta, SUPPORT)
        worst = max(worst, float(np.max(np.abs(num.entries - theo.entries))))
        spot_ok &= abs(num.entry(1, 1) - 3 * alpha / 64) <= 1e-10
        spot_ok &= abs(num.entry(2, 2) - 105 * alpha / 2048) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and spot_ok and elapsed < 30.0
    _report(5, "covariance diagonalization", ok,
            f"max gap {worst:.2e}, spots {'ok' if spot_ok else 'bad'}, {elapsed:.1f}s")


def test_criterion_06_laplace_certification():
    grid = np.linspace(SUPPORT.lambda_plus + 0.3, SUPPORT.lambda_plus + 2.3, 5)
    worst_ident = worst_bessel = 0.0
    for beta in (2.0,):
        alpha = 2.0 / beta
        for eta in grid:
            for om in grid:
                c_form, t_form = covariance.laplace_closed(eta, om, SUPPORT, beta)
                worst_ident = max(worst_ident, abs(c_form - alpha * t_form))
                worst_bessel = max(
                    worst_bessel,
                    abs(covariance.laplace_bessel_series(eta, om, SUPPORT) - t_form),
                )
    cov40 = covariance.covariance_matrix(40, ASYM)
    c_form, _ = covariance.laplace_closed(2.0, 3.0, SUPPORT, 2.0)
    partial_gap = abs(covariance.laplace_partial_sum(40, 2.0, 3.0, cov40) - c_form)
    ok = worst_ident <= 1e-12 and worst_bessel <= 1e-10 and partial_gap <= 1e-6
    _report(6, "Laplace certification", ok,
            f"identity {worst_ident:.2e}, bessel {worst_bessel:.2e}, partial {partial_gap:.2e}")


@pytest.mark.slow
def test_criterion_07_clt_desk_scale():
    n, reps = 2000, 10_000
    funcs = [spectral.chebyshev_test_function(i, SUPPORT) for i in (1, 2, 3, 4)]
    funcs.append(spectral.monomial(1))
    failures = []
    for beta in (1.0, 2.0, 4.0):
        cfg = experiments.ExperimentConfig(
            params=bj.from_ratios(n, beta, 2.0, 2.0),
            test_functions=funcs,
            replicates=reps,
            seed=2024,
            threads=2,
        )
        res = experiments.run_fluctuations(cfg)
        for i in range(4):
            target = (2.0 / beta) * (i + 1)
            if abs(res.variances[i] / target - 1.0) > 0.05:
                failures.append(f"beta={beta} var gamma{i+1} {res.variances[i]:.4f} vs {target:.4f}")
        target_x = (2.0 / beta) * SUPPORT.half_width**2 / 4
        if abs(res.variances[4] / target_x - 1.0) > 0.05:
            failures.append(f"beta={beta} var x {res.variances[4]:.5f} vs {target_x:.5f}")
        for i in range(4):
            for j in range(i + 1, 4):
                se = math.sqrt(res.theory_sigma_sq[i] * res.theory_sigma_sq[j] / reps)
                if abs(res.covariance[i, j]) > 3 * se:
                    failures.append(f"beta={beta} cov({i+1},{j+1}) {res.covariance[i,j]:.4f} > 3se {3*se:.4f}")
        if np.max(np.abs(res.skewness)) > 0.1:
            failures.append(f"beta={beta} skew {np.max(np.abs(res.skewness)):.3f}")
        if np.max(np.abs(res.excess_kurtosis)) > 0.2:
            failures.append(f"beta={beta} kurt {np.max(np.abs(res.excess_kurtosis)):.3f}")
    _report(7, "CLT at desk scale", not failures, "; ".join(failures) or "all within bounds")


def test_criterion_08_deviation():
    rep = experiments.deviation_check(2, Fraction(1, 2), A, B, (512, 1024, 2048))
    ok4 = (
        abs(rep.expected - (-3.0 / 128.0)) <= 1e-12
        and abs(rep.order1 / rep.expected - 1.0) <= 0.01
    )
    rep1 = experiments.deviation_check(1, Fraction(1, 2), A, B, (128, 256, 512))
    ok1 = abs(rep1.order1) <= 1e-12 and abs(rep1.expected) <= 1e-12
    rep2 = experiments.deviation_check(2, Fraction(1), A, B, (512, 1024, 2048))
    ok2 = abs(rep2.order1) <= 1e-6
    ok = ok4 and ok1 and ok2
    _report(8, "mean-trace deviation", ok,
            f"k=2 beta=4: {rep.order1:.8f} vs {rep.expected:.8f}; k=1: {rep1.order1:.1e}; beta=2: {rep2.order1:.1e}")


def test_criterion_09_palindromy():
    v1 = paths.trace_expansion(2, Fraction(1), A, B, (512, 1024, 2048)).order1
    v2 = paths.trace_expansion(2, Fraction(2), A, B, (512, 1024, 2048)).order1
    vh = paths.trace_expansion(2, Fraction(1, 2), A, B, (512, 1024, 2048)).order1
    ok = abs(v1) <= 1e-6 and abs(v2 / (-2.0 * vh) - 1.0) <= 1e-3
    _report(9, "palindromy", ok,
            f"eta2(1,1)={v1:.2e}; eta2(1,2)={v2:.8f} vs -2*eta2(1,1/2)={-2*vh:.8f}")


def test_criterion_10_alpha_zero_model():
    a, b = 0.25, 0.5
    m0, m1 = spectral.stieltjes_pair(2.0, ASYM)
    resid = {}
    for n in (100, 200, 400):
        roots = spectral.jacobi_roots(n, n * (b / a - 1), n * ((1 - b) / a - 1))
        resid[n] = abs(float(np.mean(1.0 / (2.0 - roots))) - m0 - m1 / n)
    r1 = resid[100] / resid[200]
    r2 = resid[200] / resid[400]
    ok = 2.0 <= r1 <= 8.0 and 2.0 <= r2 <= 8.0
    _report(10, "alpha-zero root model", ok,
            f"residuals {resid[100]:.2e}/{resid[200]:.2e}/{resid[400]:.2e}, ratios {r1:.2f}, {r2:.2f}")


def test_criterion_11_measures():
    mass_mu = spectral.integrate_density(spectral.monomial(0), ASYM)
    mass_nu = spectral.integrate_deviation(spectral.monomial(0), SUPPORT)
    edge = spectral.edge_weight_integral(SUPPORT)
    ok = (
        abs(mass_mu - 1.0) <= 1e-10
        and abs(mass_nu) <= 1e-10
        and abs(edge - 2 * math.pi * 0.25) <= 1e-8
    )
    _report(11, "limit measures", ok,
            f"mu mass-1 {mass_mu-1:.1e}, nu mass {mass_nu:.1e}, edge-2pia {edge-math.pi/2:.1e}")


@pytest.mark.slow
def test_criterion_12_concentration():
    def sin_like():
        return spectral.TestFunction(
            fn=lambda x: np.sin(3.0 * np.asarray(x, dtype=float)),
            derivative=lambda x: 3.0 * np.cos(3.0 * np.asarray(x, dtype=float)),
            name="sin3x",
        )

    worst_ratio = 0.0
    worst_eq = 0.0
    for p in (0.5, 1.0, 2.0, 8.0):
        for q in (0.5, 1.0, 2.0, 8.0):
            for f in (spectral.monomial(1), spectral.monomial(2), spectral.monomial(3), sin_like()):
                worst_ratio = max(worst_ratio, conc.beta_poincare_ratio(p, q, f).ratio)
            worst_eq = max(
                worst_eq,
                abs(conc.beta_poincare_ratio(p, q, spectral.monomial(1), weighted=True).ratio - 1.0),
            )
    jac_ok = True
    jac_detail = []
    for n in (64, 256):
        rep = conc.jacobi_poincare_check(
            bj.from_ratios(n, 2.0, 2.0, 2.0), spectral.monomial(1), 10_000, seed=31
        )
        jac_ok &= rep.variance + 3 * rep.variance_se < rep.bound - 3 * rep.bound_se
        jac_detail.append(f"n={n}: var {rep.variance:.4f} bound {rep.bound:.4f}")
    ok = worst_ratio <= 1.0 + 1e-8 and worst_eq <= 1e-6 and jac_ok
    _report(12, "concentration inequalities", ok,
            f"poincare max {worst_ratio:.6f}, equality gap {worst_eq:.1e}; " + "; ".join(jac_detail))


def test_criterion_13_coupling():
    scaled = [n * n * conc.coupling_gap(n, 1.0, 1.0) for n in (100, 1000, 10000)]
    band = max(scaled) / min(scaled)
    _report(13, "sqrt-Beta coupling", band <= 2.0,
            f"n^2 gap {scaled[0]:.4e}/{scaled[1]:.4e}/{scaled[2]:.4e}, band {band:.2f}")


def test_criterion_14_deterministic_gap():
    gaps = {}
    for n in (128, 512, 2048):
        gaps[n] = experiments.trotter_gap(bj.from_ratios(n, 2.0, 2.0, 2.0), 50, seed=41)
    ratios = [gaps[n] / math.log(n) for n in gaps]
    band = max(ratios) / min(ratios)
    _report(14, "Frobenius gap O(log n)", band <= 4.0,
            f"gap/log n {ratios[0]:.3f}/{ratios[1]:.3f}/{ratios[2]:.3f}, band {band:.2f}")


@pytest.mark.slow
def test_criterion_15_extremal_moments():
    m2, m4 = experiments.extremal_moments(5000, 2.0, 20_000, seed=51)
    ok = abs(m2 / (1.0 / 16.0) - 1.0) <= 0.05 and abs(m4 / (3.0 / 256.0) - 1.0) <= 0.10
    _report(15, "extremal moments", ok,
            f"m2 {m2:.5f} vs {1/16:.5f}; m4 {m4:.6f} vs {3/256:.6f}")


@pytest.mark.slow
def test_criterion_16_lln_regimes():
    sizes = [250, 500, 1000, 2000]
    details = []
    ok = True
    for regime in ("sublinear", "proportional", "superlinear"):
        pts = experiments.lln_check(regime, sizes, spectral.monomial(1),
                                    replicates=64, seed=61)
        d = [pt.distance for pt in pts]
        violations = sum(1 for i in range(len(d) - 1) if d[i + 1] >= d[i])
        ok &= violations <= 1
        details.append(f"{regime}: " + "/".join(f"{v:.1e}" for v in d) + f" ({violations}v)")
    _report(16, "law of large numbers", ok, "; ".join(details))
