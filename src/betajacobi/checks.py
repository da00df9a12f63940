"""One registry of the acceptance checks.

REGISTRY holds one entry per acceptance criterion (criterion 12 as its
deterministic Beta-Poincare half and its Monte Carlo ensemble half): a
runner that returns the measured values, its gates, each written once as
(quantity, comparison, threshold), its full (acceptance) and quick inputs
and its seed.  `verify-all`, the check subcommands and the acceptance
suite all go through `run`, so no threshold is written anywhere else.
Each Monte Carlo runner samples with model.map_replicates and reduces the
rows itself; criterion 7's calls experiments.run_fluctuations, as `fluct` does.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import concentration, covariance, eig, experiments, model, paths, spectral
from .errors import ExtremalRegimeError, ParameterError
from .params import (EnsembleParams, SupportInterval, checked_int, derive_asymptotic,
                     from_ratios, from_shape, shape_params, support_edges)

__all__ = ["Gate", "Check", "GateResult", "Outcome", "REGISTRY", "CHECKS", "run", "report"]

_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


class Gate(NamedTuple):
    """quantity <comparison> threshold.

    With se_scaled, the threshold is a fixed number of standard errors at
    the entry's full replicate count, so at `reps` replicates it widens by
    sqrt(full reps / reps); at the full count it is the literal itself.
    """

    quantity: str
    comparison: str
    threshold: float
    se_scaled: bool = False


@dataclass(frozen=True)
class Check:
    criterion: int
    name: str
    runner: Callable[..., dict]
    gates: tuple
    full: Mapping
    quick: Optional[Mapping] = None  # None: the full inputs
    seed: Optional[int] = None  # None: the runner draws nothing at random
    slow: bool = False  # Monte Carlo work of seconds at the full inputs

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(Gate(*g) for g in self.gates))

    @property
    def id(self) -> str:
        return f"{self.criterion:02d}-{self.name}"

    def inputs(self, quick: bool) -> Mapping:
        return self.quick if quick and self.quick is not None else self.full


@dataclass(frozen=True)
class GateResult:
    quantity: str
    comparison: str
    threshold: float
    value: float

    @property
    def passed(self) -> bool:
        return bool(_COMPARE[self.comparison](self.value, self.threshold))

    @property
    def margin(self) -> float:
        """Distance to the threshold, positive on the passing side."""
        if self.comparison.startswith("<"):
            return self.threshold - self.value
        return self.value - self.threshold

    def to_json(self) -> dict:
        return {"value": self.value, "comparison": self.comparison,
                "threshold": self.threshold, "margin": self.margin, "passed": self.passed}


@dataclass(frozen=True)
class Outcome:
    check: Check
    values: dict
    gates: tuple
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def line(self) -> str:
        worst = min(self.gates, key=lambda g: g.margin / abs(g.threshold or 1.0))
        return (f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.check.id} "
                f"({self.wall_clock_s:.2f} s): closest gate {worst.quantity} = {worst.value:.3g} "
                f"{worst.comparison} {worst.threshold:.3g}")


def run(check: Check, inputs: Optional[Mapping] = None, seed: Optional[int] = None) -> Outcome:
    """Run one entry at `inputs` (default: its full inputs) and evaluate its gates.

    `seed` replaces the entry's seed; unseeded entries ignore it.  The
    check's wall time is measured here and may itself be gated as wall_clock_s,
    the key under which every report of this library gives a wall time.
    """
    inputs = dict(check.full if inputs is None else inputs)
    if check.seed is not None:
        inputs["seed"] = check.seed if seed is None else seed
    t0 = time.perf_counter()
    values = check.runner(**inputs)
    wall = time.perf_counter() - t0
    measured = {**values, "wall_clock_s": wall}
    gates = []
    for gate in check.gates:
        threshold = gate.threshold
        if gate.se_scaled:
            threshold *= math.sqrt(check.full["reps"] / inputs["reps"])
        gates.append(GateResult(gate.quantity, gate.comparison, threshold,
                                measured[gate.quantity]))
    return Outcome(check, values, tuple(gates), wall)


def report(outcomes) -> dict:
    """One JSON block for entries run together: their measured values, each
    gate's value, threshold and margin, the total wall time and the verdict."""
    out = {}
    for outcome in outcomes:
        out.update(outcome.values)
    out["gates"] = {g.quantity: g.to_json() for o in outcomes for g in o.gates}
    out["wall_clock_s"] = sum(o.wall_clock_s for o in outcomes)
    out["passed"] = all(o.passed for o in outcomes)
    return out


# -- runners ---------------------------------------------------------------


def _bridge_combinatorics(max_k):
    count = weight = odd = 0
    for k in range(1, checked_int("max_k", max_k, 1) + 1):
        bridges = paths.enumerate_bridges(k)
        count += len(bridges) != math.comb(2 * k, k)
        counts = {}
        for bridge in bridges:
            h = bridge.horizontal_count()
            counts[h] = counts.get(h, 0) + 1
        poly = paths.weight_polynomial(k)
        weight += any(counts.get(2 * l, 0) != poly.coeffs[l] for l in range(k + 1))
        odd += any(counts.get(h, 0) for h in range(1, 2 * k + 1, 2))
    return {"count_mismatches": count, "weight_table_mismatches": weight,
            "odd_horizontal_counts": odd}


def _path_sum_oracle(matrices, stream, seed):
    matrices = checked_int("matrices", matrices, 1)
    stream = checked_int("stream", stream, 0, 2**64 - 1)
    rng = np.random.default_rng(model.checked_seed(seed))
    worst = 0.0
    for idx in range(matrices):
        n = int(rng.integers(2, 17))
        factor = model.sample_factor(
            EnsembleParams(n=n, beta=1.0 + 2.0 * rng.random(),
                           n1=n * (1.1 + 2 * rng.random()), n2=n * (1.1 + 2 * rng.random())),
            stream, idx)
        dense = model.gram_to_dense(model.assemble_gram(factor))
        power = np.eye(n)
        for k in range(1, 7):
            power = power @ dense
            trace = np.trace(power)
            rel = abs(paths.trace_via_paths(factor, k) - trace) / max(abs(trace), 1e-300)
            worst = max(worst, rel)
    return {"max_relative_error": float(worst)}


def _generating_function(x, y, t, terms):
    z = 2 * x * y * t
    i0, term = 0.0, 1.0  # modified Bessel I0(z) by its series
    for m in range(1, 80):
        i0 += term
        term *= (z * z / 4.0) / (m * m)
    partial = sum(t**k / math.factorial(k) * paths.weight_polynomial(k).value(x, y)
                  for k in range(checked_int("terms", terms, 1)))
    return {"generating_function_gap": abs(partial - math.exp(t * (x * x + y * y)) * i0)}


def _random_tridiagonal(rng, max_n):
    n = int(rng.integers(2, max_n + 1))
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)


def _eigensolver(matrices, max_n, seed):
    matrices, max_n = checked_int("matrices", matrices, 1), checked_int("max_n", max_n, 2)
    rng = np.random.default_rng(model.checked_seed(seed))
    worst_trace = worst_frob = 0.0
    for _ in range(matrices):
        diag, off = _random_tridiagonal(rng, max_n)
        n = diag.shape[0]
        vals = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off)).values
        scale = float(np.max(np.abs(vals))) + 1e-30
        worst_trace = max(worst_trace, abs(vals.sum() - diag.sum()) / (n * scale))
        frob = float(np.sum(diag**2) + 2.0 * np.sum(off**2))
        worst_frob = max(worst_frob, abs(float(np.sum(vals**2)) - frob) / (n * scale**2))
    # 100 small matrices against the Sturm oracle in one stacked call, each
    # padded to order 10 with decoupled +inf diagonal entries
    small = [_random_tridiagonal(rng, 10) for _ in range(100)]
    diags, offs = np.full((100, 10), np.inf), np.zeros((100, 9))
    for row, (diag, off) in enumerate(small):
        diags[row, :diag.shape[0]], offs[row, :off.shape[0]] = diag, off
    oracle = eig.sturm_eigenvalues(diags, offs)
    worst_sturm = 0.0
    for (diag, off), expected in zip(small, oracle):
        vals = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off)).values
        worst_sturm = max(worst_sturm, float(np.max(np.abs(vals - expected[:diag.shape[0]]))))
    return {"worst_trace_identity": worst_trace, "worst_frobenius_identity": worst_frob,
            "worst_sturm_gap": worst_sturm, "sturm_oracle_calls": 1}


def _diagonalization(a, b, betas, K):
    worst = error = 0.0
    for beta in betas:
        asym = shape_params(a, b, beta)
        num = covariance.covariance_matrix(K, asym)
        theo = covariance.theory_covariance(K, beta, support_edges(asym))
        worst = max(worst, float(np.max(np.abs(num.entries - theo.entries))))
        error = max(error, num.error_estimate)
    return {"max_diagonalization_gap": worst, "quadrature_error_estimate": error}


def _laplace(a, b, beta):
    asym = shape_params(a, b, beta)
    support = support_edges(asym)
    grid = np.linspace(support.lambda_plus + 0.3, support.lambda_plus + 2.3, 5)
    ident = bessel = 0.0
    for eta in grid:
        for om in grid:
            c_form, t_form = covariance.laplace_closed(eta, om, support, beta)
            ident = max(ident, abs(c_form - (2.0 / beta) * t_form))
            bessel = max(bessel, abs(covariance.laplace_bessel_series(eta, om, support) - t_form))
    cov40 = covariance.covariance_matrix(40, asym)
    c_form, _ = covariance.laplace_closed(2.0, 3.0, support, beta)
    partial = abs(covariance.laplace_partial_sum(40, 2.0, 3.0, cov40) - c_form)
    return {"laplace_identity_gap": ident, "bessel_series_gap": bessel, "partial_sum_gap": partial}


def _clt(n, betas, reps, seed):
    # p = q = 2, so the limit shapes are a = 1/4, b = 1/2 at every beta
    support = support_edges(shape_params(0.25, 0.5, 2.0))
    funcs = [spectral.chebyshev_test_function(m, support) for m in (1, 2, 3, 4)]
    funcs.append(spectral.monomial(1))
    ratios, cov_z, skew, kurt = {}, 0.0, {}, {}
    for beta in betas:
        res = experiments.run_fluctuations(from_ratios(n, beta, 2.0, 2.0), funcs, reps, seed)
        # closed forms: (2/beta) m for gamma_m, (2/beta) r^2/4 for x
        targets = [(2.0 / beta) * m for m in (1, 2, 3, 4)]
        targets.append((2.0 / beta) * support.half_width**2 / 4)
        ratios[str(beta)] = [res.variances[i] / targets[i] for i in range(5)]
        for i in range(4):
            for j in range(i + 1, 4):
                se = math.sqrt(res.theory_sigma_sq[i] * res.theory_sigma_sq[j] / reps)
                cov_z = max(cov_z, abs(res.covariance[i, j]) / se)
        skew[str(beta)] = res.skewness.tolist()
        kurt[str(beta)] = res.excess_kurtosis.tolist()
    return {
        "variance_ratios": ratios, "skewness": skew, "excess_kurtosis": kurt,
        "worst_variance_ratio_gap": max(abs(r - 1.0) for rs in ratios.values() for r in rs),
        "worst_covariance_z": cov_z,
        "worst_abs_skewness": max(abs(s) for ss in skew.values() for s in ss),
        "worst_abs_excess_kurtosis": max(abs(k) for ks in kurt.values() for k in ks),
    }


def _deviation_moment(k: int, support: SupportInterval) -> float:
    """k-th moment of nu = (delta_- + delta_+)/4 - arcsine/2 in closed form."""
    c, r = support.center, support.half_width
    edges = ((c - r) ** k + (c + r) ** k) / 4.0
    arcsine = sum(math.comb(k, 2 * j) * c ** (k - 2 * j) * r ** (2 * j) * math.comb(2 * j, j) / 4**j
                  for j in range(k // 2 + 1))
    return edges - arcsine / 2.0


def _deviation(a, b, cases):
    """The 1/n coefficient of (1/n) E tr A^k against (2/beta - 1) times the
    k-th moment of the signed deviation measure.

    cases: (k, beta, base_n), each Richardson-extrapolated by
    paths.trace_expansion from the sizes base_n, 2 base_n and 4 base_n;
    beta = 2 or k = 1 predict a zero 1/n term.  A kind of case that is not
    among them reads 0 in its worst-case value.
    """
    support = SupportInterval.from_shape(a, b)
    rows, relative, null, linear, closed = [], [0.0], [0.0], [0.0], [0.0]
    for k, beta, base_n in cases:
        expansion = paths.trace_expansion(k, beta, a, b, base_n)
        order1 = expansion.order1
        expected = (2.0 / beta - 1.0) * spectral.integrate_deviation(spectral.monomial(k), support)
        closed.append(abs(expected - (2.0 / beta - 1.0) * _deviation_moment(k, support)))
        if k == 1:
            linear.append(abs(order1))
        elif beta == 2:
            null.append(abs(order1))
        else:
            relative.append(abs(order1 / expected - 1.0))
        rows.append({"k": k, "beta": beta, "base_n": base_n, "order1": order1,
                     "expected": expected, "extrapolation_residual": expansion.residual1})
    return {"cases": rows, "worst_relative_gap": max(relative), "worst_null_order1": max(null),
            "worst_linear_order1": max(linear), "worst_closed_form_gap": max(closed)}


def _palindromy(a, b, base_n):
    # alpha = 2/beta = 1, 2 and 1/2
    one, two, half = (paths.trace_expansion(2, beta, a, b, base_n).order1
                      for beta in (2.0, 1.0, 4.0))
    return {"eta2_alpha_one": one, "eta2_alpha_two": two, "eta2_alpha_half": half,
            "abs_eta2_alpha_one": abs(one), "palindromy_gap": abs(two / (-2.0 * half) - 1.0)}


def _alpha_zero_model(a, b):
    asym = shape_params(a, b, 2.0)
    m0, m1 = spectral.stieltjes_pair(2.0, asym)
    resid = {}
    for n in (100, 200, 400):
        # the alpha = 0 (beta -> infinity) matrix model: the frozen Gram's spectrum
        frozen = model.assemble_gram(model.deterministic_factor(from_shape(n, 2.0, a, b)))
        roots = eig.eigenvalues(frozen).values
        resid[n] = abs(float(np.mean(1.0 / (2.0 - roots))) - m0 - m1 / n)
    ratios = [resid[100] / resid[200], resid[200] / resid[400]]
    return {"alpha_zero_residuals": {str(k): v for k, v in resid.items()},
            "alpha_zero_residual_ratios": ratios,
            "min_residual_ratio": min(ratios), "max_residual_ratio": max(ratios)}


def _limit_measures(a, b):
    asym = shape_params(a, b, 2.0)
    support = support_edges(asym)
    mass_mu = spectral.integrate_density(spectral.monomial(0), asym)
    mass_nu = spectral.integrate_deviation(spectral.monomial(0), support)
    # independent x-space route for the edge-weight normalization 2 pi a
    edge = spectral.edge_weight_integral(support)
    # the Stieltjes transform of mu solves its quadratic, checked at points
    # outside every support in [0, 1] and at least 1/4 from its poles 0 and 1
    quadratic = 0.0
    for x in (-0.5, 1.25, 2.0):
        m0, _ = spectral.stieltjes_pair(x, asym)
        val = (a * m0 * m0 + ((b - a) - (1 - 2 * a) * x) / (x * (1 - x)) * m0
               + (1 - a) / (x * (1 - x)))
        quadratic = max(quadratic, abs(val))
    return {"density_mass": mass_mu, "deviation_mass": mass_nu, "edge_normalization": edge,
            "expected_edge_normalization": 2 * math.pi * a,
            "density_mass_error": abs(mass_mu - 1.0), "deviation_mass_error": abs(mass_nu),
            "edge_normalization_error": abs(edge - 2 * math.pi * a),
            "stieltjes_quadratic_residual": quadratic}


def _sin3x():
    return spectral.TestFunction(
        fn=lambda x: np.sin(3.0 * np.asarray(x, dtype=float)),
        derivative=lambda x: 3.0 * np.cos(3.0 * np.asarray(x, dtype=float)),
        name="sin3x",
    )


def _beta_poincare(shapes):
    funcs = (spectral.monomial(1), spectral.monomial(2), spectral.monomial(3), _sin3x())
    # every rule in one stacked build, which beta_poincare_ratio then finds cached
    spectral.jacobi_probability_quadratures(concentration.BETA_NODES,
                                            [(p, q) for p in shapes for q in shapes])
    worst = worst_eq = 0.0
    for p in shapes:
        for q in shapes:
            for f in funcs:
                worst = max(worst, concentration.beta_poincare_ratio(p, q, f).ratio)
            weighted = concentration.beta_poincare_ratio(p, q, funcs[0], weighted=True)
            worst_eq = max(worst_eq, abs(weighted.ratio - 1.0))
    return {"worst_ratio": worst, "worst_weighted_equality_gap": worst_eq}


def _jacobi_poincare(sizes, beta, p, q, func, reps, seed):
    """Var tr f(A) against (alpha / (4 n min(p-1, q-1))) E tr (f')^2(A) per size,
    both over the replicates with their standard errors, for p, q > 1; one
    spectral.trace_statistic gives both traces."""
    statistics = spectral.trace_statistic([func, spectral.squared_derivative(func)])
    points, worst_z = [], math.inf
    for n in sizes:
        params = from_ratios(n, beta, p, q)
        asym = derive_asymptotic(params)
        margin = min(asym.p - 1.0, asym.q - 1.0)
        if margin <= 0:
            raise ExtremalRegimeError("variance bound needs p > 1 and q > 1")
        # contiguous rows, so no reduction below depends on the stride of a column view
        traces, grads = np.ascontiguousarray(
            model.map_replicates(params, seed, reps, statistics).T)
        centered = traces - traces.mean()
        variance = float(centered @ centered) / (reps - 1)
        variance_se = math.sqrt(max(float(np.var(centered**2)) / reps, 0.0))
        prefactor = asym.alpha / (4.0 * params.n * margin)
        bound = prefactor * float(grads.mean())
        bound_se = prefactor * float(grads.std(ddof=1)) / math.sqrt(reps)
        ratio = variance / bound if bound > 0 else (0.0 if variance == 0.0 else math.inf)
        # bound - variance in units of the summed standard errors
        gap, se = bound - variance, variance_se + bound_se
        worst_z = min(worst_z, gap / se if se > 0 else (math.inf if gap > 0 else -math.inf))
        points.append({"n": n, "variance": variance, "bound": bound, "ratio": ratio,
                       "variance_se": variance_se, "bound_se": bound_se})
    return {"points": points, "min_separation_z": worst_z}


def _increasing(sizes) -> list:
    """sizes, if at least two integers in increasing order (a scaling check); else ParameterError."""
    sizes = [checked_int("size", n, 1) for n in sizes]
    if len(sizes) < 2 or any(m >= n for m, n in zip(sizes, sizes[1:])):
        raise ParameterError(f"need at least two sizes in increasing order, got {sizes}")
    return sizes


def _coupling(sizes, p, q):
    reports = {n: concentration.coupling_report(n, p, q) for n in _increasing(sizes)}
    scaled = {n: n * n * rep.gap for n, rep in reports.items()}
    return {"n_sq_gap": {str(n): v for n, v in scaled.items()},
            "band_ratio": max(scaled.values()) / min(scaled.values()),
            "hermite_nodes": {str(n): rep.nodes for n, rep in reports.items()},
            "doubling_rel_gap": {str(n): rep.doubling_rel_gap for n, rep in reports.items()}}


def _sequential_mean(values: np.ndarray) -> float:
    """Mean summed left to right in replicate order (not numpy's pairwise sum,
    which rounds differently and would move fixed-seed results)."""
    return float(np.add.accumulate(values)[-1]) / values.shape[0]


def _frobenius_gap(sizes, reps, seed):
    """Monte Carlo E || B B^T - B_inf B_inf^T ||_F^2 over log n, per size."""
    ratios = []
    for n in _increasing(sizes):
        params = from_ratios(n, 2.0, 2.0, 2.0)
        det = model.assemble_gram(model.deterministic_factor(params))
        gaps = model.map_replicates(
            params, seed, reps, lambda grams: model.frobenius_gap_sq(grams, det))
        ratios.append(_sequential_mean(gaps[:, 0]) / math.log(n))
    return {"gap_over_log_n": ratios, "band_ratio": max(ratios) / min(ratios)}


def _extremal(n, beta, reps, seed):
    """Second and fourth central moments of tr A at p = q = 1 against their limits."""
    traces = model.map_replicates(
        from_ratios(n, beta, 1.0, 1.0), seed, reps, lambda grams: grams.diag.sum(axis=-1))[:, 0]
    c = traces - traces.mean()
    m2, m4 = float(np.mean(c**2)), float(np.mean(c**4))
    t2, t4 = 1.0 / (8.0 * beta), 3.0 / (64.0 * beta * beta)
    return {"second_moment": m2, "fourth_moment": m4, "expected_second": t2,
            "expected_fourth": t4, "second_moment_gap": abs(m2 / t2 - 1.0),
            "fourth_moment_gap": abs(m4 / t4 - 1.0)}


_REGIMES = ("sublinear", "proportional", "superlinear")


def _lln(regimes, sizes, func, beta, p, q, reps, seed):
    """Distance of the mean of tr f(A) / n to its regime limit, per regime and size.

    The schedules' asymmetric offsets give the finite-n first moment a genuine
    O(1/n) bias toward the limit; symmetric ones would leave only Monte Carlo noise.
    """
    unknown = [regime for regime in regimes if regime not in _REGIMES]
    if unknown:
        raise ParameterError(f"regime must be one of {_REGIMES}, got {unknown[0]!r}")
    statistic = spectral.trace_statistic([func])
    points, violations = [], 0
    for regime in regimes:
        dists = []
        for n in _increasing(sizes):
            if regime == "sublinear":
                n1, n2 = n + 3.0, n + 5.0
                target = spectral.arcsine_integral(func)
            elif regime == "proportional":
                n1, n2 = p * n + 1.0, q * n
                target = spectral.integrate_density(
                    func, shape_params(1.0 / (p + q), p / (p + q), beta))
            else:
                n1, n2 = float(n) ** 2, float(n) ** 2 + n
                target = float(func(np.asarray(0.5)))  # limit of (n1-n)/(n1+n2-2n)
            params = EnsembleParams(n=n, beta=beta, n1=n1, n2=n2)
            value = _sequential_mean(model.map_replicates(params, seed, reps, statistic)[:, 0] / n)
            dists.append(abs(value - target))
            points.append({"regime": regime, "n": n, "n1": n1, "n2": n2, "value": value,
                           "target": target, "distance": dists[-1]})
        violations = max(violations, sum(dists[i + 1] >= dists[i] for i in range(len(dists) - 1)))
    return {"points": points, "monotonicity_violations": violations}


# -- the registry ----------------------------------------------------------

_A, _B = 0.25, 0.5

REGISTRY = (
    Check(1, "bridge-combinatorics", _bridge_combinatorics,
          (("count_mismatches", "<=", 0), ("weight_table_mismatches", "<=", 0),
           ("odd_horizontal_counts", "<=", 0), ("wall_clock_s", "<", 5.0)),
          full={"max_k": 8}),
    Check(2, "path-sum-oracle", _path_sum_oracle, (("max_relative_error", "<=", 1e-10),),
          full={"matrices": 100, "stream": 20}, quick={"matrices": 5, "stream": 20}, seed=0),
    Check(3, "generating-function", _generating_function,
          (("generating_function_gap", "<=", 1e-10),),
          full={"x": 0.3, "y": 0.5, "t": 0.7, "terms": 13}),
    Check(4, "eigensolver", _eigensolver,
          (("worst_trace_identity", "<=", 1e-12), ("worst_frobenius_identity", "<=", 1e-12),
           ("worst_sturm_gap", "<=", 1e-10)),
          full={"matrices": 1000, "max_n": 512}, quick={"matrices": 100, "max_n": 128}, seed=1),
    Check(5, "covariance-diagonalization", _diagonalization,
          (("max_diagonalization_gap", "<=", 1e-8), ("wall_clock_s", "<", 30.0)),
          full={"a": 0.25, "b": 0.5, "betas": (4.0, 2.0, 1.0), "K": 8}),
    Check(6, "laplace-certification", _laplace,
          (("laplace_identity_gap", "<=", 1e-12), ("bessel_series_gap", "<=", 1e-10),
           ("partial_sum_gap", "<=", 1e-6)),
          full={"a": 0.25, "b": 0.5, "beta": 2.0}),
    Check(7, "clt", _clt,
          (("worst_variance_ratio_gap", "<=", 0.05), ("worst_covariance_z", "<=", 3.0),
           ("worst_abs_skewness", "<=", 0.1, True), ("worst_abs_excess_kurtosis", "<=", 0.2, True)),
          full={"n": 2000, "betas": (1.0, 2.0, 4.0), "reps": 10_000},
          quick={"n": 500, "betas": (2.0,), "reps": 10_000}, seed=2024, slow=True),
    Check(8, "deviation", _deviation,
          (("worst_relative_gap", "<=", 0.01), ("worst_null_order1", "<=", 1e-6),
           ("worst_linear_order1", "<=", 1e-12), ("worst_closed_form_gap", "<=", 1e-12)),
          full={"a": _A, "b": _B, "cases": ((2, 4.0, 512), (1, 4.0, 128), (2, 2.0, 512),
                                            (4, 4.0, 512), (6, 4.0, 512), (8, 4.0, 512),
                                            (12, 1.0, 512), (12, 2.0, 512))},
          quick={"a": _A, "b": _B, "cases": ((2, 4.0, 128), (1, 4.0, 128), (2, 2.0, 64),
                                             (4, 4.0, 128))}),
    Check(9, "palindromy", _palindromy,
          (("abs_eta2_alpha_one", "<=", 1e-6), ("palindromy_gap", "<=", 1e-3)),
          full={"a": _A, "b": _B, "base_n": 512}, quick={"a": _A, "b": _B, "base_n": 64}),
    Check(10, "alpha-zero-model", _alpha_zero_model,
          (("min_residual_ratio", ">=", 2.0), ("max_residual_ratio", "<=", 8.0)),
          full={"a": 0.25, "b": 0.5}),
    Check(11, "limit-measures", _limit_measures,
          (("density_mass_error", "<=", 1e-10), ("deviation_mass_error", "<=", 1e-10),
           ("edge_normalization_error", "<=", 1e-8), ("stieltjes_quadratic_residual", "<=", 1e-10)),
          full={"a": 0.25, "b": 0.5}),
    Check(12, "beta-poincare", _beta_poincare,
          (("worst_ratio", "<=", 1.0 + 1e-8), ("worst_weighted_equality_gap", "<=", 1e-6)),
          full={"shapes": (0.5, 1.0, 2.0, 8.0)}),
    Check(12, "jacobi-poincare", _jacobi_poincare, (("min_separation_z", ">", 3.0),),
          full={"sizes": (64, 256), "beta": 2.0, "p": 2.0, "q": 2.0,
                "func": spectral.monomial(1), "reps": 10_000},
          quick={"sizes": (256,), "beta": 2.0, "p": 2.0, "q": 2.0,
                 "func": spectral.monomial(1), "reps": 500}, seed=31, slow=True),
    Check(13, "coupling", _coupling, (("band_ratio", "<=", 2.0),),
          full={"sizes": (100, 1000, 10000), "p": 1.0, "q": 1.0},
          quick={"sizes": (100, 1000), "p": 1.0, "q": 1.0}),
    Check(14, "frobenius-gap", _frobenius_gap, (("band_ratio", "<=", 4.0),),
          full={"sizes": (128, 512, 2048), "reps": 50},
          quick={"sizes": (128, 512, 2048), "reps": 10}, seed=41),
    Check(15, "extremal-moments", _extremal,
          (("second_moment_gap", "<=", 0.05), ("fourth_moment_gap", "<=", 0.10)),
          full={"n": 5000, "beta": 2.0, "reps": 20_000},
          quick={"n": 1000, "beta": 2.0, "reps": 2000}, seed=51, slow=True),
    Check(16, "lln", _lln, (("monotonicity_violations", "<=", 1),),
          full={"regimes": _REGIMES,
                "sizes": (250, 500, 1000, 2000), "func": spectral.monomial(1), "beta": 2.0,
                "p": 2.0, "q": 2.0, "reps": 64},
          quick={"regimes": ("proportional",), "sizes": (125, 250, 500),
                 "func": spectral.monomial(1), "beta": 2.0, "p": 2.0, "q": 2.0, "reps": 16},
          seed=61, slow=True),
)

CHECKS = {check.name: check for check in REGISTRY}
