"""Monte Carlo harness: fluctuation runs, laws of large numbers, the
deterministic-factor Frobenius gap, mean-trace deviations, and the extremal
p = q = 1 moments.

Every check maps a statistic over the replicates with model.map_replicates,
whose row m depends only on (seed, m), and reduces the rows.  A statistic
takes a block of b stacked Gram matrices (diag (b, n), b = max(1, 2^14 // n))
and returns b rows; the rows are bit-identical whatever the block size.
Linear statistics tr f(A) come from spectral.trace_statistic: banded
Chebyshev traces on the run's map (the support, or [0, 1] for extremal
parameters) when every test function is a polynomial, the eigensolver's
spectrum otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from . import eig, model, paths, spectral
from ._version import __version__ as _version
from .errors import ParameterError
from .params import (
    EnsembleParams,
    SupportInterval,
    derive_asymptotic,
    from_ratios,
    shape_params,
)

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "run_fluctuations",
    "LLNPoint",
    "lln_check",
    "trotter_gap",
    "DeviationReport",
    "deviation_check",
    "extremal_moments",
    "sample_summary",
    "skewness",
    "excess_kurtosis",
    "ks_normal_distance",
]

THEORY_N = 64


@dataclass(frozen=True)
class ExperimentConfig:
    params: EnsembleParams
    test_functions: Sequence[spectral.TestFunction]
    replicates: int
    seed: int

    def __post_init__(self):
        model._replicate_count(self.replicates)
        if not self.test_functions:
            raise ParameterError("need at least one test function")


@dataclass
class RunResult:
    """Per-function centered samples and summary statistics of tr f(A)."""

    function_names: list
    samples: np.ndarray  # replicates x functions, centered at empirical means
    means: np.ndarray
    variances: np.ndarray
    covariance: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    ks_distance: np.ndarray
    seed: int
    replicates: int
    params: EnsembleParams
    theory_sigma_sq: Optional[np.ndarray] = None
    theory_covariance: Optional[np.ndarray] = None
    wall_clock_s: float = 0.0
    quadrature_nodes: int = 0
    extremal: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "schema": 1,
            "library_version": _version,
            "seed": self.seed,
            "replicates": self.replicates,
            "params": {
                "n": self.params.n,
                "beta": self.params.beta,
                "n1": self.params.n1,
                "n2": self.params.n2,
            },
            "functions": list(self.function_names),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "covariance": self.covariance.tolist(),
            "skewness": self.skewness.tolist(),
            "excess_kurtosis": self.excess_kurtosis.tolist(),
            "ks_distance": self.ks_distance.tolist(),
            "wall_clock_s": self.wall_clock_s,
            "quadrature_nodes": self.quadrature_nodes,
            "extremal": self.extremal,
        }
        if self.theory_sigma_sq is not None:
            out["theory_sigma_sq"] = self.theory_sigma_sq.tolist()
        if self.theory_covariance is not None:
            out["theory_covariance"] = self.theory_covariance.tolist()
        return out

    def write_samples_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replicate", *self.function_names])
            for m in range(self.samples.shape[0]):
                writer.writerow([m, *(repr(float(v)) for v in self.samples[m])])


def skewness(x: np.ndarray) -> float:
    c = x - x.mean()
    m2 = float(np.mean(c**2))
    if m2 == 0:
        return 0.0
    return float(np.mean(c**3)) / m2**1.5


def excess_kurtosis(x: np.ndarray) -> float:
    c = x - x.mean()
    m2 = float(np.mean(c**2))
    if m2 == 0:
        return 0.0
    return float(np.mean(c**4)) / m2**2 - 3.0


def ks_normal_distance(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance to the normal fitted to (mean, std).

    Shape-only diagnostic, not a calibrated hypothesis test.
    """
    m = x.shape[0]
    mu = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0:
        return 0.0
    z = np.sort((x - mu) / sd)
    cdf = ndtr(z)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m)))


def _sequential_mean(values: np.ndarray) -> float:
    """Mean summed left to right in replicate order (not numpy's pairwise sum,
    which rounds differently and would move fixed-seed results)."""
    return float(np.add.accumulate(values)[-1]) / values.shape[0]


def run_fluctuations(config: ExperimentConfig) -> RunResult:
    """Sample X_f = tr f(A) - mean(tr f(A)) across replicates.

    Centering uses the empirical mean; for the replicate counts used here
    the induced variance bias is O(1/replicates).  Theory columns (CLT
    variances and pairwise covariances in the Chebyshev overlap form) are
    attached unless the parameters are extremal.
    """
    t0 = time.perf_counter()
    params = config.params
    funcs = list(config.test_functions)
    asym = derive_asymptotic(params)
    if asym.extremal:
        support = None
        statistic = spectral.trace_statistic(funcs, 0.5, 0.5)
    else:
        support = SupportInterval.from_shape(asym.a, asym.b)
        statistic = spectral.trace_statistic(funcs, support.center, support.half_width)
    raw = model.map_replicates(params, config.seed, config.replicates, statistic)
    means = raw.mean(axis=0)
    samples = raw - means
    variances = np.sum(samples**2, axis=0) / (config.replicates - 1)
    covariance = (samples.T @ samples) / (config.replicates - 1)
    skew = np.array([skewness(samples[:, j]) for j in range(len(funcs))])
    kurt = np.array([excess_kurtosis(samples[:, j]) for j in range(len(funcs))])
    ks = np.array([ks_normal_distance(samples[:, j]) for j in range(len(funcs))])

    theory_sigma = None
    theory_cov = None
    nodes = 0
    if support is not None:
        nodes = spectral.DEFAULT_NODES
        functionals = [spectral.variance_functionals(f, THEORY_N, params.beta, support, nodes=nodes)
                       for f in funcs]
        theory_sigma = np.array([vf.sigma_sq for vf in functionals])
        coeff_rows = np.array([vf.coefficients.fhat for vf in functionals])
        ns = np.arange(1, THEORY_N + 1, dtype=float)
        theory_cov = (2.0 / params.beta) * (coeff_rows[:, 1:] * ns) @ coeff_rows[:, 1:].T

    return RunResult(
        function_names=[f.name for f in funcs],
        samples=samples,
        means=means,
        variances=variances,
        covariance=covariance,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_distance=ks,
        seed=config.seed,
        replicates=config.replicates,
        params=params,
        theory_sigma_sq=theory_sigma,
        theory_covariance=theory_cov,
        wall_clock_s=time.perf_counter() - t0,
        quadrature_nodes=nodes,
        extremal=asym.extremal,
    )


@dataclass(frozen=True)
class LLNPoint:
    n: int
    n1: float
    n2: float
    value: float
    target: float

    @property
    def distance(self) -> float:
        return abs(self.value - self.target)


_REGIMES = ("sublinear", "proportional", "superlinear")


def lln_check(
    regime: str,
    sizes: Sequence[int],
    f: spectral.TestFunction,
    beta: float = 2.0,
    p: float = 2.0,
    q: float = 2.0,
    replicates: int = 64,
    seed: int = 0,
) -> list:
    """Distance of the mean linear statistic to its regime limit, per size.

    Schedules carry asymmetric offsets (n1 = n+3/n+5 sublinear,
    n1 = pn + 1 proportional, n1 = n^2 vs n2 = n^2 + n superlinear) so the
    finite-n first moment has a genuine O(1/n) bias toward the limit;
    symmetric schedules would leave nothing but Monte Carlo noise.
    """
    if regime not in _REGIMES:
        raise ParameterError(f"regime must be one of {_REGIMES}")
    statistic = spectral.trace_statistic([f])
    out = []
    for n in sizes:
        if regime == "sublinear":
            n1, n2 = n + 3.0, n + 5.0
            target = spectral.arcsine_integral(f)
        elif regime == "proportional":
            n1, n2 = p * n + 1.0, q * n
            target = spectral.integrate_density(f, shape_params(1.0 / (p + q), p / (p + q), beta))
        else:
            n1, n2 = float(n) ** 2, float(n) ** 2 + n
            target = float(f(np.asarray(0.5)))  # limit of (n1-n)/(n1+n2-2n)
        params = EnsembleParams(n=n, beta=beta, n1=n1, n2=n2)
        values = model.map_replicates(params, seed, replicates, statistic)[:, 0] / n
        out.append(LLNPoint(n=n, n1=n1, n2=n2, value=_sequential_mean(values), target=target))
    return out


def trotter_gap(params: EnsembleParams, replicates: int, seed: int) -> float:
    """Monte Carlo estimate of E || B B^T - B_inf B_inf^T ||_F^2."""
    det = model.assemble_gram(model.deterministic_factor(params))
    gaps = model.map_replicates(
        params, seed, replicates, lambda grams: model.frobenius_gap_sq(grams, det))
    return _sequential_mean(gaps[:, 0])


@dataclass(frozen=True)
class DeviationReport:
    """n * (mean-trace deviation) against its signed-measure prediction."""

    order1: float
    expected: float
    residual: float


def deviation_check(
    k: int,
    alpha: Fraction,
    a: Fraction,
    b: Fraction,
    n_grid: Sequence[int] = (512, 1024, 2048),
) -> DeviationReport:
    """Exact-rational Richardson deviation vs (alpha - 1) * deviation moment.

    The first-order coefficient of (1/n) E tr A^k is extracted from the
    exact expectation pipeline and compared with (2/beta - 1) times the
    k-th moment of the signed deviation measure.
    """
    if k > 3:
        raise ParameterError("deviation check limited to k <= 3")
    expansion = paths.trace_expansion(k, Fraction(alpha), Fraction(a), Fraction(b), n_grid)
    support = SupportInterval.from_shape(float(a), float(b))
    nu_moment = spectral.integrate_deviation(spectral.monomial(k), support)
    expected = (float(alpha) - 1.0) * nu_moment
    return DeviationReport(
        order1=expansion.order1, expected=expected, residual=expansion.residual1
    )


def extremal_moments(
    n: int, beta: float, replicates: int, seed: int
) -> tuple[float, float]:
    """Second and fourth central moments of tr A at p = q = 1."""
    params = from_ratios(n, beta, 1.0, 1.0)
    asym = derive_asymptotic(params)
    if not asym.extremal:
        raise ParameterError("extremal moments require p = q = 1")
    traces = model.map_replicates(
        params, seed, replicates, lambda grams: grams.diag.sum(axis=-1))[:, 0]
    c = traces - traces.mean()
    return float(np.mean(c**2)), float(np.mean(c**4))


def sample_summary(params: EnsembleParams, seed: int, dump_path=None) -> dict:
    """One factor from replicate_stream(seed, 0) and a summary of its spectrum.

    With dump_path, the raw draws and entries of the factor go to that CSV.
    The eigenvalues themselves are listed up to n = 64.
    """
    factor = model.sample_factor(params, model.replicate_stream(seed, 0))
    if dump_path:
        model.dump_factor_csv(factor, dump_path)
    spec = eig.eigenvalues(model.assemble_gram(factor))
    vals = spec.values
    out = {
        "count": int(vals.shape[0]),
        "min": float(vals[0]),
        "max": float(vals[-1]),
        "trace": float(vals.sum()),
        "residual_trace_error": spec.residual_trace_error,
    }
    if vals.shape[0] <= 64:
        out["eigenvalues"] = vals.tolist()
    return out
