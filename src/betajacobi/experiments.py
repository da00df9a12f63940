"""Monte Carlo harness: the fluctuation run behind `fluct` and criterion 7,
the one-factor `sample` summary and the moment and KS reductions.

run_fluctuations maps a statistic over the replicates with
model.map_replicates, whose row m depends only on (seed, m), and reduces the
rows; the registry's other Monte Carlo checks (betajacobi.checks) do the
same in their own runners.  A statistic takes a block of b stacked Gram
matrices (diag (b, n), b = max(1, 2^14 // n)) and returns b rows; the rows
are bit-identical whatever the block size.  Linear statistics tr f(A) come
from spectral.trace_statistic: banded Chebyshev traces on the run's map (the
support, or [0, 1] for extremal parameters) when every test function is a
polynomial, the eigensolver's spectrum otherwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import eig, model, spectral
from ._version import __version__ as _version
from .errors import ParameterError
from .params import EnsembleParams, SupportInterval, checked_int, derive_asymptotic

__all__ = [
    "RunResult",
    "run_fluctuations",
    "sample_summary",
    "skewness",
    "excess_kurtosis",
    "ks_normal_distance",
]

# Chebyshev terms of a theory series; run_fluctuations lengthens it for polynomials of high degree
THEORY_N = 64


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
        """Every field but the samples, function_names as "functions"; theory fields when set."""
        out = {"schema": 1, "library_version": _version}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "samples" or value is None:
                continue
            if field.name == "params":
                value = asdict(value)
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            out["functions" if field.name == "function_names" else field.name] = value
        return out

    def write_samples_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replicate", *self.function_names])
            for m in range(self.samples.shape[0]):
                writer.writerow([m, *(repr(float(v)) for v in self.samples[m])])


def _shape_moments(c: np.ndarray):
    """(skewness, excess kurtosis) of the centred samples c along its last axis.

    c^3 = c^2 c and c^4 = c^2 c^2 are products, where c**3 and c**4 call pow
    per element.  Samples of zero variance read 0, 0.
    """
    sq = c * c
    m2 = sq.mean(axis=-1)
    m3 = (sq * c).mean(axis=-1)
    m4 = (sq * sq).mean(axis=-1)
    flat = m2 == 0
    m2 = np.where(flat, 1.0, m2)
    return np.where(flat, 0.0, m3 / m2**1.5), np.where(flat, 0.0, m4 / m2**2 - 3.0)


def skewness(x: np.ndarray) -> float:
    return float(_shape_moments(x - x.mean())[0])


def excess_kurtosis(x: np.ndarray) -> float:
    return float(_shape_moments(x - x.mean())[1])


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt 2) / 2 by the math module, the argument formed
    as scipy's ndtr forms it; within 3e-15 relative of ndtr on [-8, 8].

    The rounding of the argument is left uncorrected, as in ndtr: it costs
    up to 9.4e-15 relative on [-8, 8], where the KS distance calls this, and
    concentration._phi corrects it for the far tails of the coupling.
    """
    return 0.5 * np.fromiter(map(math.erfc, (z * -math.sqrt(0.5)).tolist()), float, z.shape[0])


def ks_normal_distance(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance to the normal fitted to (mean, std).

    Shape-only diagnostic, not a calibrated hypothesis test.
    """
    m = x.shape[0]
    mu = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0:
        return 0.0
    cdf = _normal_cdf(np.sort((x - mu) / sd))
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m)))


def run_fluctuations(
    params: EnsembleParams,
    funcs: Sequence[spectral.TestFunction],
    replicates: int,
    seed: int,
) -> RunResult:
    """Sample X_f = tr f(A) - mean(tr f(A)) across replicates.

    Centering uses the empirical mean; for the replicate counts used here
    the induced variance bias is O(1/replicates).  Theory columns (CLT
    variances and pairwise covariances in the Chebyshev overlap form) are
    attached unless the parameters are extremal.  ParameterError for a
    replicate count that is not an integer >= 2, a seed outside the range of
    model.checked_seed or no function, before any theory is built.
    """
    t0 = time.perf_counter()
    replicates = checked_int("replicates", replicates, 2)
    seed = model.checked_seed(seed)
    funcs = list(funcs)
    if not funcs:
        raise ParameterError("need at least one test function")
    asym = derive_asymptotic(params)
    theory_sigma = None
    theory_cov = None
    nodes = 0
    if asym.extremal:
        statistic = spectral.trace_statistic(funcs, 0.5, 0.5)
    else:
        support = SupportInterval.from_shape(asym.a, asym.b)
        statistic = spectral.trace_statistic(funcs, support.center, support.half_width)
        # the theory comes before the sampling, so that a function it cannot
        # resolve is refused before any replicate is drawn
        nodes = spectral.THETA_NODES
        # twice the top polynomial degree keeps that degree's term out of the
        # last-decade tail that variance_functionals checks for decay
        degree = max((len(f.chebyshev.coeffs) - 1 for f in funcs if f.is_polynomial), default=0)
        terms = max(THEORY_N, 2 * degree)
        functionals = [spectral.variance_functionals(f, terms, params.beta, support) for f in funcs]
        theory_sigma = np.array([vf.sigma_sq for vf in functionals])
        theory_cov = spectral.limit_covariance(
            np.array([vf.coefficients for vf in functionals]), params.beta)
    raw = model.map_replicates(params, seed, replicates, statistic)
    means = raw.mean(axis=0)
    samples = raw - means
    variances = np.sum(samples**2, axis=0) / (replicates - 1)
    covariance = (samples.T @ samples) / (replicates - 1)
    skew, kurt = _shape_moments(np.ascontiguousarray(samples.T))  # one row per function
    ks = np.array([ks_normal_distance(samples[:, j]) for j in range(len(funcs))])

    return RunResult(
        function_names=[f.name for f in funcs],
        samples=samples,
        means=means,
        variances=variances,
        covariance=covariance,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_distance=ks,
        seed=seed,
        replicates=replicates,
        params=params,
        theory_sigma_sq=theory_sigma,
        theory_covariance=theory_cov,
        wall_clock_s=time.perf_counter() - t0,
        quadrature_nodes=nodes,
        extremal=asym.extremal,
    )


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
