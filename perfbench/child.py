"""Run one betajacobi CLI call in this interpreter and record what it cost.

    python3 perfbench/child.py RECORD TRACE CLI_ARG...

The parent (perfbench/run.py) starts this script once per CLI call with
PYTHONPATH pointing at the checkout's src directory.  It writes RECORD, a
JSON file with the monotonic time at which `betajacobi.cli` finished
importing, the wall and CPU seconds of `cli.dispatch`, the peak resident
memory, the exit code and the environment.  With TRACE 1 it first wraps the
public functions of each library module in spans and adds their call
counts, self times and safety-net counters to RECORD.

RECORD also holds the seconds of two fixed probes that never call the
library (`calibrate`), timed in this process just before and just after
dispatch.  The parent divides the call's times by one of them to remove the
speed of the core the call ran on, which on a shared host changes from
second to second.
"""

import sys
import time

# Nothing but sys and time is imported before the library, so the import
# stamp covers interpreter start plus the import a CLI user pays.
from betajacobi import cli

IMPORTED = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import types  # noqa: E402

# Both already imported by the library, so the probes move no import cost.
# Were either imported lazily, its import would escape setup_s and wall_s;
# the environment record shows it.
PROBE_MODULES_PRELOADED = all(m in sys.modules for m in ("numpy", "scipy.linalg"))
import numpy  # noqa: E402
from scipy.linalg import lapack  # noqa: E402

# The three moment and KS reductions of run_fluctuations form one span.
REDUCTIONS = ("skewness", "excess_kurtosis", "ks_normal_distance")


class Tracer:
    """Spans around library functions, aggregated per name in memory.

    A span's self time is its duration minus the durations of the spans
    that ran inside it.  Counters are filled from return values, so they
    describe the work without timing it.
    """

    def __init__(self):
        self.stack = []  # [name, seconds covered by child spans]
        self.spans = {}  # name -> [calls, self seconds]
        self.counters = {
            "model.beta_draws": 0,
            "eig.sturm_fallbacks": 0,
            "eig.max_residual_trace_error": 0.0,
            "spectral.undecayed": 0,
            "covariance.max_error_estimate": 0.0,
            "paths.max_residual1": 0.0,
        }

    def wrap(self, module, attr, name, observe=None):
        fn = getattr(module, attr)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                entry = self.spans.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - frame[1]
            if observe is not None:
                observe(result)
            return result

        setattr(module, attr, traced)

    def raise_to(self, key, value):
        self.counters[key] = max(self.counters[key], float(value))

    def observe_factor(self, factor):
        self.counters["model.beta_draws"] += 2 * factor.n - 1

    def observe_sturm(self, _values):
        if any(frame[0] == "eig.eigenvalues" for frame in self.stack):
            self.counters["eig.sturm_fallbacks"] += 1

    def observe_variance(self, functionals):
        if not functionals.coefficients_decayed:
            self.counters["spectral.undecayed"] += 1

    def install(self):
        # concentration is imported lazily by the CLI; only a traced call
        # imports it before dispatch, to wrap it.
        from betajacobi import (
            concentration,
            covariance,
            eig,
            experiments,
            model,
            paths,
            spectral,
        )

        observers = {
            "model.sample_factor": self.observe_factor,
            "eig.eigenvalues": lambda s: self.raise_to(
                "eig.max_residual_trace_error", s.residual_trace_error),
            "eig.sturm_eigenvalues": self.observe_sturm,
            "spectral.variance_functionals": self.observe_variance,
            "covariance.covariance_matrix": lambda c: self.raise_to(
                "covariance.max_error_estimate", c.error_estimate),
            "paths.trace_expansion": lambda t: self.raise_to(
                "paths.max_residual1", t.residual1),
        }
        for module in (experiments, model, eig, spectral, covariance, paths, concentration):
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__):
                    continue
                name = f"{short}.reductions" if attr in REDUCTIONS else f"{short}.{attr}"
                self.wrap(module, attr, name, observers.get(name))
        self.wrap(cli, "dispatch", "cli.dispatch")


# A fixed symmetric tridiagonal matrix of order 1000 for the LAPACK probe.
PROBE_DIAGONAL = numpy.random.default_rng(1).standard_normal(1000)
PROBE_OFF_DIAGONAL = numpy.random.default_rng(2).standard_normal(999)


def calibrate():
    """Seconds of two probes: interpreter and numpy work like the sampling
    code's, and LAPACK's dsterf, the eigensolver's kernel."""
    rng = numpy.random.default_rng(0)
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for _ in range(150):
        a = rng.beta(2.0, 3.0, size=2000)
        b = rng.gamma(1.5, size=2000)
        total += numpy.cumsum(numpy.sqrt(a * b))[-1]
    middle = time.perf_counter()
    for _ in range(2):
        lapack.dsterf(PROBE_DIAGONAL, PROBE_OFF_DIAGONAL)
    return {"interpreter": middle - start, "lapack": time.perf_counter() - middle}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment():
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "BETAJACOBI_THREADS": os.environ.get("BETAJACOBI_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "probe_modules_preloaded": PROBE_MODULES_PRELOADED,
        # set, the library is compiled from source at every import (setup_s)
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main(argv):
    record_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    before = calibrate()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    code = cli.dispatch(cli_argv)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    record = {
        "calibration_s": [before, calibrate()],
        "imported": IMPORTED,
        "exit": code,
        "dispatch_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
