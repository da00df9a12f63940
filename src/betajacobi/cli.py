"""Command-line front end.

One subcommand per verification family: sample, eig, spectrum, cov, fluct,
lln, expect, extremal, concentration, verify-all.  Output is JSON with a
versioned schema embedding the resolved configuration, seed, library
version, wall clock and quadrature node counts; raw samples go to CSV on
request.  Exit codes: 0 success, 1 validation error, 2 numerical failure or
failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import covariance, eig, experiments, model, paths, spectral
from ._version import __version__
from .errors import BetaJacobiError, NumericalError, ParameterError
from .params import (
    EnsembleParams,
    derive_asymptotic,
    from_ratios,
    shape_params,
    support_edges,
)

__all__ = ["main", "dispatch"]


class _UsageError(ParameterError):
    pass


def _default_threads() -> int:
    """Thread-count default, overridable through BETAJACOBI_THREADS."""
    raw = os.environ.get("BETAJACOBI_THREADS", "1")
    try:
        return max(int(raw), 1)
    except ValueError:
        raise _UsageError(f"BETAJACOBI_THREADS must be an integer, got {raw!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="betajacobi", description=__doc__)
    parser.add_argument("--config", help="JSON file with flag defaults (flags override)")
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def ensemble_flags(p, n_default=None):
        p.add_argument("--n", type=int, default=n_default)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--n1", type=float, default=None)
        p.add_argument("--n2", type=float, default=None)

    p = sub.add_parser("sample", help="sample a factor and its spectrum")
    ensemble_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-factor", dest="dump_factor", default=None,
                   help="CSV dump of raw draws and entries")

    p = sub.add_parser("eig", help="eigensolver self-checks")
    p.add_argument("--matrices", type=int, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("spectrum", help="limiting measure identities")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--nodes", type=int, default=None)

    p = sub.add_parser("cov", help="covariance diagonalization and Laplace forms")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("fluct", help="CLT fluctuation run")
    ensemble_flags(p)
    p.add_argument("--funcs", default=None, help="e.g. gamma1..gamma4,x")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--csv", default=None, help="write raw samples to this CSV")

    p = sub.add_parser("lln", help="law-of-large-numbers distances")
    p.add_argument("--regime", choices=("sublinear", "proportional", "superlinear"),
                   default=None)
    p.add_argument("--sizes", default=None, help="comma-separated n values")
    p.add_argument("--func", default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("expect", help="mean-trace deviation via exact rationals")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--beta", default=None, help="rational, e.g. 4 or 1/2")
    p.add_argument("--a", default=None, help="rational, e.g. 1/4")
    p.add_argument("--b", default=None, help="rational, e.g. 1/2")
    p.add_argument("--base-n", dest="base_n", type=int, default=None)

    p = sub.add_parser("extremal", help="p = q = 1 trace moments")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("concentration", help="Poincare and coupling checks")
    p.add_argument("--check", choices=("beta", "jacobi", "coupling"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--func", default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sizes", default=None)

    p = sub.add_parser("verify-all", help="run every verification family")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode with reduced sizes (not the stated tolerances)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    return parser


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed config file: {exc}")
    if not isinstance(data, dict):
        raise _UsageError("config file must hold a JSON object")
    # accept a previously emitted artifact by pulling out its config block
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    return data


class _Resolver:
    """Flag value if given, else config-file value, else default."""

    def __init__(self, args, cfg: dict):
        self.args = args
        self.cfg = cfg
        self.resolved: dict = {}

    def get(self, name: str, default=None, cast=None):
        val = getattr(self.args, name, None)
        if val is None or val is False:
            cfg_val = self.cfg.get(name)
            if cfg_val is not None:
                val = cfg_val
            elif val is None:
                val = default
        if cast is not None and val is not None:
            val = cast(val)
        self.resolved[name] = val
        return val


def _ensemble_from(res: _Resolver) -> EnsembleParams:
    n = res.get("n", 100, int)
    beta = res.get("beta", 2.0, float)
    n1 = res.get("n1")
    n2 = res.get("n2")
    if n1 is not None or n2 is not None:
        if n1 is None or n2 is None:
            raise _UsageError("provide both --n1 and --n2 or neither")
        return EnsembleParams(n=n, beta=beta, n1=float(n1), n2=float(n2))
    p = res.get("p", 2.0, float)
    q = res.get("q", 2.0, float)
    return from_ratios(n, beta, p, q)


def _parse_funcs(spec_str: str, params: EnsembleParams) -> list:
    """Tokens: gammaK, gammaI..gammaJ, x, xK, exp, pwl."""
    asym = derive_asymptotic(params)
    support = None if asym.extremal else support_edges(asym)
    out = []
    for token in spec_str.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            if not (lo_s.startswith("gamma") and hi_s.startswith("gamma")):
                raise _UsageError(f"bad function range {token!r}")
            lo, hi = int(lo_s[5:]), int(hi_s[5:])
            for m in range(lo, hi + 1):
                out.append(spectral.chebyshev_test_function(m, _need(support)))
        elif token.startswith("gamma"):
            out.append(spectral.chebyshev_test_function(int(token[5:]), _need(support)))
        elif token == "x":
            out.append(spectral.monomial(1))
        elif token.startswith("x^") or (token.startswith("x") and token[1:].isdigit()):
            out.append(spectral.monomial(int(token.lstrip("x^"))))
        elif token == "exp":
            out.append(spectral.exp_function())
        elif token == "pwl":
            out.append(spectral.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        else:
            raise _UsageError(f"unknown test function {token!r}")
    if not out:
        raise _UsageError("no test functions given")
    return out


def _need(support):
    if support is None:
        raise _UsageError("Chebyshev test functions need non-extremal parameters")
    return support


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _envelope(subcommand: str, res: _Resolver, results: dict, t0: float,
              node_counts: dict | None = None) -> dict:
    return {
        "schema": 1,
        "subcommand": subcommand,
        "library_version": __version__,
        "config": dict(res.resolved),
        "seed": res.resolved.get("seed"),
        "wall_clock_s": time.perf_counter() - t0,
        "node_counts": node_counts or {},
        "results": results,
    }


def _cmd_sample(res: _Resolver) -> tuple[dict, bool]:
    params = _ensemble_from(res)
    seed = res.get("seed", 0, int)
    dump = res.get("dump_factor")
    factor = model.sample_factor(params, model.replicate_stream(seed, 0))
    if dump:
        model.dump_factor_csv(factor, dump)
    spec = eig.eigenvalues(model.assemble_gram(factor))
    vals = spec.values
    results = {
        "count": int(vals.shape[0]),
        "min": float(vals[0]),
        "max": float(vals[-1]),
        "trace": float(vals.sum()),
        "residual_trace_error": spec.residual_trace_error,
    }
    if vals.shape[0] <= 64:
        results["eigenvalues"] = vals.tolist()
    return results, True


def _cmd_eig(res: _Resolver) -> tuple[dict, bool]:
    matrices = res.get("matrices", 1000, int)
    max_n = res.get("max_n", 512, int)
    seed = res.get("seed", 0, int)
    rng = np.random.default_rng(seed)
    worst_trace = worst_frob = 0.0
    for _ in range(matrices):
        n = int(rng.integers(2, max_n + 1))
        diag = rng.uniform(-1.0, 1.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        vals = eig.eigenvalues(model.SymTridiagonal(diag=diag, off=off)).values
        scale = float(np.max(np.abs(vals))) + 1e-30
        worst_trace = max(worst_trace, abs(vals.sum() - diag.sum()) / (n * scale))
        frob = float(np.sum(diag**2) + 2.0 * np.sum(off**2))
        worst_frob = max(worst_frob, abs(float(np.sum(vals**2)) - frob) / (n * scale**2))
    worst_sturm = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        diag = rng.uniform(-1.0, 1.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        a = model.SymTridiagonal(diag=diag, off=off)
        delta = eig.eigenvalues(a).values - eig.sturm_eigenvalues(diag, off)
        worst_sturm = max(worst_sturm, float(np.max(np.abs(delta))))
    ok = worst_trace <= 1e-12 and worst_frob <= 1e-12 and worst_sturm <= 1e-10
    return {
        "worst_trace_identity": worst_trace,
        "worst_frobenius_identity": worst_frob,
        "worst_sturm_gap": worst_sturm,
        "passed": ok,
    }, ok


def _cmd_spectrum(res: _Resolver) -> tuple[dict, bool]:
    a = res.get("a", 0.25, float)
    b = res.get("b", 0.5, float)
    nodes = res.get("nodes", spectral.DEFAULT_NODES, int)
    asym = shape_params(a, b, 2.0)
    support = support_edges(asym)
    mass_mu = spectral.integrate_density(spectral.monomial(0), asym, nodes=nodes)
    mass_nu = spectral.integrate_deviation(spectral.monomial(0), support, nodes=nodes)
    # independent x-space route for the edge-weight normalization 2 pi a
    arc = spectral.edge_weight_integral(support, nodes=nodes)
    probe = [support.lambda_plus + 0.25, support.lambda_plus + 1.0, -0.5]
    quad_resid = 0.0
    for x in probe:
        m0, _ = spectral.stieltjes_pair(x, asym)
        val = a * m0 * m0 + ((b - a) - (1 - 2 * a) * x) / (x * (1 - x)) * m0 + (1 - a) / (x * (1 - x))
        quad_resid = max(quad_resid, abs(val))
    resid = {}
    for n in (100, 200, 400):
        roots = spectral.jacobi_roots(n, n * (b / a - 1.0), n * ((1 - b) / a - 1.0))
        m0, m1 = spectral.stieltjes_pair(2.0, asym)
        resid[n] = abs(float(np.mean(1.0 / (2.0 - roots))) - m0 - m1 / n)
    ratios = [resid[100] / resid[200], resid[200] / resid[400]]
    ok = (
        abs(mass_mu - 1.0) <= 1e-10
        and abs(mass_nu) <= 1e-10
        and abs(arc - 2 * math.pi * a) <= 1e-8
        and quad_resid <= 1e-10
        and all(2.0 <= r <= 8.0 for r in ratios)
    )
    return {
        "density_mass": mass_mu,
        "deviation_mass": mass_nu,
        "edge_normalization": arc,
        "expected_edge_normalization": 2 * math.pi * a,
        "stieltjes_quadratic_residual": quad_resid,
        "alpha_zero_residuals": {str(k): v for k, v in resid.items()},
        "alpha_zero_residual_ratios": ratios,
        "passed": ok,
    }, ok


def _cmd_cov(res: _Resolver) -> tuple[dict, bool]:
    a = res.get("a", 0.25, float)
    b = res.get("b", 0.5, float)
    beta = res.get("beta", 2.0, float)
    K = res.get("K", 8, int)
    nodes = res.get("nodes", covariance.DEFAULT_SIGMA_NODES, int)
    verify = bool(res.get("verify", False))
    asym = shape_params(a, b, beta)
    support = support_edges(asym)
    num = covariance.covariance_matrix(K, asym, nodes=nodes)
    theo = covariance.theory_covariance(K, beta, support)
    max_gap = float(np.max(np.abs(num.entries - theo.entries)))
    grid = np.linspace(support.lambda_plus + 0.5, support.lambda_plus + 2.5, 5)
    lap_gap = bessel_gap = 0.0
    for eta in grid:
        for om in grid:
            c_form, t_form = covariance.laplace_closed(eta, om, support, beta)
            lap_gap = max(lap_gap, abs(c_form - (2.0 / beta) * t_form))
            bessel_gap = max(
                bessel_gap, abs(covariance.laplace_bessel_series(eta, om, support) - t_form)
            )
    cov40 = covariance.covariance_matrix(max(K, 40), asym, nodes=nodes)
    c_form, _ = covariance.laplace_closed(2.0, 3.0, support, beta)
    partial_gap = abs(covariance.laplace_partial_sum(40, 2.0, 3.0, cov40) - c_form)
    checks = max_gap <= 1e-8 and lap_gap <= 1e-12 and bessel_gap <= 1e-10 and partial_gap <= 1e-6
    return {
        "max_diagonalization_gap": max_gap,
        "quadrature_error_estimate": num.error_estimate,
        "laplace_identity_gap": lap_gap,
        "bessel_series_gap": bessel_gap,
        "partial_sum_gap": partial_gap,
        "passed": checks,
    }, (checks if verify else True)


def _cmd_fluct(res: _Resolver) -> tuple[dict, bool]:
    params = _ensemble_from(res)
    reps = res.get("reps", 10000, int)
    seed = res.get("seed", 0, int)
    threads = res.get("threads", _default_threads(), int)
    funcs = _parse_funcs(res.get("funcs", "gamma1..gamma4"), params)
    csv_path = res.get("csv")
    config = experiments.ExperimentConfig(
        params=params, test_functions=funcs, replicates=reps, seed=seed, threads=threads
    )
    result = experiments.run_fluctuations(config)
    if csv_path:
        result.write_samples_csv(csv_path)
    return result.to_json_dict(), True


def _cmd_lln(res: _Resolver) -> tuple[dict, bool]:
    regime = res.get("regime", "proportional")
    sizes = [int(s) for s in str(res.get("sizes", "250,500,1000,2000")).split(",")]
    func = res.get("func", "x")
    beta = res.get("beta", 2.0, float)
    p = res.get("p", 2.0, float)
    q = res.get("q", 2.0, float)
    reps = res.get("reps", 64, int)
    seed = res.get("seed", 0, int)
    f = spectral.monomial(1) if func == "x" else _parse_funcs(func, from_ratios(max(sizes), beta, p, q))[0]
    points = experiments.lln_check(regime, sizes, f, beta=beta, p=p, q=q,
                                   replicates=reps, seed=seed)
    dists = [pt.distance for pt in points]
    violations = sum(1 for i in range(len(dists) - 1) if dists[i + 1] >= dists[i])
    ok = violations <= 1
    return {
        "regime": regime,
        "points": [
            {"n": pt.n, "n1": pt.n1, "n2": pt.n2, "value": pt.value,
             "target": pt.target, "distance": pt.distance}
            for pt in points
        ],
        "monotonicity_violations": violations,
        "passed": ok,
    }, ok


def _cmd_expect(res: _Resolver) -> tuple[dict, bool]:
    k = res.get("k", 2, int)
    beta = Fraction(str(res.get("beta", "4")))
    a = Fraction(str(res.get("a", "1/4")))
    b = Fraction(str(res.get("b", "1/2")))
    base_n = res.get("base_n", 512, int)
    alpha = Fraction(2, 1) / beta
    report = experiments.deviation_check(k, alpha, a, b, (base_n, 2 * base_n, 4 * base_n))
    scale = max(abs(report.expected), 1e-12)
    ok = abs(report.order1 - report.expected) <= max(0.01 * scale, 10 * report.residual)
    return {
        "k": k,
        "alpha": str(alpha),
        "order1": report.order1,
        "expected": report.expected,
        "extrapolation_residual": report.residual,
        "passed": ok,
    }, ok


def _cmd_extremal(res: _Resolver) -> tuple[dict, bool]:
    n = res.get("n", 5000, int)
    beta = res.get("beta", 2.0, float)
    reps = res.get("reps", 20000, int)
    seed = res.get("seed", 0, int)
    m2, m4 = experiments.extremal_moments(n, beta, reps, seed)
    t2, t4 = 1.0 / (8.0 * beta), 3.0 / (64.0 * beta * beta)
    ok = abs(m2 / t2 - 1.0) <= 0.05 and abs(m4 / t4 - 1.0) <= 0.10
    return {
        "second_moment": m2,
        "fourth_moment": m4,
        "expected_second": t2,
        "expected_fourth": t4,
        "passed": ok,
    }, ok


def _cmd_concentration(res: _Resolver) -> tuple[dict, bool]:
    from . import concentration as conc

    check = res.get("check", "beta")
    if check == "beta":
        grid = (0.5, 1.0, 2.0, 8.0)
        funcs = [spectral.monomial(1), spectral.monomial(2), spectral.monomial(3)]
        worst = 0.0
        worst_eq = 0.0
        for p in grid:
            for q in grid:
                for f in funcs:
                    worst = max(worst, conc.beta_poincare_ratio(p, q, f).ratio)
                worst_eq = max(
                    worst_eq,
                    abs(conc.beta_poincare_ratio(p, q, spectral.monomial(1), weighted=True).ratio - 1.0),
                )
        ok = worst <= 1.0 + 1e-8 and worst_eq <= 1e-6
        return {"worst_ratio": worst, "worst_weighted_equality_gap": worst_eq,
                "passed": ok}, ok
    if check == "jacobi":
        n = res.get("n", 256, int)
        beta = res.get("beta", 2.0, float)
        p = res.get("p", 2.0, float)
        q = res.get("q", 2.0, float)
        reps = res.get("reps", 4000, int)
        seed = res.get("seed", 0, int)
        f = spectral.monomial(1) if res.get("func", "x") == "x" else spectral.monomial(2)
        rep = conc.jacobi_poincare_check(from_ratios(n, beta, p, q), f, reps, seed)
        ok = rep.variance + 3 * rep.variance_se < rep.bound - 3 * rep.bound_se
        return {"variance": rep.variance, "bound": rep.bound, "ratio": rep.ratio,
                "variance_se": rep.variance_se, "bound_se": rep.bound_se,
                "passed": ok}, ok
    # coupling
    p = res.get("p", 1.0, float)
    q = res.get("q", 1.0, float)
    sizes = [int(s) for s in str(res.get("sizes", "100,1000,10000")).split(",")]
    scaled = {n: n * n * conc.coupling_gap(n, p, q) for n in sizes}
    vals = list(scaled.values())
    ok = max(vals) / min(vals) <= 2.0
    return {"n_sq_gap": {str(k): v for k, v in scaled.items()},
            "band_ratio": max(vals) / min(vals), "passed": ok}, ok


def _cmd_verify_all(res: _Resolver) -> tuple[dict, bool]:
    quick = bool(res.get("quick", False))
    seed = res.get("seed", 0, int)
    threads = res.get("threads", _default_threads(), int)
    families: list[tuple[str, dict, bool]] = []

    def run(name: str, fn, resolver_vals: dict):
        sub = _Resolver(argparse.Namespace(), resolver_vals)
        report, ok = fn(sub)
        families.append((name, report, ok))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    # combinatorial identities
    comb_ok = True
    for k in range(1, 9):
        bridges = paths.enumerate_bridges(k)
        comb_ok &= len(bridges) == math.comb(2 * k, k)
        counts = {}
        for br in bridges:
            counts[br.horizontal_count()] = counts.get(br.horizontal_count(), 0) + 1
        poly = paths.weight_polynomial(k)
        comb_ok &= all(counts.get(2 * l, 0) == poly.coeffs[l] for l in range(k + 1))
    families.append(("bridge-combinatorics", {"passed": comb_ok}, comb_ok))
    print(f"[{'PASS' if comb_ok else 'FAIL'}] bridge-combinatorics")

    run("eigensolver", _cmd_eig,
        {"matrices": 100 if quick else 1000, "max_n": 128 if quick else 512, "seed": seed})
    run("spectrum", _cmd_spectrum, {})
    run("covariance", _cmd_cov, {"verify": True})
    run("deviation", _cmd_expect,
        {"k": 2, "beta": "4", "a": "1/4", "b": "1/2", "base_n": 128 if quick else 512})
    run("concentration-beta", _cmd_concentration, {"check": "beta"})
    run("concentration-jacobi", _cmd_concentration,
        {"check": "jacobi", "reps": 500 if quick else 4000, "seed": seed})
    run("concentration-coupling", _cmd_concentration,
        {"check": "coupling", "sizes": "100,1000" if quick else "100,1000,10000"})
    run("lln", _cmd_lln, {"reps": 16 if quick else 64, "seed": seed,
                          "sizes": "125,250,500" if quick else "250,500,1000,2000"})

    gaps = {}
    for n in (128, 512, 2048):
        gaps[n] = experiments.trotter_gap(from_ratios(n, 2.0, 2.0, 2.0),
                                          10 if quick else 50, seed)
    ratios = [gaps[n] / math.log(n) for n in gaps]
    trotter_ok = max(ratios) / min(ratios) <= 4.0
    families.append(("trotter", {"gap_over_log_n": ratios, "passed": trotter_ok}, trotter_ok))
    print(f"[{'PASS' if trotter_ok else 'FAIL'}] trotter")

    fluct_ok = True
    fl_report = {}
    for beta in ((2.0,) if quick else (1.0, 2.0, 4.0)):
        sub = _Resolver(argparse.Namespace(), {
            "n": 500 if quick else 2000, "beta": beta, "p": 2.0, "q": 2.0,
            "funcs": "gamma1..gamma4,x", "reps": 2000 if quick else 10000,
            "seed": seed, "threads": threads,
        })
        rep, _ = _cmd_fluct(sub)
        ratio = np.asarray(rep["variances"]) / np.asarray(rep["theory_sigma_sq"])
        ok_b = bool(np.all(np.abs(ratio - 1.0) <= 0.05))
        fl_report[str(beta)] = {"variance_ratios": ratio.tolist(), "passed": ok_b}
        fluct_ok &= ok_b
    families.append(("fluctuations", fl_report, fluct_ok))
    print(f"[{'PASS' if fluct_ok else 'FAIL'}] fluctuations")

    run("extremal", _cmd_extremal,
        {"n": 1000 if quick else 5000, "reps": 2000 if quick else 20000, "seed": seed})

    all_ok = all(ok for _, _, ok in families)
    return {
        "quick": quick,
        "families": {name: report for name, report, _ in families},
        "passed": all_ok,
    }, all_ok


_HANDLERS = {
    "sample": _cmd_sample,
    "eig": _cmd_eig,
    "spectrum": _cmd_spectrum,
    "cov": _cmd_cov,
    "fluct": _cmd_fluct,
    "lln": _cmd_lln,
    "expect": _cmd_expect,
    "extremal": _cmd_extremal,
    "concentration": _cmd_concentration,
    "verify-all": _cmd_verify_all,
}


def dispatch(argv=None) -> int:
    """Parse argv, run exactly one subcommand, emit the JSON report.

    Exit codes: 0 success, 1 validation error, 2 numerical failure or a
    verification that did not meet its threshold.
    """
    t0 = time.perf_counter()
    parser = _build_parser()
    out = None
    try:
        args = parser.parse_args(argv)
        out = args.out
        cfg = _load_config(args.config) if args.config else {}
        res = _Resolver(args, cfg)
        handler = _HANDLERS[args.subcommand]
        results, ok = handler(res)
        node_counts = {
            k: v for k, v in res.resolved.items() if k in ("nodes",) and v is not None
        }
        report = _envelope(args.subcommand, res, results, t0, node_counts)
        _emit(report, out)
        return 0 if ok else 2
    except _UsageError as exc:
        _emit({"schema": 1, "error": {"type": "usage", "message": str(exc)}}, out)
        return 1
    except ParameterError as exc:
        _emit({"schema": 1, "error": {"type": "validation", "message": str(exc)}}, out)
        return 1
    except (NumericalError, BetaJacobiError) as exc:
        _emit({"schema": 1, "error": {"type": "numerical", "message": str(exc)}}, out)
        return 2


def main() -> None:
    sys.exit(dispatch())
