"""Command-line front end.

One subcommand per verification family: sample, eig, spectrum, cov, fluct,
lln, expect, extremal, concentration, verify-all.  The check subcommands
and verify-all run entries of the check registry (betajacobi.checks) at the
inputs their flags give; this module only parses, reports usage errors and
emits.  Output is JSON with a versioned schema embedding the resolved
configuration, seed, library version, wall clock and quadrature node
counts; raw samples go to CSV on request.  Exit codes: 0 success, 1
validation error or stdout closed early, 2 numerical failure or failed
verification.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import checks, covariance, experiments, model, spectral
from ._version import __version__
from .errors import BetaJacobiError, NumericalError, ParameterError
from .params import EnsembleParams, derive_asymptotic, from_ratios, support_edges

__all__ = ["main", "dispatch"]


class _UsageError(ParameterError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


_KINDS = {"int": int, "float": float, "str": str}
_ENSEMBLE = "n:int beta:float p:float q:float n1:float n2:float"


def _build_parser() -> _Parser:
    parser = _Parser(prog="betajacobi", description=__doc__)
    parser.add_argument("--config", help="JSON file with flag defaults (flags override)")
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, flags: str = "") -> argparse.ArgumentParser:
        """A subcommand with flags given as "dest:kind ..."; --max-n for max_n."""
        p = sub.add_parser(name, help=help_text)
        for item in flags.split():
            dest, kind = item.split(":")
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=_KINDS[kind])
        return p

    p = add("sample", "sample a factor and its spectrum", _ENSEMBLE + " seed:int")
    p.add_argument("--dump-factor", dest="dump_factor", help="CSV dump of raw draws and entries")
    add("eig", "eigensolver self-checks", "matrices:int max_n:int seed:int")
    add("spectrum", "limiting measure identities", "a:float b:float nodes:int")
    p = add("cov", "covariance diagonalization and Laplace forms",
            "a:float b:float beta:float K:int nodes:int")
    p.add_argument("--verify", action="store_true")
    p = add("fluct", "CLT fluctuation run", _ENSEMBLE + " reps:int seed:int")
    p.add_argument("--funcs", help="e.g. gamma1..gamma4,x")
    p.add_argument("--csv", help="write raw samples to this CSV")
    p = add("lln", "law-of-large-numbers distances",
            "func:str beta:float p:float q:float reps:int seed:int")
    p.add_argument("--regime", choices=("sublinear", "proportional", "superlinear"))
    p.add_argument("--sizes", help="comma-separated n values")
    p = add("expect", "mean-trace deviation of x^k, 1 <= k <= 8, via float bridge sums",
            "k:int base_n:int")
    p.add_argument("--beta", help="rational, e.g. 4 or 1/2")
    p.add_argument("--a", help="rational, e.g. 1/4")
    p.add_argument("--b", help="rational, e.g. 1/2")
    add("extremal", "p = q = 1 trace moments", "n:int beta:float reps:int seed:int")
    p = add("concentration", "Poincare and coupling checks",
            "n:int beta:float p:float q:float func:str reps:int seed:int sizes:str")
    p.add_argument("--check", choices=("beta", "jacobi", "coupling"))
    p = add("verify-all", "run every acceptance check", "seed:int")
    p.add_argument("--quick", action="store_true",
                   help="reduced inputs; standard-error gates widen to the replicate count")
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
            try:
                val = cast(val)
            except (TypeError, ValueError, OverflowError):
                raise _UsageError(f"bad value for {name!r}: {val!r}")
        self.resolved[name] = val
        return val


def _text(value) -> str:
    """Cast for string-valued keys: a config file may not give a number or a list."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _ensemble_from(res: _Resolver) -> EnsembleParams:
    n = res.get("n", 100, int)
    beta = res.get("beta", 2.0, float)
    n1 = res.get("n1", None, float)
    n2 = res.get("n2", None, float)
    if n1 is not None or n2 is not None:
        if n1 is None or n2 is None:
            raise _UsageError("provide both --n1 and --n2 or neither")
        return EnsembleParams(n=n, beta=beta, n1=n1, n2=n2)
    p = res.get("p", 2.0, float)
    q = res.get("q", 2.0, float)
    return from_ratios(n, beta, p, q)


_EXTREMAL = "Chebyshev test functions need non-extremal parameters"


def _parse_funcs(spec_str: str, params, no_support: str = _EXTREMAL) -> list:
    """Tokens: gammaK, gammaI..gammaJ (I <= J), x, xK, exp, pwl.

    gammaK lives on the support of params; without params, or with extremal
    ones, a gammaK token is a usage error that says no_support.
    """
    asym = None if params is None else derive_asymptotic(params)
    support = None if asym is None or asym.extremal else support_edges(asym)
    out = []
    for token in spec_str.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            if not (lo_s.startswith("gamma") and hi_s.startswith("gamma")):
                raise _UsageError(f"bad function range {token!r}")
            lo, hi = _order(lo_s[5:], token), _order(hi_s[5:], token)
            if lo > hi:
                raise _UsageError(f"reversed function range {token!r}")
            for m in range(lo, hi + 1):
                out.append(spectral.chebyshev_test_function(m, _need(support, no_support)))
        elif token.startswith("gamma"):
            out.append(spectral.chebyshev_test_function(_order(token[5:], token),
                                                        _need(support, no_support)))
        elif token == "x":
            out.append(spectral.monomial(1))
        elif token.startswith("x^"):
            out.append(spectral.monomial(_order(token[2:], token)))
        elif token.startswith("x") and token[1:].isdigit():
            out.append(spectral.monomial(_order(token[1:], token)))
        elif token == "exp":
            out.append(spectral.exp_function())
        elif token == "pwl":
            out.append(spectral.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        else:
            raise _UsageError(f"unknown test function {token!r}")
    if not out:
        raise _UsageError("no test functions given")
    return out


def _parse_func(spec_str: str, params, no_support: str = _EXTREMAL) -> spectral.TestFunction:
    """Exactly one test function, in the syntax of _parse_funcs."""
    funcs = _parse_funcs(spec_str, params, no_support)
    if len(funcs) != 1:
        raise _UsageError(f"expected one test function, got {spec_str!r}")
    return funcs[0]


def _parse_sizes(spec) -> list:
    """Comma-separated matrix sizes, e.g. 100,1000."""
    try:
        return [int(s) for s in str(spec).split(",")]
    except ValueError:
        raise _UsageError(f"sizes must be comma-separated integers, got {spec!r}")


def _parse_rational(text, flag: str) -> float:
    """A positive rational such as 4 or 1/2, as a float."""
    try:
        value = Fraction(str(text))
        as_float = float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise _UsageError(f"{flag} must be a float-sized rational such as 4 or 1/2, got {text!r}")
    if value <= 0:
        raise _UsageError(f"{flag} must be positive, got {text!r}")
    return as_float


def _order(digits: str, token: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise _UsageError(f"bad order in test function {token!r}")
    return int(digits)


def _need(support, no_support: str):
    if support is None:
        raise _UsageError(no_support)
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
    return experiments.sample_summary(params, seed, res.get("dump_factor", None, _text)), True


def _run(name: str, inputs=None, seed=None) -> checks.Outcome:
    return checks.run(checks.CHECKS[name], inputs, seed)


def _verdict(*outcomes) -> tuple[dict, bool]:
    results = checks.report(outcomes)
    return results, results["passed"]


def _cmd_eig(res: _Resolver) -> tuple[dict, bool]:
    matrices = res.get("matrices", 1000, int)
    max_n = res.get("max_n", 512, int)
    seed = res.get("seed", 0, int)
    if matrices < 1:
        raise _UsageError(f"--matrices must be at least 1, got {matrices}")
    if max_n < 2:
        raise _UsageError(f"--max-n must be at least 2, got {max_n}")
    return _verdict(_run("eigensolver", {"matrices": matrices, "max_n": max_n}, seed))


def _cmd_spectrum(res: _Resolver) -> tuple[dict, bool]:
    a = res.get("a", 0.25, float)
    b = res.get("b", 0.5, float)
    nodes = res.get("nodes", spectral.DEFAULT_NODES, int)
    return _verdict(_run("alpha-zero-model", {"a": a, "b": b}),
                    _run("limit-measures", {"a": a, "b": b, "nodes": nodes}))


def _cmd_cov(res: _Resolver) -> tuple[dict, bool]:
    a = res.get("a", 0.25, float)
    b = res.get("b", 0.5, float)
    beta = res.get("beta", 2.0, float)
    K = res.get("K", 8, int)
    nodes = res.get("nodes", covariance.DEFAULT_SIGMA_NODES, int)
    verify = bool(res.get("verify", False))
    results, ok = _verdict(
        _run("covariance-diagonalization", {"a": a, "b": b, "betas": (beta,), "K": K,
                                            "nodes": nodes}),
        _run("laplace-certification", {"a": a, "b": b, "beta": beta, "nodes": nodes}))
    return results, (ok if verify else True)


def _cmd_fluct(res: _Resolver) -> tuple[dict, bool]:
    params = _ensemble_from(res)
    reps = res.get("reps", 10000, int)
    seed = res.get("seed", 0, int)
    funcs = _parse_funcs(res.get("funcs", "gamma1..gamma4", _text), params)
    csv_path = res.get("csv", None, _text)
    config = experiments.ExperimentConfig(
        params=params, test_functions=funcs, replicates=reps, seed=seed
    )
    result = experiments.run_fluctuations(config)
    if csv_path:
        result.write_samples_csv(csv_path)
    return result.to_json_dict(), True


def _cmd_lln(res: _Resolver) -> tuple[dict, bool]:
    regime = res.get("regime", "proportional", _text)
    sizes = _parse_sizes(res.get("sizes", "250,500,1000,2000"))
    func = res.get("func", "x", _text)
    beta = res.get("beta", 2.0, float)
    p = res.get("p", 2.0, float)
    q = res.get("q", 2.0, float)
    reps = res.get("reps", 64, int)
    seed = res.get("seed", 0, int)
    # --p and --q shape only the proportional schedule, the one regime with a support for gammaK
    if regime == "proportional":
        f = _parse_func(func, from_ratios(max(sizes), beta, p, q))
    else:
        f = _parse_func(func, None,
                        f"gammaK test functions need --regime proportional, not {regime!r}")
    return _verdict(_run("lln", {"regimes": (regime,), "sizes": sizes, "func": f, "beta": beta,
                                 "p": p, "q": q, "reps": reps}, seed))


def _cmd_expect(res: _Resolver) -> tuple[dict, bool]:
    k = res.get("k", 2, int)
    beta = _parse_rational(res.get("beta", "4"), "--beta")
    a = _parse_rational(res.get("a", "1/4"), "--a")
    b = _parse_rational(res.get("b", "1/2"), "--b")
    base_n = res.get("base_n", 512, int)
    return _verdict(_run("deviation", {"a": a, "b": b, "cases": ((k, beta, base_n),)}))


def _cmd_extremal(res: _Resolver) -> tuple[dict, bool]:
    n = res.get("n", 5000, int)
    beta = res.get("beta", 2.0, float)
    reps = res.get("reps", 20000, int)
    seed = res.get("seed", 0, int)
    return _verdict(_run("extremal-moments", {"n": n, "beta": beta, "reps": reps}, seed))


def _cmd_concentration(res: _Resolver) -> tuple[dict, bool]:
    check = res.get("check", "beta", _text)
    if check == "beta":
        return _verdict(_run("beta-poincare"))
    if check == "jacobi":
        n = res.get("n", 256, int)
        beta = res.get("beta", 2.0, float)
        p = res.get("p", 2.0, float)
        q = res.get("q", 2.0, float)
        reps = res.get("reps", 4000, int)
        seed = res.get("seed", 0, int)
        f = _parse_func(res.get("func", "x", _text), from_ratios(n, beta, p, q))
        return _verdict(_run("jacobi-poincare", {"sizes": (n,), "beta": beta, "p": p, "q": q,
                                                 "func": f, "reps": reps}, seed))
    # coupling
    p = res.get("p", 1.0, float)
    q = res.get("q", 1.0, float)
    sizes = _parse_sizes(res.get("sizes", "100,1000,10000"))
    if len(set(sizes)) < 2:
        raise _UsageError(f"the coupling scaling check needs at least two distinct sizes, got {sizes}")
    return _verdict(_run("coupling", {"sizes": sizes, "p": p, "q": q}))


def _cmd_verify_all(res: _Resolver) -> tuple[dict, bool]:
    """Every registry entry, at its quick or full inputs; --seed replaces each entry's seed."""
    quick = bool(res.get("quick", False))
    seed = res.get("seed", None, int)
    if seed is not None:
        model.checked_seed(seed)
    reports = {}
    for check in checks.REGISTRY:
        outcome = checks.run(check, check.inputs(quick), seed)
        print(outcome.line(), flush=True)
        reports[check.id] = checks.report([outcome])
    ok = all(r["passed"] for r in reports.values())
    return {"quick": quick, "checks": reports, "passed": ok}, ok


_HANDLERS = {
    "sample": _cmd_sample, "eig": _cmd_eig, "spectrum": _cmd_spectrum, "cov": _cmd_cov,
    "fluct": _cmd_fluct, "lln": _cmd_lln, "expect": _cmd_expect, "extremal": _cmd_extremal,
    "concentration": _cmd_concentration, "verify-all": _cmd_verify_all,
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
        node_counts = {"nodes": res.resolved["nodes"]} if res.resolved.get("nodes") else {}
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
    """dispatch as a program; a reader that closes stdout early ends it with exit code 1."""
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # whatever is still buffered goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
