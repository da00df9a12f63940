"""Command-line front end.

One subcommand per verification family: sample, eig, spectrum, cov, fluct,
lln, expect, extremal, concentration, verify-all.  The check subcommands
and verify-all run entries of the check registry (betajacobi.checks) at the
inputs their flags give; this module only parses, reports usage errors and
emits.  A subcommand's value is the default its flag declares, then the
--config file's entry, then the flag.  A config entry goes through the same
subparser as the flag, so it passes the same type and choice checks, and a
bad one is a usage error that names its key; keys the subcommand does not
declare are ignored.  Output is JSON with a versioned schema embedding the
resolved configuration, seed, library version and wall clock; raw samples
go to CSV on request.  Exit codes: 0 success, 1 validation error, output
file that cannot be written or stdout closed early, 2 numerical failure or
failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import checks, experiments, model, spectral
from ._version import __version__
from .errors import BetaJacobiError, NumericalError, ParameterError
from .params import EnsembleParams, derive_asymptotic, from_ratios, support_edges

__all__ = ["main", "dispatch"]


class _UsageError(ParameterError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


def _rational(text: str) -> float:
    """A positive rational such as 4 or 1/2, as a float."""
    try:
        value = Fraction(str(text))
        as_float = float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"must be a float-sized rational such as 4 or 1/2, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return as_float


_KINDS = {"int": int, "float": float, "str": str, "rational": _rational}
_ENSEMBLE = "n:int=100 beta:float=2 p:float=2 q:float=2 n1:float n2:float seed:int=0"


# Each subcommand: its help line, its flags as "dest:kind" or "dest:kind=default"
# (the default written as the flag's text; kind switch is a store_true flag),
# then the flags that need more keywords, in the order they are declared.
_SUBCOMMANDS = {
    "sample": ("sample a factor and its spectrum", _ENSEMBLE,
               {"--dump-factor": {"help": "CSV dump of raw draws and entries"}}),
    "eig": ("eigensolver self-checks", "matrices:int=1000 max_n:int=512 seed:int=0", {}),
    "spectrum": ("limiting measure identities", "a:float=0.25 b:float=0.5", {}),
    "cov": ("covariance diagonalization and Laplace forms",
            "a:float=0.25 b:float=0.5 beta:float=2 K:int=8 verify:switch", {}),
    "fluct": ("CLT fluctuation run", _ENSEMBLE + " reps:int=10000",
              {"--funcs": {"default": "gamma1..gamma4", "help": "e.g. gamma1..gamma4,x"},
               "--csv": {"help": "write raw samples to this CSV"}}),
    "lln": ("law-of-large-numbers distances",
            "func:str=x beta:float=2 p:float=2 q:float=2 reps:int=64 seed:int=0",
            # the regimes that criterion 16 runs at its full inputs: all of them
            {"--regime": {"default": "proportional",
                          "choices": checks.CHECKS["lln"].full["regimes"]},
             "--sizes": {"default": "250,500,1000,2000", "help": "comma-separated n values"}}),
    "expect": ("mean-trace deviation of x^k, 1 <= k <= 12, via a float chain sum",
               "k:int=2 base_n:int=512 beta:rational=4 a:rational=1/4 b:rational=1/2", {}),
    "extremal": ("p = q = 1 trace moments",
                 "n:int=5000 beta:float=2 reps:int=20000 seed:int=0", {}),
    # --p and --q default to 2 for --check jacobi and to 1 for coupling
    "concentration": ("Poincare and coupling checks",
                      "n:int=256 beta:float=2 p:float q:float func:str=x reps:int=4000 "
                      "seed:int=0 sizes:str=100,1000,10000",
                      {"--check": {"default": "beta", "choices": ("beta", "jacobi", "coupling")}}),
    "verify-all": ("run every acceptance check", "seed:int",
                   {"--quick": {"action": "store_true", "help": "reduced inputs; standard-error "
                                "gates widen to the replicate count"}}),
}


def _build_parser() -> _Parser:
    """--config, --out, then the subcommand and every token after it, which
    _resolve parses with that subcommand's parser alone."""
    parser = _Parser(prog="betajacobi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter,
                     epilog="subcommands:\n" + "\n".join(
                         f"  {name:<15} {spec[0]}" for name, spec in _SUBCOMMANDS.items()))
    parser.add_argument("--config", help="JSON file with flag values (flags override)")
    parser.add_argument("--out", help="write the JSON report to this path")
    parser.add_argument("subcommand", nargs=argparse.PARSER, choices=_SUBCOMMANDS,
                        help="a subcommand below, then its flags (betajacobi SUBCOMMAND -h)")
    return parser


def _subparser(name: str) -> _Parser:
    """The parser of one subcommand's flags, as _SUBCOMMANDS declares them."""
    _, flags, extra = _SUBCOMMANDS[name]
    p = _Parser(prog=f"betajacobi {name}")
    for item in flags.split():
        spec, _, default = item.partition("=")
        dest, kind = spec.split(":")
        flag = "--" + dest.replace("_", "-")
        if kind == "switch":
            p.add_argument(flag, dest=dest, action="store_true")
        else:
            p.add_argument(flag, dest=dest, type=_KINDS[kind],
                           default=_KINDS[kind](default) if default else None)
    for flag, keywords in extra.items():
        p.add_argument(flag, **keywords)
    return p


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


def _config_tokens(action: argparse.Action, value) -> list:
    """The command-line form of one config entry.

    A switch takes true or false, a text flag a string, and any other flag a
    number or a string, which is then parsed as the flag's text would be.
    """
    flag = action.option_strings[0]
    if action.nargs == 0:
        if isinstance(value, bool):
            return [flag] if value else []
    elif isinstance(value, str) or (action.type not in (None, str)
                                    and isinstance(value, (int, float))
                                    and not isinstance(value, bool)):
        return [f"{flag}={value}"]
    raise _UsageError(f"{value!r} is not a value of {flag}")


def _resolve(args: argparse.Namespace) -> tuple[str, dict]:
    """The subcommand and its values: each is its declared default, then the
    config file's entry, then the flag."""
    name, *tokens = args.subcommand
    cfg = _load_config(args.config) if args.config else {}
    sub = _subparser(name)
    values = sub.parse_args([])
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    for key, value in cfg.items():
        if key in flags and value is not None:  # null stands for the declared default
            try:
                sub.parse_args(_config_tokens(flags[key], value), values)
            except _UsageError as exc:
                raise _UsageError(f"config key {key!r}: {exc}")
    return name, vars(sub.parse_args(tokens, values))


def _ensemble_from(v: dict) -> EnsembleParams:
    if v["n1"] is None and v["n2"] is None:
        return from_ratios(v["n"], v["beta"], v["p"], v["q"])
    if v["n1"] is None or v["n2"] is None:
        raise _UsageError("provide both --n1 and --n2 or neither")
    return EnsembleParams(n=v["n"], beta=v["beta"], n1=v["n1"], n2=v["n2"])


_EXTREMAL = "Chebyshev test functions need non-extremal parameters"
# Top order of a gammaK or xK token: the 2K terms of its theory series stay
# below the panels of the theory grid.  It is checked before any form is
# built, as a range gammaI..gammaJ builds J forms at O(J) each.
_MAX_ORDER = spectral.THETA_NODES // 2 - 1


def _parse_funcs(spec_str: str, params, no_support: str = _EXTREMAL) -> list:
    """Tokens: gammaK, gammaI..gammaJ (I <= J), x, xK, exp, pwl.

    gammaK lives on the support of params; without params, or with extremal
    ones, a gammaK token is a usage error that says no_support.  An order
    above _MAX_ORDER is a ParameterError.
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


def _order(digits: str, token: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise _UsageError(f"bad order in test function {token!r}")
    # the length first: int() refuses a string of more than 4300 digits
    if len(digits.lstrip("0")) > len(str(_MAX_ORDER)) or int(digits) > _MAX_ORDER:
        raise ParameterError(f"the order of {token!r} is above {_MAX_ORDER}: its theory series "
                             f"would alias on the {spectral.THETA_NODES} quadrature panels")
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


def _envelope(subcommand: str, values: dict, results: dict, t0: float) -> dict:
    return {
        "schema": 1,
        "subcommand": subcommand,
        "library_version": __version__,
        "config": values,
        "seed": values.get("seed"),
        "wall_clock_s": time.perf_counter() - t0,
        "results": results,
    }


def _error(kind: str, message: str) -> dict:
    return {"schema": 1, "error": {"type": kind, "message": message}}


def _cmd_sample(v: dict) -> tuple[dict, bool]:
    return experiments.sample_summary(_ensemble_from(v), v["seed"], v["dump_factor"]), True


def _run(name: str, inputs=None, seed=None) -> checks.Outcome:
    return checks.run(checks.CHECKS[name], inputs, seed)


def _verdict(*outcomes) -> tuple[dict, bool]:
    results = checks.report(outcomes)
    return results, results["passed"]


def _cmd_eig(v: dict) -> tuple[dict, bool]:
    return _verdict(_run("eigensolver", {"matrices": v["matrices"], "max_n": v["max_n"]}, v["seed"]))


def _cmd_spectrum(v: dict) -> tuple[dict, bool]:
    shape = {"a": v["a"], "b": v["b"]}
    return _verdict(_run("alpha-zero-model", shape), _run("limit-measures", shape))


def _cmd_cov(v: dict) -> tuple[dict, bool]:
    shape = {"a": v["a"], "b": v["b"]}
    results, ok = _verdict(
        _run("covariance-diagonalization", {**shape, "betas": (v["beta"],), "K": v["K"]}),
        _run("laplace-certification", {**shape, "beta": v["beta"]}))
    return results, (ok if v["verify"] else True)


def _cmd_fluct(v: dict) -> tuple[dict, bool]:
    params = _ensemble_from(v)
    result = experiments.run_fluctuations(params, _parse_funcs(v["funcs"], params), v["reps"],
                                          v["seed"])
    if v["csv"]:
        result.write_samples_csv(v["csv"])
    return result.to_json_dict(), True


def _cmd_lln(v: dict) -> tuple[dict, bool]:
    regime, sizes = v["regime"], _parse_sizes(v["sizes"])
    # --p and --q shape only the proportional schedule, the one regime with a support for gammaK
    if regime == "proportional":
        f = _parse_func(v["func"], from_ratios(max(sizes), v["beta"], v["p"], v["q"]))
    else:
        f = _parse_func(v["func"], None,
                        f"gammaK test functions need --regime proportional, not {regime!r}")
    return _verdict(_run("lln", {"regimes": (regime,), "sizes": sizes, "func": f,
                                 "beta": v["beta"], "p": v["p"], "q": v["q"],
                                 "reps": v["reps"]}, v["seed"]))


def _cmd_expect(v: dict) -> tuple[dict, bool]:
    return _verdict(_run("deviation", {"a": v["a"], "b": v["b"],
                                       "cases": ((v["k"], v["beta"], v["base_n"]),)}))


def _cmd_extremal(v: dict) -> tuple[dict, bool]:
    return _verdict(_run("extremal-moments", {"n": v["n"], "beta": v["beta"], "reps": v["reps"]},
                         v["seed"]))


def _cmd_concentration(v: dict) -> tuple[dict, bool]:
    if v["check"] == "beta":
        return _verdict(_run("beta-poincare"))
    for side in ("p", "q"):  # the run's value goes into the config block
        if v[side] is None:
            v[side] = 2.0 if v["check"] == "jacobi" else 1.0
    if v["check"] == "jacobi":
        f = _parse_func(v["func"], from_ratios(v["n"], v["beta"], v["p"], v["q"]))
        return _verdict(_run("jacobi-poincare", {"sizes": (v["n"],), "beta": v["beta"],
                                                 "p": v["p"], "q": v["q"], "func": f,
                                                 "reps": v["reps"]}, v["seed"]))
    return _verdict(_run("coupling", {"sizes": _parse_sizes(v["sizes"]), "p": v["p"], "q": v["q"]}))


def _cmd_verify_all(v: dict) -> tuple[dict, bool]:
    """Every registry entry, at its quick or full inputs; --seed replaces each entry's seed."""
    if v["seed"] is not None:
        model.checked_seed(v["seed"])
    reports = {}
    for check in checks.REGISTRY:
        outcome = checks.run(check, check.inputs(v["quick"]), v["seed"])
        print(outcome.line(), flush=True)
        reports[check.id] = checks.report([outcome])
    ok = all(r["passed"] for r in reports.values())
    return {"quick": v["quick"], "checks": reports, "passed": ok}, ok


_HANDLERS = {
    "sample": _cmd_sample, "eig": _cmd_eig, "spectrum": _cmd_spectrum, "cov": _cmd_cov,
    "fluct": _cmd_fluct, "lln": _cmd_lln, "expect": _cmd_expect, "extremal": _cmd_extremal,
    "concentration": _cmd_concentration, "verify-all": _cmd_verify_all,
}


def dispatch(argv=None) -> int:
    """Parse argv, run exactly one subcommand, emit the JSON report.

    Exit codes: 0 success, 1 validation error or an output file that cannot
    be written, 2 numerical failure or a verification that did not meet its
    threshold.
    """
    t0 = time.perf_counter()
    out = None
    try:
        args = _build_parser().parse_args(argv)
        out = args.out
        name, values = _resolve(args)
        results, ok = _HANDLERS[name](values)
        report, code = _envelope(name, values, results, t0), (0 if ok else 2)
    except _UsageError as exc:
        report, code = _error("usage", str(exc)), 1
    except ParameterError as exc:
        report, code = _error("validation", str(exc)), 1
    except (NumericalError, BetaJacobiError) as exc:
        report, code = _error("numerical", str(exc)), 2
    except OSError as exc:
        if exc.filename is None:  # stdout closed early, not an output file
            raise
        report, code = _error("usage", f"cannot write {exc.filename}: {exc.strerror}"), 1
    try:
        _emit(report, out)
    except OSError as exc:
        if out is None:
            raise
        _emit(_error("usage", f"cannot write {exc.filename}: {exc.strerror}"), None)
        return 1
    return code


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
