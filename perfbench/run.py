"""Benchmark of the betajacobi command line.

    python3 perfbench/run.py --workload clt-banded --seed 1 --seconds 30 --trace 0

A workload is a fixed list of CLI calls (a pass).  A run repeats the pass
with the same seed for --seconds, and at least twice.  Every call runs
`betajacobi.cli.dispatch` in a fresh interpreter (perfbench/child.py), one
at a time, at the default worker count: per-process caches are paid inside
wall_s and the import inside setup_s, as a CLI user pays them.  Times are
scaled to the speed of an idle core by a probe timed in the same process
(see REFERENCE_PROBE_S).

Every call is checked: exit code 0, `passed` true wherever the report has
it, and for `fluct` the variance/theory ratio of each smooth function
within a bound that shrinks as 1/sqrt(replicates).  Every pass must give
the same digest of its numeric results.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json.  With --trace 1 the run alternates untraced and traced
passes, requires their digests to agree, and reports the per_layer
metrics.  The line before it records the environment and the digest.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# Subcommands whose parser accepts --seed; the benchmark seed goes to each.
SEEDED = frozenset({"sample", "eig", "fluct", "lln", "extremal", "concentration", "verify-all"})
# Allowed |variance/theory - 1| in standard errors of a sample variance.
RATIO_Z = 5.0
# Every call must end before this many seconds into the run.
HARD_LIMIT_S = 165.0
# Seconds of each probe of child.py's `calibrate` on an idle core of the
# 2-core host the benchmark was defined on.  Each call's times are multiplied
# by this over the mean of the probe in that call's process, before and after
# dispatch, so every reported time is in seconds at that reference speed.  On
# a shared host the raw times of one call move by half from second to second
# with the load beside it; a probe on the same core a moment before and after
# moves with them, if it does the same kind of work.  Fitted over a few
# minutes of calls, the log of the call time against the log of the probe
# time has slope 0.9 to 1.2 for the sampling code against "interpreter" and
# for sterf against "lapack", 0.8 for theory-quick's leggauss(4096) against
# "lapack", and only 0.3 for sterf against "interpreter".
REFERENCE_PROBE_S = {"interpreter": 0.055, "lapack": 0.040}


@dataclass(frozen=True)
class Workload:
    calls: tuple
    # Monte Carlo replicates per pass; a pass without any counts as one.
    replicates: int
    # The probe that scales dispatch times (see REFERENCE_PROBE_S).
    # Set-up times, the import, are always scaled by "interpreter".
    probe: str = "interpreter"


WORKLOADS = {
    "clt-banded": Workload((
        ("fluct", "--n", "2000", "--beta", "2", "--p", "2", "--q", "2",
         "--funcs", "gamma1..gamma4,x", "--reps", "1000"),
    ), 1000),
    "clt-eig": Workload((
        ("fluct", "--n", "1000", "--beta", "1", "--p", "2", "--q", "2",
         "--funcs", "exp,pwl,x", "--reps", "100"),
    ), 100, probe="lapack"),
    "clt-small": Workload((
        ("fluct", "--n", "64", "--beta", "2", "--p", "2", "--q", "2",
         "--funcs", "gamma1..gamma2,x", "--reps", "5000"),
    ), 5000),
    # Nine tenths of it is numpy's leggauss(4096), a dense eigensolve.
    "theory-quick": Workload((
        ("spectrum",),
        ("eig", "--matrices", "100", "--max-n", "128"),
        ("cov", "--verify"),
        ("expect", "--k", "2", "--beta", "4", "--a", "1/4", "--b", "1/2", "--base-n", "128"),
        ("concentration", "--check", "beta"),
        ("concentration", "--check", "coupling", "--sizes", "100,1000"),
    ), 1, probe="lapack"),
}


@dataclass
class Pass:
    traced: bool
    probe: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setups: list = field(default_factory=list)
    # The same times before calibration, and the calibration factors.
    raw_wall_s: float = 0.0
    raw_setups: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    results: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    environment: Optional[dict] = None
    timed_out: bool = False

    def digest(self) -> str:
        text = json.dumps([_numbers(r) for r in self.results])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def add(self, record: dict, report: dict, setup_s: float) -> None:
        before, after = record["calibration_s"]

        def factor(probe):
            return REFERENCE_PROBE_S[probe] / ((before[probe] + after[probe]) / 2)

        scale = factor(self.probe)
        setup_scale = factor("interpreter")
        self.scales.append(scale)
        self.wall_s += record["dispatch_s"] * scale
        self.raw_wall_s += record["dispatch_s"]
        self.cpu_s += record["cpu_s"] * scale
        self.setups.append(setup_s * setup_scale)
        self.raw_setups.append(setup_s)
        self.rss_mb = max(self.rss_mb, record["maxrss_kb"] / 1024.0)
        self.results.append(report["results"])
        if self.environment is None:
            self.environment = record["environment"]
        for name, (calls, self_s) in record.get("spans", {}).items():
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s * scale
        for name, value in record.get("counters", {}).items():
            if name.split(".", 1)[1].startswith("max_"):
                self.counters[name] = max(self.counters.get(name, 0.0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value


def _numbers(node):
    """Numeric leaves of a report in key order, without wall_clock_s."""
    if isinstance(node, dict):
        return [_numbers(node[k]) for k in sorted(node) if k != "wall_clock_s"]
    if isinstance(node, list):
        return [_numbers(v) for v in node]
    if isinstance(node, (int, float)):
        return node
    return None


def _false_passed(node) -> bool:
    if isinstance(node, dict):
        return node.get("passed") is False or any(_false_passed(v) for v in node.values())
    if isinstance(node, list):
        return any(_false_passed(v) for v in node)
    return False


def check_report(argv: list, report: dict) -> list:
    """Problems with one call's JSON report; empty when it is correct."""
    if "results" not in report:
        return [f"no results in report: {report.get('error')}"]
    results = report["results"]
    problems = []
    if _false_passed(results):
        problems.append("a check reported passed = false")
    if argv[0] == "fluct":
        reps = results["replicates"]
        for name, var, theory, kurt in zip(results["functions"], results["variances"],
                                           results["theory_sigma_sq"], results["excess_kurtosis"]):
            if name.startswith("piecewise-linear"):
                continue  # not smooth, so the CLT variance formula does not apply
            tol = RATIO_Z * math.sqrt((2.0 + max(kurt, 0.0)) / (reps - 1))
            ratio = var / theory
            if not abs(ratio - 1.0) <= tol:
                problems.append(f"{name}: variance/theory {ratio:.4f} outside 1 +- {tol:.4f}")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BETAJACOBI_THREADS", None)  # measure the default worker count
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_pass(workload: Workload, seed: int, traced: bool, work: str, index: int,
             deadline: float) -> Pass:
    result = Pass(traced=traced, probe=workload.probe)
    env = child_env()
    for k, call in enumerate(workload.calls):
        argv = list(call) + (["--seed", str(seed)] if call[0] in SEEDED else [])
        out = os.path.join(work, f"pass{index}-call{k}.json")
        record_path = os.path.join(work, f"pass{index}-call{k}.record")
        cmd = [sys.executable, CHILD, record_path, "1" if traced else "0", "--out", out, *argv]
        result.attempted += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(deadline - spawned, 1.0))
        except subprocess.TimeoutExpired:
            result.failed += 1
            result.problems.append(f"{' '.join(argv)}: timed out")
            result.timed_out = True
            break
        if proc.returncode != 0:
            result.failed += 1
            tail = (proc.stdout.strip() or proc.stderr.strip())[-300:]
            result.problems.append(f"{' '.join(argv)}: exit {proc.returncode}: {tail}")
            continue
        with open(record_path) as fh:
            record = json.load(fh)
        with open(out) as fh:
            report = json.load(fh)
        problems = check_report(argv, report)
        if problems:
            result.failed += 1
            result.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)
        result.add(record, report, record["imported"] - spawned)
    return result


def end_to_end(workload: Workload, passes: list, attempted: int, failed: int) -> dict:
    complete = [p for p in passes if p.failed == 0] or passes
    med = statistics.median
    return {
        "wall_s": med(p.wall_s for p in complete),
        "replicates_per_s": med(workload.replicates / p.wall_s for p in complete),
        "cpu_s": med(p.cpu_s for p in complete),
        "setup_s": med(s for p in passes for s in p.setups),
        "peak_rss_mb": med(p.rss_mb for p in complete),
        "passed_fraction": (attempted - failed) / attempted,
    }


def per_layer(names: list, passes: list) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    med = statistics.median
    count = statistics.median_low  # a value that occurred, so counts stay whole
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            base = med(p.wall_s for p in plain)
            out[name] = (med(p.wall_s for p in traced) - base) / base
        elif name.endswith(".calls"):
            out[name] = count(p.spans.get(name[: -len(".calls")], [0, 0.0])[0] for p in traced)
        elif name.endswith(".self_s"):
            out[name] = med(p.spans.get(name[: -len(".self_s")], [0, 0.0])[1] for p in traced)
        else:
            out[name] = count(p.counters[name] for p in traced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "betajacobi", "cli.py")):
        print(f"betajacobi sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes = []
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        # Two passes at least: two medians to take, or with --trace 1 an
        # untraced pass to compare the traced one against.  No pass starts
        # that would, at the mean pass length so far, end after --seconds.
        while True:
            passes.append(run_pass(workload, args.seed, trace and len(passes) % 2 == 1,
                                   work, len(passes), deadline))
            elapsed = time.monotonic() - start
            if passes[-1].timed_out or elapsed > HARD_LIMIT_S:
                break
            if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [p for p in passes if p.results]
    if not measured or (trace and {p.traced for p in measured} != {False, True}):
        print("no call completed; nothing to report", file=sys.stderr)
        for problem in (q for p in passes for q in p.problems):
            print(problem, file=sys.stderr)
        return 2

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [q for p in passes for q in p.problems]
    digests = sorted({p.digest() for p in passes if p.failed == 0})
    if len(digests) > 1:
        problems.append(f"passes with the same seed gave different digests: {digests}")
    with open(os.path.join(HERE, "reference_digests.json")) as fh:
        reference = json.load(fh)
    expected = reference["digests"].get(args.workload) if args.seed == reference["seed"] else None

    if trace:
        metrics = per_layer([m["name"] for m in spec["per_layer"]], measured)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(workload, measured, attempted, failed)
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "digest": digests,
        "digest_matches_reference": None if expected is None else digests == [expected],
        "uncalibrated_wall_s": statistics.median(p.raw_wall_s for p in measured),
        "uncalibrated_setup_s": statistics.median(s for p in measured for s in p.raw_setups),
        "calibration_factor": statistics.median(s for p in measured for s in p.scales),
        "environment": measured[0].environment,
        "problems": problems[:20],
    }}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
