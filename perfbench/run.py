"""clausekit verdict benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a clausekit checkout.  It times the set-up of fresh
interpreters, runs the workload in a fresh single-threaded worker process,
checks every output with the independent checkers, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced pass (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checkers
import timing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170
TAIL_SAMPLES_BEYOND = 10
MIN_SAMPLES = 40


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def python_env(root: str) -> dict[str, str]:
    """Child environment: the checkout's sources, fixed string hashing, bytecode caching on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median normalized time for a fresh interpreter to import clausekit.cli."""
    command = [sys.executable, "-c", "import clausekit.cli"]
    subprocess.run(command, env=env, check=True)  # writes the bytecode cache
    samples = []
    for _ in range(SETUP_REPEATS):
        before = timing.reference_seconds()
        t0 = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        elapsed = time.perf_counter() - t0
        after = timing.reference_seconds()
        samples.append(elapsed * timing.REFERENCE_NOMINAL_S * 2 / (before + after))
    return statistics.median(samples)


def check_outputs(workload: workloads.Workload, report: dict, out_dir: str) -> tuple[bool, int]:
    """Check the first pass against the checkers and later passes against it; returns (correct, failed)."""
    verdicts = workload.verdicts
    codes, digests = report["codes"], report["digests"]
    correct, failed = True, 0
    for i, verdict in enumerate(verdicts):
        runs = range(i, len(codes), len(verdicts))
        failed += sum(1 for r in runs if codes[r] not in verdict.exit_codes)
        if codes[i] not in verdict.exit_codes:
            print(f"perfbench: {verdict.label} failed with {codes[i]}", file=sys.stderr)
            continue
        with open(os.path.join(out_dir, f"{i}.txt"), encoding="utf-8") as handle:
            output = handle.read()
        try:
            verdict.check(output)
        except (checkers.CheckError, ValueError, KeyError, IndexError) as exc:
            print(f"perfbench: {verdict.label}: wrong output: {exc}", file=sys.stderr)
            correct = False
        if any(digests[r] != digests[i] for r in runs if codes[r] == codes[i]):
            print(f"perfbench: {verdict.label}: output differs between passes", file=sys.stderr)
            correct = False
    return correct, failed


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def regularized_beta(x: float, a: float, b: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics."""
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [regularized_beta(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def end_to_end(seconds: list[float], per_pass: int, setup_s: float, peak_rss_mb: float) -> dict:
    """The metrics of one run, from each verdict's median time over the passes.

    The median drops timings disturbed by the machine; the quantiles are
    Harrell-Davis estimates, which weight the order statistics around the
    quantile smoothly, so that neighbouring verdicts trading places under
    machine noise do not make the estimate jump.
    """
    passes = len(seconds) // per_pass
    medians = [statistics.median(seconds[i::per_pass]) for i in range(per_pass)]
    typical = sorted(m for m in medians for _ in range(passes))
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (per_pass / sum(medians), "1/s"),
        "verdict_p50_ms": (harrell_davis(typical, 0.5) * 1e3, "ms"),
        # the highest percentile with TAIL_SAMPLES_BEYOND samples above it
        "verdict_tail_ms": (harrell_davis(typical, 1 - TAIL_SAMPLES_BEYOND / len(typical)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clausekit", "cli.py")):
        fail(f"no clausekit sources under {root}/src; run from the root of a checkout")
    env = python_env(root)
    workload = workloads.build(args.workload, args.seed, args.seconds)

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = None if args.trace else measure_setup(env)
        command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--dir", work]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"worker exited with {done.returncode}")
        report = json.loads(done.stdout.splitlines()[-1])
        correct, failed = check_outputs(workload, report, os.path.join(work, "out"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        untraced, traced = sum(report["seconds"]), sum(report["traced_seconds"])
        metrics = dict(report["layers"])
        metrics["tracing_overhead_pct"] = ((traced - untraced) / untraced * 100, "%")
    else:
        if len(report["seconds"]) < MIN_SAMPLES:
            fail(f"only {len(report['seconds'])} timed verdicts; a tail needs {MIN_SAMPLES}")
        metrics = end_to_end(report["seconds"], len(workload.verdicts), setup_s, report["peak_rss_mb"])
    result = {
        "correct": correct,
        "attempted": len(report["codes"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
