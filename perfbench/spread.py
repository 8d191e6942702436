"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads random-3cnf,lia --seeds 1-10 [--seconds S] [--trace 0|1]

For every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  Every run's
result line is kept in perfbench/results/<workload>-trace<T>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        path = os.path.join(HERE, "results", f"{workload}-trace{args.trace}.jsonl")
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed/attempted={sorted({(r['failed'], r['attempted']) for r in results})}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:36s} median {median:12.4f} {results[0]['metrics'][name]['unit']:6s} spread {spread:6.3f}")


if __name__ == "__main__":
    main()
