"""Runs one workload in a fresh process and reports raw measurements as JSON.

Started by run.py with clausekit's sources on PYTHONPATH.  The loop is closed
with one caller: each verdict is one in-process `clausekit.cli.main` call
whose trace goes to an in-memory sink, and the next starts when it returns.
Only the call is timed.  The first pass's outputs are written to files for
run.py to check; later passes report a digest of each output, which must
match the first pass.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource

from clausekit import cli

import timing
import workloads


def answer(argv: list[str], sink: io.StringIO):
    try:
        return cli.main(argv, out=sink)
    except Exception as exc:  # an engine crash is a failed verdict, not a benchmark crash
        return f"raised {type(exc).__name__}: {exc}"


def run_pass(verdicts, directory: str, out_dir: str | None, clock: timing.NormalizedClock, record: dict) -> None:
    for i, verdict in enumerate(verdicts):
        argv = verdict.args_in(directory)
        sink = io.StringIO()
        gc.collect()  # each verdict's collector work then depends on that verdict alone
        code = clock.call(lambda: answer(argv, sink))
        output = sink.getvalue()
        record["codes"].append(code)
        record["digests"].append(hashlib.sha1(output.encode()).hexdigest())
        record["trace_lines"] += output.count("\n")
        record["trace_bytes"] += len(output.encode())
        if out_dir is not None:
            with open(os.path.join(out_dir, f"{i}.txt"), "w", encoding="utf-8") as handle:
                handle.write(output)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.seconds)
    in_dir, out_dir = os.path.join(args.dir, "in"), os.path.join(args.dir, "out")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    for verdict in workload.verdicts:
        for name, text in verdict.files.items():
            with open(os.path.join(in_dir, name), "w", encoding="utf-8") as handle:
                handle.write(text)

    record = {"codes": [], "digests": [], "trace_lines": 0, "trace_bytes": 0}
    with timing.NormalizedClock() as clock:
        for p in range(1 if args.trace else workload.passes):
            run_pass(workload.verdicts, in_dir, out_dir if p == 0 else None, clock, record)
    report = {"seconds": clock.normalized()}
    if args.trace:
        import tracer

        traced = {"codes": [], "digests": [], "trace_lines": 0, "trace_bytes": 0}
        with timing.NormalizedClock() as traced_clock:
            tracing = tracer.Tracer(traced_clock)
            tracing.install()
            try:
                run_pass(workload.verdicts, in_dir, None, traced_clock, traced)
            finally:
                tracing.uninstall()
        record["codes"] += traced["codes"]
        record["digests"] += traced["digests"]
        report["traced_seconds"] = traced_clock.normalized()
        report["layers"] = tracing.metrics(traced_clock.factor(), traced["trace_lines"], traced["trace_bytes"])
    report.update(
        codes=record["codes"],
        digests=record["digests"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
