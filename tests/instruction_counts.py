"""Counts the bytecode instructions that one warm pass of benchmark verdicts executes, per module.

Builds verdicts at seed 1 from `perfbench/workloads.py`, as
`tests/workload_outputs.py` does, and runs each one through the
`clausekit.cli.main` of the given source directory: one pass untraced, so
caches and compiled regexes are warm, then one pass under `sys.settrace`
with `f_trace_opcodes`, counting every opcode event by the file of its code
(`clausekit/...` below the source directory, the rest below the standard
library's).  A sample is named groups of verdicts: `workloads` holds every
verdict of each of the five workloads, `budgets` the smaller sample of
`tests/test_work_budgets.py`.  A count is exact and does not depend on the
machine's load, but work done in C counts as one instruction.  Each count
runs in a process of its own under PYTHONHASHSEED=0, since set and dict
orders can change the work done.

    python tests/instruction_counts.py SRC_DIR

prints each workload's count.  Given two source directories, it prints per
workload both counts and their difference; a workload that counts more than
1% (OVER) above its count in SRC_A fails, with its per-module split, and the
tool exits with 1.  A smaller rise passes, since moving work into C can add
instructions and still save time.

    python tests/instruction_counts.py SRC_A SRC_B

What each child process runs, printing a sample's per-module counts as JSON:

    PYTHONHASHSEED=0 python tests/instruction_counts.py --json SAMPLE SRC_DIR
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

from workload_outputs import load_workloads

SEED = 1
SECONDS = 15  # sets only the pass count, which a single pass does not read
OVER = 0.01  # a count more than this share above its reference is added work

Counts = dict[str, dict[str, int]]  # per group of verdicts, per module, the instructions


def workload_sample(workloads) -> dict[str, list]:
    """Every verdict of each workload."""
    return {name: workloads.build(name, SEED, SECONDS).verdicts for name in workloads.GENERATORS}


def budget_sample(workloads) -> dict[str, list]:
    """About 2M instructions: one random 3-CNF formula, the first three verdicts of scl-sparse,
    saturation and lia, and the unsatisfiable SCL counter 8."""
    def verdicts(name: str) -> list:
        return workloads.build(name, SEED, SECONDS).verdicts

    return {
        "cnf10": [v for v in verdicts("random-3cnf") if v.label == "cnf10"],
        "scl-sparse": verdicts("scl-sparse")[:3],
        "saturation": verdicts("saturation")[:3],
        "lia": verdicts("lia")[:3],
        "counter8": [v for v in verdicts("scl-counter") if v.label == "counter8.bs"],
    }


SAMPLES = {"workloads": workload_sample, "budgets": budget_sample}


def count_pass(main, argvs: list[list[str]], roots: list[str]) -> dict[str, int]:
    """The opcode events of one call of main per argv, per code file relative to the first of
    roots that holds it, output and errors discarded."""
    cells: dict[str, list[int]] = {}
    tracers = {}

    def tracer(cell: list[int]):
        def opcodes(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return opcodes
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        file = frame.f_code.co_filename
        opcodes = tracers.get(file)
        if opcodes is None:
            cell = cells[file] = [0]
            opcodes = tracers[file] = tracer(cell)
        return opcodes

    with contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(calls)
        try:
            for argv in argvs:
                main(argv, out=io.StringIO())
        finally:
            sys.settrace(None)
    modules: dict[str, int] = {}
    for file, (n,) in cells.items():
        root = next((r for r in roots if file.startswith(r + os.sep)), None)
        module = file if root is None else os.path.relpath(file, root)
        modules[module] = modules.get(module, 0) + n
    return modules


def counts(src: str, sample: str) -> Counts:
    """Each group's instructions per warm pass through the `clausekit` of src, in this process."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    from clausekit import cli

    result = {}
    for name, verdicts in SAMPLES[sample](load_workloads()).items():
        with tempfile.TemporaryDirectory() as directory:
            for verdict in verdicts:
                for file, text in verdict.files.items():
                    Path(directory, file).write_text(text, encoding="utf-8")
            argvs = [verdict.args_in(directory) for verdict in verdicts]
            for argv in argvs:  # the untraced warm pass
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv, out=io.StringIO())
            result[name] = count_pass(cli.main, argvs, [src, sysconfig.get_paths()["stdlib"]])
    return result


def counted(src: str, sample: str = "workloads") -> Counts:
    """`counts(src, sample)` from a process of its own under PYTHONHASHSEED=0."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    argv = [sys.executable, __file__, "--json", sample, src]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout)


def over(name: str, reference: dict[str, int], modules: dict[str, int]) -> str | None:
    """None if the modules' count is at most OVER above the reference's, else a report with the
    per-module split, the largest rise first."""
    a, b = sum(reference.values()), sum(modules.values())
    if b <= a * (1 + OVER):
        return None
    rise = {m: modules.get(m, 0) - reference.get(m, 0) for m in {**reference, **modules}}
    split = [f"  {m} {reference.get(m, 0)} -> {modules.get(m, 0)} ({rise[m]:+d})"
             for m in sorted(rise, key=lambda m: (-rise[m], m))]
    return "\n".join([f"{name}: {b} instructions, {(b - a) / a:+.2%} over {a}; by module:", *split])


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--json":
        print(json.dumps(counts(sys.argv[3], sys.argv[2])))
    elif len(sys.argv) == 2:
        for name, modules in counted(sys.argv[1]).items():
            print(name, sum(modules.values()))
    elif len(sys.argv) == 3:
        a, b = counted(sys.argv[1]), counted(sys.argv[2])
        for name in a:
            n_a, n_b = sum(a[name].values()), sum(b[name].values())
            print(f"{name} {n_a} {n_b} {n_b - n_a:+d} ({(n_b - n_a) / n_a:+.2%})")
        reports = [r for name in a if (r := over(name, a[name], b[name])) is not None]
        for report in reports:
            print(report)
        sys.exit(1 if reports else 0)
    else:
        sys.exit("usage: python tests/instruction_counts.py SRC_DIR [SRC_DIR]")


if __name__ == "__main__":
    main()
