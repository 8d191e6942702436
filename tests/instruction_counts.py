"""Counts the bytecode instructions that one warm pass of benchmark verdicts executes, per module.

Builds verdicts at seed 1 from `perfbench/workloads.py`, as
`tests/workload_outputs.py` does, and runs each one through the
`clausekit.cli.main` of the given source directory: one pass untraced, so
caches and compiled regexes are warm, then one pass under `sys.settrace`
with `f_trace_opcodes`, counting every opcode event by its code object:
the code's file (`clausekit/...` below the source directory, the rest below
the standard library's) and qualified name, as `clausekit/lia.py:propagate_bounds`.
A module's count is the sum of its functions'.  A sample is named groups of verdicts: `workloads` holds every
verdict of each of the five workloads, `budgets` the smaller sample of
`tests/test_work_budgets.py`.  A count is exact and does not depend on the
machine's load, but work done in C counts as one instruction.  Each count
runs in a process of its own under PYTHONHASHSEED=0, since set and dict
orders can change the work done.

    python tests/instruction_counts.py SRC_DIR

prints each workload's count.  Given two source directories, it prints per
workload both counts and their difference; a workload that counts more than
1% (OVER) above its count in SRC_A fails, with its per-module split and the
functions whose counts rose most, and the tool exits with 1.  A smaller rise passes, since moving work into C can add
instructions and still save time.

    python tests/instruction_counts.py SRC_A SRC_B

What each child process runs, printing a sample's per-function counts as JSON:

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
TOP = 5  # functions named in a report

Counts = dict[str, dict[str, int]]  # per group of verdicts, per `file:qualname` of a code object, the instructions


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
    """The opcode events of one call of main per argv, per code object as `file:qualname`, the file
    relative to the first of roots that holds it, output and errors discarded."""
    cells: dict[object, list[int]] = {}
    tracers = {}

    def tracer(cell: list[int]):
        def opcodes(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return opcodes
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        code = frame.f_code
        opcodes = tracers.get(code)
        if opcodes is None:
            cell = cells[code] = [0]
            opcodes = tracers[code] = tracer(cell)
        return opcodes

    with contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(calls)
        try:
            for argv in argvs:
                main(argv, out=io.StringIO())
        finally:
            sys.settrace(None)
    functions: dict[str, int] = {}
    for code, (n,) in cells.items():
        file = code.co_filename
        root = next((r for r in roots if file.startswith(r + os.sep)), None)
        key = f"{file if root is None else os.path.relpath(file, root)}:{getattr(code, 'co_qualname', code.co_name)}"
        functions[key] = functions.get(key, 0) + n
    return functions


def by_module(functions: dict[str, int]) -> dict[str, int]:
    """Per-function counts summed per module."""
    modules: dict[str, int] = {}
    for key, n in functions.items():
        module = key.rpartition(":")[0]
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


def rises(reference: dict[str, int], now: dict[str, int], risen_only: bool = False) -> list[str]:
    """One line per key, `reference -> now`, the largest rise first; only the keys that rose, if risen_only."""
    rise = {k: now.get(k, 0) - reference.get(k, 0) for k in {**reference, **now}}
    return [f"  {k} {reference.get(k, 0)} -> {now.get(k, 0)} ({rise[k]:+d})"
            for k in sorted(rise, key=lambda k: (-rise[k], k)) if rise[k] > 0 or not risen_only]


def over(name: str, reference: dict[str, int], functions: dict[str, int]) -> str | None:
    """None if the functions' count is at most OVER above the reference's, else a report with the
    per-module split, the largest rise first, and TOP functions.

    Against per-function counts, the functions are those whose counts rose most.  A budget holds
    per-module counts only, so against one they are the largest functions of the module that rose most.
    """
    a, b = sum(reference.values()), sum(functions.values())
    if b <= a * (1 + OVER):
        return None
    modules = by_module(functions)
    lines = [f"{name}: {b} instructions, {(b - a) / a:+.2%} over {a}; by module:"]
    if all(":" in k for k in reference):
        lines += rises(by_module(reference), modules)
        lines += ["functions whose counts rose most:", *rises(reference, functions, True)[:TOP]]
    else:
        module = max(modules, key=lambda m: modules[m] - reference.get(m, 0))
        largest = sorted((k for k in functions if k.rpartition(":")[0] == module), key=lambda k: -functions[k])
        lines += rises(reference, modules)
        lines += [f"largest functions of {module}:", *(f"  {k} {functions[k]}" for k in largest[:TOP])]
    return "\n".join(lines)


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--json":
        print(json.dumps(counts(sys.argv[3], sys.argv[2])))
    elif len(sys.argv) == 2:
        for name, functions in counted(sys.argv[1]).items():
            print(name, sum(functions.values()))
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
