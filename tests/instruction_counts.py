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
`tests/test_work_budgets.py`, which adds a CDCL formula and SCL counter 8 as JSON, SCL runs
that decide and learn on BS sets that `tests/test_scl_kernel.py:random_bs` draws, and SCL on
random 3-CNF formulas written as variable-free BS sets.  A count is exact and does not depend on the
machine's load, but work done in C counts as one instruction.  So on the
`workloads` sample a third pass, under `sys.setprofile`, counts the C calls:
each call of a built-in function or method, keyed by the callee's qualified
name, as `tuple.__new__` (a type's call, as `tuple(x)`, raises no such event
and is not counted).  It runs apart from the traced pass, so that the
instruction counts do not change; the `budgets` sample, which only
instructions judge, skips it.  Each tree runs in a process of its own under
PYTHONHASHSEED=0, since set and dict orders can change the work done.

    python tests/instruction_counts.py SRC_DIR

prints each workload's instructions and C calls.  Given two source
directories, it prints per workload both instruction counts and their
difference; a workload that counts more than 1% (OVER) above its count in
SRC_A fails, with its per-module split and the functions whose counts rose
most, and the tool exits with 1.  A smaller rise passes, since moving work
into C can add instructions and still save time.  It then prints per
workload both C-call totals and the callees whose counts moved most; C
calls decide nothing.

    python tests/instruction_counts.py SRC_A SRC_B

What each child process runs, printing a sample's per-function instructions
and per-callee C calls as JSON:

    PYTHONHASHSEED=0 python tests/instruction_counts.py --json SAMPLE SRC_DIR
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import re
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


# the dense `random_bs` sets drawn from Random(7) at these positions are the first four whose
# `--mode scl` run decides and learns; no benchmark verdict reaches SCL's decisions or learning
LEARNING_DRAWS = (5, 6, 10, 13)
# BS text reads names starting with u, v or w as variables; the new names keep the predicates' order
PREDICATE_NAMES = {"U": "Tu", "V": "Tv", "W": "Tw"}


def learning_verdicts(workloads) -> list:
    """SCL verdicts of the LEARNING_DRAWS sets, as BS input files with the predicates renamed by PREDICATE_NAMES."""
    # imported only once `counts` has put the source directory first on the path, as both import clausekit
    from oracles import bs_text
    from test_scl_kernel import random_bs

    rng = random.Random(7)
    draws = [random_bs(rng)[0] for _ in range(max(LEARNING_DRAWS) + 1)]
    texts = {f"learn{i}.bs": re.sub(r"\b[UVW]\b", lambda m: PREDICATE_NAMES[m[0]], bs_text(draws[i]))
             for i in LEARNING_DRAWS}
    return [workloads.Verdict(name, ["--mode", "scl", "--input", f"{{dir}}/{name}"], {name: text},
                              (workloads.SAT, workloads.UNSAT), None) for name, text in texts.items()]


# the random 3-CNF formulas that SCL solves as variable-free BS sets: an unsatisfiable one and a satisfiable one
GROUND_FORMULAS = ("cnf10", "cnf0")


def ground_verdicts(cnf: list) -> list:
    """SCL verdicts of the CDCL verdicts' formulas, each DIMACS variable k the 0-ary predicate P%03d, as
    `tests/test_scl_ground.py:as_bs` writes them."""
    from clausekit.formats import parse_dimacs
    from oracles import bs_text
    from test_scl_ground import as_bs

    verdicts = []
    for v in cnf:
        name, (text,) = f"{v.label}.bs", v.files.values()
        files = {name: bs_text(as_bs(parse_dimacs(text)[1]))}
        verdicts.append(dataclasses.replace(v, label=name, argv=["--mode", "scl", "--input", f"{{dir}}/{name}"],
                                            files=files, check=None))
    return verdicts


# a decision whose a-priori box is +-8**9 wide and which its first tightening refutes
REPEATED_BOUND = "x <= 0\nx <= 0\nx <= 0\n-x + 1 < 0\n"


def budget_sample(workloads) -> dict[str, list]:
    """About 6M instructions: one random 3-CNF formula as text and as JSON, the first three verdicts
    of scl-sparse as text and as JSON, and of saturation and lia, every lia-decide verdict of the
    lia workload and REPEATED_BOUND, the unsatisfiable SCL counter 8 as text and as JSON, SCL runs
    that decide and learn, and SCL on two random 3-CNF formulas without variables.  No benchmark
    verdict writes a CDCL or SCL trace as JSON, none gives SCL a variable-free clause of two or
    more literals, and the lia group's three verdicts are all lia-propagate."""
    def verdicts(name: str) -> list:
        return workloads.build(name, SEED, SECONDS).verdicts

    def as_json(sample: list) -> list:
        return [dataclasses.replace(v, argv=v.argv + ["--format", "json"]) for v in sample]

    cnf10 = [v for v in verdicts("random-3cnf") if v.label == "cnf10"]
    repeated = workloads.Verdict("repeated", ["--mode", "lia-decide", "--input", "{dir}/repeated.lia"],
                                 {"repeated.lia": REPEATED_BOUND}, (workloads.UNSAT,), None)
    counter8 = [v for v in verdicts("scl-counter") if v.label == "counter8.bs"]
    sparse = verdicts("scl-sparse")[:3]
    return {
        "cnf10": cnf10,
        "cnf10-json": as_json(cnf10),
        "scl-sparse": sparse,
        "scl-sparse-json": as_json(sparse),
        "saturation": verdicts("saturation")[:3],
        "lia": verdicts("lia")[:3],
        "lia-decide": [v for v in verdicts("lia") if "lia-decide" in v.argv] + [repeated],
        "counter8": counter8,
        "counter8-json": as_json(counter8),
        "scl-learn": learning_verdicts(workloads),
        "scl-ground": ground_verdicts([v for label in GROUND_FORMULAS for v in verdicts("random-3cnf")
                                       if v.label == label]),
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


def count_c_calls(main, argvs: list[list[str]]) -> dict[str, int]:
    """The C calls of one call of main per argv, per callee's qualified name, output and errors discarded."""
    calls: dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "c_call":
            name = arg.__qualname__
            calls[name] = calls.get(name, 0) + 1

    with contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in argvs:
                main(argv, out=io.StringIO())
        finally:
            sys.setprofile(None)
    return calls


def by_module(functions: dict[str, int]) -> dict[str, int]:
    """Per-function counts summed per module."""
    modules: dict[str, int] = {}
    for key, n in functions.items():
        module = key.rpartition(":")[0]
        modules[module] = modules.get(module, 0) + n
    return modules


def counts(src: str, sample: str) -> tuple[Counts, Counts]:
    """Each group's instructions per warm pass through the `clausekit` of src, in this process, and, on
    the `workloads` sample only, its C calls in a pass after that one (none are counted on the others)."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    from clausekit import cli

    instructions, c_calls = {}, {}
    for name, verdicts in SAMPLES[sample](load_workloads()).items():
        with tempfile.TemporaryDirectory() as directory:
            for verdict in verdicts:
                for file, text in verdict.files.items():
                    Path(directory, file).write_text(text, encoding="utf-8")
            argvs = [verdict.args_in(directory) for verdict in verdicts]
            for argv in argvs:  # the untraced warm pass
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv, out=io.StringIO())
            instructions[name] = count_pass(cli.main, argvs, [src, sysconfig.get_paths()["stdlib"]])
            if sample == "workloads":
                c_calls[name] = count_c_calls(cli.main, argvs)
    return instructions, c_calls


def counted(src: str, sample: str = "workloads") -> tuple[Counts, Counts]:
    """`counts(src, sample)` from a process of its own under PYTHONHASHSEED=0."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    argv = [sys.executable, __file__, "--json", sample, src]
    instructions, c_calls = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout)
    return instructions, c_calls


def rises(reference: dict[str, int], now: dict[str, int], risen_only: bool = False) -> list[str]:
    """One line per key, `reference -> now`, the largest rise first; only the keys that rose, if risen_only."""
    rise = {k: now.get(k, 0) - reference.get(k, 0) for k in {**reference, **now}}
    return [f"  {k} {reference.get(k, 0)} -> {now.get(k, 0)} ({rise[k]:+d})"
            for k in sorted(rise, key=lambda k: (-rise[k], k)) if rise[k] > 0 or not risen_only]


def moves(reference: dict[str, int], now: dict[str, int]) -> list[str]:
    """One line per key whose count changed, `reference -> now`, the largest change either way first."""
    move = {k: now.get(k, 0) - reference.get(k, 0) for k in {**reference, **now}}
    return [f"  {k} {reference.get(k, 0)} -> {now.get(k, 0)} ({move[k]:+d})"
            for k in sorted(move, key=lambda k: (-abs(move[k]), k)) if move[k]]


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


def difference(reference: dict[str, int], now: dict[str, int]) -> str:
    """Both totals and their difference."""
    a, b = sum(reference.values()), sum(now.values())
    return f"{a} {b} {b - a:+d} ({(b - a) / a:+.2%})"


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--json":
        print(json.dumps(counts(sys.argv[3], sys.argv[2])))
    elif len(sys.argv) == 2:
        instructions, c_calls = counted(sys.argv[1])
        for name, functions in instructions.items():
            print(name, sum(functions.values()), "instructions", sum(c_calls[name].values()), "C calls")
    elif len(sys.argv) == 3:
        (a, c_a), (b, c_b) = counted(sys.argv[1]), counted(sys.argv[2])
        for name in a:
            print(name, difference(a[name], b[name]))
        reports = [r for name in a if (r := over(name, a[name], b[name])) is not None]
        for report in reports:
            print(report)
        print(f"C calls, and the {TOP} callees whose counts moved most:")
        for name in c_a:
            print(name, difference(c_a[name], c_b[name]))
            for line in moves(c_a[name], c_b[name])[:TOP]:
                print(line)
        sys.exit(1 if reports else 0)
    else:
        sys.exit("usage: python tests/instruction_counts.py SRC_DIR [SRC_DIR]")


if __name__ == "__main__":
    main()
