"""Prints the bytecode instructions that one warm pass of each benchmark workload executes.

Builds the verdicts of the five workloads at seed 1 from
`perfbench/workloads.py`, as `tests/workload_outputs.py` does, and runs each
one through the `clausekit.cli.main` of the given source directory: one pass
untraced, so caches and compiled regexes are warm, then one pass under
`sys.settrace` with `f_trace_opcodes`, counting every opcode event.  Each
workload prints one line, its name and its count.  The count is exact and
does not depend on the machine's load, but work done in C counts as one
instruction.  It runs under PYTHONHASHSEED=0, restarting itself if needed,
since set and dict orders can change the work done.

    python tests/instruction_counts.py SRC_DIR

Given two source directories, it counts each in a process of its own and
prints per workload both counts and their difference; it exits with 1 if
any workload counts more in SRC_B than in SRC_A.

    python tests/instruction_counts.py SRC_A SRC_B
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workload_outputs import load_workloads

SEED = 1
SECONDS = 15  # sets only the pass count, which a single pass does not read


def count_pass(main, argvs: list[list[str]]) -> int:
    """The opcode events of one call of main per argv, output and errors discarded."""
    executed = 0

    def opcodes(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return opcodes

    with contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(calls)
        try:
            for argv in argvs:
                main(argv, out=io.StringIO())
        finally:
            sys.settrace(None)
    return executed


def counts(src: str) -> None:
    """Print each workload's instructions per warm pass through the `clausekit` of src."""
    sys.path.insert(0, os.path.abspath(src))
    from clausekit import cli

    workloads = load_workloads()
    for name in workloads.GENERATORS:
        verdicts = workloads.build(name, SEED, SECONDS).verdicts
        with tempfile.TemporaryDirectory() as directory:
            for verdict in verdicts:
                for file, text in verdict.files.items():
                    Path(directory, file).write_text(text, encoding="utf-8")
            argvs = [verdict.args_in(directory) for verdict in verdicts]
            for argv in argvs:  # the untraced warm pass
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv, out=io.StringIO())
            print(name, count_pass(cli.main, argvs), flush=True)


def counted(src: str) -> dict[str, int]:
    """Each workload's count for src, from a process of its own under PYTHONHASHSEED=0."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    out = subprocess.run([sys.executable, __file__, src], capture_output=True, text=True, check=True, env=env).stdout
    return {name: int(n) for name, n in (line.split() for line in out.splitlines())}


def main() -> None:
    if len(sys.argv) == 2:
        if os.environ.get("PYTHONHASHSEED") == "0":
            counts(sys.argv[1])
        else:
            for name, n in counted(sys.argv[1]).items():
                print(name, n)
    elif len(sys.argv) == 3:
        a, b = counted(sys.argv[1]), counted(sys.argv[2])
        for name in a:
            print(f"{name} {a[name]} {b[name]} {b[name] - a[name]:+d} ({(b[name] - a[name]) / a[name]:+.2%})")
        sys.exit(1 if any(b[name] > a[name] for name in a) else 0)
    else:
        sys.exit("usage: python tests/instruction_counts.py SRC_DIR [SRC_DIR]")


if __name__ == "__main__":
    main()
