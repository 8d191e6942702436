"""Prints a digest of every benchmark verdict's CLI output, or the runs where two trees differ.

Builds the verdicts of the five workloads at seeds 1-3 from
`perfbench/workloads.py`, loaded by path, and runs each one through the
`clausekit.cli.main` of the given source directory, once as text and once as
JSON.  Each run prints one line: its label and the sha1 of its exit code,
stdout and stderr, with the temporary input directory written as `{dir}`.

    python tests/workload_outputs.py SRC_DIR

Given two source directories, it digests each in a process of its own and
prints only the runs whose digests differ, as `label: digest_a digest_b`;
it exits with 1 if any run differs.

    python tests/workload_outputs.py SRC_A SRC_B
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3)
SECONDS = 15  # sets only the pass count, which no output depends on


def load_workloads():
    # workloads imports its sibling checkers, and its dataclasses look their module up in sys.modules
    sys.path.insert(0, str(WORKLOADS.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(WORKLOADS.parent))
    return module


def run(main, argv: list[str], directory: str) -> str:
    """sha1 of one call's exit code, stdout and stderr, with `directory` written as {dir}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    record = f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(directory, "{dir}")
    return hashlib.sha1(record.encode()).hexdigest()


def digests(src: str) -> None:
    """Print the digest line of every run through the `clausekit` of src."""
    sys.path.insert(0, os.path.abspath(src))
    from clausekit import cli

    workloads = load_workloads()
    for name in workloads.GENERATORS:
        for seed in SEEDS:
            for i, verdict in enumerate(workloads.build(name, seed, SECONDS).verdicts):
                with tempfile.TemporaryDirectory() as directory:
                    for file, text in verdict.files.items():
                        Path(directory, file).write_text(text, encoding="utf-8")
                    for fmt in ("text", "json"):
                        digest = run(cli.main, verdict.args_in(directory) + ["--format", fmt], directory)
                        print(f"{name} {seed} {i} {verdict.label} {fmt} {digest}")


def differing(src_a: str, src_b: str) -> list[str]:
    """`label: digest_a digest_b` of each run whose digests differ between the two trees."""
    tables = []
    for src in (src_a, src_b):  # one process per tree: each imports its own clausekit
        out = subprocess.run([sys.executable, __file__, src], capture_output=True, text=True, check=True).stdout
        tables.append(dict(line.rsplit(" ", 1) for line in out.splitlines()))
    a, b = tables
    return [f"{label}: {a.get(label)} {b.get(label)}" for label in {**a, **b} if a.get(label) != b.get(label)]


def main() -> None:
    if len(sys.argv) == 2:
        digests(sys.argv[1])
    elif len(sys.argv) == 3:
        lines = differing(sys.argv[1], sys.argv[2])
        for line in lines:
            print(line)
        sys.exit(1 if lines else 0)
    else:
        sys.exit("usage: python tests/workload_outputs.py SRC_DIR [SRC_DIR]")


if __name__ == "__main__":
    main()
