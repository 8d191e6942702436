"""Prints a digest of every benchmark verdict's CLI output, to compare two trees.

Builds the verdicts of the five workloads at seeds 1-3 from
`perfbench/workloads.py`, loaded by path, and runs each one through the
`clausekit.cli.main` of the given source directory, once as text and once as
JSON.  Each run prints one line: its label and the sha1 of its exit code,
stdout and stderr, with the temporary input directory written as `{dir}`.

    python tests/workload_outputs.py SRC_DIR
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
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


def main() -> None:
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
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


if __name__ == "__main__":
    main()
