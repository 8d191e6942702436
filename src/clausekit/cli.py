"""Command-line front end dispatching to the four reasoning engines.

Each mode's handler parses its input, runs its engine and hands back its exit
code with the lines that the engine's `render` gives for the result, as text
or as JSON lines; only the counter experiment formats its own table.  `main`
is the one place that writes them.  `--heuristic` and `--selection` name
functions in the engines' tables, `cdcl.HEURISTICS` and
`resolution.SELECTIONS`.

Each engine run returns one result with a `verdict`, which `EXIT_CODES` maps
to the exit code after the DIMACS solver convention: 10 for satisfiable or
saturated, 20 for unsatisfiable, 1 for resource or step limits, and 0 for a
replayed derivation that does not end in the empty clause, which claims
neither.  A `ClausekitError` or an `OSError` exits with 2: a `UsageError`
(among them a flag that the mode does not read, `FLAG_MODES`, and two
`--decide` bounds that cross), a parse error, an input file that is not
UTF-8 or cannot be opened, and a replay step that cannot be executed;
`--help` exits with 0.  A stdout that its reader closes early, as `| head`
does, exits with 141 (128 + SIGPIPE) and writes nothing to stderr; any other
failed write of the output, such as to a full disk or in an encoding that
lacks a character of the text, prints its error and exits with 74 (EX_IOERR
in sysexits.h).  Any other exception from a handler, an engine's
`ValueError` included, is a fault of clausekit itself: it prints `internal
error:` and the traceback and exits with 70 (EX_SOFTWARE).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Callable, NamedTuple, Sequence, TextIO

from . import cdcl, formats, lia, resolution, scl
from .errors import ClausekitError, UsageError
from .jsonl import json_format, json_string
from .logic import Clause
from .ordering import OrderingConfig, config_with_precedence, default_config
from .resolution import check_linear_refutation, linear_counter_script
from .scl import counter_problem

EXIT_OK = 0
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_LIMIT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h
EXIT_OUTPUT_ERROR = 74  # EX_IOERR in sysexits.h
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE, as a shell reports a pipeline stage that SIGPIPE ended

# every verdict an engine's result can hold, and its exit code
EXIT_CODES = {"sat": EXIT_SAT, "fixpoint": EXIT_SAT, "saturated": EXIT_SAT, "unsat": EXIT_UNSAT,
              "conflict": EXIT_UNSAT, "limit": EXIT_LIMIT, "diverged": EXIT_LIMIT, "derived": EXIT_OK}

COUNTER_N_CAP = 12
DEFAULT_MAX_STEPS = 10_000  # resolution and lia-propagate; scl uses scl.DEFAULT_TRAIL_CAP
DEFAULT_HEURISTIC = "lowest-negative"
DEFAULT_SELECTION = "none"


# the modes that read each flag; any other mode rejects it
FLAG_MODES = {
    "--input": ("cdcl", "scl", "resolution", "resolution-replay", "lia-propagate", "lia-decide"),
    "--counter-n": ("scl", "resolution", "resolution-replay", "counter-experiment"),
    "--selection": ("resolution",),
    "--precedence": ("resolution",),
    "--heuristic": ("cdcl",),
    "--max-steps": ("scl", "resolution", "lia-propagate"),
    "--max-instances": ("scl",),
    "--replay": ("resolution-replay",),
    "--decide": ("lia-propagate",),
}


def validate(args: argparse.Namespace) -> None:
    """Reject flags the mode does not read, and missing or out-of-range values; unset flags are None."""
    for flag, modes in FLAG_MODES.items():
        if getattr(args, flag[2:].replace("-", "_")) not in (None, []) and args.mode not in modes:
            raise UsageError(f"{flag} does not apply to mode {args.mode}")
    if args.max_steps is not None and args.max_steps < 0:
        raise UsageError("--max-steps must be non-negative")
    if args.max_instances is not None and args.max_instances <= 0:
        raise UsageError("--max-instances must be positive")
    if args.mode == "counter-experiment":
        n = args.counter_n if args.counter_n is not None else 10
        if not 1 <= n <= COUNTER_N_CAP:
            raise UsageError(f"--counter-n must be within 1..{COUNTER_N_CAP}")
    elif args.mode in ("cdcl", "lia-propagate", "lia-decide"):
        if args.input is None:
            raise UsageError(f"mode {args.mode} needs --input")
    elif (args.input is None) == (args.counter_n is None):
        raise UsageError(f"mode {args.mode} needs exactly one of --input or --counter-n")
    if args.mode == "resolution-replay" and args.replay is None:
        raise UsageError("mode resolution-replay needs --replay")
    if args.counter_n is not None and args.counter_n < 1:
        raise UsageError("--counter-n must be positive")


def _bs_clauses(args: argparse.Namespace) -> Sequence[Clause]:
    if args.counter_n is not None:
        return counter_problem(args.counter_n)
    return formats.parse_bs(formats.read_text(args.input))


def _ordering(args: argparse.Namespace, clauses: Sequence[Clause]) -> OrderingConfig:
    cfg = default_config(clauses)
    if args.precedence is not None:
        cfg = config_with_precedence(cfg, [p.strip() for p in args.precedence.split(">")])
    return cfg


def _run_cdcl(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    num_vars, clauses = formats.parse_dimacs(formats.read_text(args.input))
    result = cdcl.solve(clauses, num_vars, cdcl.HEURISTICS[args.heuristic or DEFAULT_HEURISTIC])
    return EXIT_CODES[result.verdict], cdcl.render(result, as_json)


def _max_steps(args: argparse.Namespace, default: int = DEFAULT_MAX_STEPS) -> int:
    """--max-steps as given, 0 included, else the mode's default."""
    return default if args.max_steps is None else args.max_steps


def _run_scl(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    clauses = _bs_clauses(args)
    cap = scl.DEFAULT_INSTANCE_CAP if args.max_instances is None else args.max_instances
    result = scl.scl_run(clauses, instance_cap=cap, trail_cap=_max_steps(args, scl.DEFAULT_TRAIL_CAP))
    return EXIT_CODES[result.verdict], scl.render(result, as_json)


def _run_resolution(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    clauses = _bs_clauses(args)
    cfg = _ordering(args, clauses)
    sel = resolution.SELECTIONS[args.selection or DEFAULT_SELECTION]
    result = resolution.saturate(clauses, cfg, sel, max_generated=_max_steps(args))
    return EXIT_CODES[result.verdict], resolution.render(result, as_json)


def _run_replay(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    clauses = _bs_clauses(args)
    derived = resolution.replay(clauses, formats.parse_script(formats.read_text(args.replay)))
    code = EXIT_CODES["unsat" if derived and derived[-1].clause.is_empty else "derived"]
    return code, resolution.render(derived, as_json)


def _lia_system(args: argparse.Namespace) -> lia.LiaSystem:
    return formats.parse_lia(formats.read_text(args.input))


def _run_lia_propagate(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    system = _lia_system(args)
    decisions = [formats.parse_bound(b) for b in args.decide]
    for i, d in enumerate(decisions):  # propagation checks only inequations, so crossed decisions pass
        for e in decisions[:i]:
            lower, upper = (d, e) if d.lower else (e, d)
            if d.var == e.var and d.lower != e.lower and lower.value > upper.value:
                raise UsageError(f"--decide {d} crosses {e}")
    result = lia.propagate_bounds(system, decisions, _max_steps(args))
    return EXIT_CODES[result.verdict], lia.render(result, as_json)


def _run_lia_decide(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    result = lia.decide_bounded(_lia_system(args))
    return EXIT_CODES[result.verdict], lia.render(result, as_json)


# ---------------------------------------------------------------------------
# Counter-family scaling experiment
# ---------------------------------------------------------------------------


class ExperimentRow(NamedTuple):
    n: int
    scl_propagations: int
    scl_result: str
    resolution_generated: int
    resolution_result: str


def counter_experiment(n_max: int) -> list[ExperimentRow]:
    """Run the ground engine and the linear refutation on counters of 1..n_max bits.

    The model-guided side performs 2**n propagations before its verdict; the
    resolution side replays the generated linear derivation, which takes 2n
    inferences.  Each step is checked to resolve its negative premise's first
    negative literal against a maximal positive literal; that the positive
    premise has no selected literal is not checked
    (`resolution.check_linear_refutation`).
    """
    if not 1 <= n_max <= COUNTER_N_CAP:
        raise ValueError(f"n_max must be within 1..{COUNTER_N_CAP}")
    rows = []
    for n in range(1, n_max + 1):
        clauses = counter_problem(n)
        scl_result = scl.scl_run(clauses)
        derived = check_linear_refutation(clauses, linear_counter_script(n), default_config(clauses))
        rows.append(
            ExperimentRow(
                n=n,
                scl_propagations=scl_result.stats.propagations,
                scl_result=scl_result.verdict,
                resolution_generated=len(derived),
                resolution_result="unsat",
            )
        )
    return rows


_EXPERIMENT_JSON = json_format({name: p for p, name in enumerate(ExperimentRow._fields)})


def _run_experiment(args: argparse.Namespace, as_json: bool) -> tuple[int, list[str]]:
    n_max = args.counter_n if args.counter_n is not None else 10
    rows = counter_experiment(n_max)
    if as_json:
        format, get = _EXPERIMENT_JSON
        return EXIT_SAT, [format % get([json_string(v) if v.__class__ is str else v for v in row]) for row in rows]
    return EXIT_SAT, ["n  scl_propagations  scl_result  resolution_generated  resolution_result\n"] + [
        f"{r.n:<2d} {r.scl_propagations:>16d}  {r.scl_result:<10s} "
        f"{r.resolution_generated:>20d}  {r.resolution_result}\n"
        for r in rows
    ]


_HANDLERS: dict[str, Callable[[argparse.Namespace, bool], tuple[int, list[str]]]] = {
    "cdcl": _run_cdcl,
    "scl": _run_scl,
    "resolution": _run_resolution,
    "resolution-replay": _run_replay,
    "lia-propagate": _run_lia_propagate,
    "lia-decide": _run_lia_decide,
    "counter-experiment": _run_experiment,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="clausekit",
        description="Model-guided and saturation-based reasoning workbench",
    )
    parser.add_argument("--mode", required=True, choices=tuple(_HANDLERS))
    parser.add_argument("--input", help="path to a DIMACS, BS clause, or LIA file")
    parser.add_argument("--counter-n", type=int, help="generate the n-bit counter problem")
    parser.add_argument(
        "--selection", choices=tuple(resolution.SELECTIONS), help=f"resolution only (default {DEFAULT_SELECTION})"
    )
    parser.add_argument(
        "--precedence",
        help="resolution only: symbol precedence override, greatest first, e.g. '1>0'",
    )
    parser.add_argument("--heuristic", choices=sorted(cdcl.HEURISTICS), help=f"cdcl only (default {DEFAULT_HEURISTIC})")
    parser.add_argument(
        "--max-steps",
        type=int,
        help=f"scl, resolution and lia-propagate only: SCL trail cap (default {scl.DEFAULT_TRAIL_CAP:,}), "
        f"generated clauses or bound tightenings (default {DEFAULT_MAX_STEPS:,})",
    )
    parser.add_argument(
        "--max-instances", type=int, help=f"scl only: ground instance cap (default {scl.DEFAULT_INSTANCE_CAP:,})"
    )
    parser.add_argument("--replay", help="derivation script file for resolution-replay")
    parser.add_argument(
        "--decide", action="append", default=[], help="lia-propagate only: decision bound, e.g. 'x>=0'"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    try:
        with contextlib.redirect_stdout(out):  # --help prints to stdout
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        validate(args)
        code, lines = _HANDLERS[args.mode](args, args.format == "json")
    except (OSError, ClausekitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # not the input's fault, and not a limit: under console_main it would exit with 1
        import traceback  # only a crash needs it, so the CLI's start does not pay for it

        print(f"internal error: {traceback.format_exc()}", end="", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        out.writelines(lines)
        out.flush()  # a closed pipe or a full disk fails here, not at exit
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does: nothing to report
        return EXIT_CLOSED_OUTPUT
    except (OSError, ValueError) as exc:  # a full disk, an encoding without `σ` or `⊥`, a closed `out`
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    return code


def console_main() -> None:
    code = main()
    if code == EXIT_CLOSED_OUTPUT:  # what stdout still buffers would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_main()
