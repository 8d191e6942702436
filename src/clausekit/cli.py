"""Command-line front end dispatching to the four reasoning engines.

Each mode parses its input, runs its engine and writes the lines that the
engine's `render` gives for the result, as text or as JSON lines; only the
counter experiment formats its own table.

Each engine run returns one result with a `verdict`, which `EXIT_CODES` maps
to the exit code after the DIMACS solver convention: 10 for satisfiable or
saturated, 20 for unsatisfiable, 1 for resource or step limits.  Usage and
parse errors exit with 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence, TextIO

from . import cdcl, formats, lia, resolution, scl
from .errors import ClausekitError, ResourceLimitError
from .logic import Clause
from .ordering import OrderingConfig, config_with_precedence, default_config
from .resolution import check_linear_refutation, linear_counter_script
from .scl import counter_problem

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_LIMIT = 1
EXIT_USAGE = 2

# every verdict an engine's result can hold, and its exit code
EXIT_CODES = {"sat": EXIT_SAT, "fixpoint": EXIT_SAT, "saturated": EXIT_SAT, "unsat": EXIT_UNSAT,
              "conflict": EXIT_UNSAT, "limit": EXIT_LIMIT, "diverged": EXIT_LIMIT}

HEURISTICS: dict[str, cdcl.DecisionHeuristic] = {
    "lowest-negative": cdcl.lowest_index_negative,
    "lowest-positive": cdcl.lowest_index_positive,
}

COUNTER_N_CAP = 12
DEFAULT_MAX_STEPS = 10_000  # resolution and lia-propagate; scl uses scl.DEFAULT_TRAIL_CAP
DEFAULT_HEURISTIC = "lowest-negative"
DEFAULT_SELECTION = "none"


def validate(args: argparse.Namespace) -> None:
    """Reject flag combinations the mode cannot use; unset flags are None."""
    if (args.max_steps is not None and args.max_steps < 0) or (
        args.max_instances is not None and args.max_instances <= 0
    ):
        raise ValueError("limits must be positive")
    for flag, given, mode in (
        ("--heuristic", args.heuristic, "cdcl"),
        ("--selection", args.selection, "resolution"),
        ("--precedence", args.precedence, "resolution"),
        ("--max-instances", args.max_instances, "scl"),
    ):
        if given is not None and args.mode != mode:
            raise ValueError(f"{flag} only applies to mode {mode}")
    if args.mode == "counter-experiment":
        n = args.counter_n if args.counter_n is not None else 10
        if not 1 <= n <= COUNTER_N_CAP:
            raise ValueError(f"--counter-n must be within 1..{COUNTER_N_CAP}")
    elif args.mode in ("cdcl", "lia-propagate", "lia-decide"):
        if args.input is None:
            raise ValueError(f"mode {args.mode} needs --input")
        if args.counter_n is not None:
            raise ValueError(f"--counter-n does not apply to mode {args.mode}")
    else:
        if (args.input is None) == (args.counter_n is None):
            raise ValueError(f"mode {args.mode} needs exactly one of --input or --counter-n")
    if args.mode == "resolution-replay" and args.replay is None:
        raise ValueError("mode resolution-replay needs --replay")
    if args.replay is not None and args.mode != "resolution-replay":
        raise ValueError("--replay only applies to mode resolution-replay")
    if args.decide and args.mode != "lia-propagate":
        raise ValueError("--decide only applies to mode lia-propagate")
    if args.counter_n is not None and args.counter_n < 1:
        raise ValueError("--counter-n must be positive")


class _Emitter:
    """Writes rendered (text line, JSON fields) pairs as plain text or as JSON lines."""

    def __init__(self, out: TextIO, as_json: bool):
        self.out = out
        self.as_json = as_json

    def lines(self, rendered: Iterable[tuple[str, dict]]) -> None:
        write = self.out.write
        if self.as_json:
            for text, fields in rendered:
                write(json.dumps({"line": text, **fields}, sort_keys=True) + "\n")
        else:
            for text, _ in rendered:
                write(text + "\n")


def _bs_clauses(args: argparse.Namespace) -> Sequence[Clause]:
    if args.counter_n is not None:
        return counter_problem(args.counter_n)
    with open(args.input, encoding="utf-8") as handle:
        return formats.parse_bs(handle.read())


def _ordering(args: argparse.Namespace, clauses: Sequence[Clause]) -> OrderingConfig:
    cfg = default_config(clauses)
    if args.precedence is not None:
        cfg = config_with_precedence(cfg, [p.strip() for p in args.precedence.split(">")])
    return cfg


def _run_cdcl(args: argparse.Namespace, emit: _Emitter) -> int:
    with open(args.input, encoding="utf-8") as handle:
        num_vars, clauses = formats.parse_dimacs(handle.read())
    result = cdcl.solve(clauses, num_vars, HEURISTICS[args.heuristic or DEFAULT_HEURISTIC])
    emit.lines(cdcl.render(result))
    return EXIT_CODES[result.verdict]


def _max_steps(args: argparse.Namespace, default: int = DEFAULT_MAX_STEPS) -> int:
    """--max-steps as given, 0 included, else the mode's default."""
    return default if args.max_steps is None else args.max_steps


def _run_scl(args: argparse.Namespace, emit: _Emitter) -> int:
    clauses = _bs_clauses(args)
    cap = scl.DEFAULT_INSTANCE_CAP if args.max_instances is None else args.max_instances
    result = scl.scl_run(clauses, instance_cap=cap, trail_cap=_max_steps(args, scl.DEFAULT_TRAIL_CAP))
    emit.lines(scl.render(result))
    return EXIT_CODES[result.verdict]


def _run_resolution(args: argparse.Namespace, emit: _Emitter) -> int:
    clauses = _bs_clauses(args)
    cfg = _ordering(args, clauses)
    sel = resolution.selection_from_name(args.selection or DEFAULT_SELECTION)
    result = resolution.saturate(clauses, cfg, sel, max_generated=_max_steps(args))
    emit.lines(resolution.render(result))
    return EXIT_CODES[result.verdict]


def _run_replay(args: argparse.Namespace, emit: _Emitter) -> int:
    clauses = _bs_clauses(args)
    with open(args.replay, encoding="utf-8") as handle:
        script = formats.parse_script(handle.read())
    derived = resolution.replay(clauses, script)
    emit.lines(resolution.render(derived))
    return EXIT_CODES["unsat" if derived and derived[-1].clause.is_empty else "sat"]


def _lia_system(args: argparse.Namespace) -> lia.LiaSystem:
    with open(args.input, encoding="utf-8") as handle:
        return formats.parse_lia(handle.read())


def _run_lia_propagate(args: argparse.Namespace, emit: _Emitter) -> int:
    system = _lia_system(args)
    decisions = [formats.parse_bound(b) for b in args.decide]
    result = lia.propagate_bounds(system, decisions, _max_steps(args))
    emit.lines(lia.render(result))
    return EXIT_CODES[result.verdict]


def _run_lia_decide(args: argparse.Namespace, emit: _Emitter) -> int:
    result = lia.decide_bounded(_lia_system(args))
    emit.lines(lia.render(result))
    return EXIT_CODES[result.verdict]


# ---------------------------------------------------------------------------
# Counter-family scaling experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRow:
    n: int
    scl_propagations: int
    scl_result: str
    resolution_generated: int
    resolution_result: str


def counter_experiment(n_max: int) -> list[ExperimentRow]:
    """Run the ground engine and the linear refutation on counters of 1..n_max bits.

    The model-guided side performs 2**n propagations before its verdict; the
    resolution side replays the generated linear derivation (ordering checked
    step by step), which takes 2n inferences.
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


def _run_experiment(args: argparse.Namespace, emit: _Emitter) -> int:
    n_max = args.counter_n if args.counter_n is not None else 10
    rows = counter_experiment(n_max)
    if emit.as_json:
        for row in rows:
            emit.out.write(json.dumps(asdict(row), sort_keys=True) + "\n")
    else:
        emit.out.write("n  scl_propagations  scl_result  resolution_generated  resolution_result\n")
        for r in rows:
            emit.out.write(
                f"{r.n:<2d} {r.scl_propagations:>16d}  {r.scl_result:<10s} "
                f"{r.resolution_generated:>20d}  {r.resolution_result}\n"
            )
    return EXIT_SAT


_HANDLERS: dict[str, Callable[[argparse.Namespace, _Emitter], int]] = {
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
        "--selection", choices=("none", "first-negative"), help=f"resolution only (default {DEFAULT_SELECTION})"
    )
    parser.add_argument(
        "--precedence",
        help="resolution only: symbol precedence override, greatest first, e.g. '1>0'",
    )
    parser.add_argument("--heuristic", choices=sorted(HEURISTICS), help=f"cdcl only (default {DEFAULT_HEURISTIC})")
    parser.add_argument(
        "--max-steps",
        type=int,
        help=f"step budget: SCL trail cap (default {scl.DEFAULT_TRAIL_CAP:,}), "
        f"generated clauses or bound tightenings (default {DEFAULT_MAX_STEPS:,})",
    )
    parser.add_argument(
        "--max-instances", type=int, help=f"scl only: ground instance cap (default {scl.DEFAULT_INSTANCE_CAP:,})"
    )
    parser.add_argument("--replay", help="derivation script file for resolution-replay")
    parser.add_argument(
        "--decide", action="append", default=[], help="decision bound for lia modes, e.g. 'x>=0'"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        validate(args)
        return _HANDLERS[args.mode](args, _Emitter(out, args.format == "json"))
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (OSError, ClausekitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
