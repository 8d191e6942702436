"""Command-line front end dispatching to the four reasoning engines.

Each mode parses its input, runs its engine and writes the lines that the
engine's `render` gives for the result, as text or as JSON lines; only the
counter experiment formats its own table.

Exit codes follow the DIMACS solver convention: 10 for satisfiable/saturated
outcomes, 20 for unsatisfiable, 1 for resource or step limits, 2 for usage and
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, TextIO

from . import cdcl, formats, lia, resolution, scl
from .errors import ClausekitError, ParseError, ReplayStepError, ResourceLimitError
from .logic import Clause
from .ordering import OrderingConfig, config_with_precedence, default_config
from .resolution import check_linear_refutation, linear_counter_script
from .scl import counter_problem

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_LIMIT = 1
EXIT_USAGE = 2

MODES = (
    "cdcl",
    "scl",
    "resolution",
    "resolution-replay",
    "lia-propagate",
    "lia-decide",
    "counter-experiment",
)

HEURISTICS: dict[str, cdcl.DecisionHeuristic] = {
    "lowest-negative": cdcl.lowest_index_negative,
    "lowest-positive": cdcl.lowest_index_positive,
}

COUNTER_N_CAP = 12
DEFAULT_MAX_STEPS = 10_000  # resolution and lia-propagate; scl uses scl.DEFAULT_TRAIL_CAP
DEFAULT_HEURISTIC = "lowest-negative"
DEFAULT_SELECTION = "none"


@dataclass
class RunConfig:
    mode: str
    input: str | None = None
    counter_n: int | None = None
    # None: not given, so the mode's own default
    selection: str | None = None
    precedence: list[str] | None = None
    heuristic: str | None = None
    max_steps: int | None = None
    max_instances: int | None = None
    replay: str | None = None
    decisions: list[str] = field(default_factory=list)
    format: str = "text"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.max_steps is not None and self.max_steps < 0) or (
            self.max_instances is not None and self.max_instances <= 0
        ):
            raise ValueError("limits must be positive")
        for flag, given, mode in (
            ("--heuristic", self.heuristic, "cdcl"),
            ("--selection", self.selection, "resolution"),
            ("--precedence", self.precedence, "resolution"),
            ("--max-instances", self.max_instances, "scl"),
        ):
            if given is not None and self.mode != mode:
                raise ValueError(f"{flag} only applies to mode {mode}")
        if self.mode == "counter-experiment":
            n = self.counter_n if self.counter_n is not None else 10
            if not 1 <= n <= COUNTER_N_CAP:
                raise ValueError(f"--counter-n must be within 1..{COUNTER_N_CAP}")
        elif self.mode in ("cdcl", "lia-propagate", "lia-decide"):
            if self.input is None:
                raise ValueError(f"mode {self.mode} needs --input")
            if self.counter_n is not None:
                raise ValueError(f"--counter-n does not apply to mode {self.mode}")
        else:
            if (self.input is None) == (self.counter_n is None):
                raise ValueError(f"mode {self.mode} needs exactly one of --input or --counter-n")
        if self.mode == "resolution-replay" and self.replay is None:
            raise ValueError("mode resolution-replay needs --replay")
        if self.replay is not None and self.mode != "resolution-replay":
            raise ValueError("--replay only applies to mode resolution-replay")
        if self.decisions and self.mode != "lia-propagate":
            raise ValueError("--decide only applies to mode lia-propagate")
        if self.counter_n is not None and self.counter_n < 1:
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


def _bs_clauses(config: RunConfig) -> list[Clause]:
    if config.counter_n is not None:
        return counter_problem(config.counter_n)
    with open(config.input, encoding="utf-8") as handle:
        return formats.parse_bs(handle.read())


def _ordering(config: RunConfig, clauses: list[Clause]) -> OrderingConfig:
    cfg = default_config(clauses)
    if config.precedence:
        cfg = config_with_precedence(cfg, config.precedence)
    return cfg


def _run_cdcl(config: RunConfig, emit: _Emitter) -> int:
    with open(config.input, encoding="utf-8") as handle:
        num_vars, clauses = formats.parse_dimacs(handle.read())
    result = cdcl.solve(clauses, num_vars, HEURISTICS[config.heuristic or DEFAULT_HEURISTIC])
    emit.lines(cdcl.render(result))
    return EXIT_SAT if isinstance(result, cdcl.SatResult) else EXIT_UNSAT


def _max_steps(config: RunConfig, default: int = DEFAULT_MAX_STEPS) -> int:
    """--max-steps as given, 0 included, else the mode's default."""
    return default if config.max_steps is None else config.max_steps


def _run_scl(config: RunConfig, emit: _Emitter) -> int:
    clauses = _bs_clauses(config)
    cap = scl.DEFAULT_INSTANCE_CAP if config.max_instances is None else config.max_instances
    result = scl.scl_run(clauses, instance_cap=cap, trail_cap=_max_steps(config, scl.DEFAULT_TRAIL_CAP))
    emit.lines(scl.render(result))
    if isinstance(result, scl.SclSat):
        return EXIT_SAT
    if isinstance(result, scl.SclUnsat):
        return EXIT_UNSAT
    return EXIT_LIMIT


def _run_resolution(config: RunConfig, emit: _Emitter) -> int:
    clauses = _bs_clauses(config)
    cfg = _ordering(config, clauses)
    sel = resolution.selection_from_name(config.selection or DEFAULT_SELECTION)
    result = resolution.saturate(clauses, cfg, sel, max_generated=_max_steps(config))
    emit.lines(resolution.render(result))
    if result.outcome == "unsat":
        return EXIT_UNSAT
    if result.outcome == "saturated":
        return EXIT_SAT
    return EXIT_LIMIT


def _run_replay(config: RunConfig, emit: _Emitter) -> int:
    clauses = _bs_clauses(config)
    with open(config.replay, encoding="utf-8") as handle:
        script = formats.parse_script(handle.read())
    derived = resolution.replay(clauses, script)
    emit.lines(resolution.render(derived))
    return EXIT_UNSAT if derived and derived[-1].clause.is_empty else EXIT_SAT


def _lia_system(config: RunConfig) -> lia.LiaSystem:
    with open(config.input, encoding="utf-8") as handle:
        return formats.parse_lia(handle.read())


def _run_lia_propagate(config: RunConfig, emit: _Emitter) -> int:
    system = _lia_system(config)
    decisions = [formats.parse_bound(b) for b in config.decisions]
    result = lia.propagate_bounds(system, decisions, _max_steps(config))
    emit.lines(lia.render(result))
    if isinstance(result, lia.LiaFixpoint):
        return EXIT_SAT
    if isinstance(result, lia.LiaConflict):
        return EXIT_UNSAT
    return EXIT_LIMIT


def _run_lia_decide(config: RunConfig, emit: _Emitter) -> int:
    result = lia.decide_bounded(_lia_system(config))
    emit.lines(lia.render(result))
    return EXIT_SAT if isinstance(result, lia.LiaSat) else EXIT_UNSAT


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
    wall_times: dict[str, float]


@dataclass
class ExperimentReport:
    rows: list[ExperimentRow]

    def table_lines(self) -> list[str]:
        lines = ["n  scl_propagations  scl_result  resolution_generated  resolution_result"]
        for r in self.rows:
            lines.append(
                f"{r.n:<2d} {r.scl_propagations:>16d}  {r.scl_result:<10s} "
                f"{r.resolution_generated:>20d}  {r.resolution_result}"
            )
        return lines


def counter_experiment(n_max: int, cap: int = COUNTER_N_CAP) -> ExperimentReport:
    """Run the ground engine and the linear refutation on counters of 1..n_max bits.

    The model-guided side performs 2**n propagations before its verdict; the
    resolution side replays the generated linear derivation (ordering checked
    step by step), which takes 2n inferences.
    """
    if not 1 <= n_max <= cap:
        raise ValueError(f"n_max must be within 1..{cap}")
    rows = []
    for n in range(1, n_max + 1):
        clauses = counter_problem(n)
        t0 = time.perf_counter()
        scl_result = scl.scl_run(clauses)
        t1 = time.perf_counter()
        if isinstance(scl_result, scl.SclResourceExceeded):
            rows.append(
                ExperimentRow(n, scl_result.stats.propagations, "resource", 0, "skipped",
                              {"scl": t1 - t0, "resolution": 0.0})
            )
            continue
        cfg = default_config(clauses)
        script = linear_counter_script(n)
        t2 = time.perf_counter()
        derived = check_linear_refutation(clauses, script, cfg)
        t3 = time.perf_counter()
        rows.append(
            ExperimentRow(
                n=n,
                scl_propagations=scl_result.stats.propagations,
                scl_result="unsat" if isinstance(scl_result, scl.SclUnsat) else "sat",
                resolution_generated=len(derived),
                resolution_result="unsat" if derived[-1].clause.is_empty else "incomplete",
                wall_times={"scl": t1 - t0, "resolution": t3 - t2},
            )
        )
    return ExperimentReport(rows)


def _run_experiment(config: RunConfig, emit: _Emitter) -> int:
    n_max = config.counter_n if config.counter_n is not None else 10
    report = counter_experiment(n_max)
    if emit.as_json:
        for row in report.rows:
            emit.out.write(json.dumps(asdict(row), sort_keys=True) + "\n")
    else:
        emit.lines((line, {}) for line in report.table_lines())
    return EXIT_SAT


_HANDLERS: dict[str, Callable[[RunConfig, _Emitter], int]] = {
    "cdcl": _run_cdcl,
    "scl": _run_scl,
    "resolution": _run_resolution,
    "resolution-replay": _run_replay,
    "lia-propagate": _run_lia_propagate,
    "lia-decide": _run_lia_decide,
    "counter-experiment": _run_experiment,
}


def run(config: RunConfig, out: TextIO = sys.stdout) -> int:
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit = _Emitter(out, config.format == "json")
    try:
        return _HANDLERS[config.mode](config, emit)
    except (ParseError, ReplayStepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (OSError, ClausekitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clausekit",
        description="Model-guided and saturation-based reasoning workbench",
    )
    parser.add_argument("--mode", required=True, choices=MODES)
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    precedence = None
    if args.precedence is not None:
        precedence = [s.strip() for s in args.precedence.split(">") if s.strip()]
    return RunConfig(
        mode=args.mode,
        input=args.input,
        counter_n=args.counter_n,
        selection=args.selection,
        precedence=precedence,
        heuristic=args.heuristic,
        max_steps=args.max_steps,
        max_instances=args.max_instances,
        replay=args.replay,
        decisions=list(args.decide),
        format=args.format,
    )


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return run(config_from_args(args), out)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
