"""Per-layer tracing by wrapping clausekit's module functions from outside.

Each wrapped function is replaced, in the namespace its callers look it up
in, by a wrapper that counts calls and, unless it is one of the hottest
functions, times them.  A call's self time is its duration minus the time of
the wrapped calls inside it, so the timed layers add up to the verdict time.
Counts of engine work come from the results the wrapped functions return.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from clausekit import cdcl, cli, formats, lia, logic, ordering, resolution, scl


class Tracer:
    """Wraps clausekit's layers; `clock` is the sampler whose time is taken out of every call."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner: object, name: str, wrapper: Callable) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def time(self, owner: object, name: str, key: str, on_call: Callable | None = None) -> None:
        fn = getattr(owner, name)
        stack = self._stack

        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            sampling = clock.sampling_s
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0 - (clock.sampling_s - sampling)
                inner = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - inner
                self.inclusive_s[key] += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_call is not None:
                t1 = time.perf_counter()
                on_call(args, result)
                if stack:  # bookkeeping, not the caller's own work
                    stack[-1] += time.perf_counter() - t1
            return result

        self._replace(owner, name, wrapper)

    def count(self, owner: object, name: str, key: str) -> None:
        fn = getattr(owner, name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        self._replace(owner, name, wrapper)

    def install(self) -> None:
        counts = self.counts

        def cdcl_result(args, result):
            for ev in result.state.events:
                counts[f"cdcl.{ev[0]}"] += 1

        def scl_result(args, result):
            counts["scl.propagations"] += result.stats.propagations
            counts["scl.decisions"] += result.stats.decisions

        def grounded(args, problem):
            counts["scl.instances"] += len(problem.instances)
            counts["scl.atoms"] += len(problem.atoms)

        def saturated(args, result):
            counts["resolution.generated"] += result.generated
            counts["resolution.kept"] += result.kept

        def bounds(args, result):
            counts["lia.tightenings"] += sum(1 for b in result.trail if b.reason is not None)

        def parsed(args, result):
            counts["formats.bytes"] += len(args[0].encode())

        self.time(cli, "main", "cli")
        self.time(cdcl, "solve", "cdcl.solve", cdcl_result)
        self.time(cdcl, "propagate", "cdcl.propagate")
        self.time(cdcl, "decide", "cdcl.decide")
        self.time(cdcl, "analyze_conflict", "cdcl.analyze")
        self.time(cdcl, "backjump_and_learn", "cdcl.backjump")
        for module in (cdcl, scl):
            self.count(module, "clause_status", "cdcl.clause_status")
        self.time(scl, "scl_run", "scl.run", scl_result)
        self.time(scl, "ground_problem", "scl.ground", grounded)
        self.time(scl.SclState, "reclassify", "scl.classify")
        self.time(scl, "scl_propagate", "scl.propagate")
        self.time(scl, "resolve_1uip", "scl.analyze")
        self.time(resolution, "saturate", "resolution.saturate", saturated)
        self.time(resolution, "subsumes", "resolution.subsumes")
        self.time(resolution, "replay", "resolution.replay")
        self.time(cli, "check_linear_refutation", "resolution.replay")
        for module in (logic, resolution):
            self.time(module, "unify", "logic.unify")
        self.count(resolution, "rename_apart", "logic.rename_apart")
        self.count(resolution, "match_atoms", "logic.match")
        self.time(resolution, "literal_is_maximal", "ordering.maximal")
        self.count(ordering, "kbo_compare", "ordering.kbo")
        self.time(cli, "default_config", "ordering.config")
        self.time(lia, "propagate_bounds", "lia.propagate", bounds)
        self.count(lia, "implied_bound", "lia.implied_bound")
        self.time(lia, "conflicting_inequation", "lia.conflict_scan")
        self.time(lia, "decide_bounded", "lia.decide")
        for name in ("parse_dimacs", "parse_bs", "parse_lia", "parse_script"):
            self.time(formats, name, "formats.parse", parsed)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def metrics(self, scale: float, trace_lines: int, trace_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; `scale` converts raw seconds to normalized ones."""
        ms = lambda key: self.self_s[key] * scale * 1e3
        incl_us = lambda key: self.inclusive_s[key] * scale * 1e6
        per = lambda a, b: a / b if b else 0.0
        c, n = self.counts, self.calls
        cdcl_props, conflicts = c["cdcl.propagate"], c["cdcl.conflict"]
        scl_props = c["scl.propagations"]
        parse_s = self.self_s["formats.parse"] * scale
        return {
            "cdcl.propagate_ms": (ms("cdcl.propagate"), "ms"),
            "cdcl.decide_ms": (ms("cdcl.decide"), "ms"),
            "cdcl.analyze_ms": (ms("cdcl.analyze"), "ms"),
            "cdcl.backjump_ms": (ms("cdcl.backjump"), "ms"),
            "cdcl.clause_status_calls": (n["cdcl.clause_status"], "count"),
            "cdcl.status_calls_per_propagation": (per(n["cdcl.clause_status"], cdcl_props + scl_props), "ratio"),
            "cdcl.us_per_conflict": (per(incl_us("cdcl.solve"), conflicts), "us"),
            "cdcl.us_per_propagation": (per(incl_us("cdcl.solve"), cdcl_props), "us"),
            "cdcl.propagations": (cdcl_props, "count"),
            "cdcl.conflicts": (conflicts, "count"),
            "scl.ground_ms": (ms("scl.ground"), "ms"),
            "scl.classify_ms": (ms("scl.classify"), "ms"),
            "scl.propagate_ms": (ms("scl.propagate"), "ms"),
            "scl.analyze_ms": (ms("scl.analyze"), "ms"),
            "scl.instances": (c["scl.instances"], "count"),
            "scl.atoms": (c["scl.atoms"], "count"),
            "scl.instances_per_propagation": (per(c["scl.instances"], scl_props), "ratio"),
            "scl.us_per_propagation": (per(incl_us("scl.run"), scl_props), "us"),
            "scl.propagations": (scl_props, "count"),
            "scl.decisions": (c["scl.decisions"], "count"),
            "resolution.saturate_ms": (ms("resolution.saturate"), "ms"),
            "resolution.generated": (c["resolution.generated"], "count"),
            "resolution.kept": (c["resolution.kept"], "count"),
            "resolution.subsumes_calls": (n["resolution.subsumes"], "count"),
            "resolution.subsumes_ms": (ms("resolution.subsumes"), "ms"),
            "resolution.subsumes_per_kept": (per(n["resolution.subsumes"], c["resolution.kept"]), "ratio"),
            "resolution.inferences_per_s": (
                per(c["resolution.generated"], self.inclusive_s["resolution.saturate"] * scale), "1/s"),
            "resolution.replay_ms": (ms("resolution.replay"), "ms"),
            "logic.unify_calls": (n["logic.unify"], "count"),
            "logic.unify_ms": (ms("logic.unify"), "ms"),
            "logic.rename_apart_calls": (n["logic.rename_apart"], "count"),
            "logic.match_calls": (n["logic.match"], "count"),
            "ordering.maximal_checks": (n["ordering.maximal"], "count"),
            "ordering.kbo_calls": (n["ordering.kbo"], "count"),
            "ordering.ms": (ms("ordering.maximal") + ms("ordering.config"), "ms"),
            "lia.propagate_self_ms": (ms("lia.propagate"), "ms"),
            "lia.tightenings": (c["lia.tightenings"], "count"),
            "lia.us_per_tightening": (per(incl_us("lia.propagate"), c["lia.tightenings"]), "us"),
            "lia.implied_bound_calls": (n["lia.implied_bound"], "count"),
            "lia.conflict_scan_calls": (n["lia.conflict_scan"], "count"),
            "lia.conflict_scan_ms": (ms("lia.conflict_scan"), "ms"),
            "lia.decide_ms": (ms("lia.decide"), "ms"),
            "cli.emit_ms": (ms("cli"), "ms"),
            "cli.trace_lines": (trace_lines, "count"),
            "cli.trace_kb": (trace_bytes / 1024, "KB"),
            "formats.parse_ms": (parse_s * 1e3, "ms"),
            "formats.parse_mb_per_s": (per(c["formats.bytes"] / 1e6, parse_s), "MB/s"),
        }
