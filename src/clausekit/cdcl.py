"""Propositional CDCL over the five-tuple state (M, N, U, k, C), and the trail engine it shares with SCL.

`TrailKernel` holds the trail and two watched literals per clause; an
assignment visits only the clauses watching the literal it falsifies.  The
step rules here run CDCL over clause ids and the SCL engine
(`clausekit.scl`) over ground instances: propagate, decide, learn (backjump,
hook, assert), the lowest unassigned atom, and 1UIP analysis in one backward
trail walk.  The engines differ only in the kernel's hooks (`unit_key`,
`conflict_key`, `assign`).  CDCL adds manual forgetting and the trail-induced
clause ordering.  Literals are DIMACS-style signed integers.
Traces stay deterministic: the conflict is the smallest-id false clause and
the propagating clause the smallest-id unit clause, as in an id-order scan.
Events are tuples on the kernel; `render` turns a result into output lines.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ResourceLimitError


@dataclass(frozen=True, slots=True)
class PropClause:
    id: int
    lits: tuple[int, ...]

    def __post_init__(self):
        if any(l == 0 for l in self.lits):
            raise ValueError("0 is not a literal")

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.lits) if self.lits else "⊥"


class TrailEntry(NamedTuple):
    lit: int
    level: int
    reason: int | None  # propagating clause id; None marks a decision


def clause_status(lits: Sequence[int], value: dict[int, bool]) -> tuple[str, int | None]:
    """Classify a clause under a partial assignment: sat, false, unit or open."""
    unassigned = None
    count = 0
    for lit in lits:
        v = value.get(abs(lit))
        if v is None:
            count += 1
            unassigned = lit
        elif v == (lit > 0):
            return "sat", None
    if count == 0:
        return "false", None
    if count == 1:
        return "unit", unassigned
    return "open", None


@dataclass(kw_only=True)
class TrailKernel:
    """The trail, value and level tables, and the two-watched-literal index over clause ids.

    Each hooked clause keeps its literals with the watched ones in the first
    two positions (`watched`); `watchers` lists the clauses watching each
    literal, `pending` is a heap of (unit_key, clause id, unit literal) for
    the unit clauses, and `false_ids` holds the false clauses.  A one-literal
    clause is padded to two positions and watched once.  Whenever no clause
    is false, every clause that is neither satisfied nor on the heap has two
    non-false watched positions.  Satisfied heap entries are dropped when they
    reach the top.  `cursor` is at or below the smallest unassigned atom.
    """

    trail: list[TrailEntry] = field(default_factory=list)
    level: int = 0
    value: dict[int, bool] = field(default_factory=dict)
    var_level: dict[int, int] = field(default_factory=dict)
    watched: dict[int, Sequence[int]] = field(default_factory=dict, repr=False)
    watchers: defaultdict[int, list[int]] = field(default_factory=lambda: defaultdict(list), repr=False)
    pending: list[tuple] = field(default_factory=list, repr=False)
    false_ids: set[int] = field(default_factory=set, repr=False)
    events: list[tuple] = field(default_factory=list)
    cursor: int = 1

    def unit_key(self, cid: int, lit: int):
        """Heap order of the pending units; the smallest propagates first."""
        return cid

    def conflict_key(self, cid: int):
        """Order of the false clauses; the smallest is the conflict."""
        return cid

    def watch(self, cid: int, lits: Sequence[int]) -> None:
        """Hook a clause into the kernel, watching lits[0] and lits[1].

        A clause is hooked under the empty trail, or learned and asserting
        after a backjump; then a clause of three or more literals is
        reordered to watch its asserting literal and its highest-level other
        literal (`assign` reads both positions of a shorter one alike).  An
        empty clause is false; a one-literal clause is unit until its literal
        is assigned.  Only clauses of three or more literals are copied:
        `assign` moves watches within those alone.
        """
        if not lits:
            self.false_ids.add(cid)
            return
        if len(lits) > 2:
            if self.trail:
                lits = sorted(lits, key=lambda l: (abs(l) in self.value, -self.var_level.get(abs(l), 0)))
            else:
                lits = list(lits)
        if len(lits) == 1:
            heapq.heappush(self.pending, (self.unit_key(cid, lits[0]), cid, lits[0]))
            self.watched[cid] = (lits[0], lits[0])
        else:
            self.watched[cid] = lits
        watchers = self.watchers
        for lit in lits[:2]:
            if lit in watchers:
                watchers[lit].append(cid)
            else:
                watchers[lit] = [cid]  # sized to one: most literals of a large ground problem have one watcher

    def unwatch(self, cid: int) -> None:
        """Unhook a clause: its watches, its heap entry and its false mark."""
        for lit in set(self.watched.pop(cid, ())[:2]):
            self.watchers[lit] = [c for c in self.watchers[lit] if c != cid]
        self.false_ids.discard(cid)
        self.pending = [entry for entry in self.pending if entry[1] != cid]
        heapq.heapify(self.pending)

    def assign(self, lit: int, reason: int | None) -> None:
        """Put lit on the trail at the current level, then visit every clause watching its complement.

        A visited clause moves the watch to a non-false position when it has one;
        otherwise it becomes unit (pushed on the heap) or false, unless its other
        watch is true.  The whole watch list is visited, so every clause made false
        by lit is recorded, not just the first.
        """
        value = self.value
        self.trail.append(TrailEntry(lit, self.level, reason))
        value[abs(lit)] = lit > 0
        self.var_level[abs(lit)] = self.level
        false_lit = -lit
        watchers = self.watchers
        watching = watchers.get(false_lit)
        if not watching:
            return
        watched = self.watched
        stay = []
        for cid in watching:
            lits = watched[cid]
            other = lits[1] if lits[0] == false_lit else lits[0]
            other_value = value.get(abs(other))
            if other_value is not None and other_value == (other > 0):
                stay.append(cid)
                continue
            for k in range(2, len(lits)):
                candidate = lits[k]
                v = value.get(abs(candidate))
                if v is None or v == (candidate > 0):
                    lits[0], lits[1], lits[k] = other, candidate, false_lit
                    watchers[candidate].append(cid)
                    break
            else:
                stay.append(cid)
                if other_value is None:
                    heapq.heappush(self.pending, (self.unit_key(cid, other), cid, other))
                else:
                    self.false_ids.add(cid)
        watchers[false_lit] = stay

    def _drop_satisfied(self) -> list[tuple]:
        """Pop satisfied clauses off the top of the heap and return the heap.

        Called only while no clause is false, so an assigned unit literal is true.
        """
        pending = self.pending
        while pending and abs(pending[0][2]) in self.value:
            heapq.heappop(pending)
        return pending

    def pop_unit(self) -> tuple[int, int] | None:
        """The next unit clause in unit_key order, as (clause id, literal), or None."""
        pending = self._drop_satisfied()
        if not pending:
            return None
        _, cid, lit = heapq.heappop(pending)
        return cid, lit

    def truncate(self, level: int) -> None:
        """Undo the trail above the level, moving `cursor` back, and forget the pending units and false clauses.

        Decisions are made only at a fixpoint without false clauses, so no
        clause is unit or false at the level the trail returns to.
        """
        trail, cursor = self.trail, self.cursor
        while trail and trail[-1].level > level:
            atom = abs(trail.pop().lit)
            del self.value[atom]
            del self.var_level[atom]
            if atom < cursor:
                cursor = atom
        self.cursor = cursor
        self.level = level
        self.pending.clear()
        self.false_ids.clear()


@dataclass
class CdclState(TrailKernel):
    """The solver five-tuple on the trail kernel, plus an event log."""

    clauses: dict[int, PropClause]
    input_ids: frozenset[int]
    num_vars: int
    learned_ids: list[int] = field(default_factory=list)
    conflict_id: int | None = None  # None means "no conflict" (the top slot)
    next_clause_id: int = 1
    last_analysis_steps: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for c in self.clauses.values():
            self.watch(c.id, c.lits)

    @classmethod
    def from_clauses(cls, clauses: Iterable[PropClause], num_vars: int | None = None) -> "CdclState":
        by_id: dict[int, PropClause] = {}
        for c in clauses:
            if c.id in by_id:
                raise ValueError(f"duplicate clause id {c.id}")
            by_id[c.id] = c
        max_atom = max((abs(l) for c in by_id.values() for l in c.lits), default=0)
        if num_vars is None:
            num_vars = max_atom
        elif max_atom > num_vars:
            raise ValueError("clause mentions an atom beyond num_vars")
        return cls(
            clauses=by_id,
            input_ids=frozenset(by_id),
            num_vars=num_vars,
            next_clause_id=max(by_id, default=0) + 1,
        )

    @property
    def learned(self) -> list[PropClause]:
        return [self.clauses[i] for i in self.learned_ids]


def propagate_units(kernel: TrailKernel, trail_cap: float = math.inf) -> int | None:
    """Assign unit literals until none is left or a clause is false; return the conflict, or None.

    Falsity preempts propagation (eager conflict detection); the conflict is
    the false clause smallest in `conflict_key`, and otherwise the unit
    clause smallest in `unit_key` propagates.  The trail never exceeds trail_cap.
    """
    trail, false_ids, events = kernel.trail, kernel.false_ids, kernel.events
    while not false_ids:
        unit = kernel.pop_unit()
        if unit is None:
            return None
        if len(trail) >= trail_cap:
            raise ResourceLimitError(f"trail length exceeds the cap of {trail_cap}")
        cid, lit = unit
        kernel.assign(lit, cid)
        events.append(("propagate", lit, cid))
    conflict = min(false_ids, key=kernel.conflict_key)
    events.append(("conflict", conflict))
    return conflict


def propagate(state: CdclState) -> CdclState:
    """Unit-propagate to fixpoint; a false clause sets the conflict slot."""
    if state.conflict_id is not None:
        raise ValueError("cannot propagate with a pending conflict")
    state.conflict_id = propagate_units(state)
    return state


def at_fixpoint(state: TrailKernel) -> bool:
    return not state.false_ids and not state._drop_satisfied()


def decide(state: TrailKernel, lit: int) -> TrailKernel:
    """Open a new level with lit as its decision, at a propagation fixpoint (so no conflict is pending)."""
    if abs(lit) in state.value:
        raise ValueError(f"atom {abs(lit)} is already assigned")
    if not at_fixpoint(state):
        raise ValueError("deciding before propagation reached fixpoint")
    state.level += 1
    state.assign(lit, None)
    state.events.append(("decide", lit, state.level))
    return state


def lowest_unassigned(kernel: TrailKernel) -> int:
    """The smallest atom not on the trail, searched from the kernel's cursor on."""
    value, atom = kernel.value, kernel.cursor
    while atom in value:
        atom += 1
    kernel.cursor = atom
    return atom


def resolve_1uip(
    kernel: TrailKernel,
    conflict_lits: Iterable[int],
    reason_lits: Callable[[int], Sequence[int]],
) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    """1UIP resolution in one backward walk over the kernel's trail, at its current level.

    reason_lits maps a reason id to its clause literals.  `seen` marks the
    clause's atoms, `count` those of the conflict level not yet resolved on,
    and `learned` keeps the others.  The walk resolves on each marked trail
    literal until one of the conflict level is left (at level 0, none), as
    MiniSat's analyze does.  Returns (learned, backjump level, steps); an
    empty learned clause is reported as ((), -1, steps).
    """
    trail, lvl, level = kernel.trail, kernel.var_level, kernel.level
    seen, learned, steps = set(), [], []
    count, pos, lits = 0, len(trail), conflict_lits
    while True:
        for lit in lits:
            atom = abs(lit)
            if atom not in seen:
                seen.add(atom)
                if lvl[atom] == level:
                    count += 1
                else:
                    learned.append(lit)
        if not count:
            break
        pos -= 1
        while abs(trail[pos].lit) not in seen:
            pos -= 1
        lit, _, reason = trail[pos]
        count -= 1
        if level and not count:
            learned.append(-lit)
            break
        if reason is None:
            raise ValueError("conflict analysis reached a decision literal")
        steps.append((abs(lit), reason))
        lits = reason_lits(reason)
    if not level:
        return (), -1, steps
    blevel = max((lvl[abs(l)] for l in learned if lvl[abs(l)] != level), default=0)
    return tuple(sorted(learned, key=abs)), blevel, steps


def analyze_conflict(state: CdclState) -> tuple[tuple[int, ...], int]:
    """1UIP analysis of the recorded conflict: (learned clause, backjump level).

    The pair ((), -1) signals an empty learned clause, i.e. unsatisfiability.
    The resolution steps of the analysis are kept on the state for proof logging.
    """
    if state.conflict_id is None:
        raise ValueError("no conflict to analyze")
    learned, blevel, steps = resolve_1uip(
        state, state.clauses[state.conflict_id].lits, lambda cid: state.clauses[cid].lits
    )
    state.last_analysis_steps = steps
    return learned, blevel


def learn_clause(kernel: TrailKernel, cid: int, lits: Sequence[int], level: int) -> None:
    """Backjump to the level, hook the learned clause cid, and assign its asserting literal."""
    kernel.truncate(level)
    kernel.watch(cid, lits)
    kernel.assign(next(l for l in lits if abs(l) not in kernel.value), cid)


def backjump_and_learn(state: CdclState, learned: Sequence[int], level: int) -> CdclState:
    """Check the learned clause, store it under a new id, and learn it at the backjump level.

    As in the Backjump rule, the level is the highest level among the learned
    clause's other literals (0 when it has none).
    """
    learned = tuple(learned)
    if not learned:
        raise ValueError("cannot learn the empty clause")
    if not 0 <= level < state.level:
        raise ValueError("backjump level must be below the current level")
    value, var_level = state.value, state.var_level
    unassigned = [l for l in learned if var_level.get(abs(l), level + 1) > level]
    if len(unassigned) != 1 or any(
        value.get(abs(l)) == (l > 0) for l in learned if l not in unassigned
    ):
        raise ValueError("learned clause is not asserting at the backjump level")
    asserting = unassigned[0]
    if max((var_level[abs(l)] for l in learned if l != asserting), default=level) != level:
        raise ValueError("backjump level is not the highest level of the learned clause's other literals")

    cid = state.next_clause_id
    state.next_clause_id += 1
    state.clauses[cid] = PropClause(cid, learned)
    state.learned_ids.append(cid)
    state.conflict_id = None
    learn_clause(state, cid, learned, level)
    state.events.append(("learn", learned, level, cid))
    return state


def forget(state: CdclState, clause_id: int) -> CdclState:
    """Drop a learned clause that does not justify any current trail entry."""
    if clause_id not in state.learned_ids:
        raise ValueError(f"clause {clause_id} is not a learned clause")
    if any(e.reason == clause_id for e in state.trail):
        raise ValueError(f"clause {clause_id} justifies a trail entry")
    del state.clauses[clause_id]
    state.learned_ids.remove(clause_id)
    state.unwatch(clause_id)
    state.events.append(("forget", clause_id))
    return state


def lowest_index_negative(state: CdclState) -> int:
    """Default decision heuristic: lowest unassigned atom, negative polarity."""
    atom = lowest_unassigned(state)
    if atom > state.num_vars:
        raise ValueError("no unassigned atom left")
    return -atom


def lowest_index_positive(state: CdclState) -> int:
    return -lowest_index_negative(state)


DecisionHeuristic = Callable[[CdclState], int]


@dataclass(frozen=True)
class ProofStep:
    """One conflict analysis: the false clause, its resolutions, the result."""

    conflict_id: int
    steps: tuple[tuple[int, int], ...]  # (resolved atom, propagating clause id)
    learned: tuple[int, ...]


@dataclass
class SatResult:
    model: tuple[int, ...]
    state: CdclState


@dataclass
class UnsatResult:
    proof: list[ProofStep]  # learned-clause sequence; the last entry derives falsum
    state: CdclState


def solve(
    clauses: Iterable[PropClause],
    num_vars: int | None = None,
    heuristic: DecisionHeuristic = lowest_index_negative,
) -> SatResult | UnsatResult:
    """CDCL main loop: propagate, then analyze/backjump, finish, or decide."""
    state = CdclState.from_clauses(clauses, num_vars)
    proof: list[ProofStep] = []
    while True:
        propagate(state)
        if state.conflict_id is not None:
            conflict_id = state.conflict_id
            learned, blevel = analyze_conflict(state)
            proof.append(ProofStep(conflict_id, tuple(state.last_analysis_steps), learned))
            if blevel < 0:
                state.events.append(("unsat",))
                return UnsatResult(proof=proof, state=state)
            backjump_and_learn(state, learned, blevel)
        elif len(state.value) == state.num_vars:
            model = tuple(a if state.value[a] else -a for a in range(1, state.num_vars + 1))
            state.events.append(("sat", model))
            return SatResult(model=model, state=state)
        else:
            decide(state, heuristic(state))


def render(result: SatResult | UnsatResult) -> Iterator[tuple[str, dict]]:
    """The trace of a run in the DIMACS-solver style, one (text line, JSON fields) pair per line."""
    for ev in result.state.events:
        kind = ev[0]
        if kind == "propagate":
            yield f"propagate {ev[1]} <- clause {ev[2]}", {
                "event": "cdcl", "kind": kind, "lit": ev[1], "clause": ev[2]}
        elif kind == "decide":
            yield f"decide {ev[1]} @{ev[2]}", {"event": "cdcl", "kind": kind, "lit": ev[1], "level": ev[2]}
        elif kind == "conflict":
            yield f"conflict clause {ev[1]}", {"event": "cdcl", "kind": kind, "clause": ev[1]}
        elif kind == "learn":
            yield f"learn {' '.join(map(str, ev[1]))} backjump {ev[2]}", {
                "event": "cdcl", "kind": kind, "lits": list(ev[1]), "backjump": ev[2], "clause": ev[3]}
        elif kind == "forget":
            yield f"forget clause {ev[1]}", {"event": "cdcl", "kind": kind}
        elif kind == "sat":
            yield "s SATISFIABLE", {"event": "cdcl", "kind": kind}
            yield f"v {' '.join(map(str, ev[1]))} 0", {"event": "cdcl", "kind": kind}
        elif kind == "unsat":
            yield "s UNSATISFIABLE", {"event": "cdcl", "kind": kind}


# ---------------------------------------------------------------------------
# Trail-induced clause ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrailOrdering:
    """Atoms ranked by trail position (earlier = smaller); unassigned above all.

    Literals compare by atom rank; clauses by the multiset extension, computed
    as descending rank vectors under lexicographic comparison.
    """

    rank: dict[int, int]
    base: int

    @classmethod
    def from_trail(cls, lits: Sequence[int]) -> "TrailOrdering":
        return cls(rank={abs(l): i for i, l in enumerate(lits)}, base=len(lits))

    def atom_rank(self, atom: int) -> int:
        return self.rank.get(atom, self.base + atom)

    def clause_key(self, lits: Iterable[int]) -> list[int]:
        return sorted((self.atom_rank(abs(l)) for l in lits), reverse=True)

    def less(self, a: Iterable[int], b: Iterable[int]) -> bool:
        return self.clause_key(a) < self.clause_key(b)
