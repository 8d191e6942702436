"""Propositional CDCL over the five-tuple state (M, N, U, k, C).

Exhaustive unit propagation, eager conflict detection, 1UIP conflict analysis,
backjumping, manual forgetting, and a brute-force truth-table redundancy
oracle.  Literals are DIMACS-style signed integers.  Propagation runs on two
watched literals per clause: an assignment visits only the clauses watching
the literal it falsifies.  Traces stay deterministic: the conflict is always
the smallest-id false clause and the propagating clause the smallest-id unit
clause, as in an id-order scan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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


@dataclass(slots=True)
class TrailEntry:
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


@dataclass
class CdclState:
    """The solver five-tuple plus assignment bookkeeping, the watch kernel and an event log.

    The two-watched-literal kernel keeps, for every clause, a mutable copy of
    its literals whose first two positions are watched (`watched`), the
    clauses watching each literal (`watchers`), a heap of (clause id, unit
    literal) for the unit clauses (`pending`), and the ids of the false
    clauses (`false_ids`).  A one-literal clause is padded to two positions
    and watched once.  Whenever no clause is false, every clause that is
    neither satisfied nor on the heap has two non-false watched positions.
    """

    clauses: dict[int, PropClause]
    input_ids: frozenset[int]
    num_vars: int
    learned_ids: list[int] = field(default_factory=list)
    trail: list[TrailEntry] = field(default_factory=list)
    level: int = 0
    conflict_id: int | None = None  # None means "no conflict" (the top slot)
    value: dict[int, bool] = field(default_factory=dict)
    events: list[tuple] = field(default_factory=list)
    var_level: dict[int, int] = field(default_factory=dict)
    var_reason: dict[int, int | None] = field(default_factory=dict)
    next_clause_id: int = 1
    last_analysis_steps: list[tuple[int, int]] = field(default_factory=list)
    watched: dict[int, list[int]] = field(default_factory=dict, repr=False)
    watchers: dict[int, list[int]] = field(default_factory=dict, repr=False)
    pending: list[tuple[int, int]] = field(default_factory=list, repr=False)
    false_ids: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        for atom in range(1, self.num_vars + 1):
            self.watchers.setdefault(atom, [])
            self.watchers.setdefault(-atom, [])
        for c in self.clauses.values():
            _watch(self, c.id, list(c.lits))

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

    def atom_ranks(self) -> dict[int, int]:
        return {abs(e.lit): i for i, e in enumerate(self.trail)}


def _watch(state: CdclState, cid: int, lits: list[int]) -> None:
    """Hook a clause into the kernel, watching lits[0] and lits[1].

    Both watched positions must be non-false, or the clause is asserting with
    its true literal first.  An empty clause is false; a one-literal clause is
    unit until its literal is assigned.
    """
    if not lits:
        state.false_ids.add(cid)
        return
    if len(lits) == 1:
        lits = lits * 2
        heapq.heappush(state.pending, (cid, lits[0]))
        state.watchers[lits[0]].append(cid)
    else:
        state.watchers[lits[0]].append(cid)
        state.watchers[lits[1]].append(cid)
    state.watched[cid] = lits


def _assign(state: CdclState, lit: int, reason: int | None) -> None:
    """Put lit on the trail, then visit every clause watching its complement.

    A visited clause moves the watch to a non-false position when it has one;
    otherwise it becomes unit (pushed on the heap) or false, unless its other
    watch is true.  The whole watch list is visited, so every clause made false
    by lit is recorded, not just the first.
    """
    value = state.value
    state.trail.append(TrailEntry(lit, state.level, reason))
    value[abs(lit)] = lit > 0
    state.var_level[abs(lit)] = state.level
    state.var_reason[abs(lit)] = reason
    false_lit = -lit
    watchers = state.watchers
    watched = state.watched
    stay = []
    for cid in watchers[false_lit]:
        lits = watched[cid]
        if lits[0] == false_lit:
            lits[0] = lits[1]
            lits[1] = false_lit
        other = lits[0]
        other_value = value.get(abs(other))
        if other_value is not None and other_value == (other > 0):
            stay.append(cid)
            continue
        for k in range(2, len(lits)):
            candidate = lits[k]
            v = value.get(abs(candidate))
            if v is None or v == (candidate > 0):
                lits[1] = candidate
                lits[k] = false_lit
                watchers[candidate].append(cid)
                break
        else:
            stay.append(cid)
            if other_value is None:
                heapq.heappush(state.pending, (cid, other))
            else:
                state.false_ids.add(cid)
    watchers[false_lit] = stay


def _drop_satisfied(state: CdclState) -> list[tuple[int, int]]:
    """Pop satisfied clauses off the top of the heap and return the heap.

    Called only while no clause is false, so an assigned unit literal is true.
    """
    pending = state.pending
    while pending and abs(pending[0][1]) in state.value:
        heapq.heappop(pending)
    return pending


def propagate(state: CdclState) -> CdclState:
    """Unit-propagate to fixpoint; a false clause sets the conflict slot first.

    Falsity anywhere preempts further propagation (eager conflict detection),
    and the conflict is the smallest-id false clause; otherwise the
    smallest-id unit clause propagates.  The watch kernel supplies both, so
    the order is that of an id-order scan without rescanning any clause.
    """
    if state.conflict_id is not None:
        raise ValueError("cannot propagate with a pending conflict")
    while not state.false_ids:
        pending = _drop_satisfied(state)
        if not pending:
            return state
        cid, lit = heapq.heappop(pending)
        _assign(state, lit, cid)
        state.events.append(("propagate", lit, cid))
    state.conflict_id = min(state.false_ids)
    state.events.append(("conflict", state.conflict_id))
    return state


def at_fixpoint(state: CdclState) -> bool:
    return not state.false_ids and not _drop_satisfied(state)


def decide(state: CdclState, lit: int) -> CdclState:
    if state.conflict_id is not None:
        raise ValueError("cannot decide with a pending conflict")
    if abs(lit) in state.value:
        raise ValueError(f"atom {abs(lit)} is already assigned")
    if not at_fixpoint(state):
        raise ValueError("deciding before propagation reached fixpoint")
    state.level += 1
    _assign(state, lit, None)
    state.events.append(("decide", lit, state.level))
    return state


def resolve_1uip(
    trail: Sequence[tuple[int, int, int | None]],
    conflict_lits: Iterable[int],
    level: int,
    reason_lits: Callable[[int], Sequence[int]],
) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    """Generic 1UIP resolution over a ground trail.

    Trail entries are (literal, level, reason id or None); reason_lits maps a
    reason id to its clause literals.  Resolves on the rightmost trail literal
    whose complement occurs in the current clause until exactly one literal of
    the conflict level remains.  Returns (learned, backjump level, steps); an
    empty learned clause is reported as ((), -1, steps).
    """
    current = set(conflict_lits)
    steps: list[tuple[int, int]] = []
    lvl = {abs(lit): lv for lit, lv, _ in trail}
    pos = len(trail) - 1

    def resolve_at(p: int) -> int:
        lit, _, reason = trail[p]
        if reason is None:
            raise ValueError("conflict analysis reached a decision literal")
        nonlocal current
        current = (current - {-lit}) | (set(reason_lits(reason)) - {lit})
        steps.append((abs(lit), reason))
        return p - 1

    if level == 0:
        while current:
            while -trail[pos][0] not in current:
                pos -= 1
            pos = resolve_at(pos)
        return (), -1, steps

    while sum(1 for l in current if lvl[abs(l)] == level) > 1:
        while -trail[pos][0] not in current:
            pos -= 1
        pos = resolve_at(pos)
    learned = tuple(sorted(current, key=abs))
    others = [lvl[abs(l)] for l in learned if lvl[abs(l)] != level]
    return learned, (max(others) if others else 0), steps


def analyze_conflict(state: CdclState) -> tuple[tuple[int, ...], int]:
    """1UIP analysis of the recorded conflict: (learned clause, backjump level).

    The pair ((), -1) signals an empty learned clause, i.e. unsatisfiability.
    The resolution steps of the analysis are kept on the state for proof logging.
    """
    if state.conflict_id is None:
        raise ValueError("no conflict to analyze")
    learned, blevel, steps = resolve_1uip(
        [(e.lit, e.level, e.reason) for e in state.trail],
        state.clauses[state.conflict_id].lits,
        state.level,
        lambda cid: state.clauses[cid].lits,
    )
    state.last_analysis_steps = steps
    return learned, blevel


def backjump_and_learn(state: CdclState, learned: Sequence[int], level: int) -> CdclState:
    """Truncate the trail to the backjump level, learn, and assert the new clause.

    As in the Backjump rule, the level is the highest level among the learned
    clause's other literals (0 when it has none).  The new clause watches its
    asserting literal and its other literal of that level.
    """
    learned = tuple(learned)
    if not learned:
        raise ValueError("cannot learn the empty clause")
    if not 0 <= level < state.level:
        raise ValueError("backjump level must be below the current level")
    kept = {abs(e.lit): e.lit > 0 for e in state.trail if e.level <= level}
    unassigned = [l for l in learned if abs(l) not in kept]
    if len(unassigned) != 1 or any(
        abs(l) in kept and kept[abs(l)] == (l > 0) for l in learned
    ):
        raise ValueError("learned clause is not asserting at the backjump level")
    asserting = unassigned[0]
    others = sorted((l for l in learned if l != asserting), key=lambda l: -state.var_level[abs(l)])
    if others and state.var_level[abs(others[0])] != level:
        raise ValueError("backjump level is not the highest level of the learned clause's other literals")

    ranks = state.atom_ranks()  # ordering at conflict time, before truncation
    u_before = len(state.learned_ids)
    cid = state.next_clause_id
    state.next_clause_id += 1
    state.clauses[cid] = PropClause(cid, learned)
    state.learned_ids.append(cid)

    while state.trail and state.trail[-1].level > level:
        gone = state.trail.pop()
        del state.value[abs(gone.lit)]
        del state.var_level[abs(gone.lit)]
        del state.var_reason[abs(gone.lit)]
    state.level = level
    state.conflict_id = None
    state.pending.clear()
    state.false_ids.clear()
    _watch(state, cid, [asserting, *others])
    _assign(state, asserting, cid)
    state.events.append(("learn", learned, level, cid, ranks, u_before))
    return state


def forget(state: CdclState, clause_id: int) -> CdclState:
    """Drop a learned clause that does not justify any current trail entry."""
    if clause_id not in state.learned_ids:
        raise ValueError(f"clause {clause_id} is not a learned clause")
    if any(e.reason == clause_id for e in state.trail):
        raise ValueError(f"clause {clause_id} justifies a trail entry")
    del state.clauses[clause_id]
    state.learned_ids.remove(clause_id)
    for lit in set(state.watched.pop(clause_id, ())[:2]):
        state.watchers[lit] = [c for c in state.watchers[lit] if c != clause_id]
    state.false_ids.discard(clause_id)
    state.pending = [entry for entry in state.pending if entry[0] != clause_id]
    heapq.heapify(state.pending)
    state.events.append(("forget", clause_id))
    return state


def lowest_index_negative(state: CdclState) -> int:
    """Default decision heuristic: lowest unassigned atom, negative polarity."""
    for atom in range(1, state.num_vars + 1):
        if atom not in state.value:
            return -atom
    raise ValueError("no unassigned atom left")


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

    @property
    def learned_sequence(self) -> list[tuple[int, ...]]:
        return [p.learned for p in self.proof]


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


def trace_lines(events: Iterable[tuple]) -> list[str]:
    """Render solver events in the DIMACS-solver trace style."""
    lines = []
    for ev in events:
        kind = ev[0]
        if kind == "decide":
            lines.append(f"decide {ev[1]} @{ev[2]}")
        elif kind == "propagate":
            lines.append(f"propagate {ev[1]} <- clause {ev[2]}")
        elif kind == "conflict":
            lines.append(f"conflict clause {ev[1]}")
        elif kind == "learn":
            lines.append(f"learn {' '.join(str(l) for l in ev[1])} backjump {ev[2]}")
        elif kind == "forget":
            lines.append(f"forget clause {ev[1]}")
        elif kind == "sat":
            lines.append("s SATISFIABLE")
            lines.append("v " + " ".join(str(l) for l in ev[1]) + " 0")
        elif kind == "unsat":
            lines.append("s UNSATISFIABLE")
    return lines


# ---------------------------------------------------------------------------
# Trail-induced clause ordering and the brute-force redundancy oracle
# ---------------------------------------------------------------------------

ATOM_CAP = 20


@dataclass(frozen=True)
class TrailOrdering:
    """Atoms ranked by trail position (earlier = smaller); unassigned above all.

    Literals compare by atom rank; clauses by the multiset extension, computed
    as descending rank vectors under lexicographic comparison.
    """

    rank: dict[int, int]
    base: int

    @classmethod
    def from_state(cls, state: CdclState) -> "TrailOrdering":
        return cls.from_ranks(state.atom_ranks())

    @classmethod
    def from_trail(cls, lits: Sequence[int]) -> "TrailOrdering":
        return cls.from_ranks({abs(l): i for i, l in enumerate(lits)})

    @classmethod
    def from_ranks(cls, ranks: dict[int, int]) -> "TrailOrdering":
        return cls(rank=dict(ranks), base=len(ranks))

    def atom_rank(self, atom: int) -> int:
        return self.rank.get(atom, self.base + atom)

    def clause_key(self, lits: Iterable[int]) -> list[int]:
        return sorted((self.atom_rank(abs(l)) for l in lits), reverse=True)

    def less(self, a: Iterable[int], b: Iterable[int]) -> bool:
        return self.clause_key(a) < self.clause_key(b)


def _atom_tables(k: int) -> list[int]:
    """Truth table of each atom over 2**k rows, packed into one big integer."""
    rows = 1 << k
    tables = []
    for i in range(k):
        pattern = ((1 << (1 << i)) - 1) << (1 << i)
        size = 1 << (i + 1)
        while size < rows:
            pattern |= pattern << size
            size <<= 1
        tables.append(pattern)
    return tables


def _clause_table(lits: Iterable[int], index: dict[int, int], tables: list[int], mask: int) -> int:
    table = 0
    for lit in lits:
        t = tables[index[abs(lit)]]
        table |= t if lit > 0 else mask ^ t
    return table


def is_redundant(
    clause_lits: Sequence[int],
    clause_set: Iterable[PropClause],
    ordering: TrailOrdering,
    atom_cap: int = ATOM_CAP,
) -> bool:
    """Whether the clause is implied by the ordering-smaller clauses of the set.

    Checked by exhaustive truth-table enumeration (the property is NP-complete);
    raises ResourceLimitError when more than atom_cap atoms are involved.
    """
    target = tuple(clause_lits)
    smaller = [c for c in clause_set if ordering.less(c.lits, target)]
    atoms = sorted({abs(l) for c in smaller for l in c.lits} | {abs(l) for l in target})
    if len(atoms) > atom_cap:
        raise ResourceLimitError(f"{len(atoms)} atoms exceed the truth-table cap of {atom_cap}")
    index = {a: i for i, a in enumerate(atoms)}
    mask = (1 << (1 << len(atoms))) - 1
    tables = _atom_tables(len(atoms))
    conjunction = mask
    for c in smaller:
        conjunction &= _clause_table(c.lits, index, tables, mask)
    return conjunction & (mask ^ _clause_table(target, index, tables, mask)) == 0
