"""Propositional CDCL over the five-tuple state (M, N, U, k, C), and the trail engine it shares with SCL.

`TrailKernel` holds the trail, a truth table by literal and two watched
literals per hooked clause; an assignment visits only the clauses watching
the literal it falsifies.  CDCL hooks every clause; SCL hooks its start
instances and learned clauses, and finds the other instances' units itself.
The step rules here run CDCL over clause ids and the SCL engine
(`clausekit.scl`) over ground instances: propagate into the kernel's
conflict slot, decide, learn (the Backjump rule: check, backjump, hook,
assert), the lowest unassigned atom, and 1UIP analysis in one backward
trail walk.  The engines differ only in the kernel's hooks (`unit_key`,
`conflict_key`, `assign`).  CDCL adds manual forgetting.  Literals are
DIMACS-style signed integers.
Traces stay deterministic: the conflict is the smallest-id false clause and
the propagating clause the smallest-id unit clause, as in an id-order scan.
`search` is the one main loop of both engines; each brings its propagate,
analyze, learn and decision steps.  Events are tuples on the kernel, trail
steps only.  `solve` runs `search` over CDCL's steps and returns one
`CdclResult`, whose `verdict` is "sat" or "unsat", whose `proof` holds every
analysis on either verdict and whose `model` is built when read; `render`
writes the trace, then the verdict lines, whose DIMACS words are `VERDICTS`.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .jsonl import json_format, json_string
from .logic import clauses_by_id


class _PropClauseFields(NamedTuple):
    id: int
    lits: tuple[int, ...]


class PropClause(_PropClauseFields):
    """A clause over DIMACS literals, a tuple record: it compares equal to, and hashes as, (id, lits)."""

    __slots__ = ()

    def __new__(cls, id: int, lits: tuple[int, ...]):
        if 0 in lits:
            raise ValueError("0 is not a literal")
        return tuple.__new__(cls, (id, lits))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.lits) if self.lits else "⊥"


# builds a NamedTuple from its fields' tuple in C, without the generated Python-level __new__
_new = tuple.__new__


def clause_status(lits: Sequence[int], value: dict[int, bool]) -> tuple[str, int | None]:
    """Classify a clause under a partial assignment (atom -> truth value): sat, false, unit or open."""
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


class TrailKernel:
    """The trail, its truth and level tables, and the two-watched-literal index over clause ids.

    `true` is a truth table by literal, as in MiniSat: `true[l]` is 1 exactly
    when l is on the trail, and a negative literal indexes from the end.
    `var_level[a]` is atom a's level while a is assigned; a backjump leaves
    it stale, so the table grows with the atoms assigned, not with all atoms.
    `trail_lim[k]` is where level k + 1 starts on the trail, as MiniSat's
    `trail_lim`, so a backjump clears one slice.  A trail entry is a plain
    (lit, level, reason) tuple, whose reason is the propagating clause's id,
    or None for a decision: the interpreter unpacks only an exact tuple on
    its fast path, and untracks one of ints from the garbage collector.

    Each hooked clause keeps its literals with the watched ones in the first
    two positions (`watched`); `watchers` lists the clauses watching each
    literal, `pending` is a heap of (unit_key, clause id, unit literal) for
    the unit clauses, and `false_ids` holds the false clauses.  A one-literal
    clause is padded to two positions and watched once.  Whenever no clause
    is false, every hooked clause that is neither satisfied nor on the heap
    has two non-false watched positions.  The clauses hooked mid-trail are
    learned ones: each watches its asserting literal and the highest-level
    other literal, which the check pass of `learn_clause` finds.  An engine's
    `assign` hook may also push units and mark false clauses that it tracks
    itself, as SCL does for the instances it creates.  Satisfied heap
    entries are dropped when they reach the top.  `cursor` is at or below the
    smallest unassigned atom.  `conflict` is the false clause that
    propagation stopped at, or None.
    """

    # Hooks: unit_key(cid, lit) is the heap order of the pending units, the smallest
    # propagating first; conflict_key(cid) orders the false clauses, the smallest being
    # the conflict.  None orders both by clause id.
    unit_key = None
    conflict_key = None

    def __init__(self, atoms: int) -> None:
        """An empty trail over atoms 1..n, n = `atoms`: the truth table gets 2n + 1 slots, so slot
        n + 1 is literal -n and a search over atoms stops at n; the trail is total when its length is n."""
        self.trail: list[tuple[int, int, int | None]] = []
        self.trail_lim: list[int] = []
        self.level = 0
        self.true = bytearray(2 * atoms + 1)
        self.var_level: dict[int, int] = {}
        self.watched: dict[int, Sequence[int]] = {}
        self.watchers: defaultdict[int, list[int]] = defaultdict(list)
        self.pending: list[tuple] = []
        self.false_ids: set[int] = set()
        self.events: list[tuple] = []
        self.cursor = 1
        self.conflict: int | None = None

    def watch(self, cid: int, lits: Sequence[int]) -> None:
        """Hook a clause into the kernel, watching lits[0] and lits[1], which the caller chose.

        An empty clause is false; a one-literal clause is unit until its
        literal is assigned.  Only clauses of three or more literals are
        copied: `assign` moves watches within those alone.
        """
        if not lits:
            self.false_ids.add(cid)
            return
        if len(lits) == 1:
            lit = lits[0]
            key = self.unit_key
            heapq.heappush(self.pending, (cid if key is None else key(cid, lit), cid, lit))
            self.watched[cid] = (lit, lit)
        else:
            if len(lits) > 2:
                lits = list(lits)
            self.watched[cid] = lits
        watchers = self.watchers
        for lit in lits[:2]:
            watchers[lit].append(cid)

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
        true, level = self.true, self.level
        self.trail.append((lit, level, reason))
        true[lit] = 1
        self.var_level[lit if lit > 0 else -lit] = level
        false_lit = -lit
        watchers = self.watchers
        watching = watchers.get(false_lit)
        if not watching:
            return
        watched, pending, key = self.watched, self.pending, self.unit_key
        stay = []
        for cid in watching:
            lits = watched[cid]
            other = lits[0]
            if other == false_lit:
                other = lits[1]
            if true[other]:
                stay.append(cid)
                continue
            k, n = 2, len(lits)
            while k < n:  # not a for over range(2, n), which builds a range per visit
                candidate = lits[k]
                if not true[-candidate]:
                    lits[0], lits[1], lits[k] = other, candidate, false_lit
                    watchers[candidate].append(cid)
                    break
                k += 1
            else:
                stay.append(cid)
                if true[-other]:
                    self.false_ids.add(cid)
                else:
                    heapq.heappush(pending, (cid if key is None else key(cid, other), cid, other))
        watchers[false_lit] = stay

    def truncate(self, level: int) -> None:
        """Undo the trail above the level, one slice, moving `cursor` back; forget the pending units and false clauses.

        Decisions are made only at a fixpoint without false clauses, so no
        clause is unit or false at the level the trail returns to.
        """
        trail, true, cursor = self.trail, self.true, self.cursor
        start = self.trail_lim[level]
        for lit, _, _ in trail[start:]:
            true[lit] = 0
            if lit < 0:
                lit = -lit
            if lit < cursor:
                cursor = lit
        del trail[start:], self.trail_lim[level:]
        self.cursor = cursor
        self.level = level
        self.pending.clear()
        self.false_ids.clear()


class CdclState(TrailKernel):
    """The solver five-tuple on the trail kernel, plus an event log.

    Built from the clauses, by id; num_vars defaults to the largest atom
    they mention.  Learned clauses get ids above the largest input id.
    """

    def __init__(self, clauses: Iterable[PropClause], num_vars: int | None = None) -> None:
        by_id = clauses_by_id(clauses)
        max_atom = max((abs(l) for c in by_id.values() for l in c.lits), default=0)
        if num_vars is None:
            num_vars = max_atom
        elif max_atom > num_vars:
            raise ValueError("clause mentions an atom beyond num_vars")
        super().__init__(num_vars)
        self.clauses = by_id
        self.num_vars = num_vars
        self.learned_ids: list[int] = []
        self.next_clause_id = max(by_id, default=0) + 1
        for c in by_id.values():
            self.watch(c.id, c.lits)


def propagate_units(kernel: TrailKernel, trail_cap: float = math.inf) -> None:
    """Assign unit literals until none is left or a clause is false, which becomes the conflict.

    Falsity preempts propagation (eager conflict detection); the conflict is
    the false clause smallest in `conflict_key`, and otherwise the unit
    clause smallest in `unit_key` propagates.  While no clause is false, a
    heap entry whose literal is assigned is satisfied, and is dropped.  The
    trail never exceeds trail_cap: at the cap the run stops with no conflict
    and the next unit still pending, so a later call resumes it.
    """
    if kernel.conflict is not None:
        raise ValueError("cannot propagate with a pending conflict")
    trail, pending, false_ids, true = kernel.trail, kernel.pending, kernel.false_ids, kernel.true
    assign, record, heappop = kernel.assign, kernel.events.append, heapq.heappop
    while not false_ids:
        if not pending:
            return
        key, cid, lit = heappop(pending)
        if true[lit]:
            continue
        if len(trail) >= trail_cap:
            heapq.heappush(pending, (key, cid, lit))
            return
        assign(lit, cid)
        record(("propagate", lit, cid))
    kernel.conflict = min(false_ids, key=kernel.conflict_key)
    record(("conflict", kernel.conflict))


def propagate(state: CdclState) -> CdclState:
    """Unit-propagate to fixpoint; a false clause sets the conflict slot."""
    propagate_units(state)
    return state


def at_fixpoint(state: TrailKernel) -> bool:
    """No clause is false or unit; drops the satisfied entries off the top of the unit heap."""
    pending, true = state.pending, state.true
    while pending and true[pending[0][2]]:
        heapq.heappop(pending)
    return not state.false_ids and not pending


def decide(state: TrailKernel, lit: int) -> TrailKernel:
    """Open a new level with lit as its decision, at a propagation fixpoint (so no conflict is pending)."""
    atom, true = abs(lit), state.true
    if not 0 < atom <= len(true) >> 1:
        raise ValueError(f"atom {atom} is outside 1..{len(true) >> 1}")
    if true[lit] or true[-lit]:
        raise ValueError(f"atom {atom} is already assigned")
    if not at_fixpoint(state):
        raise ValueError("deciding before propagation reached fixpoint")
    state.trail_lim.append(len(state.trail))
    state.level += 1
    state.assign(lit, None)
    state.events.append(("decide", lit, state.level))
    return state


def lowest_unassigned(kernel: TrailKernel) -> int:
    """The smallest atom not on the trail, searched from the kernel's cursor on; n + 1 on a total trail over n atoms."""
    true, atom = kernel.true, kernel.cursor
    last = len(true) >> 1
    while atom <= last and (true[atom] or true[-atom]):  # slot last + 1 is literal -last
        atom += 1
    kernel.cursor = atom
    return atom


def resolve_1uip(
    kernel: TrailKernel,
    conflict_lits: Iterable[int],
    reasons: Mapping[int, PropClause] | Sequence,
) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    """1UIP resolution in one backward walk over the kernel's trail, at its current level.

    reasons maps a reason id to its clause, which holds its literals as
    `lits` (CDCL's clauses by id, SCL's instances by position).  `seen`
    marks the clause's atoms, `count` those of the conflict level not yet
    resolved on, and `learned` keeps the others.  The walk resolves on each
    marked trail literal until one of the conflict level is left (at level
    0, none), as MiniSat's analyze does.  Returns (learned, backjump level,
    steps); an empty learned clause is reported as ((), -1, steps).
    """
    lvl, level = kernel.var_level, kernel.level
    seen, learned, steps = set(), [], []
    count, blevel, lits = 0, 0, conflict_lits
    walk = reversed(kernel.trail)  # resumed at each resolution step
    while True:
        for lit in lits:
            atom = abs(lit)
            if atom not in seen:
                seen.add(atom)
                atom_level = lvl[atom]
                if atom_level == level:
                    count += 1
                else:
                    learned.append(lit)
                    if atom_level > blevel:
                        blevel = atom_level
        if not count:
            break
        for lit, _, reason in walk:
            if abs(lit) in seen:
                break
        count -= 1
        if level and not count:
            learned.append(-lit)
            break
        if reason is None:
            raise ValueError("conflict analysis reached a decision literal")
        steps.append((abs(lit), reason))
        lits = reasons[reason].lits
    if not level:
        return (), -1, steps
    return tuple(sorted(learned, key=abs)), blevel, steps


def analyze_conflict(state: CdclState) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    """1UIP analysis of the recorded conflict: (learned clause, backjump level, steps), as `resolve_1uip` gives them.

    ((), -1, steps) signals an empty learned clause, i.e. unsatisfiability.
    """
    if state.conflict is None:
        raise ValueError("no conflict to analyze")
    return resolve_1uip(state, state.clauses[state.conflict].lits, state.clauses)


def learn_clause(kernel: TrailKernel, cid: int, lits: Sequence[int], level: int) -> None:
    """The Backjump rule: check the clause, clear the conflict, backjump to the level, hook it as cid, assert it.

    One pass checks that exactly one literal is unassigned or above the
    level, that no other is true, and that the others' highest level is the
    level; it finds the asserting literal and the highest-level other one,
    which the clause watches.  Records ("learn", lits, level, cid).
    """
    if not 0 <= level < kernel.level:
        raise ValueError("backjump level must be below the current level")
    true, var_level = kernel.true, kernel.var_level
    asserting, other, highest = -1, -1, -1  # positions of the two watches; -1: no other literal
    for i, lit in enumerate(lits):
        lit_level = var_level[abs(lit)] if true[-lit] or true[lit] else level + 1
        if lit_level > level and asserting < 0:
            asserting = i
        elif lit_level > level or true[lit]:  # a second open literal, or a true one
            asserting = -1
            break
        elif lit_level > highest:
            other, highest = i, lit_level
    if asserting < 0:
        raise ValueError("learned clause is not asserting at the backjump level")
    if highest not in (-1, level):
        raise ValueError("backjump level is not the highest level of the learned clause's other literals")
    kernel.conflict = None
    kernel.truncate(level)
    ordered = list(lits)  # the asserting literal first, then the highest-level other one
    ordered[0], ordered[asserting] = ordered[asserting], ordered[0]
    if other >= 0:
        if other == 0:
            other = asserting  # where the first swap moved it
        ordered[1], ordered[other] = ordered[other], ordered[1]
    kernel.watch(cid, ordered)
    kernel.assign(lits[asserting], cid)
    kernel.events.append(("learn", lits, level, cid))


def backjump_and_learn(state: CdclState, learned: Sequence[int], level: int) -> CdclState:
    """Learn a non-empty clause through the Backjump rule (`learn_clause`), then store it under a new id."""
    learned = tuple(learned)
    if not learned:
        raise ValueError("cannot learn the empty clause")
    cid = state.next_clause_id
    learn_clause(state, cid, learned, level)
    state.next_clause_id += 1
    state.clauses[cid] = PropClause(cid, learned)
    state.learned_ids.append(cid)
    return state


def forget(state: CdclState, clause_id: int) -> CdclState:
    """Drop a learned clause that does not justify any current trail entry."""
    if clause_id not in state.learned_ids:
        raise ValueError(f"clause {clause_id} is not a learned clause")
    if any(reason == clause_id for _, _, reason in state.trail):
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
HEURISTICS: dict[str, DecisionHeuristic] = {
    "lowest-negative": lowest_index_negative,
    "lowest-positive": lowest_index_positive,
}


class ProofStep(NamedTuple):
    """One conflict analysis: the false clause, its resolutions, the result."""

    conflict_id: int
    steps: tuple[tuple[int, int], ...]  # (resolved atom, propagating clause id)
    learned: tuple[int, ...]


class CdclResult(NamedTuple):
    """A run's verdict, "sat" or "unsat", its final state, whose events are its trail steps, and its proof."""

    verdict: str
    state: CdclState
    proof: list[ProofStep]  # every analysis in order; an "unsat" one's last derives falsum

    @property
    def model(self) -> tuple[int, ...] | None:
        """The literal of each atom on the total trail of a "sat" run, in atom order, built when asked for."""
        if self.verdict != "sat":
            return None
        true = self.state.true
        return tuple([a if true[a] else -a for a in range(1, self.state.num_vars + 1)])


def search(kernel: TrailKernel, propagate: Callable, analyze: Callable, learn: Callable, pick: Callable,
           trail_cap: float = math.inf) -> tuple[str, list[ProofStep]]:
    """The one main loop of both trail engines: propagate, then analyze and learn, finish, or decide.

    `analyze` gives (learned, backjump level, steps), where level -1 ends the run; `learn` applies
    the Backjump rule; `pick` names the decision.  Returns the verdict, "unsat", "sat" on a total
    trail or "limit" at trail_cap, and the proof: every analysis as a `ProofStep`."""
    atoms, trail, proof = len(kernel.true) >> 1, kernel.trail, []
    while True:
        propagate(kernel)
        if kernel.conflict is not None:
            learned, blevel, steps = analyze(kernel)
            proof.append(_new(ProofStep, (kernel.conflict, tuple(steps), learned)))
            if blevel < 0:
                return "unsat", proof
            learn(kernel, learned, blevel)
        elif len(trail) == atoms:
            return "sat", proof
        elif len(trail) >= trail_cap:
            return "limit", proof
        else:
            decide(kernel, pick(kernel))


def solve(
    clauses: Iterable[PropClause],
    num_vars: int | None = None,
    heuristic: DecisionHeuristic = lowest_index_negative,
) -> CdclResult:
    """CDCL: `search` over unit propagation, 1UIP analysis, the Backjump rule and the heuristic."""
    state = CdclState(clauses, num_vars)
    verdict, proof = search(state, propagate, analyze_conflict, backjump_and_learn, heuristic)
    return CdclResult(verdict, state, proof)


# the DIMACS solver's line of each verdict of `search`, which both trail engines print
VERDICTS = {"sat": "s SATISFIABLE", "unsat": "s UNSATISFIABLE", "limit": "s RESOURCE-EXCEEDED"}

# per event kind, its JSON line's format and getter: the text line's own format over the event's values at
# the positions given, beside the fields, each the value at its position; the values of a learn event are its
# literals as a list, its backjump level, its clause id and its literals spelled out.  Per verdict, the format
# of each of its lines: an object of that text line alone.
_JSON = {kind: json_format(fields, event="cdcl", kind=kind) for kind, fields in {
    "propagate": {"line": ("propagate %d <- clause %d", (1, 2)), "lit": 1, "clause": 2},
    "decide": {"line": ("decide %d @%d", (1, 2)), "lit": 1, "level": 2},
    "conflict": {"line": ("conflict clause %d", (1,)), "clause": 1},
    "learn": {"line": ("learn %s backjump %d", (4, 2)), "lits": 1, "backjump": 2, "clause": 3},
    "forget": {"line": ("forget clause %d", (1,)), "clause": 1},
    "sat": {"line": 0},
    "unsat": {"line": 0},
}.items()}


def render(result: CdclResult, as_json: bool) -> list[str]:
    """The output of a run in the DIMACS-solver style, as lines: text, or JSON objects; the trace, then the verdict.

    Text lines are f-strings.  An event's JSON line fills its kind's `_JSON`
    format, which holds the text line's own format beside the event's
    fields.  The verdict's lines, its `VERDICTS` line and a "sat" run's model
    line, are each, as JSON, an object of that line alone.
    """
    verdict = [VERDICTS[result.verdict]]
    if result.verdict == "sat":
        verdict.append(" ".join(["v", *map(str, result.model), "0"]))
    if not as_json:
        lines = _text_lines(result.state.events)
        lines += [line + "\n" for line in verdict]
        return lines
    lines = []
    add = lines.append
    for ev in result.state.events:
        kind = ev[0]
        if kind == "learn":
            ev = (kind, list(ev[1]), *ev[2:], " ".join(map(str, ev[1])))
        format, get = _JSON[kind]
        add(format % get(ev))
    format = _JSON[result.verdict][0]
    lines += [format % json_string(line) for line in verdict]
    return lines


def _text_lines(events: Iterable[tuple]) -> list[str]:
    """The text line of each event."""
    lines: list[str] = []
    add = lines.append
    for ev in events:
        kind = ev[0]
        if kind == "propagate":
            add(f"propagate {ev[1]} <- clause {ev[2]}\n")
        elif kind == "decide":
            add(f"decide {ev[1]} @{ev[2]}\n")
        elif kind == "conflict":
            add(f"conflict clause {ev[1]}\n")
        elif kind == "learn":
            add(f"learn {' '.join(map(str, ev[1]))} backjump {ev[2]}\n")
        else:  # "forget"
            add(f"forget clause {ev[1]}\n")
    return lines
