"""Independent brute-force oracles used to cross-check the engines.

Everything here enumerates: truth tables by looping over assignments, ground
satisfiability by instantiating every clause over the domain, unit
propagation by rescanning every clause, SCL propagation by rescanning every
instance that contains a changed atom, LIA bound propagation by visiting every
(inequation, variable) pair in every sweep, clause and inequation text by
walking a token stream one token at a time, and saturation by meeting the
given clause with every active clause under a Knuth-Bendix ordering that takes
symbol weights.  None of it shares code paths with the engines under test,
except that the reference saturation calls the engine's `unify`,
`rename_apart`, `canonical_variant` and `subsumes`.  Its resolution step
is the chain that the engine once ran for every inference: rename the
negative premise apart, unify, instantiate both premises and rename the
conclusion canonically; scripted replay runs the same chain.  The term
layer's renaming is checked against its earlier, per-term version, and its
instantiation against the earlier one that rebuilt every literal, both kept
here.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from clausekit.cdcl import PropClause
from clausekit.errors import OrderingConfigError, ParseError, ReplayStepError, ResourceLimitError
from clausekit.lia import (
    Bound,
    LiaDecision,
    LiaPropagation,
    LiaSystem,
    LinIneq,
)
from clausekit.logic import (
    Atom,
    Clause,
    Constant,
    Literal,
    Substitution,
    Term,
    Variable,
    canonical_variant,
    is_variable_name,
    rename_apart,
    term_from_name,
    unify,
)
from clausekit.ordering import Cmp, OrderingConfig
from clausekit.resolution import (
    DerivedClause,
    FactoringRule,
    InputRule,
    ResolutionRule,
    SaturationResult,
    subsumes,
)
from clausekit.scl import (
    DEFAULT_INSTANCE_CAP,
    DEFAULT_TRAIL_CAP,
    FRESH_CONSTANT,
    GroundInstance,
    GroundProblem,
    SclResult,
    SclStats,
)


def brute_force_sat(clauses: Iterable[Sequence[int]], num_vars: int) -> bool:
    """Truth-table satisfiability of propositional clauses over signed ints.

    Plain enumeration of all assignments; clauses are precompiled to variable
    masks so the inner loop is a couple of integer operations.
    """
    masks = []
    for c in clauses:
        pos = neg = 0
        for l in c:
            if l > 0:
                pos |= 1 << (l - 1)
            else:
                neg |= 1 << (-l - 1)
        masks.append((pos, neg))
    full = (1 << num_vars) - 1
    for assign in range(1 << num_vars):
        if all(assign & pos or (assign ^ full) & neg for pos, neg in masks):
            return True
    return False


def scan_status(lits: Sequence[int], value: dict[int, bool]) -> tuple[str, int | None]:
    """Sat, false, unit or open, counting unassigned positions (duplicates count twice)."""
    unassigned = [l for l in lits if abs(l) not in value]
    if any(value.get(abs(l)) == (l > 0) for l in lits):
        return "sat", None
    if not unassigned:
        return "false", None
    if len(unassigned) == 1:
        return "unit", unassigned[0]
    return "open", None


def trail_values(trail) -> dict[int, bool]:
    """The assignment a trail of (literal, ...) entries makes, atom -> truth value."""
    return {abs(entry[0]): entry[0] > 0 for entry in trail}


def reference_propagate(state):
    """CDCL unit propagation by rescanning every clause in id order per step.

    The smallest-id false clause is the conflict, and preempts propagation;
    otherwise the smallest-id unit clause propagates.  Drop-in for
    `cdcl.propagate`; it reads the assignment off the trail and writes the
    trail and the kernel's truth and level tables itself, so the engine's
    watch kernel is left stale and only `reference_at_fixpoint` may be used
    with it.
    """
    if state.conflict is not None:
        raise ValueError("cannot propagate with a pending conflict")
    while True:
        unit = None
        value = trail_values(state.trail)
        for cid in sorted(state.clauses):
            status, lit = scan_status(state.clauses[cid].lits, value)
            if status == "false":
                state.conflict = cid
                state.events.append(("conflict", cid))
                return state
            if status == "unit" and unit is None:
                unit = (cid, lit)
        if unit is None:
            return state
        cid, lit = unit
        state.trail.append((lit, state.level, cid))
        state.true[lit] = 1
        state.var_level[abs(lit)] = state.level
        state.events.append(("propagate", lit, cid))


def reference_at_fixpoint(state) -> bool:
    """Drop-in for `cdcl.at_fixpoint`: no clause is unit or false."""
    value = trail_values(state.trail)
    return all(scan_status(c.lits, value)[0] in ("sat", "open") for c in state.clauses.values())


def resolve_on(c1: Sequence[int], c2: Sequence[int], atom: int) -> tuple[int, ...]:
    """Propositional binary resolution on the given atom."""
    assert atom in [abs(l) for l in c1] and atom in [abs(l) for l in c2]
    merged = {l for l in c1 if abs(l) != atom} | {l for l in c2 if abs(l) != atom}
    return tuple(sorted(merged, key=abs))


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


def learn_orderings(events: Iterable[tuple]) -> list[tuple[tuple, TrailOrdering]]:
    """Each learn event of a CDCL or SCL run, with the trail ordering at its conflict.

    The trail is rebuilt from the events alone: a propagation or a decision
    extends it, and a learn event truncates it to the backjump level, then
    assigns the learned clause's one literal left unassigned.
    """
    trail: list[tuple[int, int]] = []  # (literal, level)
    level = 0
    out = []
    for ev in events:
        if ev[0] == "propagate":
            trail.append((ev[1], level))
        elif ev[0] == "decide":
            level = ev[2]
            trail.append((ev[1], level))
        elif ev[0] == "learn":
            out.append((ev, TrailOrdering.from_trail([lit for lit, _ in trail])))
            level = ev[2]
            trail = [(lit, lvl) for lit, lvl in trail if lvl <= level]
            assigned = {abs(lit) for lit, _ in trail}
            trail.append((next(lit for lit in ev[1] if abs(lit) not in assigned), level))
    return out


def replay_step(step, reasons, ordering: TrailOrdering) -> tuple[int, ...]:
    """The clause that one conflict analysis (a `cdcl.ProofStep`) derives, replayed with `resolve_on`
    from its conflict clause; reasons maps its clause ids or instance positions to clauses with `lits`.

    Asserts the paper's ordering condition: each step resolves on the atom of the current resolvent
    that is greatest in the trail ordering of the conflict.
    """
    current = tuple(reasons[step.conflict_id].lits)
    for atom, reason in step.steps:
        assert atom == max((abs(l) for l in current), key=ordering.atom_rank), f"resolved on {atom}, not the greatest"
        current = resolve_on(current, reasons[reason].lits, atom)
    return tuple(sorted(set(current), key=abs))


# The redundancy oracle: truth tables packed into big integers, one bit per row.

ATOM_CAP = 20


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
) -> bool:
    """Whether the clause is implied by the ordering-smaller clauses of the set.

    Checked by exhaustive truth-table enumeration (the property is NP-complete);
    raises ResourceLimitError when more than ATOM_CAP atoms are involved.
    """
    target = tuple(clause_lits)
    smaller = [c for c in clause_set if ordering.less(c.lits, target)]
    atoms = sorted({abs(l) for c in smaller for l in c.lits} | {abs(l) for l in target})
    if len(atoms) > ATOM_CAP:
        raise ResourceLimitError(f"{len(atoms)} atoms exceed the truth-table cap of {ATOM_CAP}")
    index = {a: i for i, a in enumerate(atoms)}
    mask = (1 << (1 << len(atoms))) - 1
    tables = _atom_tables(len(atoms))
    conjunction = mask
    for c in smaller:
        conjunction &= _clause_table(c.lits, index, tables, mask)
    return conjunction & (mask ^ _clause_table(target, index, tables, mask)) == 0


def all_ground_instances(clauses: Iterable[Clause], domain: Sequence[Constant]) -> list[Clause]:
    out = []
    for clause in clauses:
        variables = clause.variables()
        for combo in itertools.product(domain, repeat=len(variables)):
            out.append(Substitution(dict(zip(variables, combo))).apply_clause(clause))
    return out


def reference_ground_problem(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> GroundProblem:
    """Drop-in for `scl.ground_problem`: one Substitution and one Atom per literal.

    Builds the Herbrand base by sorting every atom, then applies a
    substitution to each literal of each instance and looks the atom up.  Every
    substitution gives an instance, which keeps each literal once, in
    first-occurrence order.
    """
    by_id: dict[int, Clause] = {}
    for c in clauses:
        if c.id in by_id:
            raise ValueError(f"duplicate clause id {c.id}")
        by_id[c.id] = c
    constants = {
        a for c in by_id.values() for l in c.literals for a in l.atom.args if isinstance(a, Constant)
    }
    if domain is not None:
        dom = sorted(set(domain), key=lambda c: c.name)
        missing = constants - set(dom)
        if missing:
            raise ValueError(f"domain misses constants: {sorted(c.name for c in missing)}")
    else:
        dom = sorted(constants, key=lambda c: c.name) or [FRESH_CONSTANT]
    if not dom:
        raise ValueError("empty Herbrand domain; provide at least one constant")

    signatures = {(l.atom.predicate, l.atom.arity) for c in by_id.values() for l in c.literals}
    base_size = sum(len(dom) ** arity for _, arity in signatures)
    if base_size > instance_cap:
        raise ResourceLimitError(f"Herbrand base of {base_size} atoms exceeds the cap")
    atoms = [
        Atom(pred, combo)
        for pred, arity in signatures
        for combo in itertools.product(dom, repeat=arity)
    ]
    atoms.sort(key=lambda a: (a.predicate, tuple(t.name for t in a.args)))
    atom_index = {a: i + 1 for i, a in enumerate(atoms)}

    total = sum(len(dom) ** len(c.variables()) for c in by_id.values())
    if total > instance_cap:
        raise ResourceLimitError(f"{total} ground instances exceed the cap of {instance_cap}")

    problem = GroundProblem(by_id, tuple(dom), atoms, [])
    for cid in sorted(by_id):
        clause = by_id[cid]
        variables = clause.variables()
        for combo in itertools.product(dom, repeat=len(variables)):
            sub = Substitution(dict(zip(variables, combo)))
            lits = tuple(
                dict.fromkeys(
                    atom_index[apply_atom(sub, l.atom)] * (1 if l.positive else -1)
                    for l in clause.literals
                )
            )
            subst = tuple(sorted((v.name, c.name) for v, c in zip(variables, combo)))
            problem.instances.append(GroundInstance(cid, subst, lits))
    return problem


def reference_trigger_tree(entries: list[tuple[dict[int, int], tuple]], arity: int, d: int):
    """Drop-in for `scl._trigger_tree`, counting each node's fixed positions in a dict, one at a time.

    Each node tests the position most of its entries fix, the rightmost on ties.
    """
    counts: dict[int, int] = {}
    for consts, _ in entries:
        for p in consts:
            counts[p] = counts.get(p, 0) + 1
    if not counts:
        return [payload for _, payload in entries]
    position = max(counts, key=lambda p: (counts[p], p))
    fixed: dict[int, list] = {}
    free = []
    for consts, payload in entries:
        if position in consts:
            rest = dict(consts)
            fixed.setdefault(rest.pop(position), []).append((rest, payload))
        else:
            free.append((consts, payload))
    children = {c: reference_trigger_tree(sub, arity, d) for c, sub in fixed.items()}
    return d ** (arity - 1 - position), children, reference_trigger_tree(free, arity, d) if free else None


def ground_satisfiable(clauses: Iterable[Clause], domain: Sequence[Constant]) -> bool:
    """Herbrand satisfiability over the domain by exhaustive assignment search."""
    instances = all_ground_instances(clauses, domain)
    atoms = sorted(
        {lit.atom for c in instances for lit in c.literals},
        key=lambda a: (a.predicate, tuple(t.name for t in a.args)),
    )
    for bits in itertools.product((False, True), repeat=len(atoms)):
        assign = dict(zip(atoms, bits))
        if all(
            any(assign[lit.atom] == lit.positive for lit in c.literals) for c in instances
        ):
            return True
    return False


def assignment_satisfies(clause: Clause, assign: dict) -> bool:
    return any(assign.get(lit.atom, False) == lit.positive for lit in clause.literals)


def exhaustive_lia_search(system, box: dict[str, tuple[int, int]]) -> dict[str, int] | None:
    """Plain nested-loop search for an integer point satisfying every inequation."""
    variables = system.variables
    ranges = [range(box[v][0], box[v][1] + 1) for v in variables]
    for point in itertools.product(*ranges):
        assign = dict(zip(variables, point))
        ok = True
        for ineq in system.inequations:
            total = ineq.const + sum(a * assign[v] for v, a in ineq.coeffs)
            if total > 0:
                ok = False
                break
        if ok:
            return assign
    return None


def reference_box_radius(system: LiaSystem) -> int:
    """The a-priori box radius n*(m*a)**(2m+1), with m, n and a read off the inequations.

    m counts the inequations, n the distinct variables, and a is the largest
    absolute coefficient or constant.
    """
    m = len(system.inequations)
    if m < 1:
        raise ValueError("the system must contain at least one inequation")
    n = len({v for ineq in system.inequations for v, _ in ineq.coeffs})
    a = max(abs(x) for ineq in system.inequations for x in (ineq.const, *(c for _, c in ineq.coeffs)))
    return n * (m * a) ** (2 * m + 1)


# The box volume past which the reference decision does not search.
BOX_CAP = 10_000_000


# The bounded decision by enumeration, with its own minimum routine over the
# box and the partial assignment: it meets the points in lexicographic order,
# so where it answers, the engine's search must give the same model.
def reference_decide_bounded(system: LiaSystem, box_cap: int = BOX_CAP) -> LiaDecision:
    """Exhaustive search over the a-priori box; "unsat" there means unsatisfiable.

    A system with no inequation is "sat" under the empty assignment.
    Depth-first over the variables with partial-evaluation pruning; raises
    ResourceLimitError when the box volume exceeds the cap.
    """
    if not system.inequations:
        return LiaDecision("sat", {})
    radius = reference_box_radius(system)
    variables = system.variables
    box = {v: (-radius, radius) for v in variables}
    volume = 1
    for v in variables:
        lo, hi = box[v]
        volume *= hi - lo + 1
        if volume > box_cap:
            raise ResourceLimitError(f"search box exceeds the cap of {box_cap} points")

    assignment: dict[str, int] = {}

    def ineq_min(ineq: LinIneq) -> int:
        total = ineq.const
        for v, a in ineq.coeffs:
            if v in assignment:
                total += a * assignment[v]
            else:
                lo, hi = box[v]
                total += a * lo if a > 0 else a * hi
        return total

    def search(i: int) -> dict[str, int] | None:
        if any(ineq_min(ineq) > 0 for ineq in system.inequations):
            return None
        if i == len(variables):
            return dict(assignment)
        v = variables[i]
        lo, hi = box[v]
        for value in range(lo, hi + 1):
            assignment[v] = value
            found = search(i + 1)
            if found is not None:
                return found
            del assignment[v]
        return None

    found = search(0)
    return LiaDecision("sat", found) if found is not None else LiaDecision("unsat")


def _reference_coeff_of(ineq, var: str) -> int:
    for v, a in ineq.coeffs:
        if v == var:
            return a
    return 0


def reference_implied_bound(ineq, current, var: str) -> Bound | None:
    """Tightest bound on var entailed by the inequation under the current bounds.

    None when a required opposite bound is missing or nothing gets tighter.
    Integer rounding: floor for upper bounds, ceiling for lower bounds.
    """
    a_var = _reference_coeff_of(ineq, var)
    if a_var == 0:
        raise ValueError(f"{var} has no coefficient in inequation {ineq.id}")
    s_min = 0
    for v, a in ineq.coeffs:
        if v == var:
            continue
        bound = current.get((v, a > 0))  # a > 0 needs a lower bound, a < 0 an upper
        if bound is None:
            return None
        s_min += a * bound.value
    rhs = -ineq.const - s_min
    if a_var > 0:
        candidate = Bound(var, False, rhs // a_var, reason=ineq.id)
    else:
        candidate = Bound(var, True, -(rhs // -a_var), reason=ineq.id)
    existing = current.get((var, candidate.lower))
    if existing is not None:
        if candidate.lower and candidate.value <= existing.value:
            return None
        if not candidate.lower and candidate.value >= existing.value:
            return None
    return candidate


def _reference_min_value(ineq, current) -> int | None:
    """Minimum of the left side over the bound box; None when unbounded below."""
    total = ineq.const
    for v, a in ineq.coeffs:
        bound = current.get((v, a > 0))
        if bound is None:
            return None
        total += a * bound.value
    return total


def reference_conflicting_inequation(system, current, candidates=None) -> int | None:
    """Id of the first inequation, in system order, whose left side has a positive minimum."""
    for ineq in system.inequations if candidates is None else candidates:
        m = _reference_min_value(ineq, current)
        if m is not None and m > 0:
            return ineq.id
    return None


def bounds(result: LiaPropagation) -> dict[tuple[str, bool], Bound]:
    """Each bound's last entry on the propagation's trail, keyed by (variable, lower), in first-bound order."""
    return {b[:2]: b for b in result.trail}


def reference_propagate_bounds(system, decisions, max_steps: int, current=None):
    """Round-robin bound tightening that visits every (inequation, variable) pair in every sweep.

    `current`, an empty dict if given, ends holding each (variable, lower)
    key's latest bound, keys in first-bound order: the run's own table of bounds.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    if current is None:
        current = {}
    trail: list[Bound] = []
    for b in decisions:
        key = (b.var, b.lower)
        old = current.get(key)
        if old is not None and (
            (b.lower and b.value <= old.value) or (not b.lower and b.value >= old.value)
        ):
            continue
        current[key] = b
        trail.append(b)
    steps = 0
    cid = reference_conflicting_inequation(system, current)
    if cid is not None:
        return LiaPropagation("conflict", trail, steps, cid)
    # while none conflicts, a tightening can only make one conflict that mentions its variable
    mentions: dict[str, list] = {}
    for ineq in system.inequations:
        for v, _a in ineq.coeffs:
            mentions.setdefault(v, []).append(ineq)
    while True:
        changed = False
        for ineq in system.inequations:
            for v, _a in ineq.coeffs:
                bound = reference_implied_bound(ineq, current, v)
                if bound is None:
                    continue
                if steps >= max_steps:
                    return LiaPropagation("diverged", trail, steps)
                current[(bound.var, bound.lower)] = bound
                trail.append(bound)
                steps += 1
                changed = True
                cid = reference_conflicting_inequation(system, current, mentions[bound.var])
                if cid is not None:
                    return LiaPropagation("conflict", trail, steps, cid)
        if not changed:
            return LiaPropagation("fixpoint", trail, steps)


def reference_resolve_1uip(trail, conflict_lits, level, reason_lits):
    """1UIP resolution over (literal, level, reason) trail tuples, levels read off the trail."""
    current = set(conflict_lits)
    steps: list[tuple[int, int]] = []
    lvl = {abs(lit): lv for lit, lv, _ in trail}
    pos = len(trail) - 1

    def resolve_at(p: int) -> int:
        nonlocal current
        lit, _, reason = trail[p]
        if reason is None:
            raise ValueError("conflict analysis reached a decision literal")
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


@dataclass
class ReferenceSclState:
    """The SCL state with classification caches: every instance containing a changed
    atom is rescanned, and each step takes the minimum over all unit and false instances."""

    problem: GroundProblem
    trail: list[tuple[int, int, int | None]] = field(default_factory=list)  # lit, level, reason pos
    level: int = 0
    conflict: int | None = None  # instance position
    value: dict[int, bool] = field(default_factory=dict)
    stats: SclStats = field(default_factory=SclStats)
    events: list[tuple] = field(default_factory=list)
    units: dict[int, int] = field(default_factory=dict)  # instance pos -> forced lit
    falses: set[int] = field(default_factory=set)
    occurrences: dict[int, list[int]] = field(default_factory=dict)  # atom -> instance positions

    def __post_init__(self) -> None:
        for pos in range(len(self.problem.instances)):
            self.index(pos)
        self.reclassify(range(len(self.problem.instances)))

    def index(self, pos: int) -> None:
        for atom in {abs(l) for l in self.problem.instances[pos].lits}:
            self.occurrences.setdefault(atom, []).append(pos)

    def reclassify(self, positions: Iterable[int]) -> None:
        for pos in positions:
            st, forced = scan_status(self.problem.instances[pos].lits, self.value)
            self.units.pop(pos, None)
            self.falses.discard(pos)
            if st == "unit":
                self.units[pos] = forced
            elif st == "false":
                self.falses.add(pos)

    def assign(self, lit: int, reason: int | None) -> None:
        self.trail.append((lit, self.level, reason))
        self.value[abs(lit)] = lit > 0
        self.reclassify(self.occurrences.get(abs(lit), []))

    def unassign_to(self, level: int) -> None:
        touched: set[int] = set()
        while self.trail and self.trail[-1][1] > level:
            lit, _, _ = self.trail.pop()
            del self.value[abs(lit)]
            touched.update(self.occurrences.get(abs(lit), []))
        self.reclassify(touched)

    def literal_str(self, lit: int) -> str:
        atom = self.problem.atoms[abs(lit) - 1]
        return str(atom) if lit > 0 else "-" + str(atom)


def reference_scl_propagate(state: ReferenceSclState, trail_cap: int) -> None:
    instances = state.problem.instances
    while True:
        if state.falses:
            pos = min(state.falses, key=lambda p: (instances[p].clause_id, instances[p].subst))
            state.conflict = pos
            state.events.append(("conflict", instances[pos].clause_id, instances[pos].subst_str()))
            return
        if not state.units:
            return
        if len(state.trail) >= trail_cap:
            raise ResourceLimitError(f"trail length exceeds the cap of {trail_cap}")
        pos, forced = min(
            state.units.items(),
            key=lambda kv: (abs(kv[1]), kv[1] < 0, instances[kv[0]].clause_id, instances[kv[0]].subst),
        )
        state.assign(forced, pos)
        state.stats.propagations += 1
        state.events.append(
            ("propagate", state.literal_str(forced), instances[pos].clause_id, instances[pos].subst_str())
        )


def reference_scl_run(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    trail_cap: int = DEFAULT_TRAIL_CAP,
):
    """Drop-in for `scl.scl_run` on the reference grounding and rescanning state.

    Events carry their rendered strings, as `reference_render` prints them.
    The trail cap stops a decision as it stops a propagation.
    """
    try:
        problem = reference_ground_problem(clauses, domain, instance_cap)
    except ResourceLimitError:
        return SclResult("limit", SclStats(), None)
    state = ReferenceSclState(problem)
    while True:
        try:
            reference_scl_propagate(state, trail_cap)
        except ResourceLimitError:
            state.events.append(("resource",))
            return SclResult("limit", state.stats, state)
        if state.conflict is not None:
            inst = problem.instances[state.conflict]
            if state.level == 0:
                state.events.append(("unsat",))
                return SclResult("unsat", state.stats, state)
            learned, blevel, _ = reference_resolve_1uip(
                state.trail, inst.lits, state.level, lambda pos: problem.instances[pos].lits
            )
            state.conflict = None
            new_id = max(problem.clauses) + 1
            clause = Clause(new_id, tuple(Literal(l > 0, problem.atoms[abs(l) - 1]) for l in learned))
            problem.clauses[new_id] = clause
            problem.instances.append(GroundInstance(new_id, (), learned))
            pos = len(problem.instances) - 1
            state.index(pos)
            state.reclassify([pos])
            state.unassign_to(blevel)
            state.level = blevel
            state.assign(next(l for l in learned if abs(l) not in state.value), pos)
            state.events.append(("learn", " | ".join(state.literal_str(l) for l in learned), blevel))
        elif len(state.value) == len(problem.atoms):
            state.events.append(("sat",))
            return SclResult("sat", state.stats, state)
        elif len(state.trail) >= trail_cap:
            state.events.append(("resource",))
            return SclResult("limit", state.stats, state)
        else:
            atom = next(i for i in range(1, len(problem.atoms) + 1) if i not in state.value)
            state.level += 1
            state.assign(atom, None)
            state.stats.decisions += 1
            state.events.append(("decide", state.literal_str(atom), state.level))


def reference_render(result) -> list[tuple[str, dict]]:
    """(text line, JSON fields) per output line of a reference run: trace, stats line, verdict line."""
    out = []
    state = result.state
    if state is not None:
        for ev in state.events:
            kind = ev[0]
            if kind == "propagate":
                out.append((f"propagate {ev[1]} <- clause {ev[2]} σ={ev[3]}",
                            {"event": "scl", "kind": kind, "lit": ev[1], "clause": ev[2], "subst": ev[3]}))
            elif kind == "conflict":
                out.append((f"conflict clause {ev[1]} σ={ev[2]}",
                            {"event": "scl", "kind": kind, "clause": ev[1], "subst": ev[2]}))
            elif kind == "decide":
                out.append((f"decide {ev[1]} @{ev[2]}",
                            {"event": "scl", "kind": kind, "lit": ev[1], "level": ev[2]}))
            elif kind == "learn":
                out.append((f"learn {ev[1]} backjump {ev[2]}",
                            {"event": "scl", "kind": kind, "clause": ev[1], "backjump": ev[2]}))
        s = state.stats
        out.append((f"stats propagations={s.propagations} decisions={s.decisions} trail={len(state.trail)}",
                    {"event": "scl", "kind": "stats"}))
    if result.verdict == "sat":
        out.append(("s SATISFIABLE", {"event": "result"}))
    elif result.verdict == "unsat":
        out.append(("s UNSATISFIABLE", {"event": "result"}))
    else:
        out.append(("s RESOURCE-EXCEEDED", {"event": "result"}))
    return out


# ---------------------------------------------------------------------------
# Knuth-Bendix ordering with symbol weights and a variable weight, the
# reference for clausekit.ordering, which fixes every weight at 1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedOrderingConfig:
    """KBO instance: symbol weights, a strict precedence, and the variable weight."""

    weights: Mapping[str, int]
    precedence: Mapping[str, int]  # higher value = greater symbol
    variable_weight: int = 1

    def __post_init__(self):
        if self.variable_weight < 1:
            raise ValueError("variable weight must be positive")
        for sym, w in self.weights.items():
            if w < self.variable_weight:
                # KBO admissibility: constants may not weigh less than variables
                raise ValueError(f"weight of {sym!r} is below the variable weight")

    def weight_of(self, symbol: str) -> int:
        try:
            return self.weights[symbol]
        except KeyError:
            raise OrderingConfigError(f"no weight for symbol {symbol!r}") from None

    def prec_of(self, symbol: str) -> int:
        try:
            return self.precedence[symbol]
        except KeyError:
            raise OrderingConfigError(f"no precedence for symbol {symbol!r}") from None


def unit_weights(cfg: OrderingConfig) -> WeightedOrderingConfig:
    """The engine's precedence with every symbol and the variables at weight 1."""
    return WeightedOrderingConfig(weights={s: 1 for s in cfg.precedence}, precedence=cfg.precedence)


def reference_atom_weight(atom: Atom, cfg: WeightedOrderingConfig) -> int:
    total = cfg.weight_of(atom.predicate)
    for arg in atom.args:
        total += cfg.variable_weight if isinstance(arg, Variable) else cfg.weight_of(arg.name)
    return total


def _reference_term_compare(u: Term, v: Term, cfg: WeightedOrderingConfig) -> Cmp:
    if u is v:  # terms are interned
        return Cmp.EQ
    if isinstance(u, Variable) or isinstance(v, Variable):
        # distinct variables, or variable vs constant: neither dominates
        return Cmp.INCOMPARABLE
    wu, wv = cfg.weight_of(u.name), cfg.weight_of(v.name)
    if wu != wv:
        return Cmp.GT if wu > wv else Cmp.LT
    return Cmp.GT if cfg.prec_of(u.name) > cfg.prec_of(v.name) else Cmp.LT


def _reference_covers(s: Atom, t: Atom) -> bool:
    """Every variable occurs in `s` at least as often as in `t`."""
    return all(s.args.count(v) >= t.args.count(v) for v in t.args if isinstance(v, Variable))


def reference_kbo_compare(s: Atom, t: Atom, cfg: WeightedOrderingConfig) -> Cmp:
    if s == t:
        return Cmp.EQ
    ws, wt = reference_atom_weight(s, cfg), reference_atom_weight(t, cfg)
    if ws != wt:
        r = Cmp.GT if ws > wt else Cmp.LT
    elif s.predicate != t.predicate:
        r = Cmp.GT if cfg.prec_of(s.predicate) > cfg.prec_of(t.predicate) else Cmp.LT
    else:  # the first argument where they differ decides
        r = next((_reference_term_compare(u, v, cfg) for u, v in zip(s.args, t.args) if u is not v), Cmp.EQ)
    # a greater atom must hold every variable as often as the smaller one
    if r is Cmp.GT:
        return r if _reference_covers(s, t) else Cmp.INCOMPARABLE
    if r is Cmp.LT:
        return r if _reference_covers(t, s) else Cmp.INCOMPARABLE
    return r


def reference_literal_is_maximal(clause: Clause, index: int, cfg: WeightedOrderingConfig) -> bool:
    """Whether no literal of the clause strictly exceeds the one at `index`."""
    lit = clause.literals[index]
    return not any(
        reference_kbo_compare(other.atom, lit.atom, cfg) is Cmp.GT for other in clause.literals
    )


def reference_resolution_step(
    positive: Clause, i: int, negative: Clause, j: int
) -> tuple[Substitution, Clause, Clause] | None:
    """One resolution step as a chain: rename apart, unify, instantiate both premises.

    Resolves the positive premise's literal `i` against the negative
    premise's literal `j` (0-based) and returns the unifier and the two
    premise instances, or None when the atoms do not unify.
    """
    pos_r, neg_r = rename_apart(positive, negative)
    sigma = unify(pos_r.literals[i].atom, neg_r.literals[j].atom)
    if sigma is None:
        return None
    return sigma, sigma.apply_clause(pos_r), sigma.apply_clause(neg_r)


def reference_conclusion(cid: int, *premises: tuple[Clause, int]) -> Clause:
    """The canonical variant of the instantiated premises' literals, each premise without the one at its index."""
    rest = tuple(l for clause, k in premises for i, l in enumerate(clause.literals) if i != k)
    return canonical_variant(Clause(cid, rest))


def reference_ordered_resolve(c1: Clause, c2: Clause, cfg: WeightedOrderingConfig, sel) -> list[DerivedClause]:
    """Ordered resolvents of two clauses: try every positive/negative pair with `reference_resolution_step`."""
    out = []
    for positive, negative in ((c1, c2), (c2, c1)):
        if sel(positive) is not None:
            continue
        neg_selected = sel(negative)
        for i, pl in enumerate(positive.literals):
            if not pl.positive:
                continue
            for j, nl in enumerate(negative.literals):
                if nl.positive or (neg_selected is not None and j != neg_selected):
                    continue
                step = reference_resolution_step(positive, i, negative, j)
                if step is None:
                    continue
                sigma, pos_instance, neg_instance = step
                if not reference_literal_is_maximal(pos_instance, i, cfg):
                    continue
                if neg_selected is None and not reference_literal_is_maximal(neg_instance, j, cfg):
                    continue
                conclusion = reference_conclusion(0, (pos_instance, i), (neg_instance, j))
                out.append(DerivedClause(conclusion, ResolutionRule(positive.id, i + 1, negative.id, j + 1, sigma)))
        if c1.id == c2.id:
            break
    return out


def reference_replay(
    clauses: Iterable[Clause], script: Sequence[tuple[int, int, int, int]], cfg: WeightedOrderingConfig | None = None
) -> list[DerivedClause]:
    """Scripted resolutions with `reference_resolution_step`, failing as `resolution.replay` does.

    With cfg, a step must resolve the first negative literal of its negative
    premise, and its positive literal must be maximal in its premise's instance.
    """
    by_id: dict[int, Clause] = {}
    for c in clauses:
        if c.id in by_id:
            raise ValueError(f"duplicate clause id {c.id}")
        by_id[c.id] = c
    next_id = max(by_id, default=0) + 1
    out = []
    for no, (lid, lpos, rid, rpos) in enumerate(script, start=1):
        for cid in (lid, rid):
            if cid not in by_id:
                raise ReplayStepError(no, f"unknown clause id {cid}")
        if not 1 <= lpos <= len(by_id[lid]):
            raise ReplayStepError(no, f"clause {lid} has no literal {lpos}")
        if not 1 <= rpos <= len(by_id[rid]):
            raise ReplayStepError(no, f"clause {rid} has no literal {rpos}")
        left_positive = by_id[lid].literals[lpos - 1].positive
        if left_positive == by_id[rid].literals[rpos - 1].positive:
            raise ReplayStepError(no, "literals are not complementary")
        pid, pi, nid, ni = (lid, lpos, rid, rpos) if left_positive else (rid, rpos, lid, lpos)
        step = reference_resolution_step(by_id[pid], pi - 1, by_id[nid], ni - 1)
        if step is None:
            raise ReplayStepError(no, "literals do not unify")
        sigma, pos_instance, neg_instance = step
        if cfg is not None:
            first_negative = next(k for k, l in enumerate(by_id[nid].literals) if not l.positive)
            if ni - 1 != first_negative:
                raise ValueError(f"step deriving clause {next_id} does not resolve the first negative literal")
            if not reference_literal_is_maximal(pos_instance, pi - 1, cfg):
                raise ValueError(f"step deriving clause {next_id} has a non-maximal positive literal")
        sides = ((pos_instance, pi - 1), (neg_instance, ni - 1))
        conclusion = reference_conclusion(next_id, *(sides if left_positive else sides[::-1]))
        by_id[next_id] = conclusion
        out.append(DerivedClause(conclusion, ResolutionRule(pid, pi, nid, ni, sigma)))
        next_id += 1
    return out


def reference_factor(clause: Clause, cfg: WeightedOrderingConfig) -> list[DerivedClause]:
    out = []
    lits = clause.literals
    for i, j in itertools.combinations(range(len(lits)), 2):
        if not (lits[i].positive and lits[j].positive):
            continue
        sigma = unify(lits[i].atom, lits[j].atom)
        if sigma is None or not reference_literal_is_maximal(sigma.apply_clause(clause), i, cfg):
            continue
        conclusion = canonical_variant(
            Clause(0, tuple(Literal(l.positive, apply_atom(sigma, l.atom)) for k, l in enumerate(lits) if k != j))
        )
        out.append(DerivedClause(conclusion, FactoringRule(clause.id, i + 1, j + 1, sigma)))
    return out


def reference_saturate(
    clauses: Iterable[Clause], cfg: OrderingConfig, sel, max_generated: int = 100_000
) -> SaturationResult:
    """The given-clause loop without indexes: the given clause meets every active
    clause, and subsumption scans every retained clause both ways.

    Drop-in for `resolution.saturate`, reading maximality from the reference
    KBO at unit weights over `cfg`'s precedence.  It shares with it only the
    logic primitives (`unify`, `rename_apart`, `canonical_variant`) and
    `subsumes`, the test of one pair.
    """
    weighted = unit_weights(cfg)
    inputs = {c.id: c for c in clauses}
    if not inputs:
        return SaturationResult("saturated", 0, 0, 0, 0, [], {}, None)
    passive = deque(inputs[i] for i in sorted(inputs))
    active: list[Clause] = []
    removed: set[int] = set()
    derivations: dict[int, DerivedClause] = {}
    next_id = max(inputs) + 1
    counts = {"generated": 0, "kept": 0, "subsumed": 0, "tautologies": 0}

    def retained() -> list[Clause]:
        return [c for c in [*active, *passive] if c.id not in removed]

    def result(outcome: str, proof=None) -> SaturationResult:
        return SaturationResult(outcome, **counts, clauses=retained(), derivations=derivations, proof=proof)

    def proof_of(bottom: DerivedClause) -> list[DerivedClause]:
        needed = {bottom.clause.id: bottom}
        queue = [bottom]
        while queue:
            rule = queue.pop().rule
            if isinstance(rule, ResolutionRule):
                parents = [rule.positive_parent, rule.negative_parent]
            else:
                parents = [rule.parent] if isinstance(rule, FactoringRule) else []
            for pid in parents:
                if pid not in needed:
                    needed[pid] = derivations.get(pid) or DerivedClause(inputs[pid], InputRule())
                    queue.append(needed[pid])
        return [needed[i] for i in sorted(needed)]

    while passive:
        given = passive.popleft()
        if given.id in removed:
            continue
        if given.is_empty:
            return result("unsat", [DerivedClause(given, InputRule())])
        if given.is_tautology():
            counts["tautologies"] += 1
            removed.add(given.id)
            continue
        active.append(given)
        batch = []
        for partner in active:
            batch.extend(reference_ordered_resolve(given, partner, weighted, sel))
        batch.extend(reference_factor(given, weighted))
        for derived in batch:
            if counts["generated"] >= max_generated:
                return result("limit")
            counts["generated"] += 1
            conclusion = derived.clause
            if conclusion.is_empty:
                bottom = DerivedClause(Clause(next_id), derived.rule)
                derivations[next_id] = bottom
                return result("unsat", proof_of(bottom))
            if conclusion.is_tautology():
                counts["tautologies"] += 1
                continue
            if any(subsumes(old, conclusion) for old in retained()):
                counts["subsumed"] += 1
                continue
            for old in retained():
                if subsumes(conclusion, old):
                    removed.add(old.id)
                    counts["subsumed"] += 1
            derivations[next_id] = DerivedClause(Clause(next_id, conclusion.literals), derived.rule)
            passive.append(derivations[next_id].clause)
            counts["kept"] += 1
            next_id += 1
        active = [c for c in active if c.id not in removed]
    return result("saturated")


# ---------------------------------------------------------------------------
# Parsers: BS and LIA text read through a token stream, one token at a time,
# the references for the pattern-per-item parsers of clausekit.formats.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z0-9_']+|[-|.():,]|\S")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN.finditer(body):
            tokens.append((m.group(), lineno, m.start() + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self) -> tuple[int | None, int | None]:
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            return line, col
        if self.tokens:
            _, line, col = self.tokens[-1]
            return line, col
        return None, None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self.where())
        self.pos += 1
        return tok


_IDENT = re.compile(r"[A-Za-z0-9_']+")


def bs_text(clauses: Iterable[Clause]) -> str:
    """The clauses as BS text, one line each with its `<id> :` prefix."""
    return "".join(f"{c.id} : {c}.\n" for c in clauses)


def reference_parse_bs(text: str) -> list[Clause]:
    """Parse a BS clause problem; checks arity consistency and id uniqueness."""
    stream = _TokenStream(_tokenize(text))
    clauses: list[Clause] = []
    used_ids: set[int] = set()
    arities: dict[str, int] = {}
    next_id = 1

    def parse_atom() -> Atom:
        line, col = stream.where()
        name = stream.take()
        if not _IDENT.fullmatch(name):
            raise ParseError(f"expected an atom, got {name!r}", line, col)
        if is_variable_name(name):
            raise ParseError(f"predicate {name!r} starts with a variable prefix", line, col)
        args = []
        if stream.peek() == "(":
            stream.take()
            while True:
                tline, tcol = stream.where()
                tok = stream.take()
                if not _IDENT.fullmatch(tok):
                    raise ParseError(f"expected a term, got {tok!r}", tline, tcol)
                args.append(term_from_name(tok))
                nxt = stream.take()
                if nxt == ")":
                    break
                if nxt != ",":
                    raise ParseError(f"expected ',' or ')', got {nxt!r}", tline, tcol)
        known = arities.setdefault(name, len(args))
        if known != len(args):
            raise ParseError(
                f"predicate {name!r} used with arity {len(args)}, expected {known}", line, col
            )
        return Atom(name, tuple(args))

    while stream.peek() is not None:
        cid = next_id
        if (
            stream.peek().isascii()
            and stream.peek().isdigit()
            and stream.pos + 1 < len(stream.tokens)
            and stream.tokens[stream.pos + 1][0] == ":"
        ):
            line, col = stream.where()
            cid = int(stream.take())
            stream.take()  # ':'
            if cid in used_ids:
                raise ParseError(f"duplicate clause id {cid}", line, col)
        literals = []
        while True:
            positive = True
            if stream.peek() == "-":
                stream.take()
                positive = False
            literals.append(Literal(positive, parse_atom()))
            nxt = stream.take()
            if nxt == ".":
                break
            if nxt != "|":
                line, col = stream.where()
                raise ParseError(f"expected '|' or '.', got {nxt!r}", line, col)
        used_ids.add(cid)
        next_id = max(next_id, cid) + 1
        clauses.append(Clause(cid, tuple(literals)))
    return clauses


_LIA_TOKEN = re.compile(r"\s*(<=|>=|<|>|[+*-]|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*)")


def _parse_lia_side(tokens: list[str], lineno: int) -> tuple[dict[str, int], int, list[str]]:
    coeffs: dict[str, int] = {}
    order: list[str] = []
    const = 0
    sign = 1
    expect_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("<=", ">=", "<", ">"):
            break
        if tok == "+":
            if expect_term:
                raise ParseError("dangling '+'", lineno)
            expect_term = True
            sign = 1
            i += 1
            continue
        if tok == "-":
            if expect_term:
                sign = -sign
            else:
                expect_term = True
                sign = -1
            i += 1
            continue
        if not expect_term:
            raise ParseError(f"expected an operator before {tok!r}", lineno)
        if re.fullmatch(r"-?[0-9]+", tok):
            value = sign * int(tok)
            if i + 2 < len(tokens) and tokens[i + 1] == "*":
                var = tokens[i + 2]
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", var):
                    raise ParseError(f"expected a variable after '*', got {var!r}", lineno)
                if var not in coeffs:
                    order.append(var)
                coeffs[var] = coeffs.get(var, 0) + value
                i += 3
            else:
                const += value
                i += 1
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in coeffs:
                order.append(tok)
            coeffs[tok] = coeffs.get(tok, 0) + sign
            i += 1
        else:
            raise ParseError(f"unexpected token {tok!r}", lineno)
        sign = 1
        expect_term = False
    if expect_term:
        raise ParseError("expression ends with an operator", lineno)
    ordered = {v: coeffs[v] for v in order}
    return ordered, const, tokens[i:]


def reference_parse_lia(text: str) -> LiaSystem:
    """One inequation per line; '#' starts a comment; ids are line-ordered."""
    inequations: list[LinIneq] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = [m.group(1) for m in _LIA_TOKEN.finditer(line)]
        if "".join(tokens) != re.sub(r"\s", "", line):
            raise ParseError(f"could not tokenize {line!r}", lineno)
        left, lconst, rest = _parse_lia_side(tokens, lineno)
        if not rest:
            raise ParseError("missing comparison operator", lineno)
        op, rest = rest[0], rest[1:]
        right, rconst, leftover = _parse_lia_side(rest, lineno)
        if leftover:
            raise ParseError(f"trailing input {' '.join(leftover)!r}", lineno)
        coeffs = dict(left)
        for v, a in right.items():
            coeffs[v] = coeffs.get(v, 0) - a
        const = lconst - rconst
        if op in (">", ">="):
            coeffs = {v: -a for v, a in coeffs.items()}
            const = -const
        if op in ("<", ">"):
            const += 1  # strict over the integers
        coeffs = {v: a for v, a in coeffs.items() if a != 0}
        if not coeffs:
            raise ParseError("inequation has no variable", lineno)
        inequations.append(LinIneq(len(inequations) + 1, tuple(coeffs.items()), const))
    return LiaSystem(inequations)


# ---------------------------------------------------------------------------
# Variable renaming as clausekit.logic did it term by term, through nested
# generators; the reference for its one-walk-per-clause renaming.
# ---------------------------------------------------------------------------


def reference_variables(clause: Clause) -> list[Variable]:
    seen: dict[Variable, None] = {}
    for lit in clause.literals:
        for v in lit.atom.args:
            if isinstance(v, Variable):
                seen.setdefault(v)
    return list(seen)


def _reference_rename(clause: Clause, mapping: Mapping[Variable, Variable]) -> Clause:
    """Simultaneous variable renaming (no chain resolution, so swaps are fine)."""

    def ren(t: Term) -> Term:
        return mapping.get(t, t) if isinstance(t, Variable) else t

    lits = tuple(
        Literal(l.positive, Atom(l.atom.predicate, tuple(ren(a) for a in l.atom.args)))
        for l in clause.literals
    )
    return Clause(clause.id, lits)


def reference_rename_apart(c1: Clause, c2: Clause) -> tuple[Clause, Clause]:
    """Return variants of the clauses with disjoint variables (c2 gets renamed)."""
    taken = {v.name for v in reference_variables(c1)}
    own = {v.name for v in reference_variables(c2)}
    mapping: dict[Variable, Variable] = {}
    for v in reference_variables(c2):
        if v.name in taken:
            fresh = v.name + "'"
            while fresh in taken or fresh in own:
                fresh += "'"
            mapping[v] = Variable(fresh)
            own.add(fresh)
    if not mapping:
        return c1, c2
    return c1, _reference_rename(c2, mapping)


def reference_canonical_variant(clause: Clause) -> Clause:
    """Rename variables to x1, x2, ... in order of first occurrence."""
    mapping = {}
    for v in reference_variables(clause):
        mapping[v] = Variable(f"x{len(mapping) + 1}")
    return _reference_rename(clause, mapping)


def renamed_equal(c1: Clause, c2: Clause) -> bool:
    """Syntactic equality up to variable renaming, literal order kept."""
    return reference_canonical_variant(c1).literals == reference_canonical_variant(c2).literals


def apply_atom(sigma: Substitution, atom: Atom) -> Atom:
    """The instance of the atom under the substitution, read from its bindings."""
    bindings = dict(sigma.items())
    return Atom(atom.predicate, tuple([bindings.get(a, a) for a in atom.args]))


# ---------------------------------------------------------------------------
# Instantiation as clausekit.logic did it before it skipped the instances
# that change nothing: every binding walked with its own `seen` set, and every
# literal of every instance rebuilt.  (Its canonical renaming gave what
# `reference_canonical_variant` above gives.)
# ---------------------------------------------------------------------------


class ReferenceSubstitution:
    """Idempotent finite map from variables to terms; never binds x to x."""

    def __init__(self, bindings: Mapping[Variable, Term] | None = None):
        pending = dict(bindings or {})
        resolved: dict[Variable, Term] = {}
        for var, term in pending.items():
            seen = {var}
            while isinstance(term, Variable) and term in pending:
                if term in seen:
                    raise ValueError("cyclic substitution")
                seen.add(term)
                term = pending[term]
            if term is not var:
                resolved[var] = term
        self._bindings = resolved

    def apply_atom(self, atom: Atom) -> Atom:
        get = self._bindings.get
        return Atom(atom.predicate, tuple([get(a, a) for a in atom.args]))

    def apply_literal(self, lit: Literal) -> Literal:
        return Literal(lit.positive, self.apply_atom(lit.atom))

    def apply_clause(self, clause: Clause) -> Clause:
        return Clause(clause.id, tuple([self.apply_literal(l) for l in clause.literals]))
