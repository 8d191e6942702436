"""Independent brute-force oracles used to cross-check the engines.

Everything here enumerates: truth tables by looping over assignments, ground
satisfiability by instantiating every clause over the domain, unit
propagation by rescanning every clause.  None of it shares code paths with
the engines under test.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from clausekit.cdcl import TrailEntry
from clausekit.errors import ResourceLimitError
from clausekit.logic import Atom, Clause, Constant, Substitution
from clausekit.scl import DEFAULT_INSTANCE_CAP, GroundInstance, GroundProblem


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


def brute_force_models(clauses: Iterable[Sequence[int]], num_vars: int) -> list[dict[int, bool]]:
    clauses = [tuple(c) for c in clauses]
    out = []
    for bits in itertools.product((False, True), repeat=num_vars):
        assign = {i + 1: bits[i] for i in range(num_vars)}
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
            out.append(assign)
    return out


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


def reference_propagate(state):
    """CDCL unit propagation by rescanning every clause in id order per step.

    The smallest-id false clause is the conflict, and preempts propagation;
    otherwise the smallest-id unit clause propagates.  Drop-in for
    `cdcl.propagate`; it writes the trail itself, so the engine's watch
    kernel is left stale and only `reference_at_fixpoint` may be used with it.
    """
    if state.conflict_id is not None:
        raise ValueError("cannot propagate with a pending conflict")
    while True:
        unit = None
        for cid in sorted(state.clauses):
            status, lit = scan_status(state.clauses[cid].lits, state.value)
            if status == "false":
                state.conflict_id = cid
                state.events.append(("conflict", cid))
                return state
            if status == "unit" and unit is None:
                unit = (cid, lit)
        if unit is None:
            return state
        cid, lit = unit
        state.trail.append(TrailEntry(lit, state.level, cid))
        state.value[abs(lit)] = lit > 0
        state.var_level[abs(lit)] = state.level
        state.var_reason[abs(lit)] = cid
        state.events.append(("propagate", lit, cid))


def reference_at_fixpoint(state) -> bool:
    """Drop-in for `cdcl.at_fixpoint`: no clause is unit or false."""
    return all(
        scan_status(c.lits, state.value)[0] in ("sat", "open") for c in state.clauses.values()
    )


def resolve_on(c1: Sequence[int], c2: Sequence[int], atom: int) -> tuple[int, ...]:
    """Propositional binary resolution on the given atom."""
    assert atom in [abs(l) for l in c1] and atom in [abs(l) for l in c2]
    merged = {l for l in c1 if abs(l) != atom} | {l for l in c2 if abs(l) != atom}
    return tuple(sorted(merged, key=abs))


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
    substitution to each literal of each instance and looks the atom up.  An
    instance keeps each literal once, in first-occurrence order, and instances
    with the same literal set are dropped after the first.
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
        dom = sorted(constants, key=lambda c: c.name)
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

    problem = GroundProblem(by_id, tuple(dom), atoms, [], {})
    for cid in sorted(by_id):
        clause = by_id[cid]
        variables = clause.variables()
        seen: set[frozenset[int]] = set()
        for combo in itertools.product(dom, repeat=len(variables)):
            sub = Substitution(dict(zip(variables, combo)))
            lits = tuple(
                dict.fromkeys(
                    atom_index[sub.apply_atom(l.atom)] * (1 if l.positive else -1)
                    for l in clause.literals
                )
            )
            if frozenset(lits) in seen:
                continue
            seen.add(frozenset(lits))
            subst = tuple(sorted((v.name, c.name) for v, c in zip(variables, combo)))
            problem.instances.append(GroundInstance(cid, subst, lits))
    for pos, inst in enumerate(problem.instances):
        for atom in {abs(l) for l in inst.lits}:
            problem.occurrences.setdefault(atom, []).append(pos)
    return problem


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
