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
from clausekit.logic import Clause, Constant, Substitution


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
