"""Function-free first-order syntax: terms, atoms, literals, clauses, substitutions.

Variables and constants are the only terms (Bernays-Schoenfinkel fragment);
propositional atoms are the 0-ary special case.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# Identifiers starting with one of these letters denote variables.
VARIABLE_PREFIXES = ("x", "y", "z", "u", "v", "w")


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Variable | Constant


def is_variable_name(name: str) -> bool:
    return name[:1].lower() in VARIABLE_PREFIXES


def term_from_name(name: str) -> Term:
    if not name:
        raise ValueError("term names must be non-empty")
    return Variable(name) if is_variable_name(name) else Constant(name)


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> list[Variable]:
        return [a for a in self.args if isinstance(a, Variable)]

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    atom: Atom

    def complement(self) -> "Literal":
        return Literal(not self.positive, self.atom)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "-" + str(self.atom)


@dataclass(frozen=True, slots=True)
class Clause:
    """A multiset of literals with a problem-unique id; the empty clause is falsum."""

    id: int
    literals: tuple[Literal, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def variables(self) -> list[Variable]:
        seen: dict[Variable, None] = {}
        for lit in self.literals:
            for v in lit.atom.variables():
                seen.setdefault(v)
        return list(seen)

    def is_ground(self) -> bool:
        return all(lit.atom.is_ground() for lit in self.literals)

    def is_tautology(self) -> bool:
        atoms_pos = {lit.atom for lit in self.literals if lit.positive}
        return any(not lit.positive and lit.atom in atoms_pos for lit in self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "⊥"
        return " | ".join(str(lit) for lit in self.literals)


def _rename(clause: Clause, mapping: Mapping[Variable, Variable]) -> Clause:
    """Simultaneous variable renaming (no chain resolution, so swaps are fine)."""

    def ren(t: Term) -> Term:
        return mapping.get(t, t) if isinstance(t, Variable) else t

    lits = tuple(
        Literal(l.positive, Atom(l.atom.predicate, tuple(ren(a) for a in l.atom.args)))
        for l in clause.literals
    )
    return Clause(clause.id, lits)


class Substitution:
    """Idempotent finite map from variables to terms; never binds x to x."""

    __slots__ = ("_bindings",)

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
            if term != var:
                resolved[var] = term
        self._bindings = resolved

    def get(self, var: Variable) -> Term | None:
        return self._bindings.get(var)

    def items(self) -> list[tuple[Variable, Term]]:
        return sorted(self._bindings.items(), key=lambda kv: kv[0].name)

    def apply_term(self, term: Term) -> Term:
        if isinstance(term, Variable):
            return self._bindings.get(term, term)
        return term

    def apply_atom(self, atom: Atom) -> Atom:
        return Atom(atom.predicate, tuple(self.apply_term(a) for a in atom.args))

    def apply_literal(self, lit: Literal) -> Literal:
        return Literal(lit.positive, self.apply_atom(lit.atom))

    def apply_clause(self, clause: Clause) -> Clause:
        return Clause(clause.id, tuple(self.apply_literal(l) for l in clause.literals))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __str__(self) -> str:
        return "{" + ",".join(f"{v.name}->{t}" for v, t in self.items()) + "}"

    __repr__ = __str__


def unify(a: Atom, b: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None when none exists."""
    if a.predicate != b.predicate or a.arity != b.arity:
        return None
    bindings: dict[Variable, Term] = {}

    def walk(term: Term) -> Term:
        while isinstance(term, Variable) and term in bindings:
            term = bindings[term]
        return term

    for s, t in zip(a.args, b.args):
        s, t = walk(s), walk(t)
        if s == t:
            continue
        if isinstance(s, Variable):
            bindings[s] = t
        elif isinstance(t, Variable):
            bindings[t] = s
        else:
            return None  # distinct constants
    return Substitution(bindings)


def match_atoms(
    pattern: Atom, target: Atom, bindings: Mapping[Variable, Term] | None = None
) -> dict[Variable, Term] | None:
    """One-way matching: bind pattern variables so the pattern equals the target."""
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    env = dict(bindings or {})
    for p, t in zip(pattern.args, target.args):
        if isinstance(p, Variable):
            bound = env.setdefault(p, t)
            if bound != t:
                return None
        elif p != t:
            return None
    return env


def rename_apart(c1: Clause, c2: Clause) -> tuple[Clause, Clause]:
    """Return variants of the clauses with disjoint variables (c2 gets renamed)."""
    taken = {v.name for v in c1.variables()}
    own = {v.name for v in c2.variables()}
    mapping: dict[Variable, Variable] = {}
    for v in c2.variables():
        if v.name in taken:
            fresh = v.name + "'"
            while fresh in taken or fresh in own:
                fresh += "'"
            mapping[v] = Variable(fresh)
            own.add(fresh)
    if not mapping:
        return c1, c2
    return c1, _rename(c2, mapping)


def canonical_variant(clause: Clause) -> Clause:
    """Rename variables to x1, x2, ... in order of first occurrence."""
    mapping = {}
    for v in clause.variables():
        mapping[v] = Variable(f"x{len(mapping) + 1}")
    return _rename(clause, mapping)


def renamed_equal(c1: Clause, c2: Clause) -> bool:
    """Syntactic equality up to variable renaming (literal order preserved)."""
    return canonical_variant(c1).literals == canonical_variant(c2).literals
