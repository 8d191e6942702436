"""Function-free first-order syntax: terms, atoms, literals, clauses, substitutions.

Variables and constants are the only terms (Bernays-Schoenfinkel fragment);
propositional atoms are the 0-ary special case.  All values are immutable,
and terms are interned: one object per class and name, so a renaming, whose
keys are variables, looks up every argument of a clause in one walk.  Atoms,
literals and clauses are tuple records (`NamedTuple`): each compares equal
to, and hashes as, the plain tuple of its fields.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

# Identifiers starting with one of these letters denote variables.
VARIABLE_PREFIXES = ("x", "y", "z", "u", "v", "w")


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a term."""


class _Interned:
    """A term with one object per class and name, so equality is identity.

    `Variable(name)` and `Constant(name)` look the name up in their class's
    table, which holds each term for the life of the process.  Equality and
    hashing are `object`'s, by identity.  Terms are immutable, and copies
    and unpickled terms are the interned object.
    """

    __slots__ = ("name",)
    _table: dict[str, "_Interned"]

    def __init_subclass__(cls) -> None:
        cls._table = {}

    def __new__(cls, name: str):
        term = cls._table.get(name)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "name", name)
            term = cls._table.setdefault(name, term)
        return term

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.name,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Variable(_Interned):
    __slots__ = ()


class Constant(_Interned):
    __slots__ = ()


Term = Variable | Constant


def is_variable_name(name: str) -> bool:
    return name[:1].lower() in VARIABLE_PREFIXES


def term_from_name(name: str) -> Term:
    if not name:
        raise ValueError("term names must be non-empty")
    return Variable(name) if is_variable_name(name) else Constant(name)


class Atom(NamedTuple):
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join([a.name for a in self.args])})"


class Literal(NamedTuple):
    positive: bool
    atom: Atom

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "-" + str(self.atom)


class Clause(NamedTuple):
    """A multiset of literals with a problem-unique id; the empty clause is falsum.

    `len` counts the literals, not the two fields, so the tuple record's
    `_make` and `_replace` do not apply: build a new `Clause` instead.
    """

    id: int
    literals: tuple[Literal, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def variables(self) -> list[Variable]:
        """The clause's variables in order of first occurrence."""
        return list(dict.fromkeys([a for lit in self.literals for a in lit.atom.args if isinstance(a, Variable)]))

    def is_tautology(self) -> bool:
        if len(self.literals) < 2:
            return False
        atoms_pos = {lit.atom for lit in self.literals if lit.positive}
        return any(not lit.positive and lit.atom in atoms_pos for lit in self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "⊥"
        return " | ".join(str(lit) for lit in self.literals)


def clauses_by_id(clauses: Iterable) -> dict:
    """The clauses (of any kind with an `id`) keyed by id; an id used twice is an error."""
    by_id = {}
    for c in clauses:
        if c.id in by_id:
            raise ValueError(f"duplicate clause id {c.id}")
        by_id[c.id] = c
    return by_id


def substitute(clause: Clause, mapping: Mapping[Variable, Term]) -> Clause:
    """Simultaneous replacement of variables (no chain resolution, so swaps are fine).

    Only variables are keys, and terms hash by identity, so a constant of a
    variable's name is never replaced.
    """
    get = mapping.get
    return Clause(clause.id, tuple([
        Literal(l.positive, Atom(l.atom.predicate, tuple([get(a, a) for a in l.atom.args])))
        for l in clause.literals
    ]))


class Substitution:
    """Idempotent finite map from variables to terms; never binds x to x."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[Variable, Term] | None = None):
        pending = bindings or {}
        resolved: dict[Variable, Term] = {}
        for var, term in pending.items():
            if isinstance(term, Variable) and term in pending:  # a chain: follow it to its end
                seen = {var}
                while isinstance(term, Variable) and term in pending:
                    if term in seen:
                        raise ValueError("cyclic substitution")
                    seen.add(term)
                    term = pending[term]
            if term is not var:
                resolved[var] = term
        self._bindings = resolved

    def items(self) -> list[tuple[Variable, Term]]:
        return sorted(self._bindings.items(), key=lambda kv: kv[0].name)

    def apply_atom(self, atom: Atom) -> Atom:
        get = self._bindings.get
        return Atom(atom.predicate, tuple([get(a, a) for a in atom.args]))

    def apply_clause(self, clause: Clause) -> Clause:
        """The instance of the clause; the clause itself when none of its variables is bound."""
        bindings = self._bindings
        if bindings.keys().isdisjoint([a for l in clause.literals for a in l.atom.args]):
            return clause
        return substitute(clause, bindings)

    def after(self, renaming: Mapping[Variable, Variable]) -> Mapping[Variable, Term]:
        """Where each variable of a clause goes when `renaming` renames it and this substitution then binds it.

        Right while no fresh name of `renaming` is one of the clause's own, as
        `apart_renaming` ensures.  Not to be mutated: it may be the substitution's own map.
        """
        bindings = self._bindings
        if not renaming:
            return bindings
        composed = dict(bindings)
        composed.update({v: bindings.get(r, r) for v, r in renaming.items()})
        return composed

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __str__(self) -> str:
        return "{" + ",".join(f"{v.name}->{t}" for v, t in self.items()) + "}"

    __repr__ = __str__


def unify(a: Atom, b: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None when none exists."""
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    bindings: dict[Variable, Term] = {}
    for s, t in zip(a.args, b.args):
        while s in bindings:  # only variables are keys, and terms hash by identity
            s = bindings[s]
        while t in bindings:
            t = bindings[t]
        if s is t:
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
    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return None
    env = dict(bindings or {})
    for p, t in zip(pattern.args, target.args):
        if isinstance(p, Variable):
            if env.setdefault(p, t) is not t:
                return None
        elif p is not t:
            return None
    return env


def apart_renaming(taken: Collection[str], variables: Sequence[Variable]) -> dict[Variable, Variable]:
    """The renaming that takes a clause's `variables`, in order of first occurrence, apart from the names in `taken`.

    Each variable whose name is taken is primed until its name is neither
    taken nor one of the clause's own or fresh names so far, so that two
    clashing variables such as x and x' get different fresh names.
    """
    own = {v.name for v in variables}
    mapping: dict[Variable, Variable] = {}
    for v in variables:
        if v.name in taken:
            fresh = v.name + "'"
            while fresh in taken or fresh in own:
                fresh += "'"
            mapping[v] = Variable(fresh)
            own.add(fresh)
    return mapping


def rename_apart(c1: Clause, c2: Clause) -> tuple[Clause, Clause]:
    """Return variants of the clauses with disjoint variables (c2 gets renamed)."""
    mapping = apart_renaming({v.name for v in c1.variables()}, c2.variables())
    if not mapping:
        return c1, c2
    return c1, substitute(c2, mapping)


# x1, x2, ...: the canonical variables, as many as the widest clause so far has needed
_CANONICAL: list[Variable] = []


class _CanonicalNames(dict):
    """Terms to their names in a canonical clause: a constant its own, each new variable the next of x1, x2, ..."""

    __slots__ = ("variables",)

    def __init__(self) -> None:
        self.variables = 0

    def __missing__(self, term: Term) -> Term:
        name = term
        if isinstance(term, Variable):
            k = self.variables
            if k == len(_CANONICAL):
                _CANONICAL.append(Variable(f"x{k + 1}"))
            name = _CANONICAL[k]
            self.variables = k + 1
        self[term] = name
        return name


def canonical_instance(
    cid: int, parts: Iterable[tuple[Iterable[Literal], Mapping[Variable, Term]]]
) -> Clause:
    """The canonical variant of the clause of the parts' literals, each part's variables sent through its map.

    One walk over the literals' arguments maps each of them and names the
    result's variables x1, x2, ... in order of first occurrence, without
    building the mapped clause first.
    """
    names = _CanonicalNames()
    literals: list[Literal] = []
    for lits, mapping in parts:
        get = mapping.get
        literals += [
            Literal(l.positive, Atom(l.atom.predicate, tuple([names[get(a, a)] for a in l.atom.args])))
            for l in lits
        ]
    return Clause(cid, tuple(literals))


def canonical_variant(clause: Clause) -> Clause:
    """Rename variables to x1, x2, ... in order of first occurrence; a clause already so named is returned."""
    variant = canonical_instance(clause.id, ((clause.literals, {}),))
    return clause if variant == clause else variant


def renamed_equal(c1: Clause, c2: Clause) -> bool:
    """Syntactic equality up to variable renaming (literal order preserved)."""
    return canonical_variant(c1).literals == canonical_variant(c2).literals
