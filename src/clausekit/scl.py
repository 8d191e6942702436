"""Ground trail engine for the Bernays-Schoenfinkel fragment (SCL style), grounding lazily.

Clauses compile to literal templates: each literal becomes a sign, a base
atom index and one weight per clause variable, so the signed atom index of a
literal in any instance is integer arithmetic over constant indices.  Atoms
are integers too: the Herbrand base is mixed-radix arithmetic per predicate
block, and an `Atom` is built only when one is asked for.

Instances are created only when the trail makes them unit or false.  At the
start those are the instances of one-literal and empty clauses (and the
instances whose literals all coincide).  When a literal L is assigned, the
templates of its complement are matched against it, the other literals of
each clause are joined against the trail (each false, or the one literal
left open; in a clause whose templates share one variable layout the
matched atom gives every literal at once), and the instances found are
hooked into the propositional trail kernel of `clausekit.cdcl`, named by
their position.  An instance can only become unit or false when one of its
literals turns false, so every unit and false instance exists before each
pick: the trace is that of grounding everything first.  An instance keeps
each literal once; of the instances of a clause with one literal set, only
the first in substitution order exists.

The engine runs through the step rules of `clausekit.cdcl`, which it
steers by the kernel's hooks: propagation picks the smallest propagatable
ground literal (lexicographic constant order, positive before negative on
the same atom), and the conflict is the false instance smallest in (clause
id, substitution).  Decisions take the lowest unassigned atom.  Conflicts
above level 0 go through the shared 1UIP walk over the ground abstraction,
and the learned instance goes through CDCL's Backjump rule (`learn_clause`);
a level-0 conflict means the input is unsatisfiable.  A run returns one
`SclResult`, whose `verdict` is "sat", "unsat" or "limit" (a cap stopped it).
Events carry literals and instance positions; `render` gives its output lines.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .cdcl import TrailKernel, decide, learn_clause, lowest_unassigned, propagate_units, resolve_1uip
from .cdcl import clause_status  # noqa: F401  perfbench/tracer.py counts calls through this name
from .errors import ResourceLimitError
from .logic import Atom, Clause, Constant, Literal, Variable, clauses_by_id

DEFAULT_INSTANCE_CAP = 1_000_000
DEFAULT_TRAIL_CAP = 1_000_000
# The Herbrand universe of a clause set without constants: one fresh constant.
FRESH_CONSTANT = Constant("a")


def counter_problem(n: int) -> tuple[Clause, ...]:
    """The n-bit counter family: unsatisfiable, 2**n propagations deep.

    A unit start clause, one carry clause per bit position, and a negated
    final value; the satisfiable variant is simply counter_problem(n)[:-1].
    """
    if n < 1:
        raise ValueError("counter_problem needs n >= 1")
    zero, one = Constant("0"), Constant("1")
    clauses = [Clause(1, (Literal(True, Atom("P", (zero,) * n)),))]
    for i in range(1, n + 1):
        prefix = tuple(Variable(f"x{j}") for j in range(1, n - i + 1))
        neg = Atom("P", prefix + (zero,) + (one,) * (i - 1))
        pos = Atom("P", prefix + (one,) + (zero,) * (i - 1))
        clauses.append(Clause(i + 1, (Literal(False, neg), Literal(True, pos))))
    clauses.append(Clause(n + 2, (Literal(False, Atom("P", (one,) * n)),)))
    return tuple(clauses)


class GroundInstance:
    """An instance of a clause: its id, its substitution and its literals (signed 1-based atom indices).

    The substitution is (variable name, constant name) pairs, sorted, and
    instances of one clause sort as their substitutions do.  An instance the
    engine grounds holds its compiled clause and its key there (see
    `_CompiledClause`) in place of the pairs, and spells them only when asked.
    """

    __slots__ = ("clause_id", "key", "lits", "compiled")

    def __init__(self, clause_id: int, subst, lits: tuple[int, ...], compiled=None):
        # key: the substitution's pairs, or the instance's key in its compiled clause
        self.clause_id, self.key, self.lits, self.compiled = clause_id, subst, lits, compiled

    @property
    def subst(self) -> tuple[tuple[str, str], ...]:
        return self.key if self.compiled is None else self.compiled.subst(self.key)

    def subst_str(self) -> str:
        if self.compiled is None:
            return "{" + ",".join(map("->".join, self.key)) + "}"
        compiled = self.compiled
        return compiled.subst_text % compiled.spell(self.key, compiled.by_name)

    def _sort_key(self) -> tuple:
        return self.key if self.compiled is None else self.compiled.sort_key(self.key)

    def __lt__(self, other: "GroundInstance") -> bool:
        return self._sort_key() < other._sort_key()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundInstance):
            return NotImplemented
        return (self.clause_id, self.subst, self.lits) == (other.clause_id, other.subst, other.lits)

    def __repr__(self) -> str:
        return f"GroundInstance(clause_id={self.clause_id!r}, subst={self.subst!r}, lits={self.lits!r})"


class HerbrandBase(Sequence[Atom]):
    """The Herbrand base in (predicate, argument names) order; atom i is base[i - 1].

    Each predicate is used at one arity (`ground_problem` rejects a clause
    set that uses one at two), and the domain is sorted by name, so the atoms
    of a predicate are its block's start (`place`) plus the code of their
    constant indices, the mixed-radix number they spell.  Atoms are built
    only by __getitem__.
    """

    def __init__(self, arity: dict[str, int], dom: Sequence[Constant]):
        self.domain = tuple(dom)
        self.names = [c.name for c in dom]
        d = len(dom)
        # per arity, the place value of each argument position in a code
        self.places = {a: tuple(d ** j for j in reversed(range(a))) for a in arity.values()}
        self.blocks = sorted(arity.items())  # (predicate, arity) per block
        self.starts: list[int] = []
        size = 0
        for _, a in self.blocks:
            self.starts.append(size + 1)
            size += d ** a
        self.place = {pred: start for (pred, _), start in zip(self.blocks, self.starts)}
        self.size = size

    def __len__(self) -> int:
        return self.size

    def locate(self, atom: int) -> tuple[str, int, int]:
        """The predicate, the arity and the code of an atom index."""
        k = bisect.bisect_right(self.starts, atom) - 1
        pred, arity = self.blocks[k]
        return pred, arity, atom - self.starts[k]

    def digits(self, arity: int, code: int) -> tuple[int, ...]:
        """The constant indices that a code spells at an arity."""
        d = len(self.names)
        return tuple([code // w % d for w in self.places[arity]])

    def decode(self, atom: int) -> tuple[str, tuple[int, ...]]:
        """The predicate and the constant indices of an atom index."""
        pred, arity, code = self.locate(atom)
        return pred, self.digits(arity, code)

    def name(self, atom: int) -> str:
        pred, digits = self.decode(atom)
        return f"{pred}({','.join([self.names[c] for c in digits])})" if digits else pred

    def __getitem__(self, i: int) -> Atom:
        if not 0 <= i < self.size:
            raise IndexError(i)
        pred, digits = self.decode(i + 1)
        return Atom(pred, tuple(self.domain[c] for c in digits))


class _Template(NamedTuple):
    """A compiled literal: its atom index is base plus the weighted constant indices of the slots."""

    positive: bool
    pred: str
    args: tuple[int, ...]  # per argument position: a variable slot, or -1 - constant index
    base: int
    weights: tuple[int, ...]  # per variable slot

    def lit(self, combo: Sequence[int]) -> int:
        atom = self.base + sum(map(mul, self.weights, combo))
        return atom if self.positive else -atom


def _escape(name: str) -> str:
    return name.replace("%", "%%")


def _brace(name: str) -> str:
    return name.replace("{", "{{").replace("}", "}}")


def _template(lit: Literal, base: int, slot: dict[str, int], const_index: dict[str, int]) -> _Template:
    """Compile a literal whose predicate's block starts at base; slot maps variable names to
    slots, const_index constant names to indices."""
    d = len(const_index)
    weights = [0] * len(slot)
    args = []
    w = d ** len(lit.atom.args)
    for arg in lit.atom.args:
        w //= d
        if isinstance(arg, Variable):
            k = slot[arg.name]
            weights[k] += w
            args.append(k)
        else:
            c = const_index[arg.name]
            base += w * c
            args.append(-1 - c)
    return _Template(lit.positive, lit.atom.predicate, tuple(args), base, tuple(weights))


def _trigger_tree(entries: list[tuple[dict[int, int], tuple]], arity: int, d: int):
    """Index templates of one sign, predicate and arity by the constants they fix.

    entries pairs each template's {position: constant index} with its
    payload.  A node is (divisor, {constant: subtree}, subtree of the
    templates with a variable there, or None): the constant at the node's
    position is an atom code divided by the divisor, modulo d.  A leaf is a
    list of payloads.  Each node tests the position most templates below it
    fix, the rightmost on ties.
    """
    counts: dict[int, int] = {}
    for consts, _ in entries:
        for p in consts:
            counts[p] = counts.get(p, 0) + 1
    if not counts:
        return [payload for _, payload in entries]
    position = max(counts, key=lambda p: (counts[p], p))
    fixed, free = defaultdict(list), []
    for consts, payload in entries:
        if position in consts:
            rest = dict(consts)
            fixed[rest.pop(position)].append((rest, payload))
        else:
            free.append((consts, payload))
    children = {c: _trigger_tree(sub, arity, d) for c, sub in fixed.items()}
    return d ** (arity - 1 - position), children, _trigger_tree(free, arity, d) if free else None


class _CompiledClause:
    """A clause's templates, and its instances so far by key.

    A combo is the constant index of each variable slot; slots follow the
    clause's variables in first-occurrence order, so combos sort as
    itertools.product enumerates them.  An instance's key is the code of its
    combo: the sum of each slot's constant index times the slot's weight, a
    power of the domain size.  The weights follow slot order, except in an
    `aligned` clause: two or more literals, no two with the same sign and
    predicate, each holding every variable once at argument positions of the
    same place values.  There the key takes the templates' shared weights,
    so every literal's atom index is its template's base plus the key.
    """

    def __init__(self, clause: Clause, templates: list[_Template], variables: list[str], names: list[str]):
        self.id = clause.id
        self.literals = clause.literals
        self.templates = templates
        self.variables = variables
        self.slots = len(variables)
        self.names = names
        kinds = [(t.positive, t.pred) for t in templates]
        # two literals share sign and predicate, so instances can lose literals and coincide
        self.merge = len(set(kinds)) < len(kinds)
        first = templates[0] if templates else None
        self.aligned = (
            len(templates) > 1 and not self.merge
            and sorted(a for a in first.args if a >= 0) == list(range(self.slots))
            and all(t.weights == first.weights for t in templates)
        )
        d = len(names)
        self.weights = first.weights if self.aligned else tuple(d ** j for j in reversed(range(self.slots)))
        self.created: dict[int, int] = {}  # key -> instance position

    def key(self, combo: Sequence[int]) -> int:
        return sum(map(mul, self.weights, combo))

    def lits(self, combo: Sequence[int]) -> tuple[int, ...]:
        return tuple([t.lit(combo) for t in self.templates])

    def spell(self, key: int, weights: Sequence[int]) -> tuple[str, ...]:
        """The constant names of the slots with these weights in the instance with this key."""
        names, d = self.names, len(self.names)
        return tuple([names[key // w % d] for w in weights])

    # What only substitutions and rendering need is built when first asked for.

    @cached_property
    def by_name(self) -> tuple[int, ...]:
        """The slots' weights in variable-name order."""
        return tuple(self.weights[s] for s in sorted(range(self.slots), key=self.variables.__getitem__))

    def sort_key(self, key: int) -> tuple[int, ...]:
        # constant indices by variable name sort as the substitutions do
        d = len(self.names)
        return tuple([key // w % d for w in self.by_name])

    def subst(self, key: int) -> tuple[tuple[str, str], ...]:
        """The (variable name, constant name) pairs, sorted."""
        return tuple(zip(sorted(self.variables), self.spell(key, self.by_name)))

    @cached_property
    def subst_text(self) -> str:
        """The substitution as a %-format string over the constant names in variable-name order."""
        return "{" + ",".join(f"{_escape(v)}->%s" for v in sorted(self.variables)) + "}"

    @cached_property
    def texts(self) -> list[str]:
        """Per literal, a format string over the constant names in variable-name order."""
        order = sorted(self.variables)
        out = []
        for lit in self.literals:
            args = [f"{{{order.index(a.name)}}}" if isinstance(a, Variable) else _brace(a.name) for a in lit.atom.args]
            text = ("" if lit.positive else "-") + _brace(lit.atom.predicate)
            out.append(f"{text}({','.join(args)})" if args else text)
        return out


# A binding maps each slot of a clause to a constant index (>= 0), to -1 while
# unbound, or to -2 - s when it was unified with slot s.


def _walk(b: list[int], s: int) -> tuple[int, int]:
    v = b[s]
    while v <= -2:
        s = -2 - v
        v = b[s]
    return s, v


def _bind(t: _Template, digits: Sequence[int], b: list[int]) -> list[int] | None:
    """b extended so that the template's atom has these constant indices, or None."""
    b = b.copy()
    for a, c in zip(t.args, digits):
        if a < 0:
            if -1 - a != c:
                return None
        else:
            s, v = _walk(b, a)
            if v == -1:
                b[s] = c
            elif v != c:
                return None
    return b


def _unify(t: _Template, u: _Template, b: list[int]) -> list[int] | None:
    """b extended so that the two templates have the same atom, or None."""
    if (t.positive, t.pred) != (u.positive, u.pred):
        return None
    b = b.copy()
    for a1, a2 in zip(t.args, u.args):
        s1, c1 = (None, -1 - a1) if a1 < 0 else _walk(b, a1)
        s2, c2 = (None, -1 - a2) if a2 < 0 else _walk(b, a2)
        if c1 >= 0 and c2 >= 0:
            if c1 != c2:
                return None
        elif c1 >= 0:
            b[s2] = c1
        elif c2 >= 0:
            b[s1] = c2
        elif s1 != s2:
            b[s2] = -2 - s1
    return b


def _free(t: _Template, b: list[int]) -> list[int]:
    """The unbound slots the template's atom still depends on."""
    return list(dict.fromkeys(s for s, v in (_walk(b, a) for a in t.args if a >= 0) if v == -1))


def _values(b: list[int]) -> tuple[int, ...]:
    return tuple([_walk(b, s)[1] for s in range(len(b))])


@dataclass
class GroundProblem:
    """A problem grounded lazily: the clauses, the domain, the Herbrand base and the instances so far.

    `instances` holds every instance created, in creation order; each
    compiled clause finds its own by key.
    """

    clauses: dict[int, Clause]
    domain: tuple[Constant, ...]
    atoms: Sequence[Atom]
    instances: list[GroundInstance]
    compiled: list[_CompiledClause] = field(default_factory=list, repr=False)
    # (sign, predicate, arity) -> _trigger_tree of (clause, template) for the templates of the
    # clauses of two or more literals
    triggers: dict = field(default_factory=dict, repr=False)
    joins: bool = False  # some template leaves variables to join against the trail

    def instantiate(self, true: bytearray, on_trail, false_lit: int | None = None) -> list[tuple[int, int]]:
        """Create the instances that the trail, with truth table `true` (see `TrailKernel`), makes unit or false.

        With no false_lit these are the instances unit or false under the
        empty trail.  Otherwise false_lit has just turned false, and these are
        the instances containing it: each template that matches it seeds a
        binding, and the clause's other literals are joined against
        `on_trail`, the trail's atoms by (predicate, arity, value), as constant
        index tuples.  In an aligned clause the matched atom fixes the key and
        every literal, with nothing to join.  Returns each new instance's
        position with its unassigned literal, or 0 for a false one.
        """
        new: list[tuple[int, int]] = []
        if false_lit is None:
            for clause in self.compiled:
                # distinct literals of a clause with no two of one sign and predicate stay distinct
                if clause.merge or len(clause.templates) < 2:
                    self._join(clause, clause.templates, [-1] * clause.slots, None, true, on_trail, new)
            return new
        atom = abs(false_lit)
        pred, arity, code = self.atoms.locate(atom)
        node, later, digits = self.triggers.get((false_lit > 0, pred, arity)), [], None
        d = len(self.domain)
        while node is not None:
            if node.__class__ is tuple:
                divisor, children, rest = node
                if rest is not None:
                    later.append(rest)
                node = children.get(code // divisor % d)
                if node is not None:
                    continue
            else:
                for clause, t in node:
                    if clause.aligned:  # the atom gives the key, and every literal is a base plus the key
                        key = atom - t.base
                        lits = tuple([u.base + key if u.positive else -u.base - key for u in clause.templates])
                        self._create(clause, key, lits, true, new)
                        continue
                    if digits is None:
                        digits = self.atoms.digits(arity, code)
                    b = _bind(t, digits, [-1] * clause.slots)
                    if b is not None:
                        self._join(clause, [u for u in clause.templates if u is not t], b, None, true, on_trail, new)
            node = later.pop() if later else None
        return new

    def _join(self, clause, todo, b, open_t, true, on_trail, new) -> None:
        """Extend b over the templates in todo: each false on the trail, or one with open_t.

        open_t is the first template left open; every other open template is
        unified with it, so that at most one literal stays unassigned.  Once
        every slot is bound, `_create` checks the instance; once todo is
        empty, the slots only open_t depends on range over the domain.
        """
        if -1 not in b:
            combo = _values(b)
            self._create(clause, clause.key(combo), clause.lits(combo), true, new)
            return
        if not todo:
            free, b = _free(open_t, b), b.copy()
            for consts in itertools.product(range(len(self.domain)), repeat=len(free)):
                for s, c in zip(free, consts):
                    b[s] = c
                combo = _values(b)
                lit = open_t.lit(combo)
                if not (true[lit] or true[-lit]):
                    self._create(clause, clause.key(combo), clause.lits(combo), true, new)
            return
        t, rest = todo[0], todo[1:]
        if not _free(t, b):
            lit = t.lit(_values(b))
            if true[-lit]:
                self._join(clause, rest, b, open_t, true, on_trail, new)
            elif not true[lit]:
                b2 = b if open_t is None else _unify(t, open_t, b)
                if b2 is not None:
                    self._join(clause, rest, b2, open_t or t, true, on_trail, new)
            return
        for digits in on_trail.get((t.pred, len(t.args), not t.positive), ()):
            b2 = _bind(t, digits, b)
            if b2 is not None:
                self._join(clause, rest, b2, open_t, true, on_trail, new)
        b2 = b if open_t is None else _unify(t, open_t, b)
        if b2 is not None:
            self._join(clause, rest, b2, open_t or t, true, on_trail, new)

    def _create(self, clause: _CompiledClause, key: int, lits: tuple[int, ...], true, new) -> None:
        """Create the instance with this key and these literals, per template, if it is unit or false and new."""
        if clause.merge:
            lits = tuple(dict.fromkeys(lits))
        unit = 0
        for lit in lits:
            if true[lit]:
                return
            if not true[-lit]:
                if unit:
                    return
                unit = lit
        if clause.merge:
            combo = self._first_combo(clause, lits)
            key, lits = clause.key(combo), tuple(dict.fromkeys(clause.lits(combo)))
        created, instances = clause.created, self.instances
        if key not in created:
            created[key] = len(instances)
            new.append((len(instances), unit))
            instances.append(GroundInstance(clause.id, key, lits, clause))

    def _first_combo(self, clause: _CompiledClause, lits: tuple[int, ...]) -> tuple[int, ...]:
        """The first combo, in itertools.product order, whose instance has this literal set.

        Every variable occurs in a template, so a combo is fixed by which
        literal each template becomes.
        """
        targets = [(lit > 0, *self.atoms.decode(abs(lit))) for lit in lits]
        first = None
        for choice in itertools.product(targets, repeat=len(clause.templates)):
            if len(set(choice)) < len(targets):
                continue
            b = [-1] * clause.slots
            for t, (positive, pred, digits) in zip(clause.templates, choice):
                if (t.positive, t.pred) != (positive, pred):
                    break
                b = _bind(t, digits, b)
                if b is None:
                    break
            else:
                if first is None or tuple(b) < first:
                    first = tuple(b)
        return first


def ground_problem(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> GroundProblem:
    """Compile every clause over the domain and create the instances unit or false at the start.

    The caps count the Herbrand base and every instance a priori.  A clause
    set without constants is grounded over FRESH_CONSTANT.
    """
    by_id = clauses_by_id(clauses)
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

    arity: dict[str, int] = {}
    for lit in (l for c in by_id.values() for l in c.literals):
        known = arity.setdefault(lit.atom.predicate, lit.atom.arity)
        if known != lit.atom.arity:
            raise ValueError(f"predicate {lit.atom.predicate!r} used with arity {lit.atom.arity}, expected {known}")
    base_size = sum(len(dom) ** a for a in arity.values())
    if base_size > instance_cap:
        raise ResourceLimitError(f"Herbrand base of {base_size} atoms exceeds the cap")
    atoms = HerbrandBase(arity, dom)

    variables = {cid: [v.name for v in c.variables()] for cid, c in by_id.items()}
    total = sum(len(dom) ** len(vs) for vs in variables.values())
    if total > instance_cap:
        raise ResourceLimitError(f"{total} ground instances exceed the cap of {instance_cap}")

    const_index = {c.name: i for i, c in enumerate(dom)}
    problem = GroundProblem(by_id, tuple(dom), atoms, [])
    entries: dict[tuple, list] = defaultdict(list)
    for cid in sorted(by_id):
        slot = {v: k for k, v in enumerate(variables[cid])}
        templates = [
            _template(l, atoms.place[l.atom.predicate], slot, const_index)
            for l in by_id[cid].literals
        ]
        compiled = _CompiledClause(by_id[cid], templates, variables[cid], atoms.names)
        problem.compiled.append(compiled)
        if len(templates) < 2:
            continue  # every instance is created at the start
        for t in templates:
            problem.joins |= len({a for a in t.args if a >= 0}) < len(slot)
            consts = {j: -1 - a for j, a in enumerate(t.args) if a < 0}
            entries[t.positive, t.pred, len(t.args)].append((consts, (compiled, t)))
    problem.triggers = {kind: _trigger_tree(es, kind[2], len(dom)) for kind, es in entries.items()}
    problem.instantiate(bytearray(2 * len(atoms) + 1), {})
    return problem


@dataclass
class SclStats:
    propagations: int = 0
    decisions: int = 0


@dataclass
class SclState(TrailKernel):
    """Five-tuple analog over ground literals: the trail kernel over instance positions.

    Every assignment creates and hooks the instances it makes unit or false.
    Learned clauses get ids from `next_clause_id` on.  The kernel's tables
    are sized to the Herbrand base.
    """

    problem: GroundProblem
    stats: SclStats = field(default_factory=SclStats)
    on_trail: defaultdict[tuple[str, int, bool], list[tuple[int, ...]]] = field(
        default_factory=lambda: defaultdict(list), repr=False
    )
    next_clause_id: int = 1

    def __post_init__(self) -> None:
        self.size(len(self.problem.atoms))

    @classmethod
    def from_problem(cls, problem: GroundProblem) -> "SclState":
        state = cls(problem=problem, next_clause_id=max(problem.clauses, default=0) + 1)
        state.reclassify()
        return state

    def reclassify(self) -> None:
        """Hook the instances created at the start into the kernel, under the empty trail."""
        for pos, inst in enumerate(self.problem.instances):
            self.watch(pos, inst.lits)

    def assign(self, lit: int, reason: int | None) -> None:
        """Assign as the kernel does, then create the instances this makes unit or false, and queue or mark each.

        An instance of three or more literals watches its unassigned literal,
        then its highest-level false ones.
        """
        TrailKernel.assign(self, lit, reason)
        problem = self.problem
        if problem.joins:
            pred, digits = problem.atoms.decode(abs(lit))
            self.on_trail[pred, len(digits), lit > 0].append(digits)
        true = self.true
        new = problem.instantiate(true, self.on_trail, -lit)
        if new:
            instances, var_level, open_level = problem.instances, self.var_level, self.level + 1
            for pos, unit in new:
                lits = instances[pos].lits
                if len(lits) > 2:
                    lits = sorted(lits, key=lambda l: var_level[abs(l)] if true[-l] else open_level, reverse=True)
                self.watch(pos, lits)
                if unit:
                    heapq.heappush(self.pending, (self.unit_key(pos, unit), pos, unit))
                else:
                    self.false_ids.add(pos)

    def truncate(self, level: int) -> None:
        """Truncate as the kernel does, dropping the undone atoms from `on_trail`."""
        if self.problem.joins:
            for lit, _, _ in self.trail[self.trail_lim[level]:]:
                pred, digits = self.problem.atoms.decode(abs(lit))
                self.on_trail[pred, len(digits), lit > 0].pop()
        super().truncate(level)

    def unit_key(self, pos: int, lit: int) -> tuple:
        # smallest ground atom first; positive before negative; then clause id and substitution
        inst = self.problem.instances[pos]
        return abs(lit), lit < 0, inst.clause_id, inst

    def conflict_key(self, pos: int) -> tuple:
        inst = self.problem.instances[pos]
        return inst.clause_id, inst


def scl_propagate(state: SclState, trail_cap: int = DEFAULT_TRAIL_CAP) -> SclState:
    """Exhaustive ground propagation, smallest ground literal first; eager conflicts.

    The conflict is the false instance smallest in (clause id, substitution).
    The stats count the propagations made before the trail cap stops them too.
    """
    start = len(state.trail)
    try:
        propagate_units(state, trail_cap)
    finally:
        state.stats.propagations += len(state.trail) - start
    return state


@dataclass
class SclResult:
    """A run's verdict, "sat", "unsat" or "limit", its counters and its final state."""

    verdict: str
    stats: SclStats
    state: SclState | None  # None if the instance cap stopped grounding; an "unsat" one's conflict is at level 0

    @property
    def model(self) -> tuple[Atom, ...] | None:
        """The atoms true on the total trail of a "sat" run, in atom order, built when asked for."""
        if self.verdict != "sat":
            return None
        atoms = self.state.problem.atoms
        return tuple(atoms[atom - 1] for atom in sorted(lit for lit, _, _ in self.state.trail if lit > 0))


def scl_run(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    trail_cap: int = DEFAULT_TRAIL_CAP,
) -> SclResult:
    """Propagate/decide until a total Herbrand model or a level-0 conflict.

    Decisions take the smallest undefined ground atom, positive polarity.
    Conflicts above level 0 go through ground 1UIP analysis; the learned
    clause becomes an instance and is learned through CDCL's Backjump rule.
    The trail cap bounds propagations and decisions alike; a learned clause's
    asserting literal needs no check, as the backjump shortens the trail first.
    """
    try:
        problem = ground_problem(clauses, domain, instance_cap)
    except ResourceLimitError:
        return SclResult("limit", SclStats(), None)
    state = SclState.from_problem(problem)
    while True:
        try:
            scl_propagate(state, trail_cap)
        except ResourceLimitError:
            break
        if state.conflict is not None:
            if state.level == 0:
                return SclResult("unsat", state.stats, state)
            instances = problem.instances
            learned, blevel, _ = resolve_1uip(state, instances[state.conflict].lits, instances)
            instances.append(GroundInstance(state.next_clause_id, (), learned))
            state.next_clause_id += 1
            learn_clause(state, len(instances) - 1, learned, blevel)
        elif len(state.trail) == len(problem.atoms):
            return SclResult("sat", state.stats, state)
        elif len(state.trail) >= trail_cap:
            break
        else:
            decide(state, lowest_unassigned(state))
            state.stats.decisions += 1
    return SclResult("limit", state.stats, state)


_VERDICTS = {"sat": "s SATISFIABLE", "unsat": "s UNSATISFIABLE", "limit": "s RESOURCE-EXCEEDED"}


def render(result: SclResult) -> Iterator[tuple[str, dict]]:
    """The output of a run, one (text line, JSON fields) pair per line: trace, stats, verdict.

    A propagated literal is spelled by its template, filled with the
    instance's constant names as its substitution is; other literals are
    decoded from the Herbrand base.  A run stopped by the instance cap has no
    state, so only its verdict line.
    """
    state = result.state
    if state is not None:
        instances, name = state.problem.instances, state.problem.atoms.name

        def literal(lit: int) -> str:
            return name(lit) if lit > 0 else "-" + name(-lit)

        for ev in state.events:
            kind = ev[0]
            if kind == "propagate":
                inst = instances[ev[2]]
                compiled = inst.compiled
                if compiled is None or compiled.merge:
                    lit, subst = literal(ev[1]), inst.subst_str()
                else:  # its literals are its clause's, one per template
                    names = compiled.spell(inst.key, compiled.by_name)
                    lit = compiled.texts[inst.lits.index(ev[1])].format(*names)
                    subst = compiled.subst_text % names
                yield (f"propagate {lit} <- clause {inst.clause_id} σ={subst}",
                       {"event": "scl", "kind": kind, "lit": lit, "clause": inst.clause_id, "subst": subst})
            elif kind == "conflict":
                inst = instances[ev[1]]
                subst = inst.subst_str()
                yield (f"conflict clause {inst.clause_id} σ={subst}",
                       {"event": "scl", "kind": kind, "clause": inst.clause_id, "subst": subst})
            elif kind == "decide":
                lit = literal(ev[1])
                yield f"decide {lit} @{ev[2]}", {"event": "scl", "kind": kind, "lit": lit, "level": ev[2]}
            elif kind == "learn":
                clause = " | ".join(map(literal, ev[1]))
                yield (f"learn {clause} backjump {ev[2]}",
                       {"event": "scl", "kind": kind, "clause": clause, "backjump": ev[2]})
        s = state.stats
        yield (f"stats propagations={s.propagations} decisions={s.decisions} trail={len(state.trail)}",
               {"event": "scl", "kind": "stats"})
    yield _VERDICTS[result.verdict], {"event": "result"}
