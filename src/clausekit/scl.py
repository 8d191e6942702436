"""Ground trail engine for the Bernays-Schoenfinkel fragment (SCL style), grounding lazily.

Clauses compile to literal templates: each literal becomes a sign, a base
atom index and one weight per clause variable, so the signed atom index of a
literal in any instance is integer arithmetic over constant indices.  Atoms
are integers too: the Herbrand base is mixed-radix arithmetic per predicate
block, and an `Atom` is built only when one is asked for.

A clause without variables is not compiled: grounding gives it its one
instance, each literal kept once (none if it is a tautology).  An instance
of a clause with variables is created only when the trail makes it unit or
false.  Instances are named by their position in the propositional trail
kernel of `clausekit.cdcl`.  The instances created at the start (those of
variable-free clauses, those unit or false under the empty trail) and the
learned ones are hooked into the kernel's watch lists, as CDCL hooks every
clause; no other instance is, and only clauses with variables are indexed
for the walk below.
When a literal L is assigned, one pass (in `SclState.assign`) goes from
the complement of L to every instance it makes unit or false, new or not:
the trigger tree of its Herbrand block and sign yields the templates that
match it.  In a pair, a clause of two literals not of one sign and
predicate, a matched literal that holds each of the clause's variables
exactly once gives the other literal and the instance's key at once: by an
offset where both literals place the variables alike, otherwise from each
variable's digit in the matched atom's code.  Where the walk finds such an
instance it is created if new, then its unit key is pushed or its position
marked false.  In any other case, the variables that the matched literal
leaves unbound range over the domain, and each binding's literals are read
in the trail's truth table (each false, or the one literal left open); what
this finds is pushed or marked when the walk ends.  An instance can only
become unit or false when one of its literals turns false, so this walk is
the watch: every unit and false instance is known before each pick, and the
trace is that of grounding everything first.  An instance keeps each
literal once, and each substitution has its own instance, even where two
share a literal set: such instances are unit on one literal or false
together, so the tie-breaks below pick the first in substitution order.

The engine runs through the step rules of `clausekit.cdcl`, which it
steers by the kernel's hooks: propagation picks the smallest propagatable
ground literal (lexicographic constant order, positive before negative on
the same atom), and the conflict is the false instance smallest in (clause
id, substitution).  `scl_run` runs CDCL's main loop, `cdcl.search`, over
SCL's steps: propagation under the trail cap; the shared 1UIP walk over the
ground abstraction for conflicts above level 0, whose learned clause is
appended as an instance and goes through CDCL's Backjump rule
(`learn_clause`); and decisions on the lowest unassigned atom.  A level-0
conflict means the input is unsatisfiable, and is not walked.  A run returns
one `SclResult`, whose `verdict` is "sat", "unsat" or "limit" (a cap stopped
it), and whose `proof` holds every analysis over instance positions; an
"unsat" proof's last step names the level-0 conflict, with no steps.  Events
carry literals and instance positions; `render` gives its output lines.  A
propagate line of a compiled clause fills one %-format per literal, its text
line or its whole JSON object, with the names of the instance key's digits,
spelled in place from a table of names per chunk of digits.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections import Counter, defaultdict
from functools import cached_property
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .cdcl import ProofStep, TrailKernel, _new, learn_clause, lowest_unassigned, propagate_units, resolve_1uip, search
from .cdcl import clause_status  # noqa: F401  perfbench/tracer.py counts calls through this name
from .errors import ResourceLimitError
from .jsonl import json_format, json_string
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


class GroundInstance(NamedTuple):
    """An instance of a clause: its id, its substitution and its literals (signed 1-based atom indices).

    A tuple record: it compares and hashes as its fields.  The substitution
    is (variable name, constant name) pairs, sorted, and instances of one
    clause sort as their substitutions do.  An instance the engine grounds
    holds its compiled clause and its key there (see `_CompiledClause`) in
    place of the pairs, and spells them only when asked; the one instance of
    a clause without variables, like a learned one, holds no pairs and
    nothing compiled, and spells `{}`.
    """

    clause_id: int
    key: tuple[tuple[str, str], ...] | int  # the substitution's pairs, or the instance's key in `compiled`
    lits: tuple[int, ...]
    compiled: _CompiledClause | None = None

    @property
    def subst(self) -> tuple[tuple[str, str], ...]:
        return self.key if self.compiled is None else self.compiled.subst(self.key)

    def subst_str(self) -> str:
        if self.key == ():  # no pairs: a clause without variables, or a learned clause
            return "{}"
        return "{" + ",".join(map("->".join, self.subst)) + "}"

    def __lt__(self, other: "GroundInstance") -> bool:
        # substitution order: a unit or conflict key tied up to the clause id gets here once its
        # instances differ as tuples; the domain is sorted by name, so names order as indices do
        return self.subst < other.subst

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
        # `render` spells a key this many base-d digits at a time, from a table of d ** chunk entries:
        # at most 64 unless d is larger, so that a short trace does not pay for a large table
        self.chunk = max([k for k in range(1, 7) if d ** k <= 64], default=1)
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

    def atom_index(self, pred: str, digits: Sequence[int]) -> int:
        """The index of pred's atom whose arguments have these constant indices."""
        return self.place[pred] + sum(map(mul, self.places[len(digits)], digits))

    def digits(self, arity: int, code: int) -> tuple[int, ...]:
        """The constant indices that a code spells at an arity."""
        d = len(self.names)
        return tuple([code // w % d for w in self.places[arity]])

    def name(self, atom: int) -> str:
        pred, arity, code = self.locate(atom)
        return f"{pred}({','.join([self.names[c] for c in self.digits(arity, code)])})" if arity else pred

    def chunk_names(self, as_json: bool) -> list[tuple[str, ...]]:
        """Per value of `chunk` base-d digits, their names, most significant first; for JSON, each name
        escaped as in a JSON string (`json_string`, without the quotes)."""
        names = [json_string(n)[1:-1] for n in self.names] if as_json else self.names
        return list(itertools.product(names, repeat=self.chunk))

    def __getitem__(self, i: int | slice) -> Atom | list[Atom]:
        if isinstance(i, slice):  # a slice gives its atoms as a list, as a list's slice does
            return [self[j] for j in range(*i.indices(self.size))]
        j = i + self.size if i < 0 else i  # negative indices count from the end, as in a list
        if not 0 <= j < self.size:
            raise IndexError(i)
        pred, arity, code = self.locate(j + 1)
        return Atom(pred, tuple(self.domain[c] for c in self.digits(arity, code)))


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

    def binds(self, slots: int) -> bool:
        """Whether the literal holds each of the variable slots 0 .. slots - 1 exactly once."""
        return sorted(a for a in self.args if a >= 0) == list(range(slots))


def _escape(name: str) -> str:
    return name.replace("%", "%%")


def _template(lit: Literal, slot: dict[str, int], const_index: dict[str, int], atoms: HerbrandBase) -> _Template:
    """Compile a literal; slot maps variable names to slots, const_index constant names to indices.
    Its base is the atom with constant index 0 at each variable's position."""
    pred, terms = lit.atom.predicate, lit.atom.args
    args, digits, weights = [], [], [0] * len(slot)
    for a, w in zip(terms, atoms.places[len(terms)]):
        if isinstance(a, Variable):
            k = slot[a.name]
            weights[k] += w
            args.append(k)
            digits.append(0)
        else:
            c = const_index[a.name]
            args.append(-1 - c)
            digits.append(c)
    return _Template(lit.positive, pred, tuple(args), atoms.atom_index(pred, digits), tuple(weights))


def _trigger_tree(entries: list[tuple[dict[int, int], tuple]], arity: int, d: int):
    """Index templates of one sign, predicate and arity by the constants they fix.

    entries pairs each template's {position: constant index} with its
    payload.  A node is (divisor, {constant: subtree}, subtree of the
    templates with a variable there, or None): the constant at the node's
    position is an atom code divided by the divisor, modulo d.  A leaf is a
    list of payloads.  Each node tests the position most templates below it
    fix, the rightmost on ties.
    """
    if not any(map(itemgetter(0), entries)):  # no template here fixes a position
        return [payload for _, payload in entries]
    counts = Counter(itertools.chain.from_iterable(map(itemgetter(0), entries)))  # counted in C
    position = max(zip(counts.values(), counts))[1]  # the largest count, then the rightmost position
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
    """A clause with variables: its templates, and its instances so far by key.

    A combo is the constant index of each variable slot; slots follow the
    clause's variables in first-occurrence order, so combos sort as
    itertools.product enumerates them.  An instance's key is the code of its
    combo: the sum of each slot's constant index times the slot's weight, a
    power of the domain size.  The weights follow slot order, except in an
    `aligned` clause: two or more literals, no two with the same sign and
    predicate, each holding every variable once at argument positions of the
    same place values.  There the key takes the templates' shared weights,
    so every literal's atom index is its template's base plus the key.

    A `pair` is a clause of two literals, not `merge`.  A template of a pair
    that holds each variable exactly once (`_Template.binds`; the other may
    hold any of them, repeated or beside constants) gives from a matched
    atom the other literal and the key (see `SclState.assign`).
    """

    def __init__(self, clause: Clause, templates: list[_Template], variables: list[str], atoms: HerbrandBase):
        self.id = clause.id
        self.literals = clause.literals
        self.templates = templates
        self.variables = variables
        self.slots = len(variables)
        self.names, self.chunk = atoms.names, atoms.chunk
        kinds = [(t.positive, t.pred) for t in templates]
        # two literals share sign and predicate, so an instance can hold fewer literals than the clause
        self.merge = len(set(kinds)) < len(kinds)
        first = templates[0]
        self.aligned = (
            len(templates) > 1 and not self.merge and first.binds(self.slots)
            and all(t.weights == first.weights for t in templates)
        )
        self.pair = len(templates) == 2 and not self.merge
        d = len(self.names)
        self.weights = first.weights if self.aligned else tuple(d ** j for j in reversed(range(self.slots)))
        self.created: dict[int, int] = {}  # key -> instance position

    def key(self, combo: Sequence[int]) -> int:
        return sum(map(mul, self.weights, combo))

    def lits(self, combo: Sequence[int]) -> tuple[int, ...]:
        return tuple([t.lit(combo) for t in self.templates])

    def subst(self, key: int) -> tuple[tuple[str, str], ...]:
        """The (variable name, constant name) pairs of an instance's key, sorted by variable name."""
        names, d = self.names, len(self.names)
        return tuple(sorted([(v, names[key // w % d]) for v, w in zip(self.variables, self.weights)]))

    @cached_property
    def lines(self) -> list[tuple]:
        """Per literal, its propagate line as text (see `_lines`)."""
        return self._lines(False)

    @cached_property
    def json_lines(self) -> list[tuple]:
        """Per literal, its propagate line as a JSON object (see `_lines`)."""
        return self._lines(True)

    def _lines(self, as_json: bool) -> list[tuple]:
        """Per literal, its propagate line as a %-format over an instance's names: (places, format, getter).

        The names are those of the instance key's base-d digits, spelled
        `HerbrandBase.chunk` digits at a time: one chunk per place value, most
        significant first.  A text line's format, the line and its newline, is
        filled with the names of `HerbrandBase.chunk_names`; a JSON line's, the
        line's object with its `lit` and `subst` fields, with their JSON escapes.
        The getter orders the names the format reads: a tuple, or one name alone.
        """
        # per variable, the base-d digit of the key that holds its constant index (see `weights`)
        if self.aligned:
            args = self.templates[0].args
            digit = {self.variables[a]: len(args) - 1 - j for j, a in enumerate(args) if a >= 0}
        else:
            digit = {v: self.slots - 1 - s for s, v in enumerate(self.variables)}
        chunks = -(-(max(digit.values()) + 1) // self.chunk)
        last = chunks * self.chunk - 1  # the spelled names' last position, the lowest digit's
        size = len(self.names) ** self.chunk
        places = tuple([size ** j for j in reversed(range(chunks))])
        subst = "{" + ",".join([f"{_escape(v)}->%s" for v in sorted(self.variables)]) + "}"
        subst_at = [last - digit[v] for v in sorted(self.variables)]
        lines = []
        for literal in self.literals:
            args = literal.atom.args
            lit = ("" if literal.positive else "-") + _escape(literal.atom.predicate)
            if args:
                lit += f"({','.join(['%s' if isinstance(a, Variable) else _escape(a.name) for a in args])})"
            at = [last - digit[a.name] for a in args if isinstance(a, Variable)] + subst_at
            text = f"propagate {lit} <- clause {self.id} σ={subst}"
            if as_json:  # escaping goes character by character: the escaped format filled with escaped names
                format, get = _JSON["propagate"]  # its line reads the names at `at`, then its lit and subst
                format %= get((json_string(text), json_string(lit), self.id, json_string(subst)))
                lines.append((places, format, itemgetter(*at, *at)))
            else:
                lines.append((places, text + "\n", itemgetter(*at)))
        return lines


# A binding maps each slot of a clause to a constant index, or to -1 while unbound.


def _bind(t: _Template, digits: Sequence[int], b: list[int]) -> bool:
    """Bind b's slots in place so that the template's atom has these constant indices; False if a
    repeated variable meets two constants.  Its constant positions are skipped, as the trigger
    tree reaches a template only where each of them matched."""
    for a, c in zip(t.args, digits):
        if a < 0:
            continue
        if b[a] == -1:
            b[a] = c
        elif b[a] != c:
            return False
    return True


def _todo(templates: Iterable[_Template], bound: Iterable[int]) -> list[tuple[_Template, tuple[int, ...]]]:
    """A join's walk over templates once the slots in bound are bound: per template, the slots it
    binds first, in argument order.  The walk ends at the last template that binds a slot, where
    every slot is bound."""
    seen, todo = set(bound), []
    for t in templates:
        free = tuple(dict.fromkeys([a for a in t.args if a >= 0 and a not in seen]))
        seen.update(free)
        todo.append((t, free))
    while todo and not todo[-1][1]:
        todo.pop()
    return todo


class GroundProblem:
    """A problem grounded lazily: the clauses, the domain, the Herbrand base and the instances so far.

    `instances` holds every instance created, in creation order; each
    compiled clause finds its own by key.  `_join` finds the instances of a
    clause that are unit or false under a truth table by backtracking over
    its templates, with each unbound slot ranging over the domain.
    """

    def __init__(
        self, clauses: dict[int, Clause], domain: tuple[Constant, ...], atoms: Sequence[Atom],
        instances: list[GroundInstance],
    ) -> None:
        self.clauses, self.domain, self.atoms, self.instances = clauses, domain, atoms, instances
        self.compiled: list[_CompiledClause] = []
        # per Herbrand block, the _trigger_tree of (clause, template, first, other) for the negative
        # and for the positive templates of the clauses of two or more literals with variables, or
        # None (see `ground_problem` for first and other; a template that joins holds its `_todo`
        # over its clause's other templates in place of first); empty if no block has a tree
        self.roots: list[tuple] = []

    def _join(self, clause, todo, i, b, open_lit, true, found) -> None:
        """Extend b over todo[i:], a `_todo`, each template false on the trail or the one open literal.

        Once the walk ends, every slot is bound and `_create` checks the
        instance.  Otherwise the template's free slots range over the domain,
        bound in place in b: a binding whose literal is false goes on, one
        whose literal is unassigned goes on only as open_lit (or as the first
        open literal, while open_lit is 0), and one whose literal is true is
        dropped.  b is the join's own, and no template reads a slot that a
        later one binds, so a slot is left bound on return.
        """
        if i == len(todo):
            self._create(clause, clause.key(b), clause.lits(b), true, found)
            return
        t, free = todo[i]
        i += 1
        for consts in itertools.product(range(len(self.domain)), repeat=len(free)):
            for s, c in zip(free, consts):
                b[s] = c
            lit = t.lit(b)
            if true[-lit]:
                self._join(clause, todo, i, b, open_lit, true, found)
            elif not true[lit] and open_lit in (0, lit):
                self._join(clause, todo, i, b, lit, true, found)

    def _create(self, clause: _CompiledClause, key: int, lits: tuple[int, ...], true, found) -> None:
        """If the instance with this key and these literals, per template, each kept once, is unit
        or false, map its position to its unit literal or 0 in found, creating it if it is new;
        each key is an instance of its own, even where two give one literal set."""
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
        created = clause.created
        pos = created.get(key)
        if pos is None:
            pos = created[key] = len(self.instances)
            self.instances.append(_new(GroundInstance, (clause.id, key, lits, clause)))
        found[pos] = unit


def ground_problem(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> GroundProblem:
    """Ground the clauses over the domain: the instances at the start, and templates for the rest.

    One walk over the literals finds the constants, each predicate's arity
    and each clause's variables.  In clause-id order, a clause without
    variables gets its one instance, each literal kept once, unless it is a
    tautology; a clause with variables is compiled, and its instances unit
    or false under the empty trail are created.  Only the templates of
    clauses of two or more literals with variables go into trigger trees.
    The caps count the Herbrand base and every instance a priori.  A clause
    set without constants is grounded over FRESH_CONSTANT.
    """
    by_id = clauses_by_id(clauses)
    constants: set[Constant] = set()
    arity: dict[str, int] = {}
    variables: dict[int, list[str]] = {}  # per clause, its variables' names in first-occurrence order
    clash = None  # the first predicate used at a second arity, reported after the domain's errors
    for cid, clause in by_id.items():
        names: dict[str, None] = {}
        for lit in clause.literals:
            atom = lit.atom
            for a in atom.args:
                if isinstance(a, Variable):
                    names[a.name] = None
                else:
                    constants.add(a)
            n = atom.arity
            known = arity.setdefault(atom.predicate, n)
            if known != n and clash is None:
                clash = f"predicate {atom.predicate!r} used with arity {n}, expected {known}"
        variables[cid] = list(names)
    if domain is not None:
        dom = sorted(set(domain), key=lambda c: c.name)
        missing = constants - set(dom)
        if missing:
            raise ValueError(f"domain misses constants: {sorted(c.name for c in missing)}")
    else:
        dom = sorted(constants, key=lambda c: c.name) or [FRESH_CONSTANT]
    if not dom:
        raise ValueError("empty Herbrand domain; provide at least one constant")
    if clash is not None:
        raise ValueError(clash)

    d = len(dom)
    base_size = sum(d ** a for a in arity.values())
    if base_size > instance_cap:
        raise ResourceLimitError(f"Herbrand base of {base_size} atoms exceeds the cap")
    atoms = HerbrandBase(arity, dom)
    total = sum(d ** len(vs) for vs in variables.values())
    if total > instance_cap:
        raise ResourceLimitError(f"{total} ground instances exceed the cap of {instance_cap}")

    const_index = {c.name: i for i, c in enumerate(dom)}
    problem = GroundProblem(by_id, tuple(dom), atoms, [])
    instances = problem.instances
    block = {pred: k for k, (pred, _) in enumerate(atoms.blocks)}
    entries: list[tuple[list, list]] = [([], []) for _ in atoms.blocks]  # per block: negative, positive
    empty = bytearray(2 * len(atoms) + 1)
    for cid in sorted(by_id):
        clause, names = by_id[cid], variables[cid]
        if not names:  # its one instance, which `SclState` watches as CDCL watches a clause
            lits: dict[int, None] = {}
            for l in clause.literals:
                atom = atoms.atom_index(l.atom.predicate, [const_index[a.name] for a in l.atom.args])
                lits[atom if l.positive else -atom] = None
            if len(lits) < 2 or not any(-lit in lits for lit in lits):  # not a tautology
                instances.append(_new(GroundInstance, (cid, (), tuple(lits), None)))
            continue
        slot = {v: k for k, v in enumerate(names)}
        templates = [_template(l, slot, const_index, atoms) for l in clause.literals]
        compiled = _CompiledClause(clause, templates, names, atoms)
        problem.compiled.append(compiled)
        if compiled.merge or len(templates) < 2:
            # its instances unit or false under the empty trail; distinct literals of a clause with
            # no two of one sign and predicate stay distinct
            problem._join(compiled, _todo(templates, ()), 0, [-1] * compiled.slots, 0, empty, {})
        if len(templates) < 2:
            continue  # every instance is created at the start
        for i, t in enumerate(templates):
            first = i == 0  # a pair's instance holds the literal of t first
            consts = {j: -1 - a for j, a in enumerate(t.args) if a < 0}
            # where t gives a pair's other literal (see `SclState.assign`): the other template's
            # base, signed as its literal is, and unless the clause is aligned, per slot the place
            # value in t, the other template's weight, signed alike, and the key's weight
            other = None
            if compiled.pair and (compiled.aligned or t.binds(compiled.slots)):
                u = templates[1] if first else templates[0]
                sign = 1 if u.positive else -1
                other = sign * u.base
                if not compiled.aligned:
                    other = other, tuple(zip(t.weights, [sign * w for w in u.weights], compiled.weights))
            else:  # t joins its clause's other templates
                first = _todo(templates[:i] + templates[i + 1:], [a for a in t.args if a >= 0])
            entries[block[t.pred]][t.positive].append((consts, (compiled, t, first, other)))
    if any(es for signs in entries for es in signs):
        problem.roots = [
            tuple(_trigger_tree(es, arity, d) if es else None for es in signs)
            for signs, (_, arity) in zip(entries, atoms.blocks)
        ]
    return problem


class SclStats:
    """A run's counters: the propagations and the decisions made."""

    def __init__(self) -> None:
        self.propagations = 0
        self.decisions = 0


class SclState(TrailKernel):
    """Five-tuple analog over ground literals: the trail kernel over instance positions.

    Every assignment finds the instances of clauses with variables that it
    makes unit or false, creating the new ones, and pushes or marks them;
    only the start instances, among them every instance of a clause without
    variables, and the learned clauses are watched.  Learned clauses get ids
    above the largest input id.  The kernel's tables are sized to the
    Herbrand base.
    """

    def __init__(self, problem: GroundProblem) -> None:
        atoms = problem.atoms
        super().__init__(len(atoms))
        self.problem = problem
        self.stats = SclStats()
        self.next_clause_id = max(problem.clauses, default=0) + 1
        # what `assign` reads of the problem: the trigger roots by block, the block starts and the
        # domain size; with one block, which starts at atom 1, its root pair and no starts, and with
        # no trees (no clause of two or more literals has variables), an empty root pair
        roots = problem.roots
        if len(roots) > 1:
            self.triggers = roots, atoms.starts, len(atoms.names)
        else:
            self.triggers = roots[0] if roots else (None, None), None, len(atoms.names)
        self.reclassify()

    def reclassify(self) -> None:
        """Hook the instances created at the start into the kernel, under the empty trail."""
        for pos, inst in enumerate(self.problem.instances):
            self.watch(pos, inst.lits)

    def assign(self, lit: int, reason: int | None) -> None:
        """Assign as the kernel does, then push the unit or mark the position of each instance that
        -lit, just turned false, makes unit or false, creating it if it is new.

        The trigger tree of -lit's Herbrand block and sign yields the
        templates it matches.  A template of a pair that holds each of its
        clause's variables once gives the other literal and the key from
        the matched atom, and the instance is handled where the walk finds
        it.  In an aligned pair the key is the atom's offset from the
        template's base, and the other literal the other base plus the key.
        In any other pair each slot's constant index is the digit
        `code // place % d` of the atom's code, and the other atom and the
        key are the other template's base plus the weighted digits and the
        sum of the key's weights times the digits.  Any other template binds
        its slots and joins the clause's other templates against `true`
        (`GroundProblem._join`, whose unbound slots range over the domain);
        what the join finds is handled after the walk.  No instance is
        watched: the next literal that turns false in it runs this walk
        again.  The stack of subtrees still to walk and the join's finds are
        built only when a node has a free subtree or a template joins, which
        no walk over the counters or the Horn chains does.
        """
        TrailKernel.assign(self, lit, reason)
        roots, starts, d = self.triggers
        atom = lit if lit > 0 else -lit
        if starts is None:
            code, node = atom - 1, roots[lit < 0]
        else:
            k = bisect.bisect_right(starts, atom) - 1
            code, node = atom - starts[k], roots[k][lit < 0]
        false_lit, true, instances = -lit, self.true, self.problem.instances
        later = found = digits = None
        while node is not None:
            while node.__class__ is tuple:  # down to a leaf, or to no subtree
                divisor, children, rest = node
                if rest is not None:
                    if later is None:
                        later = []
                    later.append(rest)
                node = children.get(code // divisor % d)
            if node is not None:
                for clause, t, first, other in node:
                    if other.__class__ is int:
                        # an aligned pair: the key is the matched atom's offset, one step where the
                        # digits below take one per slot (up to n - 1 in an n-bit counter's rules)
                        key = atom - t.base
                        unit = other + key if other > 0 else other - key
                    elif other is None:
                        problem = self.problem
                        if digits is None:
                            digits = problem.atoms.digits(len(t.args), code)
                        b = [-1] * clause.slots
                        if _bind(t, digits, b):
                            if found is None:
                                found = {}
                            problem._join(clause, first, 0, b, 0, true, found)  # first: the other templates
                        continue
                    else:  # any other pair: each slot's digit in the matched atom's code
                        unit, key = other[0], 0
                        for place, w, key_w in other[1]:
                            c = code // place % d
                            unit += w * c
                            key += key_w * c
                    # the instance of false_lit and unit: satisfied, false, or unit on unit
                    if true[unit]:
                        continue
                    created = clause.created
                    pos = created.get(key)
                    if pos is None:
                        pos = created[key] = len(instances)
                        lits = (false_lit, unit) if first else (unit, false_lit)
                        instances.append(_new(GroundInstance, (clause.id, key, lits, clause)))
                    if true[-unit]:
                        self.false_ids.add(pos)
                    else:  # the key of `unit_key`
                        heapq.heappush(self.pending, (
                            (unit if unit > 0 else -unit, unit < 0, clause.id, instances[pos]), pos, unit))
            node = later.pop() if later else None
        if found:
            for pos, unit in found.items():
                if unit:
                    heapq.heappush(self.pending, (self.unit_key(pos, unit), pos, unit))
                else:
                    self.false_ids.add(pos)

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
    The trail cap stops it with no conflict and the next unit pending, which
    a later call propagates; the stats count the propagations made.
    """
    start = len(state.trail)
    propagate_units(state, trail_cap)
    state.stats.propagations += len(state.trail) - start
    return state


class SclResult(NamedTuple):
    """A run's verdict, "sat", "unsat" or "limit", its counters, its final state and its proof."""

    verdict: str
    stats: SclStats
    state: SclState | None  # None if the instance cap stopped grounding; an "unsat" one's conflict is at level 0
    proof: list[ProofStep] | None = None  # every analysis, over instance positions; an "unsat" one's last is not walked

    @property
    def model(self) -> tuple[Atom, ...] | None:
        """The atoms true on the total trail of a "sat" run, in atom order, built when asked for."""
        if self.verdict != "sat":
            return None
        atoms = self.state.problem.atoms
        return tuple(atoms[atom - 1] for atom in sorted(lit for lit, _, _ in self.state.trail if lit > 0))


# SCL's analyze, learn and pick steps for `cdcl.search`
def _analyze(state: SclState) -> tuple[tuple[int, ...], int, list[tuple[int, int]]]:
    instances = state.problem.instances  # a level-0 conflict is not walked: the input is unsatisfiable
    return resolve_1uip(state, instances[state.conflict].lits, instances) if state.level else ((), -1, [])


def _learn(state: SclState, learned: tuple[int, ...], level: int) -> None:
    state.problem.instances.append(GroundInstance(state.next_clause_id, (), learned))
    state.next_clause_id += 1
    learn_clause(state, len(state.problem.instances) - 1, learned, level)


def _pick(state: SclState) -> int:
    state.stats.decisions += 1
    return lowest_unassigned(state)


def scl_run(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    trail_cap: int = DEFAULT_TRAIL_CAP,
) -> SclResult:
    """Ground the clauses, then `cdcl.search` over SCL's steps until a total Herbrand model or a level-0 conflict.

    Decisions take the smallest undefined ground atom, positive polarity.  Conflicts above level 0 go
    through ground 1UIP analysis; the learned clause becomes an instance and is learned through CDCL's
    Backjump rule.  The trail cap bounds propagations and decisions alike; a learned clause's asserting
    literal needs no check, as the backjump shortens the trail first.
    """
    try:
        problem = ground_problem(clauses, domain, instance_cap)
    except ResourceLimitError:
        return SclResult("limit", SclStats(), None)
    state = SclState(problem)
    verdict, proof = search(state, lambda kernel: scl_propagate(kernel, trail_cap), _analyze, _learn, _pick, trail_cap)
    return SclResult(verdict, state.stats, state, proof)


_VERDICTS = {"sat": "s SATISFIABLE", "unsat": "s UNSATISFIABLE", "limit": "s RESOURCE-EXCEEDED"}
# per trace event kind, and the stats line, the names of the JSON fields after `kind`
_FIELDS = {"propagate": ("lit", "clause", "subst"), "conflict": ("clause", "subst"), "decide": ("lit", "level"),
           "learn": ("clause", "backjump"), "stats": ()}
# per kind, the format of its JSON lines over the text line and the `_FIELDS`, and its getter
_JSON = {kind: json_format({name: p for p, name in enumerate(("line", *fields))}, event="scl", kind=kind)
         for kind, fields in _FIELDS.items()}
_RESULT_JSON = json_format({"line": 0}, event="result")[0]


def render(result: SclResult, as_json: bool) -> list[str]:
    """The output lines of a run, as text or as JSON objects: trace, stats, verdict.

    A propagation of one of its clause's literals, one per template, fills
    the format that `_CompiledClause.lines` (text) or `json_lines` compiles
    for that literal with the names of the instance's key, spelled in place
    from `HerbrandBase.chunk_names`, JSON-escaped for JSON.  Merge clauses,
    clauses without variables (one instance each, not compiled; their
    substitution is `{}`) and learned instances, and every other
    line, spell their substitutions through `GroundInstance.subst_str` and
    their literals from the Herbrand base; as JSON, each fills its kind's
    `_JSON` format with the text line and the values it spells, the kind's
    `_FIELDS`, or `_RESULT_JSON` for the verdict.  Every JSON format comes
    from `jsonl.json_format`, built once.  A run stopped by the instance cap
    has no state, so only its verdict line.
    """
    lines: list[str] = []
    add = lines.append
    state = result.state
    if state is not None:
        instances, atoms = state.problem.instances, state.problem.atoms
        name, table = atoms.name, atoms.chunk_names(as_json)
        size = len(table)

        def literal(lit: int) -> str:
            return name(lit) if lit > 0 else "-" + name(-lit)

        for ev in state.events:
            kind = ev[0]
            if kind == "propagate":
                inst = instances[ev[2]]
                compiled = inst.compiled
                if compiled is not None and not compiled.merge:
                    places, format, get = (compiled.json_lines if as_json else compiled.lines)[inst.lits.index(ev[1])]
                    key, names = inst.key, ()
                    for place in places:
                        names += table[key // place % size]
                    add(format % get(names))
                    continue
                lit, subst = literal(ev[1]), inst.subst_str()
                text, values = f"propagate {lit} <- clause {inst.clause_id} σ={subst}", (lit, inst.clause_id, subst)
            elif kind == "conflict":
                inst = instances[ev[1]]
                subst = inst.subst_str()
                text, values = f"conflict clause {inst.clause_id} σ={subst}", (inst.clause_id, subst)
            elif kind == "decide":
                lit = literal(ev[1])
                text, values = f"decide {lit} @{ev[2]}", (lit, ev[2])
            else:  # "learn"
                clause = " | ".join(map(literal, ev[1]))
                text, values = f"learn {clause} backjump {ev[2]}", (clause, ev[2])
            if as_json:
                format, get = _JSON[kind]
                add(format % get([json_string(v) if v.__class__ is str else v for v in (text, *values)]))
            else:
                add(text + "\n")
        s = state.stats
        text = f"stats propagations={s.propagations} decisions={s.decisions} trail={len(state.trail)}"
        add(_JSON["stats"][0] % json_string(text) if as_json else text + "\n")
    text = _VERDICTS[result.verdict]
    add(_RESULT_JSON % json_string(text) if as_json else text + "\n")
    return lines
