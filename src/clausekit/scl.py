"""Ground trail engine for the Bernays-Schoenfinkel fragment (SCL style), grounding lazily.

Clauses compile to literal templates: each literal becomes a sign, a base
atom index and one weight per clause variable, so the signed atom index of a
literal in any instance is integer arithmetic over constant indices.  Atoms
are integers too: the Herbrand base is mixed-radix arithmetic per predicate
block, and an `Atom` is built only when one is asked for.

Instances are created only when the trail makes them unit or false, and
are named by their position in the propositional trail kernel of
`clausekit.cdcl`.  The instances created at the start (those of one-literal
and empty clauses, and the instances whose literals all coincide) and the
learned ones are hooked into the kernel's watch lists; no other instance is.
When a literal L is assigned, one pass (`SclState.instantiate`) goes from
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
from functools import cached_property
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .cdcl import TrailKernel, _new, decide, learn_clause, lowest_unassigned, propagate_units, resolve_1uip
from .cdcl import clause_status  # noqa: F401  perfbench/tracer.py counts calls through this name
from .errors import ResourceLimitError
from .jsonl import event_line, json_line
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
    a ground clause spells `{}` with nothing compiled.
    """

    clause_id: int
    key: tuple[tuple[str, str], ...] | int  # the substitution's pairs, or the instance's key in `compiled`
    lits: tuple[int, ...]
    compiled: _CompiledClause | None = None

    @property
    def subst(self) -> tuple[tuple[str, str], ...]:
        return self.key if self.compiled is None else self.compiled.subst(self.key)

    def subst_str(self) -> str:
        if self.compiled is not None and not self.compiled.slots:  # a ground clause's one instance
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
        # `spell` reads a code this many base-d digits at a time, from a table of d ** chunk entries:
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

    def digits(self, arity: int, code: int) -> tuple[int, ...]:
        """The constant indices that a code spells at an arity."""
        d = len(self.names)
        return tuple([code // w % d for w in self.places[arity]])

    def name(self, atom: int) -> str:
        pred, arity, code = self.locate(atom)
        return f"{pred}({','.join([self.names[c] for c in self.digits(arity, code)])})" if arity else pred

    @cached_property
    def _chunk_names(self) -> list[tuple[str, ...]]:
        # per value of `chunk` base-d digits, their names, most significant first
        return list(itertools.product(self.names, repeat=self.chunk))

    def spell(self, code: int, chunks: int) -> tuple[str, ...]:
        """The names of a code's lowest chunks * `chunk` base-d digits, most significant first."""
        table, names = self._chunk_names, ()
        for _ in range(chunks):
            code, c = divmod(code, len(table))
            names = table[c] + names
        return names

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

    A `pair` is a clause of two literals, not `merge`.  A template of a pair
    that holds each variable exactly once (`_Template.binds`; the other may
    hold any of them, repeated or beside constants) gives from a matched
    atom the other literal and the key (see `SclState.instantiate`).
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
        first = templates[0] if templates else None
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
    def lines(self) -> list["_Line"]:
        """Per literal, its propagate line."""
        # per variable, the base-d digit of the key that holds its constant index (see `weights`)
        if self.aligned:
            args = self.templates[0].args
            digit = {self.variables[a]: len(args) - 1 - j for j, a in enumerate(args) if a >= 0}
        else:
            digit = {v: self.slots - 1 - s for s, v in enumerate(self.variables)}
        chunks = -(-(max(digit.values(), default=-1) + 1) // self.chunk)
        last = chunks * self.chunk - 1  # the spelled names' last position, the lowest digit's
        subst = "{" + ",".join([f"{_escape(v)}->%s" for v in sorted(self.variables)]) + "}"
        subst_at = [last - digit[v] for v in sorted(self.variables)]
        lines = []
        for literal in self.literals:
            args = literal.atom.args
            lit = ("" if literal.positive else "-") + _escape(literal.atom.predicate)
            if args:
                lit += f"({','.join(['%s' if isinstance(a, Variable) else _escape(a.name) for a in args])})"
            lit_at = [last - digit[a.name] for a in args if isinstance(a, Variable)]
            lines.append(_Line(chunks, f"propagate {lit} <- clause {self.id} σ={subst}\n", _getter(lit_at + subst_at),
                               lit, _getter(lit_at), subst, _getter(subst_at)))
        return lines


def _getter(positions: list[int]) -> Callable[[Sequence[str]], tuple[str, ...] | str]:
    """What orders the names at these positions into a %-format: a tuple, or one name alone."""
    return itemgetter(*positions) if positions else lambda names: ()


class _Line(NamedTuple):
    """The propagate line of a literal of a compiled clause, as %-formats over an instance's names.

    The names are those of the instance key's base-d digits, `chunks`
    chunks of them (`HerbrandBase.spell`); each getter orders the names its
    format reads.  Text output fills the whole line's format, newline
    included; JSON fills `lit` and `subst`, the line's two parts, and joins
    them as text does.
    """

    chunks: int
    text: str
    get: Callable
    lit: str
    get_lit: Callable
    subst: str
    get_subst: Callable


# A binding maps each slot of a clause to a constant index, or to -1 while unbound.


def _bind(t: _Template, digits: Sequence[int], b: list[int]) -> list[int] | None:
    """b extended so that the template's atom has these constant indices, or None; its constant
    positions are skipped, as the trigger tree reaches a template only where each of them matched."""
    b = b.copy()
    for a, c in zip(t.args, digits):
        if a < 0:
            continue
        if b[a] == -1:
            b[a] = c
        elif b[a] != c:
            return None
    return b


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
        # per Herbrand block, the _trigger_tree of (clause, template, other) for the negative and
        # for the positive templates of the clauses of two or more literals, or None (see
        # `ground_problem` for other); empty if nothing is left to create
        self.roots: list[tuple] = []

    def _join(self, clause, todo, b, open_lit, true, found) -> None:
        """Extend b over the templates in todo, each false on the trail or the one open literal.

        Once every slot is bound, `_create` checks the instance.  Otherwise
        the next template's unbound slots range over the domain: a binding
        whose literal is false goes on, one whose literal is unassigned goes
        on only as open_lit (or as the first open literal, while open_lit is
        0), and one whose literal is true is dropped.
        """
        if -1 not in b:
            self._create(clause, clause.key(b), clause.lits(b), true, found)
            return
        t, rest = todo[0], todo[1:]
        free, b = list(dict.fromkeys(a for a in t.args if a >= 0 and b[a] == -1)), b.copy()
        for consts in itertools.product(range(len(self.domain)), repeat=len(free)):
            for s, c in zip(free, consts):
                b[s] = c
            lit = t.lit(b)
            if true[-lit]:
                self._join(clause, rest, b, open_lit, true, found)
            elif not true[lit] and open_lit in (0, lit):
                self._join(clause, rest, b, lit, true, found)

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
    block = {pred: k for k, (pred, _) in enumerate(atoms.blocks)}
    entries: list[tuple[list, list]] = [([], []) for _ in atoms.blocks]  # per block: negative, positive
    for cid in sorted(by_id):
        slot = {v: k for k, v in enumerate(variables[cid])}
        templates = [
            _template(l, atoms.place[l.atom.predicate], slot, const_index)
            for l in by_id[cid].literals
        ]
        compiled = _CompiledClause(by_id[cid], templates, variables[cid], atoms)
        problem.compiled.append(compiled)
        if len(templates) < 2:
            continue  # every instance is created at the start
        for t in templates:
            consts = {j: -1 - a for j, a in enumerate(t.args) if a < 0}
            # where t gives a pair's other literal (see `SclState.instantiate`): the other template's
            # base, signed as its literal is, and unless the clause is aligned, per slot the place
            # value in t, the other template's weight, signed alike, and the key's weight
            other = None
            if compiled.pair and (compiled.aligned or t.binds(compiled.slots)):
                u = templates[1] if t is templates[0] else templates[0]
                sign = 1 if u.positive else -1
                other = sign * u.base
                if not compiled.aligned:
                    other = other, tuple(zip(t.weights, [sign * w for w in u.weights], compiled.weights))
            entries[block[t.pred]][t.positive].append((consts, (compiled, t, other)))
    problem.roots = [
        tuple(_trigger_tree(es, arity, len(dom)) if es else None for es in signs)
        for signs, (_, arity) in zip(entries, atoms.blocks)
    ]
    # the instances unit or false under the empty trail; distinct literals of a clause with
    # no two of one sign and predicate stay distinct
    empty = bytearray(2 * len(atoms) + 1)
    for clause in problem.compiled:
        if clause.merge or len(clause.templates) < 2:
            problem._join(clause, clause.templates, [-1] * clause.slots, 0, empty, {})
    return problem


class SclStats:
    """A run's counters: the propagations and the decisions made."""

    def __init__(self) -> None:
        self.propagations = 0
        self.decisions = 0


class SclState(TrailKernel):
    """Five-tuple analog over ground literals: the trail kernel over instance positions.

    Every assignment finds the instances it makes unit or false, creating
    the new ones, and pushes or marks them; only the start instances and
    the learned clauses are watched.  Learned clauses get ids above the
    largest input id.  The kernel's tables are sized to the Herbrand base.
    """

    def __init__(self, problem: GroundProblem) -> None:
        atoms = problem.atoms
        super().__init__(len(atoms))
        self.problem = problem
        self.stats = SclStats()
        self.next_clause_id = max(problem.clauses, default=0) + 1
        # what `instantiate` reads of the problem: the trigger roots, the block starts (None for one
        # block, which starts at atom 1) and the domain size
        self.triggers = problem.roots, atoms.starts if len(atoms.starts) > 1 else None, len(atoms.names)
        self.reclassify()

    def reclassify(self) -> None:
        """Hook the instances created at the start into the kernel, under the empty trail."""
        for pos, inst in enumerate(self.problem.instances):
            self.watch(pos, inst.lits)

    def assign(self, lit: int, reason: int | None) -> None:
        """Assign as the kernel does, then push or mark the instances this makes unit or false."""
        TrailKernel.assign(self, lit, reason)
        self.instantiate(-lit)

    def instantiate(self, false_lit: int) -> None:
        """Push the unit or mark the position of each instance that false_lit, just turned false,
        makes unit or false, creating it if it is new.

        The trigger tree of false_lit's Herbrand block and sign yields the
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
        again.
        """
        roots, starts, d = self.triggers
        if not roots:  # a problem grounded with no triggers
            return
        atom = -false_lit if false_lit < 0 else false_lit
        if starts is None:
            code, node = atom - 1, roots[0][false_lit > 0]
        else:
            k = bisect.bisect_right(starts, atom) - 1
            code, node = atom - starts[k], roots[k][false_lit > 0]
        problem = self.problem
        true, instances = self.true, problem.instances
        later, found, digits = [], {}, None
        while node is not None:
            if node.__class__ is tuple:
                divisor, children, rest = node
                if rest is not None:
                    later.append(rest)
                node = children.get(code // divisor % d)
                if node is not None:
                    continue
            else:
                for clause, t, other in node:
                    if other.__class__ is int:
                        # an aligned pair: the key is the matched atom's offset, one step where the
                        # digits below take one per slot (up to n - 1 in an n-bit counter's rules)
                        key = atom - t.base
                        lit = other + key if other > 0 else other - key
                    elif other is None:
                        if digits is None:
                            digits = problem.atoms.digits(len(t.args), code)
                        b = _bind(t, digits, [-1] * clause.slots)
                        if b is not None:
                            problem._join(clause, [u for u in clause.templates if u is not t], b, 0, true, found)
                        continue
                    else:  # any other pair: each slot's digit in the matched atom's code
                        lit, key = other[0], 0
                        for place, w, key_w in other[1]:
                            c = code // place % d
                            lit += w * c
                            key += key_w * c
                    # the instance of false_lit and lit
                    if true[lit]:
                        continue
                    created = clause.created
                    pos = created.get(key)
                    if pos is None:
                        pos = created[key] = len(instances)
                        lits = (false_lit, lit) if t is clause.templates[0] else (lit, false_lit)
                        instances.append(_new(GroundInstance, (clause.id, key, lits, clause)))
                    if true[-lit]:
                        self.false_ids.add(pos)
                    else:  # the key of `unit_key`
                        heapq.heappush(self.pending, ((lit if lit > 0 else -lit, lit < 0, clause.id, instances[pos]),
                                                      pos, lit))
            node = later.pop() if later else None
        if found:  # filled only by `_join`, which no walk over the counters or the Horn chains calls
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
    state = SclState(problem)
    while True:
        scl_propagate(state, trail_cap)
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
            return SclResult("limit", state.stats, state)
        else:
            decide(state, lowest_unassigned(state))
            state.stats.decisions += 1


_VERDICTS = {"sat": "s SATISFIABLE", "unsat": "s UNSATISFIABLE", "limit": "s RESOURCE-EXCEEDED"}
# per trace event kind, the names of the JSON fields after `kind`
_FIELDS = {"propagate": ("lit", "clause", "subst"), "conflict": ("clause", "subst"), "decide": ("lit", "level"),
           "learn": ("clause", "backjump")}


def render(result: SclResult, as_json: bool) -> list[str]:
    """The output lines of a run, as text or as JSON objects: trace, stats, verdict.

    A propagation of one of its clause's literals, one per template, fills
    the formats that `_CompiledClause.lines` compiles for that literal with
    the names of the instance's key.  Merge clauses, ground clauses (one
    instance each, too few lines to repay compiling; their substitution is
    `{}`) and learned instances, and every other line, spell their
    substitutions through `GroundInstance.subst_str` and their literals
    from the Herbrand base.  A trace line's JSON object holds the
    text line as `line` and the values it spells as the kind's `_FIELDS`.
    A run stopped by the instance cap has no state, so only its verdict line.
    """
    lines: list[str] = []
    add = lines.append
    state = result.state
    if state is not None:
        instances, atoms = state.problem.instances, state.problem.atoms
        name, spell = atoms.name, atoms.spell

        def literal(lit: int) -> str:
            return name(lit) if lit > 0 else "-" + name(-lit)

        for ev in state.events:
            kind = ev[0]
            if kind == "propagate":
                inst = instances[ev[2]]
                compiled = inst.compiled
                if compiled is None or compiled.merge or not compiled.slots:
                    lit, subst = literal(ev[1]), inst.subst_str()
                else:
                    line = compiled.lines[inst.lits.index(ev[1])]
                    names = spell(inst.key, line.chunks)
                    if not as_json:
                        add(line.text % line.get(names))
                        continue
                    lit, subst = line.lit % line.get_lit(names), line.subst % line.get_subst(names)
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
                add(json_line({"line": text, "event": "scl", "kind": kind, **dict(zip(_FIELDS[kind], values))}))
            else:
                add(text + "\n")
        s = state.stats
        text = f"stats propagations={s.propagations} decisions={s.decisions} trail={len(state.trail)}"
        add(json_line({"line": text, "event": "scl", "kind": "stats"}) if as_json else text + "\n")
    text = _VERDICTS[result.verdict]
    add(event_line("result", text) if as_json else text + "\n")
    return lines
