"""Ground trail engine for the Bernays-Schoenfinkel fragment (SCL style).

Clauses are grounded over a finite constant domain from compiled templates:
each literal becomes a sign, a base atom index and one weight per clause
variable, so the signed atom indices of every instance come from integer
arithmetic over constant indices, with no substitution or atom built per
instance.  An instance keeps each literal once.

The engine drives the propositional trail kernel of `clausekit.cdcl`, with
one kernel clause per ground instance, named by its position: the trail
holds ground literals justified by an instance, and two watched literals per
instance find the unit and false ones.  Propagation picks the smallest
propagatable ground literal (lexicographic constant order, positive before
negative on the same atom).  Conflicts above level 0 are analyzed by the
propositional 1UIP engine over the ground abstraction; a level-0 conflict
means the input is unsatisfiable.  Events carry literals and instance
positions; `render` turns a run's result into its output lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .cdcl import TrailKernel, resolve_1uip
from .cdcl import clause_status  # noqa: F401  perfbench/tracer.py counts calls through this name
from .errors import ResourceLimitError
from .logic import Atom, Clause, Constant, Literal, Variable

DEFAULT_INSTANCE_CAP = 1_000_000
DEFAULT_TRAIL_CAP = 1_000_000


@dataclass(frozen=True)
class CounterProblem:
    """The n-bit counter clause family: n + 2 clauses that walk every value.

    A unit start clause, one carry clause per bit position, and a negated
    final value.  Behaves as a clause sequence; slicing drops into plain
    tuples (the satisfiable variant is simply problem[:-1]).
    """

    n: int
    clauses: tuple[Clause, ...]

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __getitem__(self, index):
        return self.clauses[index]


def counter_problem(n: int) -> CounterProblem:
    """Generate the n-bit counter family; unsatisfiable, 2**n propagations deep."""
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
    return CounterProblem(n, tuple(clauses))


@dataclass(frozen=True, slots=True)
class GroundInstance:
    clause_id: int
    subst: tuple[tuple[str, str], ...]  # (variable name, constant name), sorted
    lits: tuple[int, ...]  # signed 1-based indices into the atom table

    def subst_str(self) -> str:
        return "{" + ",".join(f"{v}->{c}" for v, c in self.subst) + "}"


@dataclass
class GroundProblem:
    """Eagerly grounded problem: the clauses, the domain, the Herbrand base and the instances."""

    clauses: dict[int, Clause]
    domain: tuple[Constant, ...]
    atoms: list[Atom]  # sorted; propositional atom i is atoms[i-1]
    instances: list[GroundInstance]


def _herbrand_base(
    signatures: set[tuple[str, int]], dom: list[Constant]
) -> tuple[list[Atom], dict[tuple[str, int], int | list[int]]]:
    """The atom table in (predicate, argument names) order, and where each signature starts.

    The domain is sorted by name, so the atoms of a predicate used at one
    arity come out of itertools.product in order; its place is the index of
    its first atom.  A predicate used at several arities has its block sorted
    and gets a table from mixed-radix constant index to atom index instead.
    """
    atoms: list[Atom] = []
    place: dict[tuple[str, int], int | list[int]] = {}
    for pred in sorted({p for p, _ in signatures}):
        arities = sorted(a for p, a in signatures if p == pred)
        if len(arities) == 1:
            place[pred, arities[0]] = len(atoms) + 1
            atoms.extend(Atom(pred, c) for c in itertools.product(dom, repeat=arities[0]))
            continue
        block = sorted(c for a in arities for c in itertools.product(range(len(dom)), repeat=a))
        index = {c: len(atoms) + i + 1 for i, c in enumerate(block)}
        for a in arities:
            place[pred, a] = [index[c] for c in itertools.product(range(len(dom)), repeat=a)]
        atoms.extend(Atom(pred, tuple(dom[i] for i in c)) for c in block)
    return atoms, place


def _literal_column(
    lit: Literal,
    place: int | list[int],
    slot: dict[Variable, int],
    const_index: dict[Constant, int],
) -> list[int]:
    """The literal's signed atom index in every instance, in itertools.product order.

    The literal compiles to a base index plus one weight per clause variable
    (the mixed-radix weight of each argument position it fills); each
    variable then multiplies the column by the domain size.
    """
    d = len(const_index)
    base = place if isinstance(place, int) else 0
    weights = [0] * len(slot)
    for j, arg in enumerate(lit.atom.args):
        w = d ** (lit.atom.arity - j - 1)
        if isinstance(arg, Variable):
            weights[slot[arg]] += w
        else:
            base += w * const_index[arg]
    col = [base]
    for w in weights:
        steps = [w * i for i in range(d)]
        col = [x + s for x in col for s in steps]
    if not isinstance(place, int):
        col = [place[x] for x in col]
    return col if lit.positive else [-x for x in col]


def ground_problem(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> GroundProblem:
    """Ground every clause over the domain by index arithmetic on compiled literals.

    An instance keeps each literal once, in clause order, and an instance
    with the literal set of an earlier instance of its clause is dropped.
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
    atoms, place = _herbrand_base(signatures, dom)

    total = sum(len(dom) ** len(c.variables()) for c in by_id.values())
    if total > instance_cap:
        raise ResourceLimitError(f"{total} ground instances exceed the cap of {instance_cap}")

    const_index = {c: i for i, c in enumerate(dom)}
    problem = GroundProblem(by_id, tuple(dom), atoms, [])
    for cid in sorted(by_id):
        clause = by_id[cid]
        slot = {v: k for k, v in enumerate(clause.variables())}
        columns = [
            _literal_column(l, place[l.atom.predicate, l.atom.arity], slot, const_index)
            for l in clause.literals
        ]
        substs = []  # per variable, by name: its (name, constant) pair in every instance
        for v, k in sorted(slot.items(), key=lambda vk: vk[0].name):
            pairs = [(v.name, c.name) for c in dom]
            inner = len(dom) ** (len(slot) - k - 1)
            substs.append([p for p in pairs for _ in range(inner)] * len(dom) ** k)
        kinds = [(l.positive, l.atom.predicate, l.atom.arity) for l in clause.literals]
        merge = len(set(kinds)) < len(kinds)  # else no literals and no instances coincide
        seen: set[frozenset[int]] = set()
        for subst, lits in zip(zip(*substs) if slot else [()], zip(*columns) if columns else [()]):
            if merge:
                lits = tuple(dict.fromkeys(lits))
                if frozenset(lits) in seen:
                    continue
                seen.add(frozenset(lits))
            problem.instances.append(GroundInstance(cid, subst, lits))
    return problem


@dataclass
class SclStats:
    propagations: int = 0
    decisions: int = 0
    conflicts: int = 0
    trail: int = 0
    instances: int = 0


@dataclass
class SclState(TrailKernel):
    """Five-tuple analog over ground literals: the trail kernel over instance positions."""

    problem: GroundProblem
    conflict: int | None = None  # instance position
    learned: list[Clause] = field(default_factory=list)
    stats: SclStats = field(default_factory=SclStats)
    events: list[tuple] = field(default_factory=list)

    @classmethod
    def from_problem(cls, problem: GroundProblem) -> "SclState":
        state = cls(problem=problem)
        state.stats.instances = len(problem.instances)
        state.reclassify(range(len(problem.instances)))
        return state

    def reclassify(self, positions: Iterable[int]) -> None:
        """Hook the instances at the positions into the kernel, which classifies them from then on."""
        instances = self.problem.instances
        for pos in positions:
            self.watch(pos, instances[pos].lits)

    def unit_key(self, pos: int, lit: int) -> tuple:
        # smallest ground atom first; positive before negative; then clause id and substitution
        inst = self.problem.instances[pos]
        return abs(lit), lit < 0, inst.clause_id, inst.subst

    def literal_str(self, lit: int) -> str:
        atom = self.problem.atoms[abs(lit) - 1]
        return str(atom) if lit > 0 else "-" + str(atom)


def scl_propagate(state: SclState, trail_cap: int = DEFAULT_TRAIL_CAP) -> SclState:
    """Exhaustive ground propagation, smallest ground literal first; eager conflicts.

    The conflict is the false instance smallest in (clause id, substitution).
    """
    if state.conflict is not None:
        raise ValueError("cannot propagate with a pending conflict")
    while not state.false_ids:
        unit = state.pop_unit()
        if unit is None:
            return state
        if len(state.trail) >= trail_cap:
            raise ResourceLimitError(f"trail length exceeds the cap of {trail_cap}")
        pos, lit = unit
        state.assign(lit, pos)
        state.stats.propagations += 1
        state.stats.trail = max(state.stats.trail, len(state.trail))
        state.events.append(("propagate", lit, pos))
    instances = state.problem.instances
    state.conflict = min(state.false_ids, key=lambda p: (instances[p].clause_id, instances[p].subst))
    state.stats.conflicts += 1
    state.events.append(("conflict", state.conflict))
    return state


@dataclass
class SclSat:
    model: tuple[Atom, ...]
    stats: SclStats
    state: SclState


@dataclass
class SclUnsat:
    conflict_clause_id: int
    conflict_subst: str
    stats: SclStats
    state: SclState


@dataclass
class SclResourceExceeded:
    stats: SclStats
    state: SclState | None


def _learn_ground(state: SclState, learned_lits: tuple[int, ...]) -> int:
    """Add a learned ground clause as a clause and an instance, hooked; return its position."""
    problem = state.problem
    new_id = max(problem.clauses) + 1
    clause = Clause(new_id, tuple(Literal(l > 0, problem.atoms[abs(l) - 1]) for l in learned_lits))
    problem.clauses[new_id] = clause
    state.learned.append(clause)
    problem.instances.append(GroundInstance(new_id, (), learned_lits))
    state.stats.instances = len(problem.instances)
    pos = len(problem.instances) - 1
    state.reclassify([pos])
    return pos


def scl_run(
    clauses: Iterable[Clause],
    domain: Iterable[Constant] | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    trail_cap: int = DEFAULT_TRAIL_CAP,
) -> SclSat | SclUnsat | SclResourceExceeded:
    """Propagate/decide until a total Herbrand model or a level-0 conflict.

    Decisions take the smallest undefined ground atom, positive polarity.
    Conflicts above level 0 go through ground 1UIP analysis and backjumping.
    """
    try:
        problem = ground_problem(clauses, domain, instance_cap)
    except ResourceLimitError:
        return SclResourceExceeded(stats=SclStats(), state=None)
    state = SclState.from_problem(problem)
    while True:
        try:
            scl_propagate(state, trail_cap)
        except ResourceLimitError:
            state.events.append(("resource",))
            return SclResourceExceeded(stats=state.stats, state=state)
        if state.conflict is not None:
            inst = problem.instances[state.conflict]
            if state.level == 0:
                state.events.append(("unsat",))
                return SclUnsat(
                    conflict_clause_id=inst.clause_id,
                    conflict_subst=inst.subst_str(),
                    stats=state.stats,
                    state=state,
                )
            learned, blevel, _steps = resolve_1uip(
                state, inst.lits, lambda pos: problem.instances[pos].lits
            )
            state.conflict = None
            state.truncate(blevel)
            pos = _learn_ground(state, learned)
            state.assign(next(l for l in learned if abs(l) not in state.value), pos)
            state.events.append(("learn", learned, blevel))
        elif len(state.value) == len(problem.atoms):
            model = tuple(
                problem.atoms[i] for i in range(len(problem.atoms)) if state.value[i + 1]
            )
            state.events.append(("sat",))
            return SclSat(model=model, stats=state.stats, state=state)
        else:
            atom = next(i for i in range(1, len(problem.atoms) + 1) if i not in state.value)
            state.level += 1
            state.assign(atom, None)
            state.stats.decisions += 1
            state.events.append(("decide", atom, state.level))


_LINES = {
    "propagate": "propagate {lit} <- clause {clause} σ={subst}",
    "conflict": "conflict clause {clause} σ={subst}",
    "decide": "decide {lit} @{level}",
    "learn": "learn {clause} backjump {backjump}",
}


_VERDICTS = {SclSat: "s SATISFIABLE", SclUnsat: "s UNSATISFIABLE", SclResourceExceeded: "s RESOURCE-EXCEEDED"}


def render(result: SclSat | SclUnsat | SclResourceExceeded) -> Iterator[tuple[str, dict]]:
    """The output of a run, one (text line, JSON fields) pair per line: trace, stats, verdict.

    A run stopped by the instance cap has no state, so only its verdict line.
    """
    state = result.state
    if state is not None:
        for kind, *args in state.events:
            if kind in ("propagate", "conflict"):
                inst = state.problem.instances[args[-1]]
                fields = {"clause": inst.clause_id, "subst": inst.subst_str()}
                if kind == "propagate":
                    fields["lit"] = state.literal_str(args[0])
            elif kind == "decide":
                fields = {"lit": state.literal_str(args[0]), "level": args[1]}
            elif kind == "learn":
                fields = {"clause": " | ".join(state.literal_str(l) for l in args[0]), "backjump": args[1]}
            else:
                continue
            yield _LINES[kind].format(**fields), {"event": "scl", "kind": kind, **fields}
        s = state.stats
        yield (f"stats propagations={s.propagations} decisions={s.decisions} trail={len(state.trail)}",
               {"event": "scl", "kind": "stats"})
    yield _VERDICTS[type(result)], {"event": "result"}
