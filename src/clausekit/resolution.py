"""Ordered resolution with selection for BS clauses.

Binary resolution requires an eligible positive side-literal (nothing selected
in its clause, maximal under the ordering after unification) and an eligible
negative literal (selected, or maximal when nothing is selected).  A
`ClauseRecord` holds what resolution reads of a clause, computed once: its
selected index, its literals that are maximal before instantiation, the
(sign, predicate, arity) keys of its eligible literals, the constant of each
argument position, and its variables.  Two literals that hold different
constants at one position are never handed to `unify`.  An inference builds
only the negative premise's resolved atom renamed apart, instantiates a
premise only where a maximality check reads it (never a one-literal premise,
which is maximal in every instance), and builds its canonical conclusion in
one walk over the premises' own literals with `canonical_instance`.
Saturation runs a FIFO given-clause loop with tautology deletion, and its
result's verdict is "unsat", "saturated" or "limit".  Two indexes serve it:
the partner index files each active clause under its eligible keys, so the
given clause meets only the clauses filed under a complementary key, and
forward and backward subsumption take their candidates from a
`SubsumptionIndex` of ground literals and literal keys.  Replay executes
scripted resolutions without eligibility checks.  `render` gives the output
lines of either run.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ReplayStepError
from .jsonl import event_line, json_line
from .logic import (
    Atom,
    Clause,
    Constant,
    Literal,
    Substitution,
    Variable,
    apart_renaming,
    canonical_instance,
    clauses_by_id,
    match_atoms,
    substitute,
    unify,
)
from .logic import rename_apart  # noqa: F401  perfbench/tracer.py counts calls through this name
from .ordering import OrderingConfig, literal_is_maximal


# ---------------------------------------------------------------------------
# Selection strategies
# ---------------------------------------------------------------------------


def no_selection(clause: Clause) -> int | None:
    return None


def first_negative(clause: Clause) -> int | None:
    for i, lit in enumerate(clause.literals):
        if not lit.positive:
            return i
    return None


Selection = Callable[[Clause], int | None]  # the index of the selected literal, if any
SELECTIONS: dict[str, Selection] = {"none": no_selection, "first-negative": first_negative}


# ---------------------------------------------------------------------------
# Inference records
# ---------------------------------------------------------------------------


class InputRule(NamedTuple):
    def __str__(self) -> str:
        return "[Input]"


class ResolutionRule(NamedTuple):
    positive_parent: int
    positive_index: int  # 1-based literal positions, derivation-log style
    negative_parent: int
    negative_index: int
    unifier: Substitution

    def __str__(self) -> str:
        return (
            f"[Res {self.positive_parent}.{self.positive_index} "
            f"{self.negative_parent}.{self.negative_index}]"
        )


class FactoringRule(NamedTuple):
    parent: int
    kept_index: int
    merged_index: int
    unifier: Substitution

    def __str__(self) -> str:
        return f"[Fact {self.parent}.{self.kept_index} {self.parent}.{self.merged_index}]"


Rule = InputRule | ResolutionRule | FactoringRule


class DerivedClause(NamedTuple):
    clause: Clause
    rule: Rule


def _renamed(atom: Atom, renaming: dict[Variable, Variable]) -> Atom:
    if not renaming:
        return atom
    return Atom(atom.predicate, tuple([renaming.get(a, a) for a in atom.args]))


def _without(literals: tuple[Literal, ...], k: int) -> tuple[Literal, ...]:
    return literals[:k] + literals[k + 1:]


class ClauseRecord:
    """What resolution and factoring read of a clause, computed once.

    `maximal` holds the literals that no other literal of the clause exceeds
    (a one-literal clause's literal, without a comparison).  A KBO `GT`
    between two literals survives every substitution, so the other literals
    are not maximal in any instance either.  `positive` and
    `negative` index the literals that may be resolved on, `keys` holds the
    (predicate, arity) of each literal, `constants` each literal's arguments
    with None for a variable, `eligible` the (sign, key) pairs of
    the literals that may be resolved on, under which saturation files an
    active clause, and `variables` the clause's variables in order of first
    occurrence.
    """

    __slots__ = (
        "clause", "selected", "maximal", "positive", "negative", "keys", "constants", "eligible", "variables"
    )

    def __init__(self, clause: Clause, cfg: OrderingConfig, sel: Selection):
        lits = clause.literals
        self.clause = clause
        self.selected = sel(clause)
        if len(lits) == 1:
            self.maximal = (0,)
        else:
            self.maximal = tuple(i for i in range(len(lits)) if literal_is_maximal(clause, i, cfg))
        if self.selected is None:
            self.positive = tuple(i for i in self.maximal if lits[i].positive)
            self.negative = tuple(i for i in self.maximal if not lits[i].positive)
        else:  # a clause with a selected literal is never the positive premise
            self.positive = ()
            self.negative = () if lits[self.selected].positive else (self.selected,)
        self.keys = tuple((l.atom.predicate, len(l.atom.args)) for l in lits)
        self.constants = tuple(
            tuple(t if isinstance(t, Constant) else None for t in l.atom.args) for l in lits
        )
        self.eligible = {(True, self.keys[i]) for i in self.positive}
        self.eligible.update((False, self.keys[j]) for j in self.negative)
        self.variables = clause.variables()


def _resolvents(a: ClauseRecord, b: ClauseRecord, cfg: OrderingConfig) -> list[DerivedClause]:
    """All ordered resolvents between two clauses, `a` as the positive premise first.

    Pairs of literals that hold different constants at some argument
    position cannot unify and are dropped before renaming.  The negative
    premise's variables are renamed apart from the positive premise's as
    `rename_apart` would rename them, but only its resolved atom is built
    renamed.  A premise instance is built only for a maximality check, and
    a one-literal premise needs none.
    """
    out: list[DerivedClause] = []
    for pos, neg in ((a, b), (b, a)):
        pairs = []
        for i in pos.positive:
            key, first = pos.keys[i], pos.constants[i]
            for j in neg.negative:
                if neg.keys[j] != key:
                    continue
                for c, d in zip(first, neg.constants[j]):
                    if c is not d and c is not None and d is not None:  # constants are interned
                        break
                else:
                    pairs.append((i, j))
        if pairs:
            positive, negative = pos.clause, neg.clause
            renaming = apart_renaming({v.name for v in pos.variables}, neg.variables)
            for i, j in pairs:
                sigma = unify(positive.literals[i].atom, _renamed(negative.literals[j].atom, renaming))
                if sigma is None:
                    continue
                # a-posteriori eligibility in the instantiated premises
                pos_map = sigma.after({})
                if len(positive) > 1 and not literal_is_maximal(substitute(positive, pos_map), i, cfg):
                    continue
                neg_map = sigma.after(renaming)
                if neg.selected is None and len(negative) > 1 and not literal_is_maximal(
                    substitute(negative, neg_map), j, cfg
                ):
                    continue
                conclusion = canonical_instance(
                    0, ((_without(positive.literals, i), pos_map), (_without(negative.literals, j), neg_map))
                )
                out.append(DerivedClause(conclusion, ResolutionRule(positive.id, i + 1, negative.id, j + 1, sigma)))
        if a.clause.id == b.clause.id:
            break  # self-resolution: one role pass suffices
    return out


def _factors(record: ClauseRecord, cfg: OrderingConfig) -> list[DerivedClause]:
    out: list[DerivedClause] = []
    clause = record.clause
    lits = clause.literals
    for i in record.maximal:
        if not lits[i].positive:
            continue
        for j in range(i + 1, len(lits)):
            if not lits[j].positive or record.keys[j] != record.keys[i]:
                continue
            sigma = unify(lits[i].atom, lits[j].atom)
            if sigma is None:
                continue
            bindings = sigma.after({})
            if not literal_is_maximal(substitute(clause, bindings), i, cfg):
                continue
            conclusion = canonical_instance(0, ((_without(lits, j), bindings),))
            out.append(DerivedClause(conclusion, FactoringRule(clause.id, i + 1, j + 1, sigma)))
    return out


def subsumes(general: Clause, specific: Clause) -> bool:
    """Whether some substitution makes `general` a sub-multiset of `specific`."""
    if len(general) > len(specific):
        return False

    def walk(i: int, env: dict, used: frozenset[int]) -> bool:
        if i == len(general.literals):
            return True
        lit = general.literals[i]
        for j, target in enumerate(specific.literals):
            if j in used or target.positive != lit.positive:
                continue
            env2 = match_atoms(lit.atom, target.atom, env)
            if env2 is not None and walk(i + 1, env2, used | {j}):
                return True
        return False

    return walk(0, {}, frozenset())


def _anchors(clause: Clause) -> list:
    """The clause's ground literals, then its literals' (sign, predicate, arity), no repeats.

    A clause that subsumes another holds no anchor that the other one lacks,
    because a ground literal matches only itself.  The empty clause has `()`.
    """
    if not clause.literals:
        return [()]
    ground = [l for l in clause.literals if l.atom.is_ground()]
    keys = [(l.positive, l.atom.predicate, len(l.atom.args)) for l in clause.literals]
    return list(dict.fromkeys(ground + keys))


class SubsumptionIndex:
    """The retained clauses, filed by anchor, to draw subsumption candidates from.

    A clause can subsume only clauses that hold all of its anchors.  So
    `forward` files a clause under its first anchor alone, and a new clause
    looks up each anchor it holds to find the clauses that may subsume it;
    `backward` files a clause under each anchor it holds, and a new clause
    looks up its own anchor with the fewest clauses to find the clauses it
    may subsume.  Every method but `remove` takes the clause's `_anchors`,
    computed once by the caller, and the index keeps those of each filed
    clause to remove it.
    """

    def __init__(self) -> None:
        self.forward: defaultdict[object, dict[int, Clause]] = defaultdict(dict)
        self.backward: defaultdict[object, dict[int, Clause]] = defaultdict(dict)
        self.anchors: dict[int, list] = {}

    def add(self, clause: Clause, anchors: list) -> None:
        self.anchors[clause.id] = anchors
        self.forward[anchors[0]][clause.id] = clause
        for anchor in anchors:
            self.backward[anchor][clause.id] = clause

    def remove(self, clause: Clause) -> None:
        anchors = self.anchors.pop(clause.id)
        del self.forward[anchors[0]][clause.id]
        for anchor in anchors:
            del self.backward[anchor][clause.id]

    def any_subsumes(self, clause: Clause, anchors: list) -> bool:
        """Whether a filed clause subsumes the non-empty `clause`."""
        return any(
            subsumes(old, clause)
            for anchor in [(), *anchors]
            for old in self.forward.get(anchor, {}).values()
        )

    def subsumed_by(self, clause: Clause, anchors: list) -> list[Clause]:
        """The filed clauses that the non-empty `clause` subsumes."""
        bucket = min((self.backward.get(anchor, {}) for anchor in anchors), key=len)
        return [old for old in bucket.values() if subsumes(clause, old)]


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


class SaturationResult(NamedTuple):
    verdict: str  # "unsat" | "saturated" | "limit"
    generated: int
    kept: int
    subsumed: int
    tautologies: int
    clauses: list[Clause]  # clauses retained at the end
    derivations: dict[int, DerivedClause]
    proof: list[DerivedClause] | None


def _extract_proof(
    bottom: DerivedClause,
    derivations: Mapping[int, DerivedClause],
    inputs: Mapping[int, Clause],
) -> list[DerivedClause]:
    """Ancestor closure of the empty clause, ordered by clause id."""
    needed: dict[int, DerivedClause] = {bottom.clause.id: bottom}
    queue = [bottom]
    while queue:
        d = queue.pop()
        rule = d.rule
        if isinstance(rule, ResolutionRule):
            parents = [rule.positive_parent, rule.negative_parent]
        elif isinstance(rule, FactoringRule):
            parents = [rule.parent]
        else:
            parents = []
        for pid in parents:
            if pid in needed:
                continue
            record = derivations.get(pid) or DerivedClause(inputs[pid], InputRule())
            needed[pid] = record
            queue.append(record)
    return [needed[i] for i in sorted(needed)]


def saturate(
    clauses: Iterable[Clause],
    cfg: OrderingConfig,
    sel: Selection,
    max_generated: int = 100_000,
) -> SaturationResult:
    """Given-clause loop, FIFO by clause id, with subsumption and tautology deletion.

    Clauses are given in id order, so the active clauses, kept by id, are in
    the order they were activated.  The given clause meets the active clauses
    filed under a complementary eligible key, itself included, in that order.
    An empty input clause, once given, is its own one-record proof.  The run
    stops with "limit" before it would generate clause max_generated + 1.
    Two input clauses with one id are a ValueError.
    """
    inputs = clauses_by_id(clauses)
    passive: deque[Clause] = deque(inputs[i] for i in sorted(inputs))
    active: dict[int, ClauseRecord] = {}
    partner_index: defaultdict[tuple, dict[int, ClauseRecord]] = defaultdict(dict)
    index = SubsumptionIndex()  # a clause is live exactly while the index holds it
    for c in passive:
        index.add(c, _anchors(c))
    derivations: dict[int, DerivedClause] = {}
    first_derived = next_id = max(inputs, default=0) + 1
    generated = subsumed = tautologies = 0

    def remove(clause: Clause) -> None:
        index.remove(clause)
        record = active.pop(clause.id, None)
        if record is not None:
            for key in record.eligible:
                del partner_index[key][clause.id]

    def result(verdict: str, proof: list[DerivedClause] | None = None) -> SaturationResult:
        retained = [r.clause for r in active.values()]
        retained += [c for c in passive if c.id in index.anchors]
        return SaturationResult(
            verdict, generated, next_id - first_derived, subsumed, tautologies, retained, derivations, proof
        )

    while passive:
        given = passive.popleft()
        if given.id not in index.anchors:
            continue
        if given.is_empty:
            return result("unsat", [DerivedClause(given, InputRule())])
        if given.is_tautology():
            tautologies += 1
            remove(given)
            continue
        record = active[given.id] = ClauseRecord(given, cfg, sel)
        for key in record.eligible:
            partner_index[key][given.id] = record
        partners: dict[int, ClauseRecord] = {}
        for sign, key in record.eligible:
            partners.update(partner_index.get((not sign, key), {}))
        batch: list[DerivedClause] = []
        for pid in sorted(partners):
            batch.extend(_resolvents(record, partners[pid], cfg))
        batch.extend(_factors(record, cfg))
        for derived in batch:
            if generated >= max_generated:
                return result("limit")
            generated += 1
            conclusion = derived.clause
            if conclusion.is_empty:
                bottom = DerivedClause(Clause(next_id), derived.rule)
                derivations[next_id] = bottom
                return result("unsat", _extract_proof(bottom, derivations, inputs))
            if conclusion.is_tautology():
                tautologies += 1
                continue
            anchors = _anchors(conclusion)
            if index.any_subsumes(conclusion, anchors):
                subsumed += 1
                continue
            for old in index.subsumed_by(conclusion, anchors):
                remove(old)
                subsumed += 1
            clause = Clause(next_id, conclusion.literals)
            derivations[next_id] = DerivedClause(clause, derived.rule)
            passive.append(clause)
            index.add(clause, anchors)
            next_id += 1
    return result("saturated")


# ---------------------------------------------------------------------------
# Scripted replay and the generalized linear counter refutation
# ---------------------------------------------------------------------------

ScriptStep = tuple[int, int, int, int]  # left id, left pos, right id, right pos (1-based)


def replay(
    clauses: Iterable[Clause], script: Sequence[ScriptStep], cfg: OrderingConfig | None = None
) -> list[DerivedClause]:
    """Execute scripted resolutions verbatim, ignoring ordering eligibility unless cfg is given.

    The negative premise is renamed apart from the positive one, so the
    recorded unifier applies to both premises; the conclusion lists the left
    premise's remaining literals before the right one's.  Fails loudly
    (ReplayStepError naming the step) when ids/positions are bad or the
    scripted literals are not complementary unifiable, and with ValueError
    when two input clauses share an id.  With cfg, a step that does not
    resolve the first negative literal of its negative premise, or whose
    positive literal is not maximal in its instantiated premise, fails with
    ValueError.
    """
    by_id = clauses_by_id(clauses)
    next_id = max(by_id, default=0) + 1
    out: list[DerivedClause] = []
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
        positive, negative = by_id[pid], by_id[nid]
        renaming = apart_renaming({v.name for v in positive.variables()}, negative.variables())
        sigma = unify(positive.literals[pi - 1].atom, _renamed(negative.literals[ni - 1].atom, renaming))
        if sigma is None:
            raise ReplayStepError(no, "literals do not unify")
        if cfg is not None:
            if ni - 1 != first_negative(negative):
                raise ValueError(f"step deriving clause {next_id} does not resolve the first negative literal")
            if len(positive) > 1 and not literal_is_maximal(sigma.apply_clause(positive), pi - 1, cfg):
                raise ValueError(f"step deriving clause {next_id} has a non-maximal positive literal")
        sides = (
            (_without(positive.literals, pi - 1), sigma.after({})),
            (_without(negative.literals, ni - 1), sigma.after(renaming)),
        )
        conclusion = canonical_instance(next_id, sides if left_positive else sides[::-1])
        by_id[next_id] = conclusion
        out.append(DerivedClause(conclusion, ResolutionRule(pid, pi, nid, ni, sigma)))
        next_id += 1
    return out


def linear_counter_script(n: int) -> list[ScriptStep]:
    """The linear refutation of counter_problem(n), generalized from 4 bits.

    Alternates power-jump and fill compositions, one pair per bit, then closes
    with the start unit and the negated final value: 2n steps in total.
    """
    if n < 1:
        raise ValueError("n must be positive")
    steps: list[ScriptStep] = []
    fill = 2  # clause id of the one-bit carry clause, the 1-bit fill
    next_id = n + 3
    for i in range(2, n + 1):
        steps.append((fill, 2, i + 1, 1))  # power jump for bit i
        jump = next_id
        next_id += 1
        steps.append((jump, 2, fill, 1))  # fill the i low bits
        fill = next_id
        next_id += 1
    steps.append((fill, 1, 1, 1))  # resolve the full jump against the start unit
    unit = next_id
    steps.append((unit, 1, n + 2, 1))  # and against the negated final value
    return steps


def check_linear_refutation(
    clauses: Iterable[Clause], script: Sequence[ScriptStep], cfg: OrderingConfig
) -> list[DerivedClause]:
    """Replay a script, checking two ordering conditions per step, and require it to end in ⊥.

    Every step must resolve the first negative literal of its negative premise,
    and the positive side-literal must be maximal in its premise instantiated
    by the step's recorded unifier (`replay` with cfg).  That the positive
    premise has no selected literal, as `ClauseRecord` requires of a positive
    premise in saturation, is not checked: on counter n, 2n - 2 of the 2n
    steps of `linear_counter_script` have a positive premise with a negative
    literal.
    """
    derived = replay(clauses, script, cfg)
    if not derived or not derived[-1].clause.is_empty:
        raise ValueError("script does not end in the empty clause")
    return derived


def render(result: SaturationResult | list[DerivedClause], as_json: bool) -> list[str]:
    """The output lines of a saturation or a replay, as text or as JSON objects.

    One line per derived clause in id order, then the verdict line.  A
    derived line's JSON object holds the text line and the event "derived";
    the verdict's holds the event "result", and a saturation's also its
    `generated` and `kept` counts.
    """
    if isinstance(result, SaturationResult):
        derived = result.derivations.values()
        if result.verdict == "saturated":
            verdict = f"Saturated({len(result.clauses)})"
        else:
            verdict = "Unsat" if result.verdict == "unsat" else "LimitReached"
        counts = {"generated": result.generated, "kept": result.kept}
    else:
        derived = result
        verdict = "Unsat" if result and result[-1].clause.is_empty else f"Replayed({len(result)})"
        counts = {}
    lines = [f"{d.clause.id} : {d.clause}  {d.rule}" for d in derived]
    if not as_json:
        return [line + "\n" for line in lines] + [verdict + "\n"]
    out = [event_line("derived", line) for line in lines]
    out.append(json_line({"line": verdict, "event": "result", **counts}) if counts else event_line("result", verdict))
    return out
