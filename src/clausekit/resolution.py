"""Ordered resolution with selection for BS clauses.

Binary resolution requires an eligible positive side-literal (nothing selected
in its clause, maximal under the ordering after unification) and an eligible
negative literal (selected, or maximal when nothing is selected).  Saturation
runs a FIFO given-clause loop with forward/backward subsumption and tautology
deletion.  Replay executes scripted resolutions without eligibility checks.
`render` gives the output lines of either run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ReplayStepError
from .logic import (
    Clause,
    Literal,
    Substitution,
    canonical_variant,
    match_atoms,
    rename_apart,
    unify,
)
from .ordering import OrderingConfig, literal_is_maximal


# ---------------------------------------------------------------------------
# Selection strategies
# ---------------------------------------------------------------------------


class SelectNone:
    name = "none"

    def selected_index(self, clause: Clause) -> int | None:
        return None


class SelectFirstNegative:
    name = "first-negative"

    def selected_index(self, clause: Clause) -> int | None:
        for i, lit in enumerate(clause.literals):
            if not lit.positive:
                return i
        return None


SelectionStrategy = SelectNone | SelectFirstNegative


def selection_from_name(name: str) -> SelectionStrategy:
    if name == "none":
        return SelectNone()
    if name == "first-negative":
        return SelectFirstNegative()
    raise ValueError(f"unknown selection strategy {name!r}")


# ---------------------------------------------------------------------------
# Inference records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputRule:
    def __str__(self) -> str:
        return "[Input]"


@dataclass(frozen=True)
class ResolutionRule:
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


@dataclass(frozen=True)
class FactoringRule:
    parent: int
    kept_index: int
    merged_index: int
    unifier: Substitution

    def __str__(self) -> str:
        return f"[Fact {self.parent}.{self.kept_index} {self.parent}.{self.merged_index}]"


Rule = InputRule | ResolutionRule | FactoringRule


@dataclass(frozen=True)
class DerivedClause:
    clause: Clause
    rule: Rule


def _conclusion(
    first: Clause, first_idx: int, second: Clause, second_idx: int, sigma: Substitution
) -> tuple[Literal, ...]:
    rest = [l for i, l in enumerate(first.literals) if i != first_idx]
    rest += [l for i, l in enumerate(second.literals) if i != second_idx]
    return tuple(sigma.apply_literal(l) for l in rest)


def ordered_resolve(
    c1: Clause, c2: Clause, cfg: OrderingConfig, sel: SelectionStrategy
) -> list[DerivedClause]:
    """All ordered resolvents between the two clauses (either role assignment)."""
    out: list[DerivedClause] = []
    for positive, negative in ((c1, c2), (c2, c1)):
        if sel.selected_index(positive) is not None:
            continue  # the positive premise must have nothing selected
        pos_r, neg_r = rename_apart(positive, negative)
        neg_selected = sel.selected_index(negative)
        for i, pl in enumerate(pos_r.literals):
            if not pl.positive:
                continue
            for j, nl in enumerate(neg_r.literals):
                if nl.positive:
                    continue
                if neg_selected is not None and j != neg_selected:
                    continue
                sigma = unify(pl.atom, nl.atom)
                if sigma is None:
                    continue
                # a-posteriori eligibility in the instantiated premises
                if not literal_is_maximal(sigma.apply_clause(pos_r), i, cfg):
                    continue
                if neg_selected is None and not literal_is_maximal(
                    sigma.apply_clause(neg_r), j, cfg
                ):
                    continue
                conclusion = canonical_variant(
                    Clause(0, _conclusion(pos_r, i, neg_r, j, sigma))
                )
                out.append(
                    DerivedClause(
                        conclusion,
                        ResolutionRule(positive.id, i + 1, negative.id, j + 1, sigma),
                    )
                )
        if c1 is c2 or c1.id == c2.id:
            break  # self-resolution: one role pass suffices
    return out


def factor(clause: Clause, cfg: OrderingConfig) -> list[DerivedClause]:
    """Positive factoring: merge unifiable positive literals, first one maximal."""
    out: list[DerivedClause] = []
    lits = clause.literals
    for i in range(len(lits)):
        if not lits[i].positive:
            continue
        for j in range(i + 1, len(lits)):
            if not lits[j].positive:
                continue
            sigma = unify(lits[i].atom, lits[j].atom)
            if sigma is None:
                continue
            if not literal_is_maximal(sigma.apply_clause(clause), i, cfg):
                continue
            conclusion = canonical_variant(
                Clause(0, tuple(sigma.apply_literal(l) for k, l in enumerate(lits) if k != j))
            )
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


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


@dataclass
class SaturationResult:
    outcome: str  # "unsat" | "saturated" | "limit"
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
    sel: SelectionStrategy,
    max_generated: int = 100_000,
) -> SaturationResult:
    """Given-clause loop, FIFO by clause id, with subsumption and tautology deletion.

    An empty input clause, once given, is its own one-record proof.
    """
    inputs = {c.id: c for c in clauses}
    if len(inputs) == 0:
        return SaturationResult("saturated", 0, 0, 0, 0, [], {}, None)
    passive: deque[Clause] = deque(inputs[i] for i in sorted(inputs))
    active: list[Clause] = []
    removed: set[int] = set()
    derivations: dict[int, DerivedClause] = {}
    next_id = max(inputs) + 1
    generated = kept = subsumed = tautologies = 0

    def retained() -> Iterable[Clause]:
        for c in active:
            if c.id not in removed:
                yield c
        for c in passive:
            if c.id not in removed:
                yield c

    def result(outcome: str, proof: list[DerivedClause] | None = None) -> SaturationResult:
        return SaturationResult(
            outcome,
            generated,
            kept,
            subsumed,
            tautologies,
            list(retained()),
            derivations,
            proof,
        )

    while passive:
        given = passive.popleft()
        if given.id in removed:
            continue
        if given.is_empty:
            return result("unsat", [DerivedClause(given, InputRule())])
        if given.is_tautology():
            tautologies += 1
            removed.add(given.id)
            continue
        active.append(given)
        batch: list[DerivedClause] = []
        for partner in active:
            batch.extend(ordered_resolve(given, partner, cfg, sel))
        batch.extend(factor(given, cfg))
        for derived in batch:
            generated += 1
            conclusion = derived.clause
            if conclusion.is_empty:
                bottom = DerivedClause(Clause(next_id), derived.rule)
                derivations[next_id] = bottom
                return result("unsat", _extract_proof(bottom, derivations, inputs))
            if conclusion.is_tautology():
                tautologies += 1
                continue
            if any(subsumes(old, conclusion) for old in retained()):
                subsumed += 1
                continue
            for old in list(retained()):
                if subsumes(conclusion, old):
                    removed.add(old.id)
                    subsumed += 1
            record = DerivedClause(
                replace(conclusion, id=next_id), derived.rule
            )
            derivations[next_id] = record
            passive.append(record.clause)
            kept += 1
            next_id += 1
            if generated >= max_generated:
                return result("limit")
        active = [c for c in active if c.id not in removed]
    return result("saturated")


# ---------------------------------------------------------------------------
# Scripted replay and the generalized linear counter refutation
# ---------------------------------------------------------------------------

ScriptStep = tuple[int, int, int, int]  # left id, left pos, right id, right pos (1-based)


def replay(clauses: Iterable[Clause], script: Sequence[ScriptStep]) -> list[DerivedClause]:
    """Execute scripted resolutions verbatim, ignoring ordering eligibility.

    The negative premise is renamed apart from the positive one, so the
    recorded unifier applies to both premises; the conclusion lists the left
    premise's remaining literals before the right one's.  Fails loudly
    (ReplayStepError naming the step) when ids/positions are bad or the
    scripted literals are not complementary unifiable.
    """
    by_id = {c.id: c for c in clauses}
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
        positive, negative = rename_apart(by_id[pid], by_id[nid])
        sigma = unify(positive.literals[pi - 1].atom, negative.literals[ni - 1].atom)
        if sigma is None:
            raise ReplayStepError(no, "literals do not unify")
        sides = (positive, pi - 1, negative, ni - 1) if left_positive else (negative, ni - 1, positive, pi - 1)
        conclusion = canonical_variant(Clause(next_id, _conclusion(*sides, sigma)))
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
    """Replay a script and verify each step's ordering discipline.

    Every step must resolve the first negative literal of its negative premise,
    and the positive side-literal must be maximal in its premise instantiated
    by the step's recorded unifier.
    """
    by_id = {c.id: c for c in clauses}
    derived = replay(by_id.values(), script)
    by_id.update((d.clause.id, d.clause) for d in derived)
    for d in derived:
        rule = d.rule
        negative = by_id[rule.negative_parent]
        first_neg = next(
            (i + 1 for i, l in enumerate(negative.literals) if not l.positive), None
        )
        if rule.negative_index != first_neg:
            raise ValueError(
                f"step deriving clause {d.clause.id} does not resolve the first negative literal"
            )
        positive = rule.unifier.apply_clause(by_id[rule.positive_parent])
        if not literal_is_maximal(positive, rule.positive_index - 1, cfg):
            raise ValueError(
                f"step deriving clause {d.clause.id} has a non-maximal positive literal"
            )
    if not derived or not derived[-1].clause.is_empty:
        raise ValueError("script does not end in the empty clause")
    return derived


def render(result: SaturationResult | list[DerivedClause]) -> Iterator[tuple[str, dict]]:
    """The output of a saturation or a replay, one (text line, JSON fields) pair per line.

    One line per derived clause in id order, then the verdict line.
    """
    if isinstance(result, SaturationResult):
        derived = result.derivations.values()
        if result.outcome == "saturated":
            verdict = f"Saturated({len(result.clauses)})"
        else:
            verdict = "Unsat" if result.outcome == "unsat" else "LimitReached"
        fields = {"event": "result", "generated": result.generated, "kept": result.kept}
    else:
        derived = result
        verdict = "Unsat" if result and result[-1].clause.is_empty else f"Replayed({len(result)})"
        fields = {"event": "result"}
    for d in derived:
        yield f"{d.clause.id} : {d.clause}  {d.rule}", {"event": "derived"}
    yield verdict, fields
