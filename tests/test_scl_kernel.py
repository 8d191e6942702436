"""The SCL engine on the shared trail kernel against the rescanning engine it replaces."""

import dataclasses
import random

import pytest

from oracles import is_redundant, learn_orderings, reference_ground_problem, reference_render, reference_scl_run
from clausekit.cdcl import PropClause
from clausekit.formats import parse_bs
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.ordering import default_config
from clausekit.resolution import saturate, selection_from_name
from clausekit.scl import (
    FRESH_CONSTANT,
    GroundProblem,
    counter_problem,
    render,
    scl_run,
)

CONSTANTS = [Constant(n) for n in ("a", "b", "c")]
VARIABLES = [Variable(n) for n in ("x", "y", "z")]


def outcome(result, render_result):
    """Verdict, stats, rendered output with JSON fields (learned clauses included), trail and model.

    Trail reasons and the level-0 conflict are named by (clause id,
    substitution): instance positions differ, as the engine creates
    instances lazily.
    """
    state = result.state
    if result.verdict == "sat":
        verdict = result.model
    elif result.verdict == "unsat":
        conflict = state.problem.instances[state.conflict]
        verdict = (conflict.clause_id, conflict.subst_str())
    else:
        verdict = None
    stats = dataclasses.asdict(result.stats)
    rendered = list(render_result(result))
    if state is None:
        return result.verdict, verdict, stats, rendered
    instances = state.problem.instances
    return (
        result.verdict,
        verdict,
        stats,
        rendered,
        [
            (lit, level, None if reason is None else (instances[reason].clause_id, instances[reason].subst))
            for lit, level, reason in state.trail
        ],
    )


def same_run(clauses, domain=None, trail_cap=None):
    caps = {} if trail_cap is None else {"trail_cap": trail_cap}
    got = scl_run(clauses, domain, **caps)
    assert outcome(got, render) == outcome(reference_scl_run(clauses, domain, **caps), reference_render)
    return got


def random_bs(rng: random.Random) -> tuple[list[Clause], list[Constant] | None]:
    """Small BS sets.  Half are sparse: three predicates of arity 0-3, up to seven clauses
    of 0-4 literals, an explicit domain with an extra constant for some.  Half are dense:
    eight predicates of arity 0-1 and 32 clauses of two or three literals over the
    domain {a, b}, so that decisions run into conflicts and learn.  Repeated variables
    give repeated-literal and tautological instances."""
    dense = rng.random() < 0.5
    preds = "PQRSTUVW" if dense else "PQR"
    arity = {p: rng.randint(0, 1 if dense else 3) for p in preds}
    clauses = []
    for cid in range(1, (32 if dense else rng.randint(2, 7)) + 1):
        width = rng.randint(2, 3) if dense else rng.choices(range(5), weights=[1, 8, 8, 5, 2])[0]
        lits = []
        for _ in range(width):
            pred = rng.choice(preds)
            args = tuple(rng.choice(CONSTANTS[:2] + VARIABLES) for _ in range(arity[pred]))
            lits.append(Literal(rng.random() < 0.5, Atom(pred, args)))
        clauses.append(Clause(cid, tuple(lits)))
    if dense:
        return clauses, CONSTANTS[:2]
    if rng.random() < 0.3:
        used = {a for c in clauses for l in c.literals for a in l.atom.args if isinstance(a, Constant)}
        return clauses, sorted(used | {CONSTANTS[2]}, key=lambda c: c.name)
    return clauses, None


@pytest.mark.parametrize("n", range(1, 13))
def test_counter_matches_reference(n):
    # from n = 10 on, instance positions are not in (clause id, substitution) order
    for clauses in (counter_problem(n), counter_problem(n)[:-1]):
        result = same_run(clauses)
        assert result.stats.propagations == 2**n and result.stats.decisions == 0


def test_random_sets_match_reference():
    rng = random.Random(2019)
    kinds = {"sat": 0, "unsat": 0, "limit": 0}
    learned = repeated = tautological = explicit = fresh = 0
    while sum(kinds.values()) < 320:
        clauses, domain = random_bs(rng)
        result = same_run(clauses, domain)
        kinds[result.verdict] += 1
        learned += sum(ev[0] == "learn" for ev in result.state.events)
        explicit += domain is not None
        fresh += domain is None and result.state.problem.domain == (FRESH_CONSTANT,)
        reference = reference_ground_problem(clauses, domain)
        for inst in reference.instances:
            atoms = [abs(l) for l in inst.lits]
            repeated += len(inst.lits) < len(reference.clauses[inst.clause_id].literals)
            tautological += len(set(atoms)) < len(atoms)
    assert kinds["sat"] > 100 and kinds["unsat"] > 50
    assert learned > 50 and repeated > 50 and tautological > 50 and explicit > 50 and fresh > 5


def test_learned_clauses_are_non_redundant():
    # no learned clause follows from the ground instances and earlier learned clauses
    # below it in the trail ordering of its conflict; the dense sets do nearly all the learning
    rng = random.Random(2019)
    checked = 0
    for _ in range(320):
        clauses, domain = random_bs(rng)
        known = [PropClause(0, inst.lits) for inst in reference_ground_problem(clauses, domain).instances]
        for (_, lits, _level, _pos), ordering in learn_orderings(scl_run(clauses, domain).state.events):
            assert not is_redundant(lits, known, ordering)
            known.append(PropClause(0, lits))
            checked += 1
    assert checked > 50


def longest_trail(events) -> int:
    """The longest the trail grew in a run, replayed from its events; a learn backjumps, then asserts."""
    length = longest = 0
    starts = []  # the trail length at each decision
    for ev in events:
        if ev[0] == "learn":
            length = starts[ev[2]] + 1
            del starts[ev[2]:]
        elif ev[0] in ("propagate", "decide"):
            if ev[0] == "decide":
                starts.append(length)
            length += 1
            longest = max(longest, length)
    return longest


def test_trail_cap_boundaries_match_reference():
    rng = random.Random(7)
    cases = [(counter_problem(n), None) for n in (1, 3, 5)] + [(counter_problem(4)[:-1], None)]
    while len(cases) < 80:
        cases.append(random_bs(rng))
    exceeded = 0
    for clauses, domain in cases:
        result = scl_run(clauses, domain)
        for bound in {result.stats.propagations, longest_trail(result.state.events)}:
            for cap in range(max(bound - 1, 0), bound + 2):
                exceeded += same_run(clauses, domain, trail_cap=cap).verdict == "limit"
    assert exceeded > 60


def test_learning_example_matches_reference():
    result = same_run(parse_bs("-P(0) | P(1). -P(0) | -P(1). Q(0) | P(0). -Q(0) | P(0) | Q(1)."))
    assert any(ev[0] == "learn" for ev in result.state.events) and result.stats.decisions > 0


class TestOrderAmongInstances:
    # E(y,x) grounds y before x, so instance positions run x->b,y->a before x->a,y->b,
    # while the (clause id, substitution) order puts x->a,y->b first

    def test_unit_tie_goes_to_the_smallest_substitution(self):
        result = same_run(parse_bs("1 : E(a,b). 2 : E(b,a). 3 : -E(y,x) | T(c)."))
        assert "propagate T(c) <- clause 3 σ={x->a,y->b}" in [line for line, _ in render(result)]

    def test_conflict_is_the_smallest_false_instance(self):
        result = same_run(parse_bs("1 : E(a,b). 2 : E(b,a). 3 : T(c). 4 : -E(y,x) | -T(c)."))
        assert result.verdict == "unsat"
        lines = [line for line, _ in render(result)]
        assert lines[-3] == "conflict clause 4 σ={x->a,y->b}" and lines[-1] == "s UNSATISFIABLE"


def test_created_instances_are_unit_or_false(monkeypatch):
    # every instance, when the engine creates it, is unit on the literal the engine reports or
    # false under the trail of that moment, and equals the reference instance with the same
    # clause id and substitution
    rng = random.Random(99)
    cases = [(counter_problem(n), None) for n in (1, 4, 7)] + [random_bs(rng) for _ in range(300)]
    checked = []
    create = GroundProblem.instantiate

    def instantiate(problem, true, on_trail, false_lit=None):
        new = create(problem, true, on_trail, false_lit)
        for pos, unit in new:
            inst = problem.instances[pos]
            unassigned = [lit for lit in inst.lits if not (true[lit] or true[-lit])]
            assert unassigned == ([unit] if unit else [])
            assert all(true[-lit] for lit in inst.lits if lit != unit)
            assert false_lit is None or false_lit in inst.lits
            assert inst == reference[inst.clause_id, inst.subst]
            checked.append(inst)
        return new

    monkeypatch.setattr(GroundProblem, "instantiate", instantiate)
    for clauses, domain in cases:
        reference = {(i.clause_id, i.subst): i for i in reference_ground_problem(clauses, domain).instances}
        scl_run(clauses, domain)
    assert len(checked) > 3000
    assert sum(len(inst.lits) < len(inst.compiled.templates) for inst in checked if inst.compiled) > 50
    # both ways of creating an instance ran: from the matched atom alone, and by a join
    aligned = [inst.compiled.aligned for inst in checked if inst.compiled and len(inst.compiled.templates) > 1]
    assert aligned.count(True) > 500 and aligned.count(False) > 500


def horn_chain(rng: random.Random, k: int) -> list[Clause]:
    """The shape of the benchmark's sparse workload: about ten A facts over up to k constants,
    rules A -> B -> C -> D of three variables with shuffled arguments, and one derivable -D goal."""
    consts = [f"c{i:02d}" for i in range(k)]
    facts = sorted({tuple(rng.choice(consts) for _ in range(3)) for _ in range(10)} | {tuple(consts[:3])})
    variables = ["x1", "x2", "x3"]
    perms = [rng.sample(range(3), 3) for _ in range(3)]
    lines = [f"A({','.join(f)})." for f in facts]
    for (body, head), perm in zip(zip("ABC", "BCD"), perms):
        lines.append(f"-{body}({','.join(variables)}) | {head}({','.join(variables[p] for p in perm)}).")
    goal = list(rng.choice(facts))
    for perm in perms:
        goal = [goal[p] for p in perm]
    lines.append(f"-D({','.join(goal)}).")
    return parse_bs("\n".join(lines))


def test_horn_chains_create_few_instances():
    # eager grounding made 3 * k**3 rule instances; lazy grounding makes about one per propagation
    rng = random.Random(1)
    for k in range(8, 17):
        result = scl_run(horn_chain(rng, k))
        assert result.verdict == "unsat"
        assert len(result.state.problem.instances) <= 2 * result.stats.propagations


def test_constant_free_sets_agree_with_resolution():
    # the Herbrand universe of a set without constants holds one fresh constant
    rng = random.Random(5)
    verdicts = {"sat": 0, "unsat": 0}
    while min(verdicts.values()) < 25:
        clauses = []
        for cid in range(1, rng.randint(2, 5) + 1):
            lits = [
                Literal(rng.random() < 0.5, Atom(p, tuple(rng.choice(VARIABLES) for _ in range(arity))))
                for p, arity in rng.choices([("P", 1), ("Q", 2), ("R", 0)], k=rng.randint(1, 3))
            ]
            clauses.append(Clause(cid, tuple(lits)))
        result = scl_run(clauses)
        assert result.state.problem.domain == (FRESH_CONSTANT,)
        saturation = saturate(clauses, default_config(clauses), selection_from_name("none"))
        assert saturation.verdict == ("unsat" if result.verdict == "unsat" else "saturated")
        verdicts[result.verdict] += 1
    assert [line for line, _ in render(scl_run(parse_bs("P(x). -P(y).")))][-3:] == [
        f"conflict clause 2 σ={{y->{FRESH_CONSTANT.name}}}",
        "stats propagations=1 decisions=0 trail=1",
        "s UNSATISFIABLE",
    ]
