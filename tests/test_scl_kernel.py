"""The SCL engine on the shared trail kernel against the rescanning engine it replaces."""

import heapq
import io
import json
import random
import types

import pytest

from oracles import (
    bs_text,
    is_redundant,
    learn_orderings,
    reference_ground_problem,
    reference_render,
    reference_scl_run,
    reference_trigger_tree,
    replay_step,
)
from clausekit.cdcl import PropClause, TrailKernel
from clausekit.formats import parse_bs
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.ordering import default_config
from clausekit.resolution import no_selection, saturate
from clausekit import cdcl, cli, scl
from clausekit.scl import (
    FRESH_CONSTANT,
    SclState,
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
    stats = vars(result.stats)
    rendered = render_result(result)
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


def json_pairs(result) -> list[tuple[str, dict]]:
    """A run's JSON output lines as (text line, the other fields) pairs, as `reference_render` gives them."""
    return [(fields.pop("line"), fields) for fields in map(json.loads, render(result, True))]


def same_run(clauses, domain=None, trail_cap=None):
    caps = {} if trail_cap is None else {"trail_cap": trail_cap}
    got = scl_run(clauses, domain, **caps)
    assert outcome(got, json_pairs) == outcome(reference_scl_run(clauses, domain, **caps), reference_render)
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
    # below it in the trail ordering of its conflict; the dense sets do nearly all the learning.
    # Each learn's analysis resolves on the greatest atom in that ordering at every step and
    # replays to the learned clause; an "unsat" run's last analysis, at level 0, is not walked.
    rng = random.Random(2019)
    checked = steps = 0
    for _ in range(320):
        clauses, domain = random_bs(rng)
        result = scl_run(clauses, domain)
        instances = result.state.problem.instances
        known = [PropClause(0, inst.lits) for inst in reference_ground_problem(clauses, domain).instances]
        learns = learn_orderings(result.state.events)
        assert len(result.proof) == len(learns) + (result.verdict == "unsat")
        if result.verdict == "unsat":
            assert result.proof[-1] == (result.state.conflict, (), ())
        for ((_, lits, _level, pos), ordering), step in zip(learns, result.proof):
            assert replay_step(step, instances, ordering) == step.learned == lits == instances[pos].lits
            steps += len(step.steps)
            assert not is_redundant(lits, known, ordering)
            known.append(PropClause(0, lits))
            checked += 1
    assert checked > 50 and steps > 100


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


def ground_lines(result, clause_id: int) -> list[str]:
    """A run's trace lines that name the clause."""
    return [line for line in "".join(render(result, False)).splitlines() if f"clause {clause_id} " in line]


class TestClausesWithoutVariables:
    # each has its one instance from grounding, watched by the kernel, beside clauses with variables

    def test_duplicate_literals_merge_to_one(self):
        result = same_run(parse_bs("1 : P(a) | Q(b) | P(a). 2 : R(b) | R(b). 3 : -Q(x) | S(x). 4 : -S(b)."))
        instances = {inst.clause_id: inst for inst in result.state.problem.instances if inst.compiled is None}
        assert len(instances[1].lits) == 2 and len(instances[2].lits) == 1
        assert ground_lines(result, 1) == ["propagate P(a) <- clause 1 σ={}"]

    def test_a_tautology_has_no_instance(self):
        result = same_run(parse_bs("1 : P(a) | -P(a) | Q(b). 2 : -Q(x) | R(x). 3 : -R(b). 4 : P(x) | R(x)."))
        assert result.verdict == "sat"
        assert all(inst.clause_id != 1 for inst in result.state.problem.instances)

    def test_the_empty_clause_is_the_conflict(self):
        clauses = [*parse_bs("1 : P(a). 2 : -P(x) | Q(x)."), Clause(3, ())]
        result = same_run(clauses)
        assert result.verdict == "unsat" and result.stats.propagations == 0
        assert ground_lines(result, 3) == ["conflict clause 3 σ={}"]

    def test_a_0_ary_predicate_beside_clauses_with_variables(self):
        result = same_run(parse_bs("1 : R. 2 : -R | P(a). 3 : -P(x) | Q(x) | -R. 4 : -Q(y) | S. 5 : -S | T(b)."))
        assert result.verdict == "sat" and result.stats.propagations == 6
        assert ground_lines(result, 2) == ["propagate P(a) <- clause 2 σ={}"]

    def test_false_at_level_0(self):
        result = same_run(parse_bs("1 : P(a). 2 : Q(b). 3 : -P(a) | -Q(b) | -P(a). 4 : -P(x) | R(x)."))
        assert result.verdict == "unsat" and result.stats.decisions == 0
        assert ground_lines(result, 3) == ["conflict clause 3 σ={}"]

    def test_unit_only_after_a_decision_and_a_learned_clause(self):
        # deciding P(0) makes clause 2 false; the learned -P(0) makes clause 3 unit, then clause 4
        result = same_run(parse_bs("1 : -P(0) | P(1). 2 : -P(0) | -P(1). 3 : Q(0) | P(0). "
                                   "4 : -Q(0) | P(0) | Q(1). 5 : -Q(x) | R(x)."))
        lines = "".join(render(result, False)).splitlines()
        assert lines.index("learn -P(0) backjump 0") < lines.index("propagate Q(1) <- clause 4 σ={}")
        assert "propagate R(1) <- clause 5 σ={x->1}" in lines and result.verdict == "sat"


def test_trigger_trees_match_reference(monkeypatch):
    # every tree and subtree that grounding builds on this module's corpora equals the one that
    # counts each node's fixed positions one at a time
    build = scl._trigger_tree
    trees = 0

    def checked(entries, arity, d):
        nonlocal trees
        expected = reference_trigger_tree(entries, arity, d)
        tree = build(entries, arity, d)
        assert tree == expected
        trees += 1
        return tree

    monkeypatch.setattr(scl, "_trigger_tree", checked)
    rng = random.Random(41)
    cases = [(counter_problem(n), None) for n in range(1, 13)] + [(horn_chain(rng, k), None) for k in range(8, 17)]
    cases += [random_bs(rng) for _ in range(100)] + [(merge_chain(rng), None) for _ in range(50)]
    cases += [f(rng) for f in (swap_bs, wide_bs, pair_rich) for _ in range(50)]
    for clauses, domain in cases:
        scl.ground_problem(clauses, domain)
    assert trees > 3000


class TestOrderAmongInstances:
    # E(y,x) grounds y before x, so instance positions run x->b,y->a before x->a,y->b,
    # while the (clause id, substitution) order puts x->a,y->b first

    def test_unit_tie_goes_to_the_smallest_substitution(self):
        result = same_run(parse_bs("1 : E(a,b). 2 : E(b,a). 3 : -E(y,x) | T(c)."))
        assert "propagate T(c) <- clause 3 σ={x->a,y->b}\n" in render(result, False)

    def test_conflict_is_the_smallest_false_instance(self):
        result = same_run(parse_bs("1 : E(a,b). 2 : E(b,a). 3 : T(c). 4 : -E(y,x) | -T(c)."))
        assert result.verdict == "unsat"
        lines = "".join(render(result, False)).splitlines()
        assert lines[-3] == "conflict clause 4 σ={x->a,y->b}" and lines[-1] == "s UNSATISFIABLE"


def merge_chain(rng: random.Random) -> list[Clause]:
    """Three or four P literals of one sign whose variables form a chain, closed
    (P(x1,x2) | P(x2,x3) | P(x3,x1)) or open (P(x1,x2) | P(x2,x3) | P(x3,x4)), guarded by
    -R(x1); its negative twin; and ground R and P units that trigger both.  Once a literal
    is false, a later open literal can only share the first open one's atom, and it may
    hold a variable that neither that literal nor a false one binds."""
    consts = CONSTANTS[: rng.randint(2, 3)]
    clauses = []
    for positive in (True, False):
        k = rng.randint(3, 4)
        xs = [Variable(f"x{i}") for i in range(1, k + 2)]
        ends = xs[:k] + [xs[0]] if rng.random() < 0.5 else xs
        chain = [Literal(positive, Atom("P", (ends[i], ends[i + 1]))) for i in range(k)]
        clauses.append(Clause(len(clauses) + 1, (Literal(False, Atom("R", (xs[0],))), *chain)))
    for _ in range(rng.randint(1, 5)):
        pred, arity = rng.choice([("R", 1), ("P", 2)])
        atom = Atom(pred, tuple(rng.choice(consts) for _ in range(arity)))
        clauses.append(Clause(len(clauses) + 1, (Literal(rng.random() < 0.5, atom),)))
    return clauses


def swap_bs(rng: random.Random) -> tuple[list[Clause], list[Constant]]:
    """A set over 2-3 of the constants a, b, c, given as its domain: one or two clauses
    sP(v1,v2) | sP(v2,v1) of one sign s over two of x, y, z, in 30% of them with a third
    literal +-Q(v1); one to four P facts of random sign; and in half the sets a Q fact.  Two
    substitutions that swap v1 and v2 give one literal set, and first-occurrence order and
    substitution order disagree on which comes first when v2 sorts before v1."""
    consts = CONSTANTS[: rng.randint(2, 3)]
    clauses = []
    for _ in range(rng.randint(1, 2)):
        v1, v2 = rng.sample(VARIABLES, 2)
        positive = rng.random() < 0.5
        lits = [Literal(positive, Atom("P", (v1, v2))), Literal(positive, Atom("P", (v2, v1)))]
        if rng.random() < 0.3:
            lits.append(Literal(rng.random() < 0.5, Atom("Q", (v1,))))
        clauses.append(Clause(len(clauses) + 1, tuple(lits)))
    facts = [Atom("P", (rng.choice(consts), rng.choice(consts))) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        facts.append(Atom("Q", (rng.choice(consts),)))
    for atom in facts:
        clauses.append(Clause(len(clauses) + 1, (Literal(rng.random() < 0.5, atom),)))
    return clauses, consts


def test_swap_sets_match_reference():
    # engine and reference each keep every substitution of a clause whose instances share a
    # literal set, and break the tie in substitution order
    rng = random.Random(5)
    kinds = {"sat": 0, "unsat": 0, "limit": 0}
    shared = 0  # sets in which two instances of one clause hold one literal set
    for _ in range(300):
        clauses, domain = swap_bs(rng)
        result = same_run(clauses, domain)
        kinds[result.verdict] += 1
        sets = [(inst.clause_id, frozenset(inst.lits)) for inst in result.state.problem.instances]
        shared += len(set(sets)) < len(sets)
    assert kinds["sat"] > 50 and kinds["unsat"] > 50 and shared > 50


def test_created_instances_are_unit_or_false(monkeypatch):
    # every instance of a clause with variables, when the engine creates it, is unit on the literal
    # the engine reports or false under the trail of that moment, and equals the reference instance
    # with the same clause id and substitution; each clause without variables has the reference's
    # instance from grounding, or none if it is a tautology; each run's output matches the
    # reference engine's
    rng = random.Random(99)
    cases = [(counter_problem(n), None) for n in (1, 4, 7)] + [random_bs(rng) for _ in range(300)]
    cases += [(merge_chain(rng), None) for _ in range(80)]
    checked = []
    create = SclState.assign

    def assign(state, assigned, reason):
        problem, true, start = state.problem, state.true, len(state.problem.instances)
        create(state, assigned, reason)
        # each new instance with the literal it is queued on, or 0 if it is marked false
        units = {pos: lit for _, pos, lit in state.pending if pos >= start}
        new = [(pos, units.get(pos, 0)) for pos in range(start, len(problem.instances))]
        for pos, unit in new:
            assert unit or pos in state.false_ids
            inst = problem.instances[pos]
            unassigned = [lit for lit in inst.lits if not (true[lit] or true[-lit])]
            assert unassigned == ([unit] if unit else [])
            assert all(true[-lit] for lit in inst.lits if lit != unit)
            assert -assigned in inst.lits  # the literal that the trigger walk starts from
            ref = reference[inst.clause_id, inst.subst]
            assert (inst.clause_id, inst.subst, inst.lits) == (ref.clause_id, ref.subst, ref.lits)
            checked.append(inst)

    monkeypatch.setattr(SclState, "assign", assign)
    grounded = tautologies = 0
    for clauses, domain in cases:
        reference = {(i.clause_id, i.subst): i for i in reference_ground_problem(clauses, domain).instances}
        made = {inst.clause_id: inst for inst in same_run(clauses, domain).state.problem.instances
                if inst.compiled is None and inst.clause_id <= max(c.id for c in clauses)}
        for c in clauses:
            if not c.variables():
                lits = reference[c.id, ()].lits
                if any(-lit in lits for lit in lits):
                    assert c.id not in made
                    tautologies += 1
                else:
                    assert made[c.id] == (c.id, (), lits, None)
                    grounded += 1
    # the instances of clauses without variables are made at grounding, so fewer are created here
    assert len(checked) > 2000 and grounded > 2000 and tautologies > 200
    assert sum(len(inst.lits) < len(inst.compiled.templates) for inst in checked if inst.compiled) > 50
    # both ways of creating an instance ran: from the matched atom alone, and by a join; the
    # aligned ones are of clauses with variables only, as those without are watched
    aligned = [inst.compiled.aligned for inst in checked if inst.compiled and len(inst.compiled.templates) > 1]
    assert aligned.count(True) > 150 and aligned.count(False) > 500


def test_no_instance_is_pushed_while_it_is_on_the_heap(monkeypatch):
    # the corpus above; two templates of one merge clause can reach one instance in a
    # single trigger walk, and the walk pushes that instance's unit once; nor does the
    # kernel push a watched instance, such as one of a clause without variables, twice
    rng = random.Random(99)
    cases = [(counter_problem(n), None) for n in (1, 4, 7)] + [random_bs(rng) for _ in range(300)]
    cases += [(merge_chain(rng), None) for _ in range(80)]
    pushes, repeats = [], []

    def heappush(heap, entry):
        pushes.append(entry)
        if any(queued[1:] == entry[1:] for queued in heap):
            repeats.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(scl, "heapq", types.SimpleNamespace(heappush=heappush))
    monkeypatch.setattr(cdcl, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop,
                                                             heapify=heapq.heapify))
    for clauses, domain in cases:
        scl_run(clauses, domain)
    assert len(pushes) > 3000 and repeats == []


def test_aligned_shortcut_matches_the_join(monkeypatch):
    # the same runs with every clause with variables compiled unaligned, so that every instance
    # of one comes from _bind and _join and is hooked after the trigger walk, render the same
    # lines.  The aligned instances are pairs'; those of three or more literals, from clauses
    # that no alignment reaches, are joined in both runs
    rng = random.Random(23)
    cases = [(c, None) for n in range(1, 9) for c in (counter_problem(n), counter_problem(n)[:-1])]
    cases += [random_bs(rng) for _ in range(300)]
    results = [scl_run(c, d) for c, d in cases]
    created = [inst for r in results if r.state for inst in r.state.problem.instances if inst.compiled]
    assert sum(inst.compiled.aligned and len(inst.lits) == 2 for inst in created) > 500
    assert sum(len(inst.compiled.templates) > 2 for inst in created) > 500

    class Unaligned(scl._CompiledClause):
        def __init__(self, *args):
            super().__init__(*args)
            self.aligned = self.pair = False
            self.weights = tuple(len(self.names) ** j for j in reversed(range(self.slots)))

    monkeypatch.setattr(scl, "_CompiledClause", Unaligned)
    assert [render(scl_run(c, d), True) for c, d in cases] == [render(r, True) for r in results]


WIDE_ARITY = {"E": 2, "F": 3, "G": 1, "H": 2}


def wide_bs(rng: random.Random) -> tuple[list[Clause], list[Constant]]:
    """A BS set over 4 or 5 constants, given as its domain: ground unit facts, and clauses of
    1-3 literals over E/2, F/3, G/1 and H/2 whose variables x, y, z may occur in one literal only."""
    consts = [Constant(n) for n in "abcde"[: rng.randint(4, 5)]]
    clauses = []
    for cid in range(1, rng.randint(5, 9) + 1):
        ground = rng.random() < 0.4
        lits = []
        for _ in range(1 if ground else rng.randint(1, 3)):
            pred = rng.choice("EFGH")
            args = tuple(rng.choice(consts if ground else consts[:2] + VARIABLES) for _ in range(WIDE_ARITY[pred]))
            lits.append(Literal(rng.random() < 0.5, Atom(pred, args)))
        clauses.append(Clause(cid, tuple(lits)))
    return clauses, consts


def test_wide_domain_joins_match_reference(monkeypatch):
    # the general join ranges a template's unbound slots over the domain; here over 4-5 constants,
    # arity up to 3, and variables that no other literal of their clause binds
    ranged = 0
    join = scl.GroundProblem._join

    def counting_join(problem, clause, todo, i, *rest):
        nonlocal ranged
        ranged += i < len(todo) and bool(todo[i][1])  # the next template's free slots
        join(problem, clause, todo, i, *rest)

    monkeypatch.setattr(scl.GroundProblem, "_join", counting_join)
    rng = random.Random(2028)
    kinds = {"sat": 0, "unsat": 0, "limit": 0}
    lonely = 0  # clauses of two or more literals with a variable in one literal only
    for _ in range(100):
        clauses, domain = wide_bs(rng)
        kinds[same_run(clauses, domain).verdict] += 1
        for c in clauses:
            per_lit = [{a for a in lit.atom.args if isinstance(a, Variable)} for lit in c.literals]
            lonely += len(per_lit) > 1 and any(sum(v in s for s in per_lit) == 1 for s in per_lit for v in s)
    assert ranged > 1000 and kinds["unsat"] >= 10 and kinds["sat"] >= 50 and lonely > 100


def pair_rich(rng: random.Random) -> tuple[list[Clause], list[Constant]]:
    """A BS set over 2-5 constants (small domains more often), given as its domain: ground unit
    facts over E/2, F/3, G/1 and H/2, and clauses of two literals, one of which holds each of the
    clause's variables once, in shuffled order and sometimes beside constants.  The other literal
    holds any of those variables, repeated or not, and constants; on the same predicate it has the
    opposite sign, as in -E(x,y) | E(y,x), whose instance at x = y is a tautology."""
    consts = [Constant(n) for n in "abcde"[: min(rng.randint(2, 5), rng.randint(2, 5))]]
    clauses = []
    for _ in range(rng.randint(2, 6)):
        pred = rng.choice("EFGH")
        atom = Atom(pred, tuple(rng.choice(consts) for _ in range(WIDE_ARITY[pred])))
        clauses.append(Clause(len(clauses) + 1, (Literal(rng.random() < 0.7, atom),)))
    for _ in range(rng.randint(4, 8)):
        pred = rng.choice("EFGH")
        args = [rng.choice(consts) for _ in range(WIDE_ARITY[pred])]
        positions = rng.sample(range(len(args)), rng.randint(1, len(args)))
        variables = rng.sample(VARIABLES, len(positions))
        for p, v in zip(positions, variables):
            args[p] = v
        binding = Literal(rng.random() < 0.2, Atom(pred, tuple(args)))
        other = rng.choice("EFGH")
        positive = not binding.positive if other == pred else rng.random() < 0.8
        atom = Atom(other, tuple(rng.choice(variables + consts[:2]) for _ in range(WIDE_ARITY[other])))
        lits = (binding, Literal(positive, atom))
        clauses.append(Clause(len(clauses) + 1, lits if rng.random() < 0.5 else lits[::-1]))
    return clauses, consts


def test_pairs_match_reference(monkeypatch):
    # the instances of a two-literal clause whose falsified literal holds each variable once come
    # from that literal's atom alone; the same runs with no pair shortcut render the same lines
    joined = 0  # instances of unaligned pairs that the join creates
    create = scl.GroundProblem._create

    def counting_create(problem, clause, *rest):
        nonlocal joined
        start = len(problem.instances)
        create(problem, clause, *rest)
        if clause.pair and not clause.aligned:
            joined += len(problem.instances) - start

    monkeypatch.setattr(scl.GroundProblem, "_create", counting_create)
    rng = random.Random(2029)
    cases = [pair_rich(rng) for _ in range(400)]
    kinds = {"sat": 0, "unsat": 0, "limit": 0}
    unaligned, rendered = 0, []
    for clauses, domain in cases:
        result = same_run(clauses, domain)
        kinds[result.verdict] += 1
        compiled = [inst.compiled for inst in result.state.problem.instances if inst.compiled]
        unaligned += sum(c.pair and not c.aligned for c in compiled)
        rendered.append((render(result, False), render(result, True)))
    assert kinds["sat"] > 100 and kinds["unsat"] > 50 and unaligned - joined > 1000

    class NoPairs(scl._CompiledClause):
        def __init__(self, *args):
            super().__init__(*args)
            self.pair = False

    monkeypatch.setattr(scl, "_CompiledClause", NoPairs)
    for (clauses, domain), expected in zip(cases, rendered):
        result = scl_run(clauses, domain)
        assert (render(result, False), render(result, True)) == expected


def test_scl_keeps_no_trail_side_state():
    # SCL reads the trail through the kernel's truth table only: no index of its own to fill and undo
    assert SclState.truncate is TrailKernel.truncate
    kernel = set(vars(TrailKernel(0)))
    state = SclState(scl.ground_problem(counter_problem(3)))
    assert [name for name in vars(state) if name not in kernel] == ["problem", "stats", "next_clause_id", "triggers"]


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


def test_horn_chain_rules_need_no_join(monkeypatch):
    # every rule instance comes from the pair walk: once grounding is done, _join never runs
    def no_join(*args):
        raise AssertionError("_join called")

    def ground_problem(*args):
        problem = ground(*args)
        problem._join = no_join
        return problem

    ground = scl.ground_problem
    monkeypatch.setattr(scl, "ground_problem", ground_problem)
    rng = random.Random(1)
    for k in range(8, 17):
        result = scl_run(horn_chain(rng, k))
        assert result.verdict == "unsat" and len(result.state.problem.instances) > 10


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
        saturation = saturate(clauses, default_config(clauses), no_selection)
        assert saturation.verdict == ("unsat" if result.verdict == "unsat" else "saturated")
        verdicts[result.verdict] += 1
    assert "".join(render(scl_run(parse_bs("P(x). -P(y).")), False)).splitlines()[-3:] == [
        f"conflict clause 2 σ={{y->{FRESH_CONSTANT.name}}}",
        "stats propagations=1 decisions=0 trail=1",
        "s UNSATISFIABLE",
    ]


def text_and_json(result) -> tuple[list[str], list[dict]]:
    """A run's output as the CLI writes it: text lines, and JSON lines parsed; each rendered string is one line."""
    text, as_json = render(result, False), render(result, True)
    assert all(line.endswith("\n") and "\n" not in line[:-1] for line in text + as_json)
    return "".join(text).splitlines(), [json.loads(line) for line in "".join(as_json).splitlines()]


def assert_text_is_json_line(result) -> list[dict]:
    """Each text line is its JSON line's `line`, which JSON's `lit` and `subst` spell; a propagate
    line's JSON, filled from a template of its own, has the bytes that `json.dumps` writes for its fields."""
    lines, records = text_and_json(result)
    assert lines == [r["line"] for r in records]
    for line, r in zip(render(result, True), records):
        if r.get("kind") == "propagate":
            assert r["line"] == f"propagate {r['lit']} <- clause {r['clause']} σ={r['subst']}"
            assert line == json.dumps(r, sort_keys=True) + "\n"
    return records


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("satisfiable", [False, True])
def test_text_lines_are_the_json_lines_on_counters(n, satisfiable, tmp_path):
    clauses = counter_problem(n)[:-1] if satisfiable else counter_problem(n)
    path = tmp_path / "counter.bs"
    path.write_text(bs_text(clauses))
    outputs = []
    for fmt in ("text", "json"):
        out = io.StringIO()
        assert cli.main(["--mode", "scl", "--input", str(path), "--format", fmt], out) == (10 if satisfiable else 20)
        outputs.append(out.getvalue().splitlines())
    assert outputs[0] == [json.loads(line)["line"] for line in outputs[1]]
    assert sum(r.get("kind") == "propagate" for r in assert_text_is_json_line(scl_run(clauses))) == 2**n


def test_text_lines_are_the_json_lines_on_random_sets():
    rng = random.Random(24)
    merge = learned = learned_propagated = one_constant = 0
    for _ in range(300):
        clauses, domain = random_bs(rng)
        result = scl_run(clauses, domain)
        assert_text_is_json_line(result)
        instances = result.state.problem.instances
        propagated = [instances[ev[2]] for ev in result.state.events if ev[0] == "propagate"]
        merge += any(inst.compiled is not None and inst.compiled.merge for inst in propagated)
        learned += any(ev[0] == "learn" for ev in result.state.events)
        learned_propagated += any(inst.compiled is None for inst in propagated)
        one_constant += len(result.state.problem.domain) == 1
    assert merge > 20 and learned > 20 and learned_propagated > 0 and one_constant > 5


def test_names_with_format_characters():
    # %-format and str.format specials, and characters that JSON escapes, in predicate, constant
    # and variable names
    names = [Constant(n) for n in ("%", "%s", "a%d", "{0}", "}{", '"', "\\", "é", "\x01")]
    x, y, z = Variable("x%"), Variable("y{}"), Variable('z"\\é\x01')
    clauses = [
        Clause(1, (Literal(True, Atom("R%", (names[1],))),)),
        Clause(2, (Literal(False, Atom("R%", (x,))), Literal(True, Atom("S{", (x, names[3]))))),
        Clause(3, (Literal(False, Atom("S{", (x, y))), Literal(True, Atom("T}", (y, x))))),
        Clause(4, (Literal(False, Atom("T}", (x, y))), Literal(True, Atom("U%{", (x, y))))),
        Clause(5, (Literal(False, Atom("U%{", (x, y))), Literal(True, Atom("V", (y,))))),
        Clause(6, (Literal(True, Atom("R%", (names[8],))),)),
        Clause(7, (Literal(False, Atom("V", (z,))), Literal(True, Atom('W"\\é\x01', (z, names[5], names[6]))))),
    ]
    result = same_run(clauses, names)
    records = assert_text_is_json_line(result)
    assert "propagate T}({0},%s) <- clause 3 σ={x%->%s,y{}->{0}}" in [r["line"] for r in records]
    assert "propagate U%{({0},%s) <- clause 4 σ={x%->{0},y{}->%s}" in [r["line"] for r in records]
    assert 'propagate W"\\é\x01(\x01,",\\) <- clause 7 σ={z"\\é\x01->\x01}' in [r["line"] for r in records]
    assert '"lit": "W\\"\\\\\\u00e9\\u0001(%s,\\",\\\\)"' in "".join(render(result, True))
