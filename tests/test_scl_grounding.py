"""Template grounding against the substitution-based reference grounding.

The engine grounds lazily: `ground_problem` creates only the instances unit or
false under the empty trail, and a run creates the rest as the trail makes them
unit or false.  The engine's templates are compared with the reference through
`template_grounding`, which enumerates every instance the templates give.
"""

import itertools
import random

import pytest

from oracles import reference_ground_problem
from clausekit import scl
from clausekit.cdcl import clause_status
from clausekit.errors import ResourceLimitError
from clausekit.formats import parse_bs
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.scl import SclState, counter_problem, ground_problem, render, scl_run

CONSTANTS = [Constant(n) for n in ("a", "b", "c")]
VARIABLES = [Variable(n) for n in ("x1", "x2", "y")]


def random_clause_set(rng: random.Random) -> tuple[list[Clause], list[Constant] | None]:
    """Small BS clause sets: arity 0-3, constants and repeated variables in atoms,
    ground and empty clauses, sometimes extra domain constants."""
    arity = {p: rng.randint(0, 3) for p in ("P", "Q", "R")}
    clauses = []
    for cid in range(1, rng.randint(1, 5) + 1):
        ground = rng.random() < 0.2
        lits = []
        for _ in range(rng.choices(range(5), weights=[1, 6, 6, 5, 3])[0]):
            pred = rng.choice(["P", "Q", "R"])
            pool = CONSTANTS if ground else CONSTANTS + VARIABLES * 2
            args = tuple(rng.choice(pool) for _ in range(arity[pred]))
            lits.append(Literal(rng.random() < 0.6, Atom(pred, args)))
        clauses.append(Clause(cid, tuple(lits)))
    domain = None
    if rng.random() < 0.3:
        used = {a for c in clauses for l in c.literals for a in l.atom.args if isinstance(a, Constant)}
        domain = sorted(used | {Constant("d"), Constant("0")}, key=lambda c: c.name)
        rng.shuffle(domain)
    return clauses, domain


def outcome(ground, clauses, domain, cap=scl.DEFAULT_INSTANCE_CAP):
    """Clauses, domain, atom table and the instances unit or false under the empty trail."""
    try:
        p = ground(clauses, domain, cap)
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return p.clauses, p.domain, list(p.atoms), [inst for inst in p.instances if len(inst.lits) < 2]


def template_grounding(problem):
    """Every instance the engine's templates give, in (clause id, product) order, as an eager
    grounding would keep them: each literal once, and a literal set at its first substitution."""
    out = []
    for clause in problem.compiled:
        for combo in itertools.product(range(len(problem.domain)), repeat=clause.slots):
            lits = tuple(dict.fromkeys(clause.lits(combo)))
            if not clause.merge or problem._first_combo(clause, lits) == combo:
                out.append(scl.GroundInstance(clause.id, clause.subst(clause.key(combo)), lits))
    return out


class TestAgainstReference:
    def test_random_clause_sets(self):
        rng = random.Random(2019)
        grounded = merged = 0
        for _ in range(400):
            clauses, domain = random_clause_set(rng)
            expected = outcome(reference_ground_problem, clauses, domain)
            assert outcome(ground_problem, clauses, domain) == expected
            if isinstance(expected[0], type):
                continue
            grounded += 1
            problem = ground_problem(clauses, domain)
            reference = reference_ground_problem(clauses, domain)
            assert template_grounding(problem) == reference.instances
            merged += sum(
                len(inst.lits) < len(reference.clauses[inst.clause_id].literals)
                for inst in reference.instances
            )
            # the cap boundary: the larger of Herbrand base and instance count
            d = len(problem.domain)
            needed = max(len(problem.atoms), sum(d ** len(c.variables()) for c in clauses))
            for cap in (needed - 1, needed):
                assert outcome(ground_problem, clauses, domain, cap) == outcome(
                    reference_ground_problem, clauses, domain, cap
                )
            assert isinstance(outcome(ground_problem, clauses, domain, needed - 1)[0], type)
        assert grounded > 300 and merged > 50

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_counter(self, n):
        for clauses in (counter_problem(n), counter_problem(n)[:-1]):
            assert outcome(ground_problem, clauses, None) == outcome(
                reference_ground_problem, clauses, None
            )

    def test_arity_three_chain(self):
        clauses = parse_bs(
            """
            A(c0,c1,c2). A(c3,c4,c5).
            -A(x,y,z) | B(z,x,y).
            -B(x,y,z) | C(y,y,x).
            -C(x,y,z) | -A(z,x,c5) | D(x,z,y).
            -D(c5,c3,c5).
            """
        )
        problem = ground_problem(clauses)
        assert len(problem.atoms) == 4 * 6**3
        assert outcome(ground_problem, clauses, None) == outcome(
            reference_ground_problem, clauses, None
        )

    def test_predicate_at_two_arities_is_rejected(self):
        # parse_bs rejects such text; library callers meet the same check
        x = Variable("x")
        clauses = [Clause(1, (Literal(True, Atom("M", (x,))), Literal(False, Atom("M", (x, x)))))]
        with pytest.raises(ValueError, match="predicate 'M' used with arity 2, expected 1"):
            ground_problem(clauses)
        with pytest.raises(ValueError, match="predicate 'M'"):
            scl_run(clauses)


class TestRepeatedLiterals:
    def test_instance_with_repeated_literal_propagates(self):
        clauses = parse_bs("1 : Q(a).\n2 : -Q(x) | P(y) | P(z).\n")
        result = scl_run(clauses)
        assert [line for line, _ in render(result)] == [
            "propagate Q(a) <- clause 1 σ={}",
            "propagate P(a) <- clause 2 σ={x->a,y->a,z->a}",
            "stats propagations=2 decisions=0 trail=2",
            "s SATISFIABLE",
        ]

    def test_literal_kept_once_and_literal_sets_once(self):
        problem = ground_problem(parse_bs("P(x) | P(y) | -Q(x). Q(a). Q(b)."))
        first = [inst for inst in template_grounding(problem) if inst.clause_id == 1]
        # x=a,y=b and x=b,y=a differ in the Q literal, so both stay
        assert [(inst.subst_str(), inst.lits) for inst in first] == [
            ("{x->a,y->a}", (1, -3)),
            ("{x->a,y->b}", (1, 2, -3)),
            ("{x->b,y->a}", (2, 1, -4)),
            ("{x->b,y->b}", (2, -4)),
        ]
        # here x=b,y=a repeats the literal set of x=a,y=b
        same_set = ground_problem(parse_bs("P(x) | P(y). P(a). P(b)."))
        assert [(inst.subst_str(), inst.lits) for inst in template_grounding(same_set)][:3] == [
            ("{x->a,y->a}", (1,)),
            ("{x->a,y->b}", (1, 2)),
            ("{x->b,y->b}", (2,)),
        ]

    def test_ground_unit_written_twice_propagates(self):
        result = scl_run(parse_bs("P(a) | P(a). -P(a) | Q(a)."))
        assert [line for line, _ in render(result)][:2] == [
            "propagate P(a) <- clause 1 σ={}",
            "propagate Q(a) <- clause 2 σ={}",
        ]


def test_initial_classification_matches_full_scan():
    # the kernel's pending units and false set after hooking the instances created at the start
    rng = random.Random(7)
    for _ in range(150):
        clauses, domain = random_clause_set(rng)
        try:
            problem = ground_problem(clauses, domain)
        except ValueError:
            continue
        state = SclState.from_problem(problem)
        named = lambda pos: (problem.instances[pos].clause_id, problem.instances[pos].subst)
        scan = [(inst, clause_status(inst.lits, {})) for inst in reference_ground_problem(clauses, domain).instances]
        assert sorted((named(pos), lit) for _, pos, lit in state.pending) == sorted(
            ((inst.clause_id, inst.subst), lit) for inst, (status, lit) in scan if status == "unit"
        )
        assert sorted(map(named, state.false_ids)) == sorted(
            (inst.clause_id, inst.subst) for inst, (status, _) in scan if status == "false"
        )


def eager_ground_problem(clauses, domain=None, instance_cap=scl.DEFAULT_INSTANCE_CAP):
    """Every instance, from the reference grounding, over the engine's atom table."""
    problem = reference_ground_problem(clauses, domain, instance_cap)
    problem.atoms = ground_problem(clauses, domain, instance_cap).atoms
    return problem


def test_runs_match_reference_grounding(monkeypatch):
    # the lazy engine against the same engine with every instance hooked from the start
    rng = random.Random(31)
    cases = []
    while len(cases) < 150:
        clauses, domain = random_clause_set(rng)
        if not isinstance(outcome(ground_problem, clauses, domain)[0], type):
            cases.append((clauses, domain))
    got = [list(render(scl_run(c, d))) for c, d in cases]
    monkeypatch.setattr(scl, "ground_problem", eager_ground_problem)
    assert got == [list(render(scl_run(c, d))) for c, d in cases]
