"""Template grounding against the substitution-based reference grounding."""

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
    ground and empty clauses, sometimes a mixed-arity predicate and extra domain constants."""
    arity = {p: rng.randint(0, 3) for p in ("P", "Q", "R")}
    mixed = rng.random() < 0.25  # M is used at arities 0, 1 and 2, as only the library allows
    clauses = []
    for cid in range(1, rng.randint(1, 5) + 1):
        ground = rng.random() < 0.2
        lits = []
        for _ in range(rng.choices(range(5), weights=[1, 6, 6, 5, 3])[0]):
            pred = rng.choice(["P", "Q", "R", "M"] if mixed else ["P", "Q", "R"])
            k = rng.randint(0, 2) if pred == "M" else arity[pred]
            pool = CONSTANTS if ground else CONSTANTS + VARIABLES * 2
            args = tuple(rng.choice(pool) for _ in range(k))
            lits.append(Literal(rng.random() < 0.6, Atom(pred, args)))
        clauses.append(Clause(cid, tuple(lits)))
    domain = None
    if rng.random() < 0.3:
        used = {a for c in clauses for l in c.literals for a in l.atom.args if isinstance(a, Constant)}
        domain = sorted(used | {Constant("d"), Constant("0")}, key=lambda c: c.name)
        rng.shuffle(domain)
    return clauses, domain


def outcome(ground, clauses, domain, cap=scl.DEFAULT_INSTANCE_CAP):
    try:
        p = ground(clauses, domain, cap)
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return p.clauses, p.domain, p.atoms, p.instances


class TestAgainstReference:
    def test_random_clause_sets(self):
        rng = random.Random(2019)
        grounded = mixed = merged = 0
        for _ in range(400):
            clauses, domain = random_clause_set(rng)
            expected = outcome(reference_ground_problem, clauses, domain)
            assert outcome(ground_problem, clauses, domain) == expected
            if isinstance(expected[0], type):
                continue
            grounded += 1
            mixed += any(l.atom.predicate == "M" for c in clauses for l in c.literals)
            problem = ground_problem(clauses, domain)
            merged += sum(
                len(inst.lits) < len(problem.clauses[inst.clause_id].literals)
                for inst in problem.instances
            )
            # the cap boundary: the larger of Herbrand base and instance count
            d = len(problem.domain)
            needed = max(len(problem.atoms), sum(d ** len(c.variables()) for c in clauses))
            for cap in (needed - 1, needed):
                assert outcome(ground_problem, clauses, domain, cap) == outcome(
                    reference_ground_problem, clauses, domain, cap
                )
            assert isinstance(outcome(ground_problem, clauses, domain, needed - 1)[0], type)
        assert grounded > 300 and mixed > 50 and merged > 50

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

    def test_mixed_arity_atom_order(self):
        a, b, x = Constant("a"), Constant("b"), Variable("x")
        clauses = [
            Clause(1, (Literal(True, Atom("M", (b, x))), Literal(False, Atom("M", (x,))))),
            Clause(2, (Literal(True, Atom("M", ())), Literal(True, Atom("N", (a,))))),
        ]
        problem = ground_problem(clauses)
        assert [str(atom) for atom in problem.atoms] == [
            "M", "M(a)", "M(a,a)", "M(a,b)", "M(b)", "M(b,a)", "M(b,b)", "N(a)", "N(b)",
        ]
        assert [inst.lits for inst in problem.instances] == [(6, -2), (7, -5), (1, 8)]
        assert outcome(ground_problem, clauses, None) == outcome(
            reference_ground_problem, clauses, None
        )


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
        first = [inst for inst in problem.instances if inst.clause_id == 1]
        # x=a,y=b and x=b,y=a differ in the Q literal, so both stay
        assert [(inst.subst_str(), inst.lits) for inst in first] == [
            ("{x->a,y->a}", (1, -3)),
            ("{x->a,y->b}", (1, 2, -3)),
            ("{x->b,y->a}", (2, 1, -4)),
            ("{x->b,y->b}", (2, -4)),
        ]
        # here x=b,y=a repeats the literal set of x=a,y=b
        same_set = ground_problem(parse_bs("P(x) | P(y). P(a). P(b)."))
        assert [(inst.subst_str(), inst.lits) for inst in same_set.instances][:3] == [
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
    # the kernel's pending units and false set after hooking every instance
    rng = random.Random(7)
    for _ in range(150):
        clauses, domain = random_clause_set(rng)
        try:
            problem = ground_problem(clauses, domain)
        except ValueError:
            continue
        state = SclState.from_problem(problem)
        scan = [clause_status(inst.lits, {}) for inst in problem.instances]
        assert sorted((pos, lit) for _, pos, lit in state.pending) == [
            (pos, lit) for pos, (status, lit) in enumerate(scan) if status == "unit"
        ]
        assert state.false_ids == {pos for pos, (status, _) in enumerate(scan) if status == "false"}


def test_runs_match_reference_grounding(monkeypatch):
    rng = random.Random(31)
    cases = []
    while len(cases) < 150:
        clauses, domain = random_clause_set(rng)
        if not isinstance(outcome(ground_problem, clauses, domain)[0], type):
            cases.append((clauses, domain))
    got = [list(render(scl_run(c, d))) for c, d in cases]
    monkeypatch.setattr(scl, "ground_problem", reference_ground_problem)
    assert got == [list(render(scl_run(c, d))) for c, d in cases]
