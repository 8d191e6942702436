import random

import pytest

from clausekit.cdcl import PropClause
from clausekit.errors import ParseError
from clausekit.formats import (
    parse_bound,
    parse_bs,
    parse_dimacs,
    parse_lia,
    parse_script,
    print_bs,
    print_dimacs,
    print_lia,
    print_script,
)
from clausekit.lia import Bound
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.scl import counter_problem

DEMO_DIMACS = "p cnf 4 3\n1 2 3 0\n-3 4 0\n-4 1 2 0\n"


class TestDimacs:
    def test_demo_file(self):
        num_vars, clauses = parse_dimacs(DEMO_DIMACS)
        assert num_vars == 4
        assert [c.lits for c in clauses] == [(1, 2, 3), (-3, 4), (-4, 1, 2)]

    def test_comments_and_multiline_clauses(self):
        text = "c a comment\np cnf 3 1\n1 2\n3 0\n"
        _, clauses = parse_dimacs(text)
        assert clauses[0].lits == (1, 2, 3)

    def test_round_trip(self):
        num_vars, clauses = parse_dimacs(DEMO_DIMACS)
        assert parse_dimacs(print_dimacs(num_vars, clauses)) == (num_vars, clauses)

    def test_errors_are_positioned(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        with pytest.raises(ParseError, match="header"):
            parse_dimacs("1 2 0\n")
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")
        with pytest.raises(ParseError, match="exceeds"):
            parse_dimacs("p cnf 2 1\n3 0\n")
        with pytest.raises(ParseError, match="declares"):
            parse_dimacs("p cnf 2 2\n1 0\n")


class TestBs:
    def test_carry_clause(self):
        (clause,) = parse_bs("-P(x1,x2,x3,0) | P(x1,x2,x3,1).")
        assert clause == Clause(1, counter_problem(4)[1].literals)

    def test_propositional_atoms(self):
        (clause,) = parse_bs("-S | P | Q.")
        assert [str(l) for l in clause.literals] == ["-S", "P", "Q"]
        assert all(l.atom.arity == 0 for l in clause.literals)

    def test_explicit_ids(self):
        clauses = parse_bs("4 : P(0).\nQ(1).")
        assert [c.id for c in clauses] == [4, 5]

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate clause id"):
            parse_bs("1 : P(0).\n1 : Q(0).")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError, match="arity"):
            parse_bs("P(0). P(0,1).")

    def test_variable_prefix_predicate_rejected(self):
        with pytest.raises(ParseError, match="variable prefix"):
            parse_bs("x1(0).")

    def test_positioned_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_bs("P(0).\nP(0 | Q.")

    def test_variable_classification(self):
        (clause,) = parse_bs("R(x1,y2,z3,u4,v5,w6,a,B0).")
        args = clause.literals[0].atom.args
        assert all(isinstance(a, Variable) for a in args[:6])
        assert all(isinstance(a, Constant) for a in args[6:])

    def test_round_trip_counter_problems(self):
        for n in (1, 2, 4, 6):
            clauses = list(counter_problem(n))
            assert parse_bs(print_bs(clauses)) == clauses

    def test_round_trip_random(self):
        rng = random.Random(17)
        pool = [Constant("0"), Constant("1"), Variable("x1"), Variable("y1")]
        clauses = []
        for cid in range(1, 30):
            lits = tuple(
                Literal(
                    rng.random() < 0.5,
                    Atom("Q", tuple(rng.choice(pool) for _ in range(2))),
                )
                for _ in range(rng.randint(1, 4))
            )
            clauses.append(Clause(cid, lits))
        assert parse_bs(print_bs(clauses)) == clauses

    def test_comments_ignored(self):
        clauses = parse_bs("# heading\nP(0). # trailing\n")
        assert len(clauses) == 1


class TestLia:
    def test_demo_file(self):
        system = parse_lia("1 - 1*x - 1*y <= 0")
        (ineq,) = system.inequations
        assert ineq.const == 1 and dict(ineq.coeffs) == {"x": -1, "y": -1}

    def test_all_operators_normalized(self):
        system = parse_lia("x <= 3\nx < 3\nx >= 3\nx > 3\n")
        assert [(i.coeffs, i.const) for i in system.inequations] == [
            ((("x", 1),), -3),
            ((("x", 1),), -2),
            ((("x", -1),), 3),
            ((("x", -1),), 4),
        ]

    def test_bare_variables_and_sides(self):
        system = parse_lia("2*x + y <= y - 4")
        (ineq,) = system.inequations
        assert dict(ineq.coeffs) == {"x": 2} and ineq.const == 4

    def test_round_trip(self):
        text = "1 - 1*x - 1*y <= 0\n-3 + 2*u <= 0\n1*x - 5*z <= 0\n"
        system = parse_lia(text)
        assert print_lia(system) == text
        assert parse_lia(print_lia(system)).inequations == system.inequations

    def test_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_lia("x + <= 0")
        with pytest.raises(ParseError, match="comparison"):
            parse_lia("x + 1")
        with pytest.raises(ParseError, match="no variable"):
            parse_lia("1 <= 0")
        with pytest.raises(ParseError, match="no variable"):
            parse_lia("x - x <= 0")


class TestScript:
    def test_parse_and_round_trip(self):
        steps = [(2, 2, 3, 1), (7, 2, 2, 1)]
        text = print_script(steps)
        assert text == "2.2 Res 3.1\n7.2 Res 2.1\n"
        assert parse_script(text) == steps

    def test_comments_and_blanks(self):
        assert parse_script("# c\n\n2.2 Res 3.1\n") == [(2, 2, 3, 1)]

    def test_malformed(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_script("2 Res 3")


def test_parse_bound():
    assert parse_bound("x >= 0") == Bound("x", True, 0, level=1)
    assert parse_bound("y<5") == Bound("y", False, 4, level=1)
    with pytest.raises(ParseError):
        parse_bound("x == 3")


def test_propclause_rejects_zero():
    with pytest.raises(ValueError):
        PropClause(1, (0,))
