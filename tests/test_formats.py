import random

import pytest

from oracles import bs_text
from test_scl_kernel import random_bs
from clausekit.cdcl import PropClause
from clausekit.errors import ParseError
from clausekit.formats import (
    parse_bound,
    parse_bs,
    parse_dimacs,
    parse_lia,
    parse_script,
    read_text,
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
        # every layout that a clause line's one check must keep, each the same three clauses
        expected = parse_dimacs("p cnf 3 3\n1 -2 0\n3 0\n-1 2 3 0\n")
        assert [c.lits for c in expected[1]] == [(1, -2), (3,), (-1, 2, 3)]
        layouts = [
            "p cnf 3 3\n1 -2 0 3 0 -1 2 3 0\n",  # several clauses on one line
            "p cnf 3 3\n1\n-2 0\n3 0\n-1 2\n3 0\n",  # clauses across two lines
            "c start\np cnf 3 3\n1 -2 0\nc between\n3 0\nc again\n-1 2 3 0\n",  # comment lines between clauses
            "p cnf 3 3\r\n1 -2 0\r\n3 0\r\n-1 2 3 0\r\n",  # CRLF line endings
            "p cnf 3 3\n1\t-2 0\n3\x1c0\n-1\xa02 3 0\n",  # tab, \x1c and NBSP between literals
            "p cnf 3 3\n1 -2 0\x0c3 0\n-1 2 3 0\n",  # a form feed, which splitlines breaks lines at
            "p cnf 3 3\n1 -2 -0\n3 -0\n-1 2 3 0\n",  # -0 ending a clause
        ]
        assert [parse_dimacs(text) for text in layouts] == [expected] * len(layouts)

    def test_round_trip(self):
        num_vars, clauses = parse_dimacs(DEMO_DIMACS)
        text = f"p cnf {num_vars} {len(clauses)}\n" + "".join(" ".join(map(str, c.lits)) + " 0\n" for c in clauses)
        assert text == DEMO_DIMACS and parse_dimacs(text) == (num_vars, clauses)

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
            assert parse_bs(bs_text(clauses)) == clauses

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
        assert parse_bs(bs_text(clauses)) == clauses

    def test_round_trip_random_bs_sets(self):
        # every set that BS text can carry reads back as itself: one with an empty clause, or
        # with a predicate (U, V, W) that reads as a variable, has no text
        rng = random.Random(24)
        printed = 0
        for _ in range(400):
            clauses, _ = random_bs(rng)
            if all(c.literals and all(l.atom.predicate not in "UVW" for l in c.literals) for c in clauses):
                assert parse_bs(bs_text(clauses)) == clauses
                printed += 1
        assert printed > 100

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
        assert [(i.coeffs, i.const) for i in parse_lia(text).inequations] == [
            ((("x", -1), ("y", -1)), 1),
            ((("u", 2),), -3),
            ((("x", 1), ("z", -5)), 0),
        ]

    def test_any_whitespace_separates_tokens(self):
        # as between DIMACS literals: a tab or an NBSP wherever a space may stand, each the same inequation
        expected = parse_lia("2*x - y >= 1\n")
        assert [(i.coeffs, i.const) for i in expected.inequations] == [((("x", -2), ("y", 1)), 1)]
        layouts = ["2*x\t- y\t>= 1\n", "2\t*\tx -\ty >=\t1\n", "2*x\xa0-\xa0y\xa0>=\xa01\n", "2 *\xa0x - \t y >= 1\n"]
        assert [parse_lia(text) for text in layouts] == [expected] * len(layouts)
        with pytest.raises(ParseError, match=r"expected an operator before 'y' \(line 1, column 4\)"):
            parse_lia("x\t\ty <= 0")

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
        assert parse_script("2.2 Res 3.1\n7.2 Res 2.1\n") == steps

    def test_comments_and_blanks(self):
        assert parse_script("# c\n\n2.2 Res 3.1\n") == [(2, 2, 3, 1)]

    def test_malformed(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_script("2 Res 3")


# Every error kind of every parser, with the exact message and position: the
# column is that of the offending token, the start of the line's text for an
# error about the whole line, and just after the last token at the end of input.
ERRORS = {
    parse_bs: [
        ("P(0) |", "unexpected end of input (line 1, column 7)"),
        ("P(0) |\n  # more\n\n", "unexpected end of input (line 1, column 7)"),
        ("P(0", "unexpected end of input (line 1, column 4)"),
        ("-|.", "expected an atom, got '|' (line 1, column 2)"),
        ("P(0).\n x1(0).", "predicate 'x1' starts with a variable prefix (line 2, column 2)"),
        ("P(,).", "expected a term, got ',' (line 1, column 3)"),
        ("P(0 | Q.", "expected ',' or ')', got '|' (line 1, column 5)"),
        ("P(0,\n  1 Q).", "expected ',' or ')', got 'Q' (line 2, column 5)"),
        ("P(0). P(0,1).", "predicate 'P' used with arity 2, expected 1 (line 1, column 7)"),
        ("1 : P(0).\n1 : Q(0).", "duplicate clause id 1 (line 2, column 1)"),
        ("P(0) Q(1).", "expected '|' or '.', got 'Q' (line 1, column 6)"),
        ("P(0) # c\n\tQ(1).", "expected '|' or '.', got 'Q' (line 2, column 2)"),
    ],
    parse_dimacs: [
        ("p cnf 1 1\np cnf 1 1\n", "duplicate DIMACS header (line 2, column 1)"),
        ("  p cnf x\n", "malformed header: 'p cnf x' (line 1, column 3)"),
        ("c x\n 1 0\n", "clause before the DIMACS header (line 2, column 2)"),
        ("p cnf 2 1\n1 x 0\n", "bad literal 'x' (line 2, column 3)"),
        ("p cnf 10 1\n1_0 2 0\n", "bad literal '1_0' (line 2, column 1)"),
        ("p cnf 2 1\n1 +2 0\n", "bad literal '+2' (line 2, column 3)"),
        ("p cnf 10 1\n1_0 0\n", "bad literal '1_0' (line 2, column 1)"),
        ("p cnf 2 1\n1 \u0661 0\n", "bad literal '\u0661' (line 2, column 3)"),
        ("p cnf 2 1\n3 x 0\n", "literal 3 exceeds the declared 2 variables (line 2, column 1)"),
        ("p cnf 2 1\r\n1\x0c3 0\n", "literal 3 exceeds the declared 2 variables (line 3, column 1)"),
        ("p cnf 4 1\n1 -\u0663 0\n", "bad literal '-\u0663' (line 2, column 3)"),
        ("p cnf 2 1\n1 \u00b2 0\n", "bad literal '\u00b2' (line 2, column 3)"),
        ("p cnf 2 1\n1 -- 0\n", "bad literal '--' (line 2, column 3)"),
        ("p cnf \u0663 1\n1 0\n", "malformed header: 'p cnf \u0663 1' (line 1, column 1)"),
        ("p cnf 2 1\n1  3 0\n", "literal 3 exceeds the declared 2 variables (line 2, column 4)"),
        ("p cnf 2 1\n1 2\nc end\n", "unterminated clause at end of input (line 2, column 4)"),
        ("c only\n", "missing DIMACS header (line 1, column 7)"),
        ("p cnf 2 2\n1 0\n", "header declares 2 clauses, found 1 (line 1, column 1)"),
    ],
    parse_lia: [
        ("x <= 0\nx @ 3 <= 0", "could not tokenize 'x @ 3 <= 0' (line 2, column 3)"),
        ("+ x <= 0", "dangling '+' (line 1, column 1)"),
        ("x - + y <= 0", "dangling '+' (line 1, column 5)"),
        ("x y <= 0", "expected an operator before 'y' (line 1, column 3)"),
        ("2 * <= x", "expected a variable after '*', got '<=' (line 1, column 5)"),
        ("x <= 3 *", "expected an operator before '*' (line 1, column 8)"),
        ("* x <= 0", "unexpected token '*' (line 1, column 1)"),
        ("x + <= 0", "expression ends with an operator (line 1, column 5)"),
        ("x <=", "expression ends with an operator (line 1, column 5)"),
        ("  x + 1 # no comparison", "missing comparison operator (line 1, column 8)"),
        ("x <= 1 < 2", "trailing input '< 2' (line 1, column 8)"),
        ("\n x - x <= 0", "inequation has no variable (line 2, column 2)"),
    ],
    parse_script: [
        ("2.2 Res 3.1\n  2 Res 3 # c\n", "malformed script step '2 Res 3' (line 2, column 3)"),
    ],
    parse_bound: [
        ("x == 3", "malformed bound 'x == 3' (line 1, column 3)"),
        ("", "malformed bound '' (line 1, column 1)"),
        (" 3 >= x", "malformed bound ' 3 >= x' (line 1, column 2)"),
        ("x  ", "malformed bound 'x  ' (line 1, column 2)"),
        ("x < = 3", "malformed bound 'x < = 3' (line 1, column 5)"),
        ("x >= -", "malformed bound 'x >= -' (line 1, column 7)"),
        ("x >= - 3", "malformed bound 'x >= - 3' (line 1, column 7)"),
        ("x >= y", "malformed bound 'x >= y' (line 1, column 6)"),
        ("x >= 3 4", "malformed bound 'x >= 3 4' (line 1, column 8)"),
    ],
}


@pytest.mark.parametrize(
    "parse, text, expected",
    [(parse, text, expected) for parse, cases in ERRORS.items() for text, expected in cases],
)
def test_error_message_and_position(parse, text, expected):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == expected


def test_parse_bound():
    assert parse_bound("x >= 0") == Bound("x", True, 0)
    assert parse_bound("y<5") == Bound("y", False, 4)
    assert parse_bound(" x>=-3 ") == Bound("x", True, -3)
    with pytest.raises(ParseError) as info:
        parse_bound("x == 3")
    assert (info.value.line, info.value.column) == (1, 3)


def test_dimacs_literals_are_ascii_decimal():
    """Leading zeros and `-0` are ASCII decimal literals too."""
    assert parse_dimacs("p cnf 010 2\n10 -01 0\n-0\n") == (10, [PropClause(1, (10, -1)), PropClause(2, ())])


def test_bs_clause_ids_are_ascii_digits():
    assert [c.id for c in parse_bs("03 : P(a).\nQ(a).")] == [3, 4]
    for text, position in (("\u0663 : P(a).", (1, 1)), ("P(a).\n  \u0663\u0663 : Q(a).", (2, 3))):
        with pytest.raises(ParseError) as info:
            parse_bs(text)
        assert str(info.value).startswith("expected an atom, got '\u0663'")
        assert (info.value.line, info.value.column) == position


def test_lia_numbers_are_ascii_digits():
    # a non-ASCII decimal digit is a character no token starts with
    assert parse_lia("x <= 3\n").inequations == parse_lia("x <= 03\n").inequations
    with pytest.raises(ParseError) as info:
        parse_lia("x <= 0\nx <= \u0663\n")
    assert str(info.value) == "could not tokenize 'x <= \u0663' (line 2, column 6)"
    with pytest.raises(ParseError) as info:
        parse_lia("\u0662*x <= 3")
    assert (info.value.line, info.value.column) == (1, 1)


def test_bound_values_are_ascii_digits():
    assert parse_bound("x>=03") == Bound("x", True, 3)
    with pytest.raises(ParseError) as info:
        parse_bound("x>=\u0663")
    assert str(info.value) == "malformed bound 'x>=\u0663' (line 1, column 4)"
    with pytest.raises(ParseError) as info:
        parse_bound("x >= -1\u0663")
    assert (info.value.line, info.value.column) == (1, 8)


def test_script_steps_are_ascii_digits():
    assert parse_script("1.1 Res 2.1\n") == [(1, 1, 2, 1)]
    with pytest.raises(ParseError) as info:
        parse_script("2.2 Res 3.1\n 1.\u0661 Res 2.1\n")
    assert str(info.value) == "malformed script step '1.\u0661 Res 2.1' (line 2, column 2)"


def test_propclause_rejects_zero():
    with pytest.raises(ValueError):
        PropClause(1, (0,))


def test_read_text_reads_as_text_mode_does(tmp_path):
    # UTF-8 with universal newlines: CRLF, CR and LF all become LF; a BOM and other line breaks stay
    path = tmp_path / "input"
    for data in [b"", b"p cnf 1 1\n1 0\n", b"a\r\nb\rc\n\r\n\r", "\ufeff\u03c3\x85\u2028x\x0cy".encode(), b"\r"]:
        path.write_bytes(data)
        with open(path, encoding="utf-8") as handle:
            assert read_text(str(path)) == handle.read()


@pytest.mark.parametrize("data, message", [
    (b"\xff", "byte 0xff is not UTF-8 (line 1, column 1)"),
    (b"p cnf 1 1\r\n1 \xfe0\n", "byte 0xfe is not UTF-8 (line 2, column 3)"),
    ("P(\u00e9).\n-P(\u00e9\u00e9".encode() + b"\x80).", "byte 0x80 is not UTF-8 (line 2, column 6)"),
    (b"x <= 1\rx >= \xe2\x82", "byte 0xe2 is not UTF-8 (line 2, column 6)"),  # a sequence cut short
], ids=["first byte", "after CRLF", "after two-byte characters", "cut short after CR"])
def test_read_text_positions_a_byte_that_is_not_utf8(tmp_path, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        read_text(str(path))
    assert str(info.value) == message
