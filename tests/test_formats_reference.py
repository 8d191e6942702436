"""The BS and LIA parsers against the token-stream reference parsers of `tests/oracles.py`.

On counter problems, random clause sets and systems, and single-character
mutations of them, both must accept the same inputs with equal results and
reject the same inputs with the same message.  Positions may differ only
where the reference points away from the offending token; there the parser
must point at it.
"""

from __future__ import annotations

import functools
import hashlib
import random

from clausekit.errors import ParseError
from clausekit.formats import parse_bs, parse_dimacs, parse_lia, parse_script
from clausekit.scl import counter_problem
from oracles import _tokenize, bs_text, reference_parse_bs, reference_parse_lia

MUTATIONS = 10_000
BS_ALPHABET = "-|.():,#' \t\n\r" + "xPQa01_9" + "\u0663\u00b2\u00e9\u2028\x0c@"
LIA_ALPHABET = "<>=+-*# \t\n\r" + "0123xyz_" + "\u0663\u00b2\u00e9@."
DIMACS_ALPHABET = "pcnf -0123x\t\n"
SCRIPT_ALPHABET = "Res.0123# \t\n"


def _random_bs_text(rng: random.Random) -> str:
    """A set like acceptance test 8's, in varied layout: ids, spacing, comments, line breaks."""
    arity = rng.randint(0, 3)
    terms = ["0", "1", "x1", "x2", "a", "y'"]
    space = lambda: rng.choice(["", "", " ", "  ", "\n", "\t"])
    clauses = []
    for cid in range(1, rng.randint(1, 5) + 1):
        lits = []
        for _ in range(rng.randint(1, 3)):
            atom = rng.choice(["P", "Q", "R0"])
            if arity:
                atom += "(" + ",".join(space() + rng.choice(terms) + space() for _ in range(arity)) + ")"
            lits.append(rng.choice(["", "-", "- "]) + atom)
        prefix = f"{cid}{space()}:{space()}" if rng.random() < 0.4 else ""
        comment = " # note\n" if rng.random() < 0.2 else ""
        clauses.append(prefix + f"{space()}|{space()}".join(lits) + space() + "." + comment)
    return rng.choice(["\n", " ", ""]).join(clauses) + rng.choice(["", "\n"])


def _random_lia_text(rng: random.Random) -> str:
    """1-3 inequations over x, y and z in every term form, operator and spacing."""
    space = lambda: rng.choice(["", " ", "  "])

    def side() -> str:
        out = rng.choice(["", "-", "- -"])
        for i in range(rng.randint(1, 3)):
            if i:
                out += space() + rng.choice("+-") + space()
            term = rng.choice(["x", "y", "z", "3", "12", "2*x", "4 * y", "-z"])
            out += term
        return out

    lines = []
    for _ in range(rng.randint(1, 3)):
        line = side() + space() + rng.choice(["<=", "<", ">=", ">"]) + space() + side()
        lines.append(rng.choice(["", " "]) + line + rng.choice(["", " # c", "  "]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _mutate(rng: random.Random, text: str, alphabet: str) -> str:
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0 and i < len(text):
        return text[:i] + text[i + 1 :]
    char = rng.choice(alphabet)
    return text[:i] + char + text[i + (kind == 1 and i < len(text)) :]


@functools.cache
def corpus(fmt: str) -> tuple[str, ...]:
    """Base inputs of one format and `MUTATIONS` single-character mutations of them."""
    rng = random.Random(f"formats-{fmt}")
    if fmt == "bs":
        bases = [bs_text(counter_problem(n)) for n in (1, 2, 3)]
        bases += ["".join(f"{c}.\n" for c in counter_problem(n)) for n in (1, 2)]
        bases += [_random_bs_text(rng) for _ in range(300)]
        alphabet = BS_ALPHABET
    elif fmt == "lia":
        bases = ["1 - 1*x - 1*y <= 0\n1*x - 1 <= 0\n", "x - y <= 0\ny - x + 1 <= 0\n"]
        bases += [_random_lia_text(rng) for _ in range(300)]
        alphabet = LIA_ALPHABET
    elif fmt == "dimacs":
        bases = ["p cnf 3 2\n1 -2 0\n2 3\n-1 0\n", "c c\np cnf 2 1\n 1 2 0\n"]
        alphabet = DIMACS_ALPHABET
    else:
        bases = ["2.2 Res 3.1\n5.2 Res 2.1 # step\n", "\n1.1 Res 2.1"]
        alphabet = SCRIPT_ALPHABET
    mutants = [_mutate(rng, rng.choice(bases), alphabet) for _ in range(MUTATIONS)]
    return tuple(bases + mutants)


def outcome(parse, text: str):
    """(parsed value, None) or (None, the error's message without its position, line, column)."""
    try:
        return parse(text), None
    except ParseError as exc:
        where = f" (line {exc.line}, column {exc.column})" if exc.column is not None else f" (line {exc.line})"
        return None, (str(exc).removesuffix(where), exc.line, exc.column)


# The three BS errors whose position moved to the offending token.
MOVED = ("expected ',' or ')'", "expected '|' or '.'", "unexpected end of input")


def offending_position(text: str, message: str, line: int, column: int) -> tuple[int, int]:
    """Where the parser must point, derived from the token the reference points at."""
    tokens = _tokenize(text)
    if message == "unexpected end of input":
        last, line, column = tokens[-1]
        return line, column + len(last)
    at = next(i for i, (_, l, c) in enumerate(tokens) if (l, c) == (line, column))
    if message.startswith("expected ',' or ')'"):
        _, line, column = tokens[at + 1]  # the reference points at the term before the offending token
        return line, column
    # The reference points at the token after the offending one, or at the
    # offending one itself if it is the last token.  Which of the two: without
    # the last token the reference fails the same way only if it was not the
    # offending one.
    if at == len(tokens) - 1:
        start = sum(map(len, text.splitlines(keepends=True)[: line - 1])) + column - 1
        if outcome(reference_parse_bs, text[:start])[1][0] != message:
            return line, column
    return tokens[at - 1][1:]


def test_bs_matches_reference():
    accepted = rejected = 0
    for text in corpus("bs"):
        parsed, error = outcome(parse_bs, text)
        try:
            ref, ref_error = outcome(reference_parse_bs, text)
        except ValueError:
            # The reference reads a lone non-decimal digit such as '²' before a
            # ':' as a clause id, and int() rejects it.
            assert error is not None and error[0].startswith("expected an atom, got "), text
            continue
        assert parsed == ref, text
        if error is None:
            assert ref_error is None, text
            accepted += 1
            continue
        assert ref_error is not None and error[0] == ref_error[0], text
        rejected += 1
        expected = ref_error[1:]
        if error[0].startswith(MOVED):
            expected = offending_position(text, *ref_error)
        assert error[1:] == expected, text
    assert accepted > 500 and rejected > 5_000


def test_lia_matches_reference():
    accepted = rejected = 0
    for text in corpus("lia"):
        parsed, error = outcome(parse_lia, text)
        ref, ref_error = outcome(reference_parse_lia, text)
        if error is None:
            assert ref_error is None and parsed.inequations == ref.inequations, text
            accepted += 1
        else:
            assert ref_error is not None and error[:2] == ref_error[:2], text
            rejected += 1
    assert accepted > 500 and rejected > 5_000


PARSERS = {"bs": parse_bs, "lia": parse_lia, "dimacs": parse_dimacs, "script": parse_script}


def test_every_parse_error_has_a_line_and_a_column():
    errors = 0
    for fmt, parse in PARSERS.items():
        for text in corpus(fmt):
            try:
                parse(text)
            except ParseError as exc:
                assert exc.line is not None and exc.column is not None, (fmt, text, str(exc))
                errors += 1
    assert errors > 10_000


def test_every_parse_outcome_keeps_its_position():
    # the reference tests above compare no DIMACS or script position and no LIA column: pin all of them
    digest = hashlib.sha1()
    errors = 0
    for fmt, parse in PARSERS.items():
        for text in corpus(fmt):
            _, error = outcome(parse, text)
            digest.update(repr("accepted" if error is None else (fmt, *error)).encode() + b"\n")
            errors += error is not None
    assert errors == 26_411
    assert digest.hexdigest() == "870d51a556c34bce2e38f0d14e7a11d3810a67ad"
