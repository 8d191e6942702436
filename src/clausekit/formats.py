"""Parsers for the input formats and derivation scripts.

Three input languages: DIMACS CNF for the propositional solver, a clause text
syntax for BS problems (`-P(x1,0) | P(x1,1).`, identifiers starting with
x, y, z, u, v, w are variables, optional `<id> :` prefixes), and one linear
inequation per line for LIA.  Every parse error carries a line and a column.
"""

from __future__ import annotations

import re

from .cdcl import PropClause
from .errors import ParseError
from .lia import Bound, LinIneq, LiaSystem
from .logic import Atom, Clause, Literal, Term, is_variable_name, term_from_name
from .resolution import ScriptStep


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both from 1, of `text[offset]`, with lines split as `str.splitlines` splits them."""
    lines = (text[:offset] + ".").splitlines()
    return len(lines), len(lines[-1])


def _line_position(text: str, index: int, at: int = 0) -> tuple[int, int]:
    """Line and column of character `at` of line `index` (from 0) of `text`, once that line is stripped."""
    lines = text.splitlines(keepends=True)
    lead = len(lines[index]) - len(lines[index].lstrip())
    return _position(text, sum(map(len, lines[:index])) + lead + at)


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


# A literal and the header's counts are ASCII digits; `int()` alone would also
# take `+2`, `1_0` and non-ASCII digits.  A clause line is such literals and
# the whitespace between them, which `str.split` splits on as `\s` matches it.
_DIMACS_LITERAL = re.compile(r"-?[0-9]+")
_DIMACS_CLAUSE_LINE = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*")
# builds a PropClause or a LinIneq in C, without the checks that the parser already made
_new = tuple.__new__


def parse_dimacs(text: str) -> tuple[int, list[PropClause]]:
    """Parse standard DIMACS CNF; returns (number of variables, clauses)."""
    num_vars = num_clauses = header = None
    clauses: list[PropClause] = []
    pending: list[int] = []
    for index, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate DIMACS header", *_line_position(text, index))
            m = re.fullmatch(r"p\s+cnf\s+([0-9]+)\s+([0-9]+)", line)
            if not m:
                raise ParseError(f"malformed header: {line!r}", *_line_position(text, index))
            num_vars, num_clauses, header = int(m.group(1)), int(m.group(2)), index
            continue
        if num_vars is None:
            raise ParseError("clause before the DIMACS header", *_line_position(text, index))
        if not _DIMACS_CLAUSE_LINE.fullmatch(line):
            raise _dimacs_line_error(text, index, line, num_vars)
        for lit in map(int, line.split()):
            if not lit:
                clauses.append(_new(PropClause, (len(clauses) + 1, tuple(pending))))
                pending = []
            elif -num_vars <= lit <= num_vars:
                pending.append(lit)
            else:
                raise _dimacs_line_error(text, index, line, num_vars)
        last = index
    if pending:  # just after the last literal
        end = len(text.splitlines()[last].strip())
        raise ParseError("unterminated clause at end of input", *_line_position(text, last, end))
    if num_vars is None:
        raise ParseError("missing DIMACS header", *_position(text, len(text.rstrip())))
    if num_clauses != len(clauses):
        message = f"header declares {num_clauses} clauses, found {len(clauses)}"
        raise ParseError(message, *_line_position(text, header))
    return num_vars, clauses


def _dimacs_line_error(text: str, index: int, line: str, num_vars: int) -> ParseError:
    """The error of the first token of clause line `index` that is no literal or exceeds the variables."""
    tok = next(t for t in line.split() if not _DIMACS_LITERAL.fullmatch(t) or abs(int(t)) > num_vars)
    if not _DIMACS_LITERAL.fullmatch(tok):
        return ParseError(f"bad literal {tok!r}", *_word_position(text, index, line, tok))
    message = f"literal {int(tok)} exceeds the declared {num_vars} variables"
    return ParseError(message, *_word_position(text, index, line, tok))


def _word_position(text: str, index: int, line: str, word: str) -> tuple[int, int]:
    """Position of the first `word` standing alone in `line`, line `index` of `text` stripped.

    An equal word before the offending one would have failed the same way, so
    the first is the offending one.
    """
    return _line_position(text, index, re.search(rf"(?<!\S){re.escape(word)}(?!\S)", line).start())


# ---------------------------------------------------------------------------
# BS clause text
# ---------------------------------------------------------------------------

# An optional `<id> :` prefix; the id is ASCII digits.
_CLAUSE_ID = re.compile(r"([0-9]+)\s*:\s*")
_NAME = r"[A-Za-z0-9_']+"  # a predicate or term name
# One literal and the '|' or '.' after it.  Every group is optional, so the
# pattern always matches, and the first group missing is the parse error.
_LITERAL = re.compile(
    r"""(-?) \s* (NAME)? \s*                        # sign, predicate
        (?: ( \( (?: \s* NAME \s* , )* ) \s*        # '(' and every argument before the last
            (?: (NAME) \s* (\))? )? )?              # the last argument, ')'
        \s* (?: ([|.]) \s* )?                       # '|' or '.'
    """.replace("NAME", _NAME),
    re.VERBOSE,
)


def parse_bs(text: str) -> list[Clause]:
    """Parse a BS clause problem; checks arity consistency and id uniqueness."""
    if "#" in text:  # blank out each comment up to the end of its line, keeping every offset
        text = re.sub(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*", lambda m: " " * len(m.group()), text)
    clauses: list[Clause] = []
    used_ids: set[int] = set()
    arities: dict[str, int] = {}
    terms: dict[str, Term] = {}
    next_id = 1
    pos, end = len(text) - len(text.lstrip()), len(text)
    while pos < end:
        cid = next_id
        m = _CLAUSE_ID.match(text, pos)
        if m:
            cid = int(m.group(1))
            if cid in used_ids:
                raise ParseError(f"duplicate clause id {cid}", *_position(text, pos))
            pos = m.end()
        literals = []
        stop = "|"
        while stop == "|":
            m = _LITERAL.match(text, pos)
            negative, name, opened, last, closed, stop = m.groups()
            if name is None:
                raise _unexpected(text, m.end(1), "expected an atom")
            if name not in arities and is_variable_name(name):
                message = f"predicate {name!r} starts with a variable prefix"
                raise ParseError(message, *_position(text, m.start(2)))
            args: tuple[Term, ...] = ()
            if opened is not None:
                if last is None:
                    raise _unexpected(text, m.end(3), "expected a term")
                if closed is None:
                    raise _unexpected(text, m.end(4), "expected ',' or ')'")
                names = opened[1:].replace(",", " ").split()
                names.append(last)
                args = tuple(terms.get(n) or terms.setdefault(n, term_from_name(n)) for n in names)
            known = arities.setdefault(name, len(args))
            if known != len(args):
                message = f"predicate {name!r} used with arity {len(args)}, expected {known}"
                raise ParseError(message, *_position(text, m.start(2)))
            if stop is None:
                raise _unexpected(text, m.end(), "expected '|' or '.'")
            literals.append(Literal(not negative, Atom(name, args)))
            pos = m.end()
        used_ids.add(cid)
        next_id = max(next_id, cid) + 1
        clauses.append(Clause(cid, tuple(literals)))
    return clauses


def _unexpected(text: str, offset: int, expected: str) -> ParseError:
    """The error for a grammar item missing at `offset`: names the token found there, or the end of input."""
    m = re.compile(r"\s*([A-Za-z0-9_']+|\S)").match(text, offset)
    if m is None:
        return ParseError("unexpected end of input", *_position(text, len(text.rstrip())))
    return ParseError(f"{expected}, got {m.group(1)!r}", *_position(text, m.start(1)))


# ---------------------------------------------------------------------------
# LIA inequations
# ---------------------------------------------------------------------------

# One term with the '+' or '-' before it and any '-' signs of its own, and the
# comparison after it, if any.  Only spaces separate tokens, and a number is
# ASCII digits.  Every group is optional, so the pattern always matches, and
# the first group missing is the parse error.
_LIA_TERM = re.compile(
    r"""[ ]* ([+-]?) ((?: [ ]* - )* [ ]*)           # operator, signs
        (?: ([0-9]+) (?: [ ]* (\*[ ]*) (NAME)? )?   # number, '*', variable
          | (NAME) )?                               # or a bare variable
        [ ]* (<=|>=|<|>)?                           # comparison
    """.replace("NAME", "[A-Za-z_][A-Za-z0-9_]*"),
    re.VERBOSE,
)


def parse_lia(text: str) -> LiaSystem:
    """One inequation per line; '#' starts a comment; ids are line-ordered."""
    inequations: list[LinIneq] = []
    for index, line in enumerate(text.splitlines()):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        coeffs: dict[str, int] = {}
        const, side, first, op, pos = 0, 1, True, None, 0
        while True:
            m = _LIA_TERM.match(line, pos)
            operator, signs, number, times, factor, name, comparison = m.groups()
            if first and operator == "+":
                raise _lia_error(text, index, line, m.start(1), "dangling '+'")
            if not first and not operator:
                raise _lia_error(text, index, line, m.end(1), "expected an operator before {token!r}")
            if number is None and name is None:
                found = line[m.end(2) : m.end(2) + 1]
                message = {"+": "dangling '+'", "*": "unexpected token '*'"}.get(found)
                raise _lia_error(text, index, line, m.end(2), message or "expression ends with an operator")
            if times and factor is None:
                if m.end(4) == len(line):
                    raise _lia_error(text, index, line, m.start(4), "expected an operator before '*'")
                raise _lia_error(text, index, line, m.end(4), "expected a variable after '*', got {token!r}")
            sign = -side if (operator == "-") ^ (signs.count("-") & 1) else side  # each '-' flips it
            if name is not None:
                coeffs[name] = coeffs.get(name, 0) + sign
            elif factor is not None:
                coeffs[factor] = coeffs.get(factor, 0) + sign * int(number)
            else:
                const += sign * int(number)
            pos, first = m.end(), False
            if comparison:
                if op:
                    raise _lia_error(text, index, line, m.start(7), "trailing input {rest!r}")
                op, side, first = comparison, -1, True
            elif pos == len(line):
                break
        if op is None:
            raise _lia_error(text, index, line, len(line), "missing comparison operator")
        if op in (">", ">="):
            coeffs = {v: -a for v, a in coeffs.items()}
            const = -const
        if op in ("<", ">"):
            const += 1  # strict over the integers
        coeffs = {v: a for v, a in coeffs.items() if a != 0}
        if not coeffs:
            raise ParseError("inequation has no variable", *_line_position(text, index))
        inequations.append(_new(LinIneq, (len(inequations) + 1, tuple(coeffs.items()), const)))
    return LiaSystem(inequations)


def _lia_error(text: str, index: int, line: str, at: int, message: str) -> ParseError:
    """The error at `line[at]`, where `line` is line `index` of `text` stripped.

    In `message`, `{token}` stands for the token at `at` and `{rest}` for the
    tokens from there on, joined by spaces.  A line holding a character that
    starts no token cannot be tokenized, and that error comes first.
    """
    bad = re.search(r"[^ <>=+*\-A-Za-z0-9_]|(?<![<>])=", line)
    if bad:
        return ParseError(f"could not tokenize {line!r}", *_line_position(text, index, bad.start()))
    tokens = re.findall(r"<=|>=|[<>+*-]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*", line[at:]) or [""]
    return ParseError(message.format(token=tokens[0], rest=" ".join(tokens)), *_line_position(text, index, at))


# A variable, a comparison and an integer of ASCII digits.  Those three groups
# are optional and each group starts where the one before it ends, so the
# pattern always matches, and the first of them that is missing is where the
# bound goes wrong.
_BOUND = re.compile(r"(\s*)([A-Za-z_][A-Za-z0-9_]*)?(\s*)(<=|>=|<|>)?(\s*)(-?)([0-9]+)?\s*")


def parse_bound(text: str) -> Bound:
    """Parse a decision bound such as 'x >= 0'.

    A malformed bound is an error on line 1, at the column of the first
    character the grammar cannot take, or just after the last token when
    the value ends too early.
    """
    m = _BOUND.match(text)
    name, op, sign, number = m.group(2, 4, 6, 7)
    if name is None or op is None or number is None or m.end() < len(text):
        missing = next((g for g in (2, 4, 7) if m.group(g) is None), None)
        at = m.end() if missing is None else m.end(missing - 1)
        raise ParseError(f"malformed bound {text!r}", 1, min(at, len(text.rstrip())) + 1)
    return Bound.make(name, op, int(sign + number))


# ---------------------------------------------------------------------------
# Derivation scripts
# ---------------------------------------------------------------------------

# Clause ids and literal positions are ASCII digits.
_SCRIPT_LINE = re.compile(r"([0-9]+)\.([0-9]+)\s+Res\s+([0-9]+)\.([0-9]+)")


def parse_script(text: str) -> list[ScriptStep]:
    """One `L.i Res R.j` per line; '#' starts a comment."""
    steps: list[ScriptStep] = []
    for index, line in enumerate(text.splitlines()):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SCRIPT_LINE.fullmatch(line)
        if not m:
            raise ParseError(f"malformed script step {line!r}", *_line_position(text, index))
        steps.append(tuple(int(g) for g in m.groups()))  # type: ignore[arg-type]
    return steps

