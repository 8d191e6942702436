"""Parsers and printers for the input formats and derivation scripts.

Three input languages: DIMACS CNF for the propositional solver, a clause text
syntax for BS problems (`-P(x1,0) | P(x1,1).`, identifiers starting with
x, y, z, u, v, w are variables, optional `<id> :` prefixes), and one linear
inequation per line for LIA.  Parse errors carry line/column positions, and
each printer round-trips with its parser.
"""

from __future__ import annotations

import re
from typing import Iterable

from .cdcl import PropClause
from .errors import ParseError
from .lia import Bound, LinIneq, LiaSystem
from .logic import Atom, Clause, Literal, is_variable_name, term_from_name
from .resolution import ScriptStep

# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[int, list[PropClause]]:
    """Parse standard DIMACS CNF; returns (number of variables, clauses)."""
    num_vars = num_clauses = None
    clauses: list[PropClause] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate DIMACS header", lineno)
            m = re.fullmatch(r"p\s+cnf\s+(\d+)\s+(\d+)", line)
            if not m:
                raise ParseError(f"malformed header: {line!r}", lineno)
            num_vars, num_clauses = int(m.group(1)), int(m.group(2))
            continue
        if num_vars is None:
            raise ParseError("clause before the DIMACS header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(PropClause(len(clauses) + 1, tuple(pending)))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} exceeds the declared {num_vars} variables", lineno)
                pending.append(lit)
    if pending:
        raise ParseError("unterminated clause at end of input")
    if num_vars is None:
        raise ParseError("missing DIMACS header")
    if num_clauses != len(clauses):
        raise ParseError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return num_vars, clauses


def print_dimacs(num_vars: int, clauses: Iterable[PropClause]) -> str:
    clauses = list(clauses)
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for c in clauses:
        lines.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# BS clause text
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z0-9_']+|[-|.():,]|\S")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN.finditer(body):
            tokens.append((m.group(), lineno, m.start() + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self) -> tuple[int | None, int | None]:
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            return line, col
        if self.tokens:
            _, line, col = self.tokens[-1]
            return line, col
        return None, None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self.where())
        self.pos += 1
        return tok


_IDENT = re.compile(r"[A-Za-z0-9_']+")


def parse_bs(text: str) -> list[Clause]:
    """Parse a BS clause problem; checks arity consistency and id uniqueness."""
    stream = _TokenStream(_tokenize(text))
    clauses: list[Clause] = []
    used_ids: set[int] = set()
    arities: dict[str, int] = {}
    next_id = 1

    def parse_atom() -> Atom:
        line, col = stream.where()
        name = stream.take()
        if not _IDENT.fullmatch(name):
            raise ParseError(f"expected an atom, got {name!r}", line, col)
        if is_variable_name(name):
            raise ParseError(f"predicate {name!r} starts with a variable prefix", line, col)
        args = []
        if stream.peek() == "(":
            stream.take()
            while True:
                tline, tcol = stream.where()
                tok = stream.take()
                if not _IDENT.fullmatch(tok):
                    raise ParseError(f"expected a term, got {tok!r}", tline, tcol)
                args.append(term_from_name(tok))
                nxt = stream.take()
                if nxt == ")":
                    break
                if nxt != ",":
                    raise ParseError(f"expected ',' or ')', got {nxt!r}", tline, tcol)
        known = arities.setdefault(name, len(args))
        if known != len(args):
            raise ParseError(
                f"predicate {name!r} used with arity {len(args)}, expected {known}", line, col
            )
        return Atom(name, tuple(args))

    while stream.peek() is not None:
        cid = next_id
        if (
            stream.peek().isdigit()
            and stream.pos + 1 < len(stream.tokens)
            and stream.tokens[stream.pos + 1][0] == ":"
        ):
            line, col = stream.where()
            cid = int(stream.take())
            stream.take()  # ':'
            if cid in used_ids:
                raise ParseError(f"duplicate clause id {cid}", line, col)
        literals = []
        while True:
            positive = True
            if stream.peek() == "-":
                stream.take()
                positive = False
            literals.append(Literal(positive, parse_atom()))
            nxt = stream.take()
            if nxt == ".":
                break
            if nxt != "|":
                line, col = stream.where()
                raise ParseError(f"expected '|' or '.', got {nxt!r}", line, col)
        if cid in used_ids:
            raise ParseError(f"duplicate clause id {cid}")
        used_ids.add(cid)
        next_id = max(next_id, cid) + 1
        clauses.append(Clause(cid, tuple(literals)))
    return clauses


def print_bs(clauses: Iterable[Clause]) -> str:
    lines = [f"{c.id} : {c}." for c in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# LIA inequations
# ---------------------------------------------------------------------------

_LIA_TOKEN = re.compile(r"\s*(<=|>=|<|>|[+*-]|-?\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _parse_lia_side(tokens: list[str], lineno: int) -> tuple[dict[str, int], int, list[str]]:
    coeffs: dict[str, int] = {}
    order: list[str] = []
    const = 0
    sign = 1
    expect_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("<=", ">=", "<", ">"):
            break
        if tok == "+":
            if expect_term:
                raise ParseError("dangling '+'", lineno)
            expect_term = True
            sign = 1
            i += 1
            continue
        if tok == "-":
            if expect_term:
                sign = -sign
            else:
                expect_term = True
                sign = -1
            i += 1
            continue
        if not expect_term:
            raise ParseError(f"expected an operator before {tok!r}", lineno)
        if re.fullmatch(r"-?\d+", tok):
            value = sign * int(tok)
            if i + 2 < len(tokens) and tokens[i + 1] == "*":
                var = tokens[i + 2]
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", var):
                    raise ParseError(f"expected a variable after '*', got {var!r}", lineno)
                if var not in coeffs:
                    order.append(var)
                coeffs[var] = coeffs.get(var, 0) + value
                i += 3
            else:
                const += value
                i += 1
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in coeffs:
                order.append(tok)
            coeffs[tok] = coeffs.get(tok, 0) + sign
            i += 1
        else:
            raise ParseError(f"unexpected token {tok!r}", lineno)
        sign = 1
        expect_term = False
    if expect_term:
        raise ParseError("expression ends with an operator", lineno)
    ordered = {v: coeffs[v] for v in order}
    return ordered, const, tokens[i:]


def parse_lia(text: str) -> LiaSystem:
    """One inequation per line; '#' starts a comment; ids are line-ordered."""
    inequations: list[LinIneq] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = [m.group(1) for m in _LIA_TOKEN.finditer(line)]
        if "".join(tokens).replace(" ", "") != line.replace(" ", ""):
            raise ParseError(f"could not tokenize {line!r}", lineno)
        left, lconst, rest = _parse_lia_side(tokens, lineno)
        if not rest:
            raise ParseError("missing comparison operator", lineno)
        op, rest = rest[0], rest[1:]
        right, rconst, leftover = _parse_lia_side(rest, lineno)
        if leftover:
            raise ParseError(f"trailing input {' '.join(leftover)!r}", lineno)
        coeffs = dict(left)
        for v, a in right.items():
            coeffs[v] = coeffs.get(v, 0) - a
        const = lconst - rconst
        if op in (">", ">="):
            coeffs = {v: -a for v, a in coeffs.items()}
            const = -const
        if op in ("<", ">"):
            const += 1  # strict over the integers
        coeffs = {v: a for v, a in coeffs.items() if a != 0}
        if not coeffs:
            raise ParseError("inequation has no variable", lineno)
        inequations.append(LinIneq(len(inequations) + 1, tuple(coeffs.items()), const))
    return LiaSystem(inequations)


def print_lia(system: LiaSystem) -> str:
    return "\n".join(str(ineq) for ineq in system.inequations) + "\n"


_BOUND = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|<|>)\s*(-?\d+)\s*")


def parse_bound(text: str, level: int = 1) -> Bound:
    """Parse a decision bound such as 'x >= 0'."""
    m = _BOUND.fullmatch(text)
    if not m:
        raise ParseError(f"malformed bound {text!r}")
    return Bound.make(m.group(1), m.group(2), int(m.group(3)), level=level, reason=None)


# ---------------------------------------------------------------------------
# Derivation scripts
# ---------------------------------------------------------------------------

_SCRIPT_LINE = re.compile(r"(\d+)\.(\d+)\s+Res\s+(\d+)\.(\d+)")


def parse_script(text: str) -> list[ScriptStep]:
    """One `L.i Res R.j` per line; '#' starts a comment."""
    steps: list[ScriptStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SCRIPT_LINE.fullmatch(line)
        if not m:
            raise ParseError(f"malformed script step {line!r}", lineno)
        steps.append(tuple(int(g) for g in m.groups()))  # type: ignore[arg-type]
    return steps


def print_script(steps: Iterable[ScriptStep]) -> str:
    return "\n".join(f"{a}.{b} Res {c}.{d}" for a, b, c, d in steps) + "\n"
