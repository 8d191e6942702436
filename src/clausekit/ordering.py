"""Knuth-Bendix ordering over unit weights on function-free atoms, and literal maximality.

The ordering is given by a precedence on the symbols: every symbol and every
variable weighs 1, so an atom weighs one more than its arity.  Atoms are
compared as terms rooted at the predicate symbol: by arity, then head
precedence, then the first argument where they differ, and the greater atom
must hold every variable at least as often as the smaller one.  Polarity is
ignored; literals compare by their atoms.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .errors import OrderingConfigError, UsageError
from .logic import Atom, Clause, Constant, Variable


class Cmp(Enum):
    GT = "GT"
    LT = "LT"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


class OrderingConfig(NamedTuple):
    """KBO instance over unit weights: a strict precedence on the symbols."""

    precedence: Mapping[str, int]  # higher value = greater symbol

    def prec_of(self, symbol: str) -> int:
        try:
            return self.precedence[symbol]
        except KeyError:
            raise OrderingConfigError(f"no precedence for symbol {symbol!r}") from None


def default_config(clauses: Iterable[Clause]) -> OrderingConfig:
    """Constants below predicates, each group ordered by name.

    Sorting constants by name makes '1' greater than '0'.
    """
    preds: set[str] = set()
    consts: set[str] = set()
    for clause in clauses:
        for lit in clause.literals:
            preds.add(lit.atom.predicate)
            for arg in lit.atom.args:
                if isinstance(arg, Constant):
                    consts.add(arg.name)
    ordered = sorted(consts) + sorted(preds)
    return OrderingConfig({s: i for i, s in enumerate(ordered)})


def config_with_precedence(base: OrderingConfig, high_to_low: list[str]) -> OrderingConfig:
    """Override the listed symbols' precedence, greatest first; an empty, repeated or unknown name is a UsageError."""
    prec = dict(base.precedence)
    top = max(prec.values(), default=0) + 1
    for offset, sym in enumerate(high_to_low):
        if not sym:
            raise UsageError("precedence has an empty name")
        if sym in high_to_low[:offset]:
            raise UsageError(f"precedence names {sym!r} twice")
        if sym not in base.precedence:
            raise UsageError(f"precedence names {sym!r}, which is no symbol of the problem")
        prec[sym] = top + len(high_to_low) - offset
    return OrderingConfig(prec)


def _covers(s: Atom, t: Atom) -> bool:
    """Every variable occurs in `s` at least as often as in `t`."""
    return all(s.args.count(v) >= t.args.count(v) for v in t.args if isinstance(v, Variable))


def kbo_compare(s: Atom, t: Atom, cfg: OrderingConfig) -> Cmp:
    if s == t:
        return Cmp.EQ
    if len(s.args) != len(t.args):  # an atom weighs one more than its arity
        r = Cmp.GT if len(s.args) > len(t.args) else Cmp.LT
    elif s.predicate != t.predicate:
        r = Cmp.GT if cfg.prec_of(s.predicate) > cfg.prec_of(t.predicate) else Cmp.LT
    else:  # the first argument where they differ decides
        u, v = next((u, v) for u, v in zip(s.args, t.args) if u is not v)  # terms are interned
        if isinstance(u, Variable) or isinstance(v, Variable):
            # distinct variables, or variable vs constant: neither dominates
            return Cmp.INCOMPARABLE
        r = Cmp.GT if cfg.prec_of(u.name) > cfg.prec_of(v.name) else Cmp.LT
    # a greater atom must hold every variable as often as the smaller one
    if r is Cmp.GT:
        return r if _covers(s, t) else Cmp.INCOMPARABLE
    return r if _covers(t, s) else Cmp.INCOMPARABLE


def literal_is_maximal(clause: Clause, index: int, cfg: OrderingConfig) -> bool:
    """Whether no literal of the clause strictly exceeds the one at `index`."""
    lit = clause.literals[index]
    return not any(
        kbo_compare(other.atom, lit.atom, cfg) is Cmp.GT for other in clause.literals
    )
