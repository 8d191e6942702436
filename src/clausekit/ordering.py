"""Knuth-Bendix ordering on function-free atoms, and literal maximality.

Atoms are compared as terms rooted at the predicate symbol: by total weight,
then head precedence, then arguments left-to-right, and the greater atom must
hold every variable at least as often as the smaller one.  Polarity is
ignored; literals compare by their atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .errors import OrderingConfigError
from .logic import Atom, Clause, Constant, Term, Variable


class Cmp(Enum):
    GT = "GT"
    LT = "LT"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class OrderingConfig:
    """KBO instance: symbol weights, a strict precedence, and the variable weight."""

    weights: Mapping[str, int]
    precedence: Mapping[str, int]  # higher value = greater symbol
    variable_weight: int = 1

    def __post_init__(self):
        if self.variable_weight < 1:
            raise ValueError("variable weight must be positive")
        for sym, w in self.weights.items():
            if w < self.variable_weight:
                # KBO admissibility: constants may not weigh less than variables
                raise ValueError(f"weight of {sym!r} is below the variable weight")

    def weight_of(self, symbol: str) -> int:
        try:
            return self.weights[symbol]
        except KeyError:
            raise OrderingConfigError(f"no weight for symbol {symbol!r}") from None

    def prec_of(self, symbol: str) -> int:
        try:
            return self.precedence[symbol]
        except KeyError:
            raise OrderingConfigError(f"no precedence for symbol {symbol!r}") from None


def default_config(clauses: Iterable[Clause]) -> OrderingConfig:
    """Unit weights; constants below predicates, each group ordered by name.

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
    return OrderingConfig(
        weights={s: 1 for s in ordered},
        precedence={s: i for i, s in enumerate(ordered)},
    )


def config_with_precedence(base: OrderingConfig, high_to_low: list[str]) -> OrderingConfig:
    """Override precedence for the listed symbols (given greatest first); a repeat is a ValueError."""
    prec = dict(base.precedence)
    top = max(prec.values(), default=0) + 1
    for offset, sym in enumerate(high_to_low):
        if sym in high_to_low[:offset]:
            raise ValueError(f"precedence names {sym!r} twice")
        prec[sym] = top + len(high_to_low) - offset
    weights = dict(base.weights)
    for sym in high_to_low:
        weights.setdefault(sym, 1)
    return OrderingConfig(weights=weights, precedence=prec, variable_weight=base.variable_weight)


def atom_weight(atom: Atom, cfg: OrderingConfig) -> int:
    total = cfg.weight_of(atom.predicate)
    for arg in atom.args:
        total += cfg.variable_weight if isinstance(arg, Variable) else cfg.weight_of(arg.name)
    return total


def _term_compare(u: Term, v: Term, cfg: OrderingConfig) -> Cmp:
    if u is v:  # terms are interned
        return Cmp.EQ
    if isinstance(u, Variable) or isinstance(v, Variable):
        # distinct variables, or variable vs constant: neither dominates
        return Cmp.INCOMPARABLE
    wu, wv = cfg.weight_of(u.name), cfg.weight_of(v.name)
    if wu != wv:
        return Cmp.GT if wu > wv else Cmp.LT
    return Cmp.GT if cfg.prec_of(u.name) > cfg.prec_of(v.name) else Cmp.LT


def _covers(s: Atom, t: Atom) -> bool:
    """Every variable occurs in `s` at least as often as in `t`."""
    return all(s.args.count(v) >= t.args.count(v) for v in t.args if isinstance(v, Variable))


def kbo_compare(s: Atom, t: Atom, cfg: OrderingConfig) -> Cmp:
    if s == t:
        return Cmp.EQ
    ws, wt = atom_weight(s, cfg), atom_weight(t, cfg)
    if ws != wt:
        r = Cmp.GT if ws > wt else Cmp.LT
    elif s.predicate != t.predicate:
        r = Cmp.GT if cfg.prec_of(s.predicate) > cfg.prec_of(t.predicate) else Cmp.LT
    else:  # the first argument where they differ decides
        r = next((_term_compare(u, v, cfg) for u, v in zip(s.args, t.args) if u is not v), Cmp.EQ)
    # a greater atom must hold every variable as often as the smaller one
    if r is Cmp.GT:
        return r if _covers(s, t) else Cmp.INCOMPARABLE
    if r is Cmp.LT:
        return r if _covers(t, s) else Cmp.INCOMPARABLE
    return r


def literal_is_maximal(clause: Clause, index: int, cfg: OrderingConfig) -> bool:
    """Whether no literal of the clause strictly exceeds the one at `index`."""
    lit = clause.literals[index]
    return not any(
        kbo_compare(other.atom, lit.atom, cfg) is Cmp.GT for other in clause.literals
    )
