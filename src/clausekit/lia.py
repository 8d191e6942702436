"""Simple-bound propagation for systems of linear integer inequations.

Inequations are kept in the normal form sum(a_i * x_i) + c <= 0 with exact
integer arithmetic throughout.  Bound propagation sweeps round-robin over the
(inequation, variable) pairs in input order and only ever tightens; it can
diverge, which the a-priori solvability box makes detectable.  The bounded
decision searches that box with the same tightening loop: each node
propagates to a fixpoint or a conflict, and a fixpoint branches on a
variable; a node opened by a decision starts from its parent's fixpoint, so
only the decided bound's readers are checked first.  The sweep order is
fixed, but a pair is revisited only after a bound that its implied bound
reads is tightened, and after a tightening only the inequations whose
minimum reads the tightened bound are checked for a conflict.  Both readings run on the system compiled once per run: the run
numbers its variables, gives each bound an int slot, and reads every bound's
value from one list by slot.  The trail holds plain (var, lower, value,
reason) tuples, and a `Bound` record is built only when `trail` is read.
A propagation's `verdict` is "fixpoint", "conflict" or "diverged", a
decision's "sat", "unsat" or "limit" (the search reached its step cap);
`render` gives the output lines of either result.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping, NamedTuple

from .jsonl import json_format, json_string

DEFAULT_DECIDE_STEPS = 10_000  # the steps, decisions and tightenings, of a bounded decision


class _LinIneqFields(NamedTuple):
    id: int
    coeffs: tuple[tuple[str, int], ...]  # (variable, coefficient), input order
    const: int


class LinIneq(_LinIneqFields):
    """The inequation sum(a * v for v, a in coeffs) + const <= 0, a tuple record equal to (id, coeffs, const)."""

    __slots__ = ()

    def __new__(cls, id: int, coeffs: tuple[tuple[str, int], ...], const: int):
        if not coeffs or any(a == 0 for _, a in coeffs):
            raise ValueError("an inequation needs at least one nonzero coefficient")
        if len({v for v, _ in coeffs}) != len(coeffs):
            raise ValueError("duplicate variable in inequation")
        return tuple.__new__(cls, (id, coeffs, const))


class LiaSystem(NamedTuple):
    inequations: list[LinIneq]

    @property
    def m(self) -> int:
        return len(self.inequations)

    @property
    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for ineq in self.inequations:
            for v, _ in ineq.coeffs:
                seen.setdefault(v)
        return list(seen)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def a(self) -> int:
        """Maximal absolute coefficient, constants included; at least 1."""
        values = [abs(a) for ineq in self.inequations for _, a in ineq.coeffs]
        values += [abs(ineq.const) for ineq in self.inequations]
        return max(values) if values else 1


class Bound(NamedTuple):
    var: str
    lower: bool  # True: var >= value, False: var <= value
    value: int
    reason: int | None = None  # inequation id; None marks a decision

    @classmethod
    def make(cls, var: str, kind: str, value: int) -> "Bound":
        """A decision bound; strict comparisons are normalized over the integers: x < c becomes x <= c-1."""
        if kind == "<":
            return cls(var, False, value - 1)
        if kind == "<=":
            return cls(var, False, value)
        if kind == ">":
            return cls(var, True, value + 1)
        if kind == ">=":
            return cls(var, True, value)
        raise ValueError(f"unknown bound kind {kind!r}")

    @property
    def kind(self) -> str:
        return ">=" if self.lower else "<="

    def __str__(self) -> str:
        return f"{self.var} {self.kind} {_digits(self.value)}"


def _digits(value: int) -> str:
    """str(value), also past the number of digits that str() converts, 4300 by default: Decimal has no limit."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal  # only so long a value needs it, so the CLI's start does not pay for it

        return str(Decimal(value))


# builds a NamedTuple from its fields' tuple in C, without the generated Python-level __new__
_new = tuple.__new__

# Within a run a bound is an int slot: the run numbers its variables, and the
# lower bound of variable i has slot 2i, its upper bound 2i + 1.  One list,
# indexed by slot, holds each bound's value, or None while it is unbounded.
# (slot, coefficient) per term: the slot of the bound that bounds the term
# from below, the lower bound for a positive coefficient and the upper one for
# a negative coefficient
Terms = tuple[tuple[int, int], ...]
# An inequation compiled for `conflicting_inequation`: (id, constant, terms).
CompiledIneq = tuple[int, int, Terms]
# An (inequation, variable) pair compiled for `implied_bound`: (reads, rhs,
# slot, coefficient, reason) -- the inequation's other terms, minus its
# constant, the slot of the bound the pair tightens (the upper one for a
# positive coefficient), the variable's coefficient and the inequation's id.
# Both records are plain tuples, the cheapest to build.
Pair = tuple[Terms, int, int, int, int]
# A trail entry, a plain tuple too: a `Bound`'s fields (var, lower, value, reason).
Record = tuple[str, bool, int, int | None]


def compile_ineq(ineq: LinIneq, index: Mapping[str, int]) -> CompiledIneq:
    """The inequation with each term read from the slot that its minimum reads; `index` numbers the variables."""
    return (ineq.id, ineq.const, tuple([(2 * index[v] + (a < 0), a) for v, a in ineq.coeffs]))


def compile_pair(ineq: CompiledIneq, var: int) -> Pair:
    """The pair of a compiled inequation and its variable numbered `var`; it shares the inequation's terms."""
    ineq_id, const, terms = ineq
    for i, (slot, a) in enumerate(terms):
        if slot >> 1 == var:
            return (terms[:i] + terms[i + 1:], -const, 2 * var + (a > 0), a, ineq_id)
    raise ValueError(f"variable {var} has no coefficient in inequation {ineq_id}")


def implied_bound(pair: Pair, value: list[int | None]) -> int | None:
    """Tightest value of the pair's bound entailed by its inequation under the bounds in `value`, by slot.

    None when a bound that the pair reads is missing or nothing gets tighter.
    Integer rounding: floor for upper bounds, ceiling for lower bounds.
    """
    reads, rhs, slot, coeff, _reason = pair
    for s, a in reads:
        v = value[s]
        if v is None:
            return None
        rhs -= a * v
    existing = value[slot]
    if coeff > 0:
        tighter = rhs // coeff
        if existing is not None and tighter >= existing:
            return None
    else:
        tighter = -(rhs // -coeff)
        if existing is not None and tighter <= existing:
            return None
    return tighter


def conflicting_inequation(value: list[int | None], candidates: Iterable[CompiledIneq]) -> int | None:
    """Id of the first of the compiled inequations whose left side has a positive minimum.

    The minimum is taken over the bound box, `value` by slot; a side with an
    unbounded term has none.
    """
    for ineq_id, total, terms in candidates:
        for slot, a in terms:
            v = value[slot]
            if v is None:
                break
            total += a * v
        else:
            if total > 0:
                return ineq_id
    return None


class LiaPropagation(NamedTuple):
    """A propagation's verdict, "fixpoint", "conflict" or "diverged", its trail's records and tightenings."""

    verdict: str
    records: list[Record]
    steps: int
    inequation_id: int | None = None  # the conflicting inequation of a "conflict"

    @property
    def trail(self) -> list[Bound]:
        """The records as `Bound`s, built when asked for."""
        return [_new(Bound, r) for r in self.records]


Readers = tuple[list[Pair], list[CompiledIneq], list[list[CompiledIneq]], list[list[int]], list[str], list[bool]]


def _readers(system: LiaSystem, index: Mapping[str, int]) -> Readers:
    """The system compiled once: pairs in sweep order, inequations, readers, and each slot's variable and direction.

    `index` numbers the variables.  The readers are indexed by bound slot:
    `scans[s]` holds the inequations whose minimum reads slot s, in system
    order, and `wakes[s]` the indexes, ascending, of the pairs whose implied
    bound reads it.  (A pair also compares with its own variable's bound, but
    that bound's tightening can only turn its answer into None, so it does
    not wake the pair.)
    """
    pairs: list[Pair] = []
    inequations: list[CompiledIneq] = []
    scans: list[list[CompiledIneq]] = [[] for _ in range(2 * len(index))]
    wakes: list[list[int]] = [[] for _ in range(2 * len(index))]
    for ineq in system.inequations:
        scan = compile_ineq(ineq, index)
        inequations.append(scan)
        for slot, _a in scan[2]:
            scans[slot].append(scan)
            pair = compile_pair(scan, slot >> 1)
            for s, _a in pair[0]:
                wakes[s].append(len(pairs))
            pairs.append(pair)
    return pairs, inequations, scans, wakes, [v for v in index for _ in (0, 1)], [True, False] * len(index)


def _tighten(readers: Readers, value: list[int | None], trail: list[Record], cap: int,
             decided: int | None = None) -> tuple[str, int | None]:
    """Tighten `value`, by slot, onto the trail until fixpoint, conflict, or a trail of `cap` records.

    Returns the verdict, "fixpoint", "conflict" or "diverged", and the
    conflicting inequation's id.  Sweeps visit the (inequation, variable)
    pairs in input order, as a plain round robin would, but visit a pair
    only when a bound that it reads was tightened since its last visit:
    within the sweep if the pair lies ahead, in the next sweep otherwise.
    Every other pair would find nothing tighter, so the trail and outcome
    are the round robin's.  A sweep with nothing left to visit is the fixpoint.

    Without `decided`, every inequation is checked for a conflict and the
    first sweep visits every pair.  With it, `value` is a conflict-free
    fixpoint in which only the decided slot has moved since, so only that
    slot's readers are checked and visited first: every other one would
    find nothing.
    """
    pairs, inequations, scans, wakes, var_of, lower_of = readers
    n = len(pairs)
    # a heap of the visits due, each as sweep * n + pair index, ascending at
    # the start, and per pair the latest visit it is queued for, -1 for none
    if decided is None:
        cid, due, queued = conflicting_inequation(value, inequations), list(range(n)), list(range(n))
    else:
        cid, due, queued = conflicting_inequation(value, scans[decided]), wakes[decided][:], [-1] * n
        for p in due:
            queued[p] = p
    if cid is not None:
        return "conflict", cid
    while due:
        t = heappop(due)
        p = t % n
        pair = pairs[p]
        tighter = implied_bound(pair, value)
        if tighter is None:
            continue
        if len(trail) >= cap:
            return "diverged", None
        slot = pair[2]
        value[slot] = tighter
        trail.append((var_of[slot], lower_of[slot], tighter, pair[4]))  # the tightening's one record
        # while none conflicts, a tightening moves only the minima that read it
        cid = conflicting_inequation(value, scans[slot])
        if cid is not None:
            return "conflict", cid
        sweep = t - p
        for r in wakes[slot]:
            visit = sweep + r if r > p else sweep + n + r  # later in this sweep, or in the next
            if queued[r] < visit:
                queued[r] = visit
                heappush(due, visit)
    return "fixpoint", None


def propagate_bounds(system: LiaSystem, decisions: Iterable[Bound], max_steps: int) -> LiaPropagation:
    """Round-robin bound tightening (`_tighten`) from the decisions until fixpoint, conflict, or budget exhaustion."""
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    decisions = list(decisions)
    # the system's variables in order, then those that only a decision names
    index = {v: i for i, v in enumerate(system.variables)}
    for b in decisions:
        index.setdefault(b.var, len(index))
    value: list[int | None] = [None] * (2 * len(index))
    trail: list[Record] = []
    for b in decisions:
        slot = 2 * index[b.var] + (not b.lower)
        old = value[slot]
        if old is not None and (b.value <= old if b.lower else b.value >= old):
            continue
        value[slot] = b.value
        trail.append(tuple(b))
    # the decisions applied; every later trail entry is a tightening, a step
    decided = len(trail)
    verdict, cid = _tighten(_readers(system, index), value, trail, decided + max_steps)
    return LiaPropagation(verdict, trail, len(trail) - decided, cid)


def apriori_bounds(system: LiaSystem) -> dict[str, tuple[int, int]]:
    """The solvability box: every variable within plus/minus n*(m*a)**(2m+1)."""
    m, n, a = system.m, system.n, system.a
    if m < 1:
        raise ValueError("the system must contain at least one inequation")
    radius = n * (m * a) ** (2 * m + 1)
    return {v: (-radius, radius) for v in system.variables}


class LiaDecision(NamedTuple):
    verdict: str  # "sat" | "unsat" | "limit" (the search reached its step cap)
    assignment: dict[str, int] | None = None  # a "sat" model, in the system's variable order


def decide_bounded(system: LiaSystem, max_steps: int = DEFAULT_DECIDE_STEPS) -> LiaDecision:
    """Depth-first search of the a-priori box by bound propagation; "unsat" there means unsatisfiable.

    A system with no inequation is "sat" under the empty assignment.  From
    the box corners, each node tightens its bounds to a conflict, which
    closes it, or a fixpoint, which branches on the first variable whose
    bounds differ: first x <= lo, then x >= lo + 1.  Propagation removes
    only values that no integer solution in the node's box takes, so the
    model is the box's lexicographically smallest.  Each decision and each
    tightening is a step on the search's trail; past `max_steps`, "limit".
    """
    if not system.inequations:
        return LiaDecision("sat", {})
    variables = system.variables
    readers = _readers(system, {v: i for i, v in enumerate(variables)})
    value = [x for corners in apriori_bounds(system).values() for x in corners]  # by slot, in system order
    trail: list[Record] = []
    # the decisions still to take, the next last, each with the values by slot that it narrows
    branches: list[tuple[list[int], int, int]] = []
    decided = None  # the root's box corners are no fixpoint; every other node's values are its parent's
    while True:
        verdict, _cid = _tighten(readers, value, trail, max_steps, decided)
        if verdict == "diverged":
            return LiaDecision("limit")
        if verdict == "fixpoint":
            lower = next((s for s in range(0, len(value), 2) if value[s] != value[s + 1]), None)
            if lower is None:  # every variable fixed
                return LiaDecision("sat", {v: value[2 * k] for k, v in enumerate(variables)})
            lo = value[lower]
            branches.append((value[:], lower, lo + 1))
            branches.append((value, lower + 1, lo))
        if not branches:
            return LiaDecision("unsat")
        if len(trail) >= max_steps:
            return LiaDecision("limit")
        value, decided, x = branches.pop()
        value[decided] = x
        trail.append((variables[decided >> 1], not decided & 1, x, None))


# per event, the format of a JSON line that holds its text line alone
_JSON = {event: json_format({"line": 0}, event=event)[0] for event in ("lia", "result")}


def render(result: LiaPropagation | LiaDecision, as_json: bool) -> list[str]:
    """The output lines of a propagation or a decision, as text or as JSON objects.

    A propagation prints its trail, one bound per line, then its verdict; a
    decision prints its verdict, with the model if "sat".  A line's JSON
    object holds only the text line and its `event`: "lia" for a
    propagation's, "result" for a decision's.
    """
    verdict = result.verdict
    if verdict == "sat":
        model = result.assignment.items()
        try:
            values = [f"{v}={x}" for v, x in model]
        except ValueError:  # a value of more digits than str() converts
            values = [f"{v}={_digits(x)}" for v, x in model]
        lines, event = [" ".join(["sat", *values]) + "\n"], "result"
    elif verdict in ("unsat", "limit"):
        lines, event = [verdict + "\n"], "result"
    else:
        try:
            lines = _bound_lines(result.records)
        except ValueError:  # a value of more digits than str() converts
            lines = _bound_lines([(var, lower, _digits(value), reason) for var, lower, value, reason in result.records])
        if verdict == "fixpoint":
            lines.append("fixpoint\n")
        elif verdict == "conflict":
            lines.append(f"conflict {result.inequation_id}\n")
        else:
            lines.append(f"diverged steps={result.steps}\n")
        event = "lia"
    if as_json:
        format = _JSON[event]
        return [format % json_string(line[:-1]) for line in lines]
    return lines


def _bound_lines(trail: Iterable[tuple]) -> list[str]:
    """The text lines of a propagation's trail, one bound per line."""
    return [
        f"bound {var} {'>=' if lower else '<='} {value} <- decision\n" if reason is None
        else f"bound {var} {'>=' if lower else '<='} {value} <- ineq {reason}\n"
        for var, lower, value, reason in trail
    ]
