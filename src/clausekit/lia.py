"""Simple-bound propagation for systems of linear integer inequations.

Inequations are kept in the normal form sum(a_i * x_i) + c <= 0 with exact
integer arithmetic throughout.  Bound propagation sweeps round-robin over the
(inequation, variable) pairs in input order and only ever tightens; it can
diverge, which the a-priori solvability box makes detectable and the bounded
exhaustive decision procedure makes complete.  The sweep order is fixed, but
a pair is revisited only after a bound that its implied bound reads is
tightened, and after a tightening only the inequations whose minimum reads
the tightened bound are checked for a conflict.  Both readings, and the
bounded decision's pruning, run on the system compiled once per run: the run
numbers its variables, gives each bound an int slot, and reads every bound's
value from one list by slot; a `Bound` record is built only for the trail.
A propagation's `verdict` is "fixpoint", "conflict" or "diverged", a
decision's "sat", "unsat" or "limit" (the box exceeds its cap); `render`
gives the output lines of either result.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping, NamedTuple

from .jsonl import json_format, json_string

DEFAULT_BOX_CAP = 10_000_000


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

# (variable, lower): the key of a bound in `LiaPropagation.bounds`.  Within a
# run a bound is an int slot instead: the run numbers its variables, and the
# lower bound of variable i has slot 2i, its upper bound 2i + 1.  One list,
# indexed by slot, holds each bound's value, or None while it is unbounded.
BoundKey = tuple[str, bool]
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
    """A propagation's verdict, "fixpoint", "conflict" or "diverged", its trail and tightenings."""

    verdict: str
    trail: list[Bound]
    steps: int
    inequation_id: int | None = None  # the conflicting inequation of a "conflict"

    @property
    def bounds(self) -> dict[BoundKey, Bound]:
        """Each bound's last record on the trail, keyed by (variable, lower), in first-bound order."""
        return {b[:2]: b for b in self.trail}


def _readers(
    system: LiaSystem, index: Mapping[str, int]
) -> tuple[list[Pair], list[CompiledIneq], list[list[CompiledIneq]], list[list[int]]]:
    """The system compiled once: its pairs in sweep order, its inequations, and who reads what.

    For the pair at index p, `scans[p]` holds the inequations whose minimum
    reads the bound that p tightens, in system order, and `wakes[p]` the
    indexes, ascending, of the pairs whose implied bound reads it.  (A pair
    also compares with its own variable's bound, but that bound's tightening
    can only turn its answer into None, so it does not wake the pair.)
    """
    pairs: list[Pair] = []
    inequations: list[CompiledIneq] = []
    scan_readers: list[list[CompiledIneq]] = [[] for _ in range(2 * len(index))]
    pair_readers: list[list[int]] = [[] for _ in range(2 * len(index))]
    for ineq in system.inequations:
        scan = compile_ineq(ineq, index)
        inequations.append(scan)
        for slot, _a in scan[2]:
            scan_readers[slot].append(scan)
            pair = compile_pair(scan, slot >> 1)
            for s, _a in pair[0]:
                pair_readers[s].append(len(pairs))
            pairs.append(pair)
    scans = [scan_readers[pair[2]] for pair in pairs]
    wakes = [pair_readers[pair[2]] for pair in pairs]
    return pairs, inequations, scans, wakes


def propagate_bounds(
    system: LiaSystem, decisions: Iterable[Bound], max_steps: int
) -> LiaPropagation:
    """Round-robin bound tightening until fixpoint, conflict, or budget exhaustion.

    Sweeps visit the (inequation, variable) pairs in input order, as a plain
    round robin would, but visit a pair only when a bound that it reads was
    tightened since its last visit: within the sweep if the pair lies ahead,
    in the next sweep otherwise.  Every other pair would find nothing
    tighter, so the trail, steps and outcome are the round robin's.  A sweep
    with nothing left to visit is the fixpoint.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    decisions = list(decisions)
    # the system's variables in order, then those that only a decision names
    index = {v: i for i, v in enumerate(system.variables)}
    for b in decisions:
        index.setdefault(b.var, len(index))
    # each slot's variable and direction, for the trail's records
    var_of = [v for v in index for _ in (0, 1)]
    lower_of = [True, False] * len(index)
    value: list[int | None] = [None] * (2 * len(index))
    trail: list[Bound] = []
    for b in decisions:
        slot = 2 * index[b.var] + (not b.lower)
        old = value[slot]
        if old is not None and (b.value <= old if b.lower else b.value >= old):
            continue
        value[slot] = b.value
        trail.append(b)
    # the decisions applied; every later trail entry is a tightening, a step
    decided = len(trail)
    cap = decided + max_steps
    pairs, inequations, scans, wakes = _readers(system, index)
    cid = conflicting_inequation(value, inequations)
    if cid is not None:
        return LiaPropagation("conflict", trail, 0, cid)
    n = len(pairs)
    # a heap of the visits due, each as sweep * n + pair index, and per pair
    # the latest visit it is queued for; both start with the whole first sweep
    due = list(range(n))
    queued = list(range(n))
    while due:
        t = heappop(due)
        p = t % n
        pair = pairs[p]
        tighter = implied_bound(pair, value)
        if tighter is None:
            continue
        if len(trail) >= cap:
            return LiaPropagation("diverged", trail, max_steps)
        slot = pair[2]
        value[slot] = tighter
        trail.append(_new(Bound, (var_of[slot], lower_of[slot], tighter, pair[4])))  # the tightening's one record
        # while none conflicts, a tightening moves only the minima that read it
        cid = conflicting_inequation(value, scans[p])
        if cid is not None:
            return LiaPropagation("conflict", trail, len(trail) - decided, cid)
        sweep = t - p
        for r in wakes[p]:
            visit = sweep + r if r > p else sweep + n + r  # later in this sweep, or in the next
            if queued[r] < visit:
                queued[r] = visit
                heappush(due, visit)
    return LiaPropagation("fixpoint", trail, len(trail) - decided)


def apriori_bounds(system: LiaSystem) -> dict[str, tuple[int, int]]:
    """The solvability box: every variable within plus/minus n*(m*a)**(2m+1)."""
    m, n, a = system.m, system.n, system.a
    if m < 1:
        raise ValueError("the system must contain at least one inequation")
    radius = n * (m * a) ** (2 * m + 1)
    return {v: (-radius, radius) for v in system.variables}


class LiaDecision(NamedTuple):
    verdict: str  # "sat" | "unsat" | "limit" (the box exceeds the cap, so no search)
    assignment: dict[str, int] | None = None  # a "sat" model, in the system's variable order


def decide_bounded(system: LiaSystem, box_cap: int = DEFAULT_BOX_CAP) -> LiaDecision:
    """Exhaustive search over the a-priori box; "unsat" there means unsatisfiable.

    A system with no inequation is "sat" under the empty assignment.

    Depth-first over the variables; a node holds the box corners and each
    assigned value as bound values by slot, and `conflicting_inequation`
    prunes it.  A box of more points than the cap is not searched: the
    verdict is "limit".
    """
    if not system.inequations:
        return LiaDecision("sat", {})
    box = apriori_bounds(system)
    variables = system.variables
    volume = 1
    for v in variables:
        lo, hi = box[v]
        volume *= hi - lo + 1
        if volume > box_cap:
            return LiaDecision("limit")
    index = {v: i for i, v in enumerate(variables)}
    inequations = [compile_ineq(ineq, index) for ineq in system.inequations]
    # each variable's box corners, by slot, then each assigned value in both of its slots
    value = [x for v in variables for x in box[v]]

    def search(i: int) -> dict[str, int] | None:
        if conflicting_inequation(value, inequations) is not None:
            return None
        if i == len(variables):
            return {v: value[2 * k] for k, v in enumerate(variables)}
        lower, upper = 2 * i, 2 * i + 1
        corners = value[lower], value[upper]
        for x in range(corners[0], corners[1] + 1):
            value[lower] = value[upper] = x
            found = search(i + 1)
            if found is not None:
                return found
        value[lower], value[upper] = corners
        return None

    found = search(0)
    return LiaDecision("unsat") if found is None else LiaDecision("sat", found)


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
        lines, event = [" ".join(["sat", *(f"{v}={x}" for v, x in result.assignment.items())]) + "\n"], "result"
    elif verdict in ("unsat", "limit"):
        lines, event = [verdict + "\n"], "result"
    else:
        try:
            lines = _bound_lines(result.trail)
        except ValueError:  # a value of more digits than str() converts
            lines = _bound_lines([(var, lower, _digits(value), reason) for var, lower, value, reason in result.trail])
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
