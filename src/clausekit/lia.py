"""Simple-bound propagation for systems of linear integer inequations.

Inequations are kept in the normal form sum(a_i * x_i) + c <= 0 with exact
integer arithmetic throughout.  Bound propagation sweeps round-robin over the
(inequation, variable) pairs in input order and only ever tightens; it can
diverge, which the a-priori solvability box makes detectable and the bounded
exhaustive decision procedure makes complete.  The sweep order is fixed, but
a pair is revisited only after a bound that its implied bound reads is
tightened, and after a tightening only the inequations whose minimum reads
the tightened bound are checked for a conflict.  `render` gives the output
lines of either result.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator, Mapping

from .errors import ResourceLimitError

DEFAULT_BOX_CAP = 10_000_000


@dataclass(frozen=True, slots=True)
class LinIneq:
    id: int
    coeffs: tuple[tuple[str, int], ...]  # (variable, coefficient), input order
    const: int

    def __post_init__(self):
        if not self.coeffs or any(a == 0 for _, a in self.coeffs):
            raise ValueError("an inequation needs at least one nonzero coefficient")
        if len({v for v, _ in self.coeffs}) != len(self.coeffs):
            raise ValueError("duplicate variable in inequation")

    def __str__(self) -> str:
        parts = []
        if self.const != 0:
            parts.append(str(self.const))
        for v, a in self.coeffs:
            sign = "-" if a < 0 else "+"
            term = f"{abs(a)}*{v}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        if not parts:
            parts.append("0")
        return " ".join(parts) + " <= 0"


@dataclass
class LiaSystem:
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


@dataclass(frozen=True, slots=True)
class Bound:
    var: str
    lower: bool  # True: var >= value, False: var <= value
    value: int
    level: int = 0
    reason: int | None = None  # inequation id; None marks a decision

    @classmethod
    def make(
        cls, var: str, kind: str, value: int, level: int = 0, reason: int | None = None
    ) -> "Bound":
        """Normalize strict comparisons over the integers: x < c becomes x <= c-1."""
        if kind == "<":
            return cls(var, False, value - 1, level, reason)
        if kind == "<=":
            return cls(var, False, value, level, reason)
        if kind == ">":
            return cls(var, True, value + 1, level, reason)
        if kind == ">=":
            return cls(var, True, value, level, reason)
        raise ValueError(f"unknown bound kind {kind!r}")

    @property
    def kind(self) -> str:
        return ">=" if self.lower else "<="

    def __str__(self) -> str:
        return f"{self.var} {self.kind} {self.value}"


BoundKey = tuple[str, bool]  # (variable, lower)
BoundMap = Mapping[BoundKey, Bound]


def implied_bound(ineq: LinIneq, current: BoundMap, var: str, level: int = 0) -> Bound | None:
    """Tightest bound on var entailed by the inequation under the current bounds.

    None when a required opposite bound is missing or nothing gets tighter;
    the bound found carries `level` and the inequation as its reason.
    Integer rounding: floor for upper bounds, ceiling for lower bounds.
    """
    a_var = 0
    s_min: int | None = 0
    for v, a in ineq.coeffs:
        if v == var:
            a_var = a
        elif s_min is not None:
            bound = current.get((v, a > 0))  # a > 0 needs a lower bound, a < 0 an upper
            s_min = None if bound is None else s_min + a * bound.value
    if a_var == 0:
        raise ValueError(f"{var} has no coefficient in inequation {ineq.id}")
    if s_min is None:
        return None
    rhs = -ineq.const - s_min
    if a_var > 0:
        value = rhs // a_var
        existing = current.get((var, False))
        if existing is not None and value >= existing.value:
            return None
        return Bound(var, False, value, level, ineq.id)
    value = -(rhs // -a_var)
    existing = current.get((var, True))
    if existing is not None and value <= existing.value:
        return None
    return Bound(var, True, value, level, ineq.id)


def _min_value(ineq: LinIneq, current: BoundMap) -> int | None:
    """Minimum of the left side over the bound box; None when unbounded below."""
    total = ineq.const
    for v, a in ineq.coeffs:
        bound = current.get((v, a > 0))
        if bound is None:
            return None
        total += a * bound.value
    return total


def conflicting_inequation(
    system: LiaSystem, current: BoundMap, candidates: Iterable[LinIneq] | None = None
) -> int | None:
    """Id of the first inequation, in system order, whose left side has a positive minimum.

    `candidates`, a subsequence of the system's inequations in system order,
    limits the scan to them.
    """
    for ineq in system.inequations if candidates is None else candidates:
        m = _min_value(ineq, current)
        if m is not None and m > 0:
            return ineq.id
    return None


@dataclass
class LiaFixpoint:
    bounds: dict[tuple[str, bool], Bound]
    trail: list[Bound]
    steps: int


@dataclass
class LiaConflict:
    inequation_id: int
    bounds: dict[tuple[str, bool], Bound]
    trail: list[Bound]
    steps: int


@dataclass
class LiaDiverged:
    steps: int
    bounds: dict[tuple[str, bool], Bound]
    trail: list[Bound]


def _readers(
    system: LiaSystem,
) -> tuple[list[tuple[LinIneq, str]], dict[BoundKey, list[int]], dict[BoundKey, list[LinIneq]]]:
    """The system's (inequation, variable) pairs in sweep order, and who reads each bound.

    The implied bound of a pair is computed from the bounds of the other
    variables of its inequation, each on the side that bounds the left side
    from below; `pair_readers` maps such a bound key to the indexes of the
    pairs that read it, ascending.  (A pair also compares with its own
    variable's bound, but that bound's tightening can only turn its answer
    into None.)  `scan_readers` maps a bound key to the inequations whose
    minimum reads it, in system order.
    """
    pairs: list[tuple[LinIneq, str]] = []
    pair_readers: dict[BoundKey, list[int]] = {}
    scan_readers: dict[BoundKey, list[LinIneq]] = {}
    for ineq in system.inequations:
        for v, a in ineq.coeffs:
            scan_readers.setdefault((v, a > 0), []).append(ineq)
        for var, _a in ineq.coeffs:
            for v, a in ineq.coeffs:
                if v != var:
                    pair_readers.setdefault((v, a > 0), []).append(len(pairs))
            pairs.append((ineq, var))
    return pairs, pair_readers, scan_readers


def propagate_bounds(
    system: LiaSystem, decisions: Iterable[Bound], max_steps: int
) -> LiaFixpoint | LiaConflict | LiaDiverged:
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
    current: dict[tuple[str, bool], Bound] = {}
    trail: list[Bound] = []
    for b in decisions:
        key = (b.var, b.lower)
        old = current.get(key)
        if old is not None and (
            (b.lower and b.value <= old.value) or (not b.lower and b.value >= old.value)
        ):
            continue
        current[key] = b
        trail.append(b)
    steps = 0
    level = max((b.level for b in trail), default=0)  # derived bounds add no level
    cid = conflicting_inequation(system, current)
    if cid is not None:
        return LiaConflict(cid, current, trail, steps)
    pairs, pair_readers, scan_readers = _readers(system)
    due = list(range(len(pairs)))  # a heap of the pairs still to visit in this sweep
    queued = set(due)
    while due:
        later: set[int] = set()
        while due:
            p = heappop(due)
            ineq, var = pairs[p]
            bound = implied_bound(ineq, current, var, level)
            if bound is None:
                continue
            if steps >= max_steps:
                return LiaDiverged(steps, current, trail)
            key = (var, bound.lower)
            current[key] = bound
            trail.append(bound)
            steps += 1
            # while none conflicts, a tightening moves only the minima that read it
            cid = conflicting_inequation(system, current, scan_readers.get(key, ()))
            if cid is not None:
                return LiaConflict(cid, current, trail, steps)
            for r in pair_readers.get(key, ()):
                if r < p:
                    later.add(r)
                elif r not in queued:
                    queued.add(r)
                    heappush(due, r)
        due = sorted(later)
        queued = later
    return LiaFixpoint(current, trail, steps)


def apriori_bounds(system: LiaSystem) -> dict[str, tuple[int, int]]:
    """The solvability box: every variable within plus/minus n*(m*a)**(2m+1)."""
    m, n, a = system.m, system.n, system.a
    if m < 1:
        raise ValueError("the system must contain at least one inequation")
    radius = n * (m * a) ** (2 * m + 1)
    return {v: (-radius, radius) for v in system.variables}


@dataclass
class LiaSat:
    assignment: dict[str, int]  # in the system's variable order


@dataclass
class LiaUnsat:
    pass


def decide_bounded(system: LiaSystem, box_cap: int = DEFAULT_BOX_CAP) -> LiaSat | LiaUnsat:
    """Exhaustive search over the a-priori box; Unsat there means unsatisfiable.

    Depth-first over the variables with partial-evaluation pruning; raises
    ResourceLimitError when the box volume exceeds the cap.
    """
    box = apriori_bounds(system)
    variables = system.variables
    volume = 1
    for v in variables:
        lo, hi = box[v]
        volume *= hi - lo + 1
        if volume > box_cap:
            raise ResourceLimitError(f"search box exceeds the cap of {box_cap} points")

    assignment: dict[str, int] = {}

    def ineq_min(ineq: LinIneq) -> int:
        total = ineq.const
        for v, a in ineq.coeffs:
            if v in assignment:
                total += a * assignment[v]
            else:
                lo, hi = box[v]
                total += a * lo if a > 0 else a * hi
        return total

    def search(i: int) -> dict[str, int] | None:
        if any(ineq_min(ineq) > 0 for ineq in system.inequations):
            return None
        if i == len(variables):
            return dict(assignment)
        v = variables[i]
        lo, hi = box[v]
        for value in range(lo, hi + 1):
            assignment[v] = value
            found = search(i + 1)
            if found is not None:
                return found
            del assignment[v]
        return None

    found = search(0)
    return LiaSat(found) if found is not None else LiaUnsat()


def render(
    result: LiaFixpoint | LiaConflict | LiaDiverged | LiaSat | LiaUnsat,
) -> Iterator[tuple[str, dict]]:
    """The output of a propagation or a decision, one (text line, JSON fields) pair per line.

    A propagation prints its trail, one bound per line, then its outcome; a
    decision prints its verdict with the model.
    """
    if isinstance(result, LiaSat):
        yield "sat " + " ".join(f"{v}={x}" for v, x in result.assignment.items()), {"event": "result"}
        return
    if isinstance(result, LiaUnsat):
        yield "unsat", {"event": "result"}
        return
    for b in result.trail:
        source = "decision" if b.reason is None else f"ineq {b.reason}"
        yield f"bound {b.var} {b.kind} {b.value} <- {source}", {"event": "lia"}
    if isinstance(result, LiaFixpoint):
        yield "fixpoint", {"event": "lia"}
    elif isinstance(result, LiaConflict):
        yield f"conflict {result.inequation_id}", {"event": "lia"}
    else:
        yield f"diverged steps={result.steps}", {"event": "lia"}
