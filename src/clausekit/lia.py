"""Simple-bound propagation for systems of linear integer inequations.

Inequations are kept in the normal form sum(a_i * x_i) + c <= 0 with exact
integer arithmetic throughout.  Bound propagation sweeps round-robin over the
(inequation, variable) pairs in input order and only ever tightens; it can
diverge, which the a-priori solvability box makes detectable and the bounded
exhaustive decision procedure makes complete.  The sweep order is fixed, but
a pair is revisited only after a bound that its implied bound reads is
tightened, and after a tightening only the inequations whose minimum reads
the tightened bound are checked for a conflict.  Both readings, and the
bounded decision's pruning, run on the system compiled once, with every term
keyed by the bound it reads.  A propagation's `verdict` is "fixpoint",
"conflict" or "diverged", a decision's "sat" or "unsat"; `render` gives the
output lines of either result.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator, Mapping, NamedTuple

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


class Bound(NamedTuple):
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


# builds a NamedTuple from its fields' tuple in C, without the generated Python-level __new__
_new = tuple.__new__

BoundKey = tuple[str, bool]  # (variable, lower)
BoundMap = Mapping[BoundKey, Bound]
# (bound key, coefficient) per term: the key of the bound that bounds the term
# from below, the lower bound for a positive coefficient and the upper one for
# a negative coefficient
KeyedTerms = tuple[tuple[BoundKey, int], ...]
# An inequation compiled for `conflicting_inequation`: (id, constant, terms).
CompiledIneq = tuple[int, int, KeyedTerms]
# An (inequation, variable) pair compiled for `implied_bound`: (reads, rhs,
# key, coefficient, reason) -- the inequation's other terms, minus its
# constant, the bound the pair tightens (the upper one for a positive
# coefficient), the variable's coefficient and the inequation's id.  Both
# records are plain tuples, the cheapest to build.
Pair = tuple[KeyedTerms, int, BoundKey, int, int]


def compile_ineq(ineq: LinIneq) -> CompiledIneq:
    """The inequation with its terms keyed by the bounds that its minimum reads."""
    return (ineq.id, ineq.const, tuple([((v, a > 0), a) for v, a in ineq.coeffs]))


def compile_pair(ineq: CompiledIneq, var: str) -> Pair:
    """The pair of a compiled inequation and one of its variables; it shares the inequation's terms."""
    ineq_id, const, terms = ineq
    for i, ((v, _lower), a) in enumerate(terms):
        if v == var:
            return (terms[:i] + terms[i + 1:], -const, (var, a < 0), a, ineq_id)
    raise ValueError(f"{var} has no coefficient in inequation {ineq_id}")


def implied_bound(pair: Pair, current: BoundMap, level: int = 0) -> Bound | None:
    """Tightest bound on the pair's variable entailed by its inequation under the current bounds.

    None when a bound that the pair reads is missing or nothing gets tighter;
    the bound found carries `level` and the inequation as its reason.
    Integer rounding: floor for upper bounds, ceiling for lower bounds.
    """
    reads, rhs, key, coeff, reason = pair
    for k, a in reads:
        bound = current.get(k)
        if bound is None:
            return None
        rhs -= a * bound.value
    existing = current.get(key)
    if coeff > 0:
        value = rhs // coeff
        if existing is not None and value >= existing.value:
            return None
    else:
        value = -(rhs // -coeff)
        if existing is not None and value <= existing.value:
            return None
    return _new(Bound, (key[0], key[1], value, level, reason))


def conflicting_inequation(
    system: LiaSystem, current: BoundMap, candidates: Iterable[CompiledIneq] | None = None
) -> int | None:
    """Id of the first inequation, in system order, whose left side has a positive minimum.

    The minimum is taken over the bound box; a side with an unbounded term
    has none.  `candidates`, the compiled forms of a subsequence of the
    system's inequations in system order, limits the scan to them.
    """
    if candidates is None:
        candidates = map(compile_ineq, system.inequations)
    for ineq_id, total, terms in candidates:
        for key, a in terms:
            bound = current.get(key)
            if bound is None:
                break
            total += a * bound.value
        else:
            if total > 0:
                return ineq_id
    return None


@dataclass
class LiaPropagation:
    """A propagation's verdict, "fixpoint", "conflict" or "diverged", its bounds, trail and tightenings."""

    verdict: str
    bounds: dict[BoundKey, Bound]
    trail: list[Bound]
    steps: int
    inequation_id: int | None = None  # the conflicting inequation of a "conflict"


def _readers(
    system: LiaSystem,
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
    scan_readers: dict[BoundKey, list[CompiledIneq]] = {}
    pair_readers: dict[BoundKey, list[int]] = {}
    for ineq in system.inequations:
        scan = compile_ineq(ineq)
        inequations.append(scan)
        for key, _a in scan[2]:
            scan_readers.setdefault(key, []).append(scan)
        for var, _a in ineq.coeffs:
            pair = compile_pair(scan, var)
            for key, _a in pair[0]:
                pair_readers.setdefault(key, []).append(len(pairs))
            pairs.append(pair)
    keys = [pair[2] for pair in pairs]
    scans = [scan_readers.get(key, []) for key in keys]
    wakes = [pair_readers.get(key, []) for key in keys]
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
    pairs, inequations, scans, wakes = _readers(system)
    cid = conflicting_inequation(system, current, inequations)
    if cid is not None:
        return LiaPropagation("conflict", current, trail, steps, cid)
    n = len(pairs)
    # a heap of the visits due, each as sweep * n + pair index, and per pair
    # the latest visit it is queued for; both start with the whole first sweep
    due = list(range(n))
    queued = list(range(n))
    while due:
        t = heappop(due)
        p = t % n
        pair = pairs[p]
        bound = implied_bound(pair, current, level)
        if bound is None:
            continue
        if steps >= max_steps:
            return LiaPropagation("diverged", current, trail, steps)
        current[pair[2]] = bound
        trail.append(bound)
        steps += 1
        # while none conflicts, a tightening moves only the minima that read it
        cid = conflicting_inequation(system, current, scans[p])
        if cid is not None:
            return LiaPropagation("conflict", current, trail, steps, cid)
        sweep = t - p
        for r in wakes[p]:
            visit = sweep + r if r > p else sweep + n + r  # later in this sweep, or in the next
            if queued[r] < visit:
                queued[r] = visit
                heappush(due, visit)
    return LiaPropagation("fixpoint", current, trail, steps)


def apriori_bounds(system: LiaSystem) -> dict[str, tuple[int, int]]:
    """The solvability box: every variable within plus/minus n*(m*a)**(2m+1)."""
    m, n, a = system.m, system.n, system.a
    if m < 1:
        raise ValueError("the system must contain at least one inequation")
    radius = n * (m * a) ** (2 * m + 1)
    return {v: (-radius, radius) for v in system.variables}


@dataclass
class LiaDecision:
    verdict: str  # "sat" | "unsat"
    assignment: dict[str, int] | None = None  # a "sat" model, in the system's variable order


def decide_bounded(system: LiaSystem, box_cap: int = DEFAULT_BOX_CAP) -> LiaDecision:
    """Exhaustive search over the a-priori box; "unsat" there means unsatisfiable.

    Depth-first over the variables; a node holds the box corners and each
    assigned value as bounds, and `conflicting_inequation` prunes it.  Raises
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
    inequations = [compile_ineq(ineq) for ineq in system.inequations]
    current: dict[BoundKey, Bound] = {
        (v, lower): _new(Bound, (v, lower, lo if lower else hi, 0, None))
        for v, (lo, hi) in box.items() for lower in (True, False)
    }

    def search(i: int) -> dict[str, int] | None:
        if conflicting_inequation(system, current, inequations) is not None:
            return None
        if i == len(variables):
            return {v: current[(v, True)].value for v in variables}
        v = variables[i]
        lower, upper = (v, True), (v, False)
        corners = current[lower], current[upper]
        for value in range(corners[0].value, corners[1].value + 1):
            current[lower] = _new(Bound, (v, True, value, 0, None))
            current[upper] = _new(Bound, (v, False, value, 0, None))
            found = search(i + 1)
            if found is not None:
                return found
        current[lower], current[upper] = corners
        return None

    found = search(0)
    return LiaDecision("unsat") if found is None else LiaDecision("sat", found)


# the JSON fields of every propagation line, shared: a consumer copies them
_LIA_FIELDS = {"event": "lia"}


def render(result: LiaPropagation | LiaDecision) -> Iterator[tuple[str, dict]]:
    """The output of a propagation or a decision, one (text line, JSON fields) pair per line.

    A propagation prints its trail, one bound per line, then its verdict; a
    decision prints its verdict with the model.  The fields of a propagation
    line are one dict shared by every line, not to be mutated.
    """
    verdict = result.verdict
    if verdict == "sat":
        yield "sat " + " ".join(f"{v}={x}" for v, x in result.assignment.items()), {"event": "result"}
        return
    if verdict == "unsat":
        yield "unsat", {"event": "result"}
        return
    for var, lower, value, _level, reason in result.trail:
        if reason is None:
            yield f"bound {var} {'>=' if lower else '<='} {value} <- decision", _LIA_FIELDS
        else:
            yield f"bound {var} {'>=' if lower else '<='} {value} <- ineq {reason}", _LIA_FIELDS
    if verdict == "fixpoint":
        yield "fixpoint", _LIA_FIELDS
    elif verdict == "conflict":
        yield f"conflict {result.inequation_id}", _LIA_FIELDS
    else:
        yield f"diverged steps={result.steps}", _LIA_FIELDS
