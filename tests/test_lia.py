import random
from collections import Counter

import pytest

from oracles import exhaustive_lia_search, reference_box_radius, reference_decide_bounded, reference_propagate_bounds
from clausekit import lia
from clausekit.errors import ResourceLimitError
from clausekit.formats import parse_lia
from clausekit.lia import (
    Bound,
    LiaSystem,
    LinIneq,
    apriori_bounds,
    compile_ineq,
    compile_pair,
    decide_bounded,
    implied_bound,
    propagate_bounds,
    render,
)

DIVERGENT = parse_lia("x - y <= 0\ny - x + 1 <= 0\n")


def bounds_map(*bounds: Bound) -> dict:
    return {(b.var, b.lower): b for b in bounds}


class TestImpliedBound:
    def test_lower_bound_transfer(self):
        ineq = LinIneq(1, (("x", 1), ("y", -1)), 0)  # x - y <= 0
        bound = implied_bound(compile_pair(compile_ineq(ineq), "y"), bounds_map(Bound("x", True, 5)))
        assert bound == Bound("y", True, 5, reason=1)

    def test_offset_transfer(self):
        ineq = LinIneq(2, (("y", 1), ("x", -1)), 1)  # y - x + 1 <= 0
        bound = implied_bound(compile_pair(compile_ineq(ineq), "x"), bounds_map(Bound("y", True, 5)))
        assert bound == Bound("x", True, 6, reason=2)

    def test_coefficient_rounding(self):
        ineq = LinIneq(1, (("x", 2), ("y", 3)), -1)  # 2x + 3y - 1 <= 0
        bound = implied_bound(compile_pair(compile_ineq(ineq), "x"), bounds_map(Bound("y", True, 1)))
        assert bound == Bound("x", False, -1, reason=1)

    def test_missing_opposite_bound(self):
        ineq = LinIneq(1, (("x", 1), ("y", -1)), 0)
        assert implied_bound(compile_pair(compile_ineq(ineq), "y"), bounds_map(Bound("x", False, 5))) is None

    def test_not_tighter(self):
        ineq = LinIneq(1, (("x", 1), ("y", -1)), 0)
        current = bounds_map(Bound("x", True, 5), Bound("y", True, 9))
        assert implied_bound(compile_pair(compile_ineq(ineq), "y"), current) is None

    def test_needs_nonzero_coefficient(self):
        with pytest.raises(ValueError):
            compile_pair(compile_ineq(LinIneq(1, (("x", 1),), 0)), "y")

    def test_ceiling_for_negative_coefficient(self):
        ineq = LinIneq(1, (("x", -2), ("y", 1)), 0)  # y <= 2x
        bound = implied_bound(compile_pair(compile_ineq(ineq), "x"), bounds_map(Bound("y", True, 5)))
        assert bound == Bound("x", True, 3, reason=1)  # x >= ceil(5/2)


class TestPropagateBounds:
    def test_divergent_alternation(self):
        result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0, level=1)], 100)
        assert result.verdict == "diverged" and result.steps == 100
        prefix = [(b.var, b.kind, b.value) for b in result.trail[:5]]
        assert prefix == [
            ("x", ">=", 0),
            ("y", ">=", 0),
            ("x", ">=", 1),
            ("y", ">=", 1),
            ("x", ">=", 2),
        ]

    def test_single_propagation(self):
        system = parse_lia("x - y <= 0\n")
        result = propagate_bounds(system, [Bound.make("x", ">=", 5, level=1)], 100)
        assert result.verdict == "fixpoint"
        assert result.bounds[("y", True)].value == 5

    def test_direct_contradiction(self):
        system = parse_lia("x <= 0\n-x + 1 <= 0\n")
        result = propagate_bounds(system, [], 100)
        assert result.verdict == "conflict" and result.inequation_id == 2

    def test_budget_zero_without_propagation(self):
        result = propagate_bounds(DIVERGENT, [], 0)
        assert result.verdict == "fixpoint" and result.steps == 0

    def test_monotone_per_direction(self):
        result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0, level=1)], 50)
        last: dict = {}
        for b in result.trail:
            key = (b.var, b.lower)
            if key in last:
                assert b.value > last[key] if b.lower else b.value < last[key]
            last[key] = b.value

    def test_soundness_of_propagated_bounds(self):
        # every integer point satisfying system+decisions satisfies each bound
        system = parse_lia("2*x + 3*y - 1 <= 0\nx - y <= 0\n")
        decisions = [Bound.make("y", ">=", -3, level=1), Bound.make("x", ">=", -4, level=1)]
        result = propagate_bounds(system, decisions, 200)
        points = []
        for xv in range(-10, 11):
            for yv in range(-10, 11):
                if (
                    2 * xv + 3 * yv - 1 <= 0
                    and xv - yv <= 0
                    and yv >= -3
                    and xv >= -4
                ):
                    points.append({"x": xv, "y": yv})
        assert points
        for b in result.trail:
            for point in points:
                value = point[b.var]
                assert value >= b.value if b.lower else value <= b.value

    def test_conflict_soundness(self):
        # a conflict means no integer point satisfies system + decisions
        rng = random.Random(77)
        conflicts = 0
        for _ in range(300):
            system = _random_system(rng)
            decisions = [
                Bound.make(v, rng.choice([">=", "<="]), rng.randint(-3, 3), level=1)
                for v in system.variables
                if rng.random() < 0.7
            ]
            result = propagate_bounds(system, decisions, 400)
            if result.verdict != "conflict":
                continue
            conflicts += 1
            box = {v: (-20, 20) for v in system.variables}
            for point in _box_points(box):
                if any(
                    (point[b.var] < b.value) if b.lower else (point[b.var] > b.value)
                    for b in decisions
                ):
                    continue
                violated = any(
                    ineq.const + sum(a * point[v] for v, a in ineq.coeffs) > 0
                    for ineq in system.inequations
                )
                assert violated, f"conflict reported but {point} satisfies everything"
        assert conflicts > 10

    def test_targeted_conflict_scan_matches_full_rescan(self, monkeypatch):
        # after a tightening only the inequations mentioning its variable are scanned
        rng = random.Random(224)
        cases = []
        for _ in range(300):
            variables = ["v1", "v2", "v3", "v4", "v5"][: rng.randint(2, 5)]
            ineqs = []
            for i in range(1, rng.randint(2, 7) + 1):
                chosen = rng.sample(variables, rng.randint(1, min(3, len(variables))))
                coeffs = tuple((v, rng.choice([-3, -2, -1, 1, 2, 3])) for v in chosen)
                ineqs.append(LinIneq(i, coeffs, rng.randint(-4, 4)))
            decisions = [
                Bound.make(v, rng.choice([">=", "<="]), rng.randint(-4, 4), level=1)
                for v in variables
                if rng.random() < 0.6
            ]
            cases.append((LiaSystem(ineqs), decisions))
        got = [propagate_bounds(system, decisions, 200) for system, decisions in cases]
        targeted = lia.conflicting_inequation

        def full_scan(system, current, candidates=None):
            return targeted(system, current)

        monkeypatch.setattr(lia, "conflicting_inequation", full_scan)
        assert got == [propagate_bounds(system, decisions, 200) for system, decisions in cases]
        conflicts = [r for r in got if r.verdict == "conflict"]
        assert len(conflicts) > 30 and sum(r.steps > 0 for r in conflicts) > 15

    def test_matches_round_robin_reference(self):
        # the event-driven loop gives the plain round robin's trail, steps and outcome
        rng = random.Random(1313)
        caps = (0, 1, 5, 50, 400)
        cases = []
        for i in range(2_000):
            variables = ["x", "y", "z", "w"][: rng.randint(1, 4)]
            ineqs = []
            for k in range(1, rng.randint(1, 5) + 1):
                chosen = rng.sample(variables, rng.randint(1, len(variables)))
                coeffs = tuple((v, rng.choice([-3, -2, -1, 1, 2, 3])) for v in chosen)
                ineqs.append(LinIneq(k, coeffs, rng.randint(-4, 4)))
            system = LiaSystem(ineqs)
            decisions = [
                Bound.make(rng.choice(variables), rng.choice(["<", "<=", ">", ">="]),
                           rng.randint(-4, 4), level=rng.randint(0, 3))
                for _ in range(rng.randint(0, 3))
            ]
            cases.append((system, decisions, caps[i % len(caps)], None))
        for seed in (1, 2, 3):
            cases += _benchmark_shapes(random.Random(seed))
        kinds = Counter()
        for system, decisions, cap, outcome in cases:
            got = propagate_bounds(system, decisions, cap)
            want = reference_propagate_bounds(system, decisions, cap)
            assert got.verdict == want.verdict
            assert outcome is None or got.verdict == outcome
            fields = lambda r: [(b.var, b.lower, b.value, b.level, b.reason) for b in r.trail]
            assert fields(got) == fields(want)
            assert got.steps == want.steps
            assert got.inequation_id == want.inequation_id
            kinds[got.verdict, got.steps > 0] += 1
        assert min(kinds.values()) > 50 and len(kinds) == 6

    def test_implied_bound_calls_linear_in_pairs_and_steps(self, monkeypatch):
        # a pair is revisited only after a bound it reads was tightened
        calls = 0
        counted = lia.implied_bound

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return counted(*args, **kwargs)

        monkeypatch.setattr(lia, "implied_bound", counting)
        rng = random.Random(40)
        runs = []
        for length in (40, 80):
            gaps = [rng.randint(0, 2) for _ in range(length - 1)]
            ineqs = [LinIneq(i, ((f"v{i}", 1), (f"v{i + 1}", -1)), c) for i, c in enumerate(gaps, start=1)]
            top = Bound.make(f"v{length}", "<=", sum(gaps) + 2, level=1)
            decisions = [Bound.make("v1", ">=", 0, level=1), top]
            runs.append((LiaSystem(ineqs), decisions, 10_000, "fixpoint"))
        runs.append((DIVERGENT, [Bound.make("x", ">=", 0, level=1)], 10_000, "diverged"))
        for system, decisions, cap, outcome in runs:
            calls = 0
            result = propagate_bounds(system, decisions, cap)
            assert result.verdict == outcome and result.steps > 0
            pairs = sum(len(ineq.coeffs) for ineq in system.inequations)
            assert calls <= pairs + 2 * result.steps, (pairs, result.steps, calls)

    def test_derived_bounds_carry_highest_decision_level(self):
        decisions = [Bound.make("x", ">=", 0, level=2), Bound.make("y", "<=", 50, level=5)]
        result = propagate_bounds(DIVERGENT, decisions, 200)
        derived = [b for b in result.trail if b.reason is not None]
        assert len(derived) == result.steps > 0
        assert {b.level for b in derived} == {5}

    def test_divergence_budgets_strictly_increase(self):
        counts = []
        for budget in (100, 1000, 10_000):
            result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0, level=1)], budget)
            assert result.verdict == "diverged"
            counts.append(result.steps)
        assert counts[0] < counts[1] < counts[2]


class TestAprioriBounds:
    def test_formula_small(self):
        system = parse_lia("1 - 1*x - 1*y <= 0\nx - y <= 0\n")
        assert system.m == 2 and system.n == 2 and system.a == 1
        assert apriori_bounds(system) == {"x": (-64, 64), "y": (-64, 64)}

    def test_formula_unit(self):
        system = LiaSystem([LinIneq(1, (("x", 1),), 0)])
        assert apriori_bounds(system) == {"x": (-1, 1)}

    def test_formula_larger(self):
        system = LiaSystem(
            [
                LinIneq(1, (("x", 2), ("y", 1)), 0),
                LinIneq(2, (("x", -1),), -2),
                LinIneq(3, (("y", 1),), 1),
            ]
        )
        assert system.m == 3 and system.n == 2 and system.a == 2
        assert apriori_bounds(system)["x"] == (-559872, 559872)  # 2 * 6**7

    def test_constants_count_toward_a(self):
        system = LiaSystem([LinIneq(1, (("x", 1),), -9)])
        assert system.a == 9


class TestDecideBounded:
    def test_divergent_pair_unsat(self):
        assert decide_bounded(DIVERGENT).verdict == "unsat"

    def test_satisfiable_pair(self):
        system = parse_lia("1 - 1*x - 1*y <= 0\nx - y <= 0\n")
        result = decide_bounded(system)
        assert result.verdict == "sat"
        x, y = result.assignment["x"], result.assignment["y"]
        assert 1 - x - y <= 0 and x - y <= 0

    def test_forced_unique(self):
        system = parse_lia("x <= 0\n-x <= 0\n")
        result = decide_bounded(system)
        assert result.verdict == "sat" and result.assignment == {"x": 0}

    def test_box_cap(self):
        with pytest.raises(ResourceLimitError):
            decide_bounded(DIVERGENT, box_cap=100)

    def test_agreement_with_larger_box_search(self):
        rng = random.Random(31)
        agreements = 0
        while agreements < 25:
            system = _random_system(rng)
            radius = reference_box_radius(system)
            if (2 * radius + 1) ** len(system.variables) > 50_000:
                continue
            verdict = decide_bounded(system)
            bigger = {v: (-radius - 3, radius + 3) for v in system.variables}
            found = exhaustive_lia_search(system, bigger)
            if verdict.verdict == "sat":
                assert found is not None
                for ineq in system.inequations:
                    total = ineq.const + sum(
                        a * verdict.assignment[v] for v, a in ineq.coeffs
                    )
                    assert total <= 0
            else:
                assert found is None
            agreements += 1

    def test_matches_the_reference_search(self):
        # the same assignment, unsat or cap message as the search with its own minimum routine
        rng = random.Random(1812)
        outcomes = Counter()
        for _ in range(2_000):
            variables = ["x", "y", "z"][: rng.randint(1, 3)]
            ineqs = []
            for i in range(1, rng.randint(1, 3) + 1):
                coeffs = tuple((v, rng.choice([-2, -1, 1, 2])) for v in variables if rng.random() < 0.7)
                ineqs.append(LinIneq(i, coeffs or ((rng.choice(variables), 1),), rng.randint(-2, 2)))
            system = LiaSystem(ineqs)
            # a cap above 100,000 lets a one-variable search walk half a million points
            box_cap = rng.choice([10, 1_000, 100_000, 100_000, 100_000])
            got, expected = (_decision(decide, system, box_cap) for decide in (decide_bounded, reference_decide_bounded))
            assert got == expected, system
            outcomes[got[0]] += 1
        assert min(outcomes.values()) > 20, outcomes


def _benchmark_shapes(rng: random.Random):
    """The propagation inputs of the lia benchmark workload, with the outcome each must reach."""
    # the divergence witness x <= y, y < x from x >= 0
    for budget in (100, 1_000, 10_000):
        ineqs = [LinIneq(1, (("x", 1), ("y", -1)), 0), LinIneq(2, (("y", 1), ("x", -1)), rng.randint(1, 3))]
        yield LiaSystem(ineqs), [Bound.make("x", ">=", 0, level=1)], budget, "diverged"
    # cyclic chains v1 <= v2 <= ... <= vn <= v1 - c
    for n in (10, 25, 50, 100):
        ineqs = [LinIneq(i, ((f"v{i}", 1), (f"v{i + 1}", -1)), 0) for i in range(1, n)]
        ineqs.append(LinIneq(n, ((f"v{n}", 1), ("v1", -1)), rng.randint(1, 3)))
        yield LiaSystem(ineqs), [Bound.make("v1", ">=", 0, level=1)], 20 * n, "diverged"
    # open chains v(i+1) >= v(i) + c(i) under an upper bound on the last variable
    for length in (20, 40):
        for feasible in (True, False):
            gaps = [rng.randint(0, 2) for _ in range(length - 1)]
            ineqs = [LinIneq(i, ((f"v{i}", 1), (f"v{i + 1}", -1)), c) for i, c in enumerate(gaps, start=1)]
            top = sum(gaps) + (rng.randint(0, 3) if feasible else -rng.randint(1, 3))
            decisions = [Bound.make("v1", ">=", 0, level=1), Bound.make(f"v{length}", "<=", top, level=1)]
            yield LiaSystem(ineqs), decisions, 10_000, "fixpoint" if feasible else "conflict"


def _box_points(box: dict):
    import itertools

    names = list(box)
    ranges = [range(box[v][0], box[v][1] + 1) for v in names]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


def _decision(decide, system: LiaSystem, box_cap: int) -> tuple[str, object]:
    try:
        result = decide(system, box_cap)
    except ResourceLimitError as exc:
        return "limit", str(exc)
    return ("sat", result.assignment) if result.verdict == "sat" else ("unsat", None)


def _random_system(rng: random.Random) -> LiaSystem:
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    variables = ["x", "y", "z"][:n]
    ineqs = []
    for i in range(1, m + 1):
        coeffs = tuple(
            (v, rng.choice([-2, -1, 1, 2])) for v in variables if rng.random() < 0.8
        )
        if not coeffs:
            coeffs = ((variables[0], 1),)
        ineqs.append(LinIneq(i, coeffs, rng.randint(-2, 2)))
    return LiaSystem(ineqs)


class TestBound:
    def test_strict_normalization(self):
        assert Bound.make("x", "<", 5) == Bound("x", False, 4)
        assert Bound.make("x", ">", 5) == Bound("x", True, 6)
        assert Bound.make("x", "<=", 5) == Bound("x", False, 5)
        assert Bound.make("x", ">=", 5) == Bound("x", True, 5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Bound.make("x", "==", 5)


def test_trace_lines():
    result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0, level=1)], 2)
    lines = [line for line, _ in render(result)]
    assert lines[0] == "bound x >= 0 <- decision"
    assert lines[1] == "bound y >= 0 <- ineq 1"
    assert lines[-1] == "diverged steps=2"


def test_linineq_validation():
    with pytest.raises(ValueError):
        LinIneq(1, (), 3)
    with pytest.raises(ValueError):
        LinIneq(1, (("x", 0),), 3)
    with pytest.raises(ValueError):
        LinIneq(1, (("x", 1), ("x", 2)), 0)
