import random
from collections import Counter

import pytest

from oracles import (bounds, exhaustive_lia_search, reference_box_radius, reference_decide_bounded,
                     reference_propagate_bounds)
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


def implied(ineq: LinIneq, var: str, *bounds: Bound) -> Bound | None:
    """`implied_bound` of the pair (ineq, var) under the bounds, as the trail's record of it, or None.

    The inequation's variables are numbered in its order; the bound of
    variable i is read from slot 2i if lower, 2i + 1 if upper.
    """
    index = {v: i for i, (v, _a) in enumerate(ineq.coeffs)}
    value = [None] * (2 * len(index))
    for b in bounds:
        value[2 * index[b.var] + (not b.lower)] = b.value
    pair = compile_pair(compile_ineq(ineq, index), index[var])
    _reads, _rhs, slot, _coeff, reason = pair
    assert slot >> 1 == index[var]
    tighter = implied_bound(pair, value)
    return None if tighter is None else Bound(var, slot % 2 == 0, tighter, reason)


class TestImpliedBound:
    def test_lower_bound_transfer(self):
        ineq = LinIneq(1, (("x", 1), ("y", -1)), 0)  # x - y <= 0
        assert implied(ineq, "y", Bound("x", True, 5)) == Bound("y", True, 5, reason=1)

    def test_offset_transfer(self):
        ineq = LinIneq(2, (("y", 1), ("x", -1)), 1)  # y - x + 1 <= 0
        assert implied(ineq, "x", Bound("y", True, 5)) == Bound("x", True, 6, reason=2)

    def test_coefficient_rounding(self):
        ineq = LinIneq(1, (("x", 2), ("y", 3)), -1)  # 2x + 3y - 1 <= 0
        assert implied(ineq, "x", Bound("y", True, 1)) == Bound("x", False, -1, reason=1)

    def test_missing_opposite_bound(self):
        ineq = LinIneq(1, (("x", 1), ("y", -1)), 0)
        assert implied(ineq, "y", Bound("x", False, 5)) is None

    def test_not_tighter(self):
        ineq = LinIneq(1, (("x", 1), ("y", -1)), 0)
        assert implied(ineq, "y", Bound("x", True, 5), Bound("y", True, 9)) is None

    def test_needs_nonzero_coefficient(self):
        with pytest.raises(ValueError):
            compile_pair(compile_ineq(LinIneq(1, (("x", 1),), 0), {"x": 0, "y": 1}), 1)

    def test_ceiling_for_negative_coefficient(self):
        ineq = LinIneq(1, (("x", -2), ("y", 1)), 0)  # y <= 2x
        assert implied(ineq, "x", Bound("y", True, 5)) == Bound("x", True, 3, reason=1)  # x >= ceil(5/2)


class TestPropagateBounds:
    def test_divergent_alternation(self):
        result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0)], 100)
        assert result.verdict == "diverged" and result.steps == 100
        prefix = [(b.var, b.kind, b.value) for b in result.trail[:5]]
        assert prefix == [
            ("x", ">=", 0),
            ("y", ">=", 0),
            ("x", ">=", 1),
            ("y", ">=", 1),
            ("x", ">=", 2),
        ]

    def test_negative_step_budget_is_rejected(self):
        with pytest.raises(ValueError, match="^max_steps must be non-negative$"):
            propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0)], -1)

    def test_single_propagation(self):
        system = parse_lia("x - y <= 0\n")
        result = propagate_bounds(system, [Bound.make("x", ">=", 5)], 100)
        assert result.verdict == "fixpoint"
        assert bounds(result)[("y", True)].value == 5

    def test_direct_contradiction(self):
        system = parse_lia("x <= 0\n-x + 1 <= 0\n")
        result = propagate_bounds(system, [], 100)
        assert result.verdict == "conflict" and result.inequation_id == 2

    def test_budget_zero_without_propagation(self):
        result = propagate_bounds(DIVERGENT, [], 0)
        assert result.verdict == "fixpoint" and result.steps == 0

    def test_monotone_per_direction(self):
        result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0)], 50)
        last: dict = {}
        for b in result.trail:
            key = (b.var, b.lower)
            if key in last:
                assert b.value > last[key] if b.lower else b.value < last[key]
            last[key] = b.value

    def test_soundness_of_propagated_bounds(self):
        # every integer point satisfying system+decisions satisfies each bound
        system = parse_lia("2*x + 3*y - 1 <= 0\nx - y <= 0\n")
        decisions = [Bound.make("y", ">=", -3), Bound.make("x", ">=", -4)]
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
                Bound.make(v, rng.choice([">=", "<="]), rng.randint(-3, 3))
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
                Bound.make(v, rng.choice([">=", "<="]), rng.randint(-4, 4))
                for v in variables
                if rng.random() < 0.6
            ]
            cases.append((LiaSystem(ineqs), decisions))
        got = [propagate_bounds(system, decisions, 200) for system, decisions in cases]
        targeted = lia.conflicting_inequation
        compiled = []  # the system being propagated, compiled

        def full_scan(current, candidates):
            return targeted(current, compiled)

        monkeypatch.setattr(lia, "conflicting_inequation", full_scan)
        full = []
        for system, decisions in cases:
            # the system's variables come first in a run's numbering, before those only a decision names
            index = {v: k for k, v in enumerate(system.variables)}
            compiled[:] = [compile_ineq(i, index) for i in system.inequations]
            full.append(propagate_bounds(system, decisions, 200))
        assert got == full
        conflicts = [r for r in got if r.verdict == "conflict"]
        assert len(conflicts) > 30 and sum(r.steps > 0 for r in conflicts) > 15

    def test_matches_round_robin_reference(self):
        # the event-driven loop gives the plain round robin's trail, steps and outcome
        kinds = Counter()
        for system, decisions, cap, outcome in _round_robin_cases():
            got = propagate_bounds(system, decisions, cap)
            want = reference_propagate_bounds(system, decisions, cap)
            assert got.verdict == want.verdict
            assert outcome is None or got.verdict == outcome
            fields = lambda r: [(b.var, b.lower, b.value, b.reason) for b in r.trail]
            assert fields(got) == fields(want)
            assert got.steps == want.steps
            assert got.inequation_id == want.inequation_id
            kinds[got.verdict, got.steps > 0] += 1
        assert min(kinds.values()) > 50 and len(kinds) == 6

    def test_bounds_match_round_robin_reference(self):
        # the bounds built from the trail are the reference's own table: each key's last bound, in first-bound order
        for system, decisions, cap, _outcome in _round_robin_cases():
            got = propagate_bounds(system, decisions, cap)
            current = {}
            want = reference_propagate_bounds(system, decisions, cap, current)
            assert list(bounds(got).items()) == list(current.items())
            assert got == want

    def test_decision_on_a_variable_no_inequation_mentions(self):
        decisions = [Bound.make("z", "<=", 7), Bound.make("x", ">=", 0), Bound.make("z", ">=", 9)]
        result = propagate_bounds(DIVERGENT, decisions, 6)
        assert result == reference_propagate_bounds(DIVERGENT, decisions, 6)
        assert result.verdict == "diverged" and result.trail[:3] == decisions
        # no inequation reads z, so its empty range is no conflict, and no bound on z is derived
        assert [b.var for b in result.trail[3:]] == ["y", "x", "y", "x", "y", "x"]
        assert bounds(result)[("z", False)].value == 7 and bounds(result)[("z", True)].value == 9

    def test_weaker_second_decision_on_the_same_bound(self):
        system = parse_lia("x - y <= 0\n")
        # a second decision no tighter than the first, weaker or equal, is skipped
        for second in (Bound.make("x", ">=", 3), Bound.make("x", ">=", 5), Bound.make("x", ">", 2)):
            decisions = [Bound.make("x", ">=", 5), second, Bound.make("y", "<", 9)]
            result = propagate_bounds(system, decisions, 100)
            assert result == reference_propagate_bounds(system, decisions, 100)
            assert result.trail[:2] == [decisions[0], decisions[2]] and result.steps == 2
            assert bounds(result)[("x", True)] == decisions[0]
        tighter = [Bound.make("x", ">=", 5), Bound.make("x", ">=", 6)]
        result = propagate_bounds(system, tighter, 100)
        assert result.trail[:2] == tighter and bounds(result)[("x", True)] == tighter[1]

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
            top = Bound.make(f"v{length}", "<=", sum(gaps) + 2)
            decisions = [Bound.make("v1", ">=", 0), top]
            runs.append((LiaSystem(ineqs), decisions, 10_000, "fixpoint"))
        runs.append((DIVERGENT, [Bound.make("x", ">=", 0)], 10_000, "diverged"))
        for system, decisions, cap, outcome in runs:
            calls = 0
            result = propagate_bounds(system, decisions, cap)
            assert result.verdict == outcome and result.steps > 0
            pairs = sum(len(ineq.coeffs) for ineq in system.inequations)
            assert calls <= pairs + 2 * result.steps, (pairs, result.steps, calls)

    def test_derived_bounds_name_their_inequation(self):
        decisions = [Bound.make("x", ">=", 0), Bound.make("y", "<=", 50)]
        result = propagate_bounds(DIVERGENT, decisions, 200)
        derived = [b for b in result.trail if b.reason is not None]
        assert len(derived) == result.steps > 0
        variables = {ineq.id: dict(ineq.coeffs) for ineq in DIVERGENT.inequations}
        assert all(b.var in variables[b.reason] for b in derived)

    def test_every_bound_built_has_the_record_fields(self):
        # `trail` builds its bounds from the records with tuple.__new__, which takes a tuple of any
        # length; propagation and the bounded decision build none
        seen = []
        for system, decisions in ((DIVERGENT, [Bound.make("x", ">=", 0)]),
                                  (parse_lia("x - y + 1 <= 0\ny - z <= 0\n"), [Bound.make("x", ">=", 0), Bound.make("z", "<", 1)])):
            result = propagate_bounds(system, decisions, 50)
            seen += result.trail
        assert {b.reason is None for b in seen} == {True, False}
        assert {len(b) for b in seen} == {len(Bound._fields)}
        assert {type(b) for b in seen} == {Bound}

    def test_records_are_exact_tuples(self):
        # a record is a plain tuple, the cheapest to build and unpacked on the interpreter's fast path;
        # `trail` gives the same entries as `Bound`s
        conflicting = parse_lia("x - y <= 0\ny - z <= 0\nz - x + 1 <= 0\nx <= 5\n")
        for system, decisions, verdict in ((DIVERGENT, [Bound.make("x", ">=", 0)], "diverged"),
                                           (conflicting, [Bound.make("z", ">=", 0)], "conflict")):
            result = propagate_bounds(system, decisions, 100)
            assert result.verdict == verdict and result.steps > 0
            assert {type(r) for r in result.records} == {tuple}
            assert result.trail == result.records and {type(b) for b in result.trail} == {Bound}

    def test_divergence_budgets_strictly_increase(self):
        counts = []
        for budget in (100, 1000, 10_000):
            result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0)], budget)
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

    def test_empty_system_is_rejected(self):
        with pytest.raises(ValueError, match="^the system must contain at least one inequation$"):
            apriori_bounds(LiaSystem([]))


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

    def test_step_cap(self):
        # propagation from the box corners refutes DIVERGENT at the root, in 256 tightenings across its +-64 box
        assert decide_bounded(DIVERGENT, max_steps=256).verdict == "unsat"
        assert decide_bounded(DIVERGENT, max_steps=255).verdict == "limit"

    def test_decisions_count_as_steps(self):
        # the root tightens x >= -63 and y >= -63; the decision x <= -63 then lets y >= 64 be tightened
        system = parse_lia("1 - 1*x - 1*y <= 0\nx - y <= 0\n")
        assert decide_bounded(system, max_steps=4) == ("sat", {"x": -63, "y": 64})
        assert decide_bounded(system, max_steps=3).verdict == "limit"
        assert decide_bounded(system, max_steps=2).verdict == "limit"

    def test_a_decision_visits_only_the_readers_of_its_slot(self, monkeypatch):
        # a node opened by a decision starts from its parent's fixpoint, so only the pairs that read the
        # decided bound can tighten; here none does, as the twelve variables are independent
        system = parse_lia("".join(f"x{i} - 1 <= 0\n-x{i} <= 0\n" for i in range(1, 13)))
        # the search's steps: 24 tightenings at the root, then a decision xi <= 0 per variable
        steps = 24 + 12
        assert decide_bounded(system, max_steps=steps - 1).verdict == "limit"
        calls = 0
        counted = lia.implied_bound

        def counting(*args):
            nonlocal calls
            calls += 1
            return counted(*args)

        monkeypatch.setattr(lia, "implied_bound", counting)
        assert decide_bounded(system, max_steps=steps) == ("sat", {f"x{i}": 0 for i in range(1, 13)})
        pairs = sum(len(ineq.coeffs) for ineq in system.inequations)
        assert calls <= pairs + 2 * steps, (pairs, steps, calls)

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
        # where the enumeration answers within its box cap, the same verdict and model: the box's
        # lexicographically smallest; where it stops at the cap, every model satisfies the system in the box
        rng = random.Random(1812)
        outcomes = Counter()
        for _ in range(2_000):
            variables = ["x", "y", "z"][: rng.randint(1, 3)]
            ineqs = []
            m = 0 if rng.random() < 0.05 else rng.randint(1, 3)  # now and then an empty system
            for i in range(1, m + 1):
                coeffs = tuple((v, rng.choice([-2, -1, 1, 2])) for v in variables if rng.random() < 0.7)
                ineqs.append(LinIneq(i, coeffs or ((rng.choice(variables), 1),), rng.randint(-2, 2)))
            system = LiaSystem(ineqs)
            # a cap above 100,000 lets a one-variable enumeration walk half a million points
            box_cap = rng.choice([10, 1_000, 100_000, 100_000, 100_000])
            got = decide_bounded(system)
            try:
                expected = reference_decide_bounded(system, box_cap)
            except ResourceLimitError:
                expected = None
            if expected is not None:
                assert got == expected, system
                outcomes["empty" if not ineqs else f"answered {got.verdict}"] += 1
                continue
            if got.verdict == "sat":
                radius = reference_box_radius(system)
                assert all(-radius <= x <= radius for x in got.assignment.values()), system
                for ineq in ineqs:
                    assert ineq.const + sum(a * got.assignment[v] for v, a in ineq.coeffs) <= 0, system
            outcomes[f"past the box cap {got.verdict}"] += 1
        floors = {"empty": 50, "answered sat": 450, "answered unsat": 25, "past the box cap sat": 900}
        assert all(outcomes[k] > floor for k, floor in floors.items()), outcomes


def _round_robin_cases():
    """2,000 random systems with random decisions and step caps, then the benchmark's shapes on seeds 1-3."""
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
            Bound.make(rng.choice(variables), rng.choice(["<", "<=", ">", ">="]), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3))
        ]
        cases.append((system, decisions, caps[i % len(caps)], None))
    for seed in (1, 2, 3):
        cases += _benchmark_shapes(random.Random(seed))
    return cases


def _benchmark_shapes(rng: random.Random):
    """The propagation inputs of the lia benchmark workload, with the outcome each must reach."""
    # the divergence witness x <= y, y < x from x >= 0
    for budget in (100, 1_000, 10_000):
        ineqs = [LinIneq(1, (("x", 1), ("y", -1)), 0), LinIneq(2, (("y", 1), ("x", -1)), rng.randint(1, 3))]
        yield LiaSystem(ineqs), [Bound.make("x", ">=", 0)], budget, "diverged"
    # cyclic chains v1 <= v2 <= ... <= vn <= v1 - c
    for n in (10, 25, 50, 100):
        ineqs = [LinIneq(i, ((f"v{i}", 1), (f"v{i + 1}", -1)), 0) for i in range(1, n)]
        ineqs.append(LinIneq(n, ((f"v{n}", 1), ("v1", -1)), rng.randint(1, 3)))
        yield LiaSystem(ineqs), [Bound.make("v1", ">=", 0)], 20 * n, "diverged"
    # open chains v(i+1) >= v(i) + c(i) under an upper bound on the last variable
    for length in (20, 40):
        for feasible in (True, False):
            gaps = [rng.randint(0, 2) for _ in range(length - 1)]
            ineqs = [LinIneq(i, ((f"v{i}", 1), (f"v{i + 1}", -1)), c) for i, c in enumerate(gaps, start=1)]
            top = sum(gaps) + (rng.randint(0, 3) if feasible else -rng.randint(1, 3))
            decisions = [Bound.make("v1", ">=", 0), Bound.make(f"v{length}", "<=", top)]
            yield LiaSystem(ineqs), decisions, 10_000, "fixpoint" if feasible else "conflict"


def _box_points(box: dict):
    import itertools

    names = list(box)
    ranges = [range(box[v][0], box[v][1] + 1) for v in names]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


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
    result = propagate_bounds(DIVERGENT, [Bound.make("x", ">=", 0)], 2)
    lines = "".join(render(result, False)).splitlines()
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
