"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The pass/fail lines bypass output capture, so any pytest invocation shows
them.  Every tolerance is pinned here, none deferred.
"""

import random
import sys
import time
from importlib import resources

import pytest

from corpora import random_cnf
from oracles import (
    brute_force_sat,
    exhaustive_lia_search,
    ground_satisfiable,
    is_redundant,
    learn_orderings,
    renamed_equal,
)
from clausekit.cdcl import (
    CdclState,
    PropClause,
    analyze_conflict,
    backjump_and_learn,
    decide,
    propagate,
    render,
    solve,
)
from clausekit.cli import counter_experiment
from clausekit.formats import parse_bs, parse_lia, parse_script
from clausekit.lia import (
    Bound,
    LiaSystem,
    LinIneq,
    apriori_bounds,
    decide_bounded,
    propagate_bounds,
)
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.ordering import default_config
from clausekit.resolution import (
    first_negative,
    no_selection,
    replay,
    saturate,
)
from clausekit.scl import counter_problem, scl_run

C0, C1 = Constant("0"), Constant("1")

# three-clause demo set: P=1 Q=2 R=3 S=4; deciding -P, -Q forces a conflict
DEMO = [PropClause(1, (1, 2, 3)), PropClause(2, (-3, 4)), PropClause(3, (-4, 1, 2))]


def report(number: int, name: str, started: float) -> None:
    # bypass pytest's capture so the line shows up without -s
    line = f"ACCEPTANCE {number:2d} {name}: PASS ({time.perf_counter() - started:.3f}s)"
    print(line, file=sys.__stdout__)


@pytest.fixture(scope="module")
def cnf_corpus():
    rng = random.Random(987654321)
    corpus = []
    for _ in range(1000):
        num_vars = rng.randint(4, 12)
        corpus.append((num_vars, random_cnf(rng, num_vars, rng.randint(num_vars, 40))))
    return corpus


def test_01_cdcl_backjump_replay():
    """Conflict at level 2, learn exactly the two-literal clause, backjump."""
    started = time.perf_counter()

    def drive() -> CdclState:
        state = CdclState(DEMO)
        propagate(state)
        decide(state, -1)
        propagate(state)
        decide(state, -2)
        propagate(state)
        learned, level, _ = analyze_conflict(state)
        assert learned == (1, 2) and level == 1
        backjump_and_learn(state, learned, level)
        return state

    state = drive()
    # conflict was the third clause at decision level 2
    conflict_events = [e for e in state.events if e[0] == "conflict"]
    assert conflict_events == [("conflict", 3)]
    assert state.trail == [(-1, 1, None), (2, 1, 4)]
    assert [state.clauses[i].lits for i in state.learned_ids] == [(1, 2)]
    assert state.level == 1 and state.conflict is None
    assert list(state.clauses) == [1, 2, 3, 4] and state.learned_ids == [4]
    lines = render(solve(DEMO), False)
    assert "learn 1 2 backjump 1\n" in lines
    best = min(_timed(drive) for _ in range(100))
    assert best < 0.001, f"demo run took {best * 1000:.3f} ms"
    report(1, "cdcl backjump replay", started)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_02_learned_clauses_never_redundant(cnf_corpus):
    """Every clause learned on 1000 random 3-CNF instances is non-redundant."""
    started = time.perf_counter()
    checked = 0
    for num_vars, clauses in cnf_corpus:
        result = solve(clauses, num_vars)
        known = {c.id: c for c in clauses}
        for (_, lits, _level, cid), ordering in learn_orderings(result.state.events):
            assert not is_redundant(lits, list(known.values()), ordering), (
                f"redundant learned clause {lits} on instance with {num_vars} vars"
            )
            known[cid] = PropClause(cid, lits)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 1000, f"corpus produced only {checked} learned clauses"
    assert elapsed < 120, f"non-redundancy sweep took {elapsed:.1f}s"
    report(2, f"non-redundant learning ({checked} clauses)", started)


def test_03_cdcl_oracle_equivalence(cnf_corpus):
    """solve agrees with truth-table enumeration on the full corpus."""
    started = time.perf_counter()
    for num_vars, clauses in cnf_corpus:
        result = solve(clauses, num_vars)
        expected = brute_force_sat([c.lits for c in clauses], num_vars)
        if result.verdict == "sat":
            assert expected
            assert all(any(l in result.model for l in c.lits) for c in clauses)
        else:
            assert result.verdict == "unsat" and not expected
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"
    report(3, "cdcl oracle equivalence (1000 instances)", started)


def test_04_scl_counter_run():
    """16 propagations, 0 decisions, lexicographic trail, conflict on the last clause."""
    started = time.perf_counter()
    result = scl_run(counter_problem(4))
    assert result.verdict == "unsat"
    assert result.stats.propagations == 16 and result.stats.decisions == 0
    state = result.state
    conflict = state.problem.instances[state.conflict]
    assert conflict.clause_id == 6 and conflict.subst_str() == "{}"
    trail_atoms = [state.problem.atoms[abs(lit) - 1] for lit, _, _ in state.trail]
    expected = [Atom("P", tuple(Constant(b) for b in format(v, "04b"))) for v in range(16)]
    assert trail_atoms == expected, "trail must walk the counter in order"
    assert all(lit > 0 for lit, _, _ in state.trail)

    sat_result = scl_run(counter_problem(4)[:-1])
    assert sat_result.verdict == "sat"
    assert sat_result.stats.propagations == 16
    assert set(sat_result.model) == set(expected), "all 16 atoms true"
    report(4, "scl 4-bit counter run", started)


def test_05_exponential_vs_linear_contrast():
    """scl does exactly 2**n propagations while the checked linear refutation
    stays within the envelope calibrated on n <= 4 (coefficient tolerance 1)."""
    started = time.perf_counter()
    rows = counter_experiment(10)
    assert [r.scl_propagations for r in rows] == [2**n for n in range(1, 11)]
    assert all(r.scl_result == "unsat" for r in rows)
    assert all(r.resolution_result == "unsat" for r in rows)
    envelope = max(r.resolution_generated / r.n for r in rows[:4])
    for row in rows:
        assert row.resolution_generated <= (envelope + 1) * row.n, (
            f"n={row.n}: {row.resolution_generated} inferences break the linear envelope"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"experiment took {elapsed:.1f}s"
    report(5, "exponential/linear contrast (n=1..10)", started)


EXPECTED_DERIVED = parse_bs(
    """
    7 : -P(x1,x2,0,0) | P(x1,x2,1,0).
    8 : -P(x1,x2,0,0) | P(x1,x2,1,1).
    9 : -P(x1,0,0,0) | P(x1,1,0,0).
    10 : -P(x1,0,0,0) | P(x1,1,1,1).
    11 : -P(0,0,0,0) | P(1,0,0,0).
    12 : -P(0,0,0,0) | P(1,1,1,1).
    """
)


def test_06_scripted_derivation_replay():
    """The shipped script derives the six jump clauses 7-12 and ends in falsum."""
    started = time.perf_counter()
    text = resources.files("clausekit").joinpath("data/counter4.script").read_text()
    script = parse_script(text)
    derived = replay(counter_problem(4), script)
    for d, expected in zip(derived[:6], EXPECTED_DERIVED):
        assert renamed_equal(d.clause, expected), f"{d.clause} != {expected}"
        assert d.clause.id == expected.id
    assert derived[-1].clause.is_empty, "the script must end in the empty clause"
    report(6, "scripted linear derivation replay", started)


def test_07_zero_inference_saturation():
    """The satisfiable counter subset saturates without generating any clause."""
    started = time.perf_counter()
    clauses = counter_problem(4)[:-1]
    cfg = default_config(counter_problem(4))
    assert cfg.prec_of("1") > cfg.prec_of("0")
    result = saturate(clauses, cfg, no_selection)
    assert result.verdict == "saturated"
    assert result.generated == 0
    best = min(_timed(lambda: saturate(clauses, cfg, no_selection)) for _ in range(100))
    assert best < 0.001, f"saturation took {best * 1000:.3f} ms"
    report(7, "zero-inference saturation", started)


def _random_bs_set(rng: random.Random) -> list[Clause]:
    arity = rng.randint(1, 3)
    variables = [Variable("x1"), Variable("x2")]
    clauses = []
    for cid in range(1, rng.randint(2, 8) + 1):
        lits = []
        for _ in range(rng.randint(1, 3)):
            args = tuple(rng.choice([C0, C1] + variables) for _ in range(arity))
            lits.append(Literal(rng.random() < 0.5, Atom("P", args)))
        clauses.append(Clause(cid, tuple(lits)))
    return clauses


def test_08_resolution_oracle_equivalence():
    """Saturation verdicts match ground truth tables on 200 random BS sets."""
    started = time.perf_counter()
    rng = random.Random(424242)
    sat = unsat = 0
    for _ in range(200):
        clauses = _random_bs_set(rng)
        cfg = default_config(clauses)
        sel = rng.choice([no_selection, first_negative])
        result = saturate(clauses, cfg, sel, max_generated=50_000)
        assert result.verdict in ("unsat", "saturated"), "limit hit on desk-scale input"
        expected = ground_satisfiable(clauses, [C0, C1])
        if result.verdict == "unsat":
            assert not expected
            unsat += 1
        else:
            assert expected
            sat += 1
    elapsed = time.perf_counter() - started
    assert sat > 20 and unsat > 20, f"corpus too one-sided: {sat} sat / {unsat} unsat"
    assert elapsed < 120, f"resolution oracle sweep took {elapsed:.1f}s"
    report(8, f"resolution oracle equivalence ({sat} sat / {unsat} unsat)", started)


def test_09_lia_divergence():
    """Propagation diverges at every budget; the bounded decision reports unsat."""
    started = time.perf_counter()
    system = parse_lia("x - y <= 0\ny - x + 1 <= 0\n")
    tightenings = []
    for budget in (100, 1000, 10_000):
        outcome = propagate_bounds(system, [Bound.make("x", ">=", 0)], budget)
        assert outcome.verdict == "diverged", f"budget {budget} did not diverge"
        tightenings.append(outcome.steps)
    assert tightenings[0] < tightenings[1] < tightenings[2]
    assert decide_bounded(system).verdict == "unsat"
    report(9, "lia divergence witness", started)


def test_10_apriori_bounds_and_bounded_decision():
    """The solvability box matches the formula exactly; the bounded decision
    agrees with exhaustive search over a strictly larger box."""
    started = time.perf_counter()
    # five parameter triples with hand-evaluated n*(m*a)**(2m+1) radii
    cases = [
        (parse_lia("1 - 1*x - 1*y <= 0\nx - y <= 0\n"), (2, 2, 1), 64),
        (parse_lia("x <= 0\n"), (1, 1, 1), 1),
        (parse_lia("2*x + y <= 0\nx - y <= 0\n-x + 2 <= 0\n"), (3, 2, 2), 559872),
        (parse_lia("3*x - y <= 0\n"), (1, 2, 3), 54),
        (parse_lia("x + y + z - 2 <= 0\n2*x - y <= 0\n"), (2, 3, 2), 3072),
        (parse_lia("x - y <= 0\ny - z <= 0\nz + 1 <= 0\n"), (3, 3, 1), 6561),
    ]
    for system, (m, n, a), radius in cases:
        assert (system.m, system.n, system.a) == (m, n, a)
        box = apriori_bounds(system)
        assert all(box[v] == (-radius, radius) for v in system.variables)

    rng = random.Random(5150)
    agreements = 0
    while agreements < 30:
        system = _random_lia_system(rng)
        box = apriori_bounds(system)
        volume = 1
        for lo, hi in box.values():
            volume *= hi - lo + 1
        if volume > 60_000:
            continue  # keep the oracle enumeration at desk scale
        verdict = decide_bounded(system)
        radius = max(hi for _, hi in box.values()) + 2
        oracle = exhaustive_lia_search(system, {v: (-radius, radius) for v in system.variables})
        if verdict.verdict == "sat":
            assert oracle is not None
            for ineq in system.inequations:
                assert ineq.const + sum(a * verdict.assignment[v] for v, a in ineq.coeffs) <= 0
        else:
            assert oracle is None, "bounded unsat but a point exists in the larger box"
        agreements += 1
    report(10, "a-priori bounds and bounded decision", started)


def _random_lia_system(rng: random.Random) -> LiaSystem:
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    variables = ["x", "y", "z"][:n]
    ineqs = []
    for i in range(1, m + 1):
        coeffs = tuple((v, rng.choice([-2, -1, 1, 2])) for v in variables if rng.random() < 0.8)
        if not coeffs:
            coeffs = ((rng.choice(variables), 1),)
        ineqs.append(LinIneq(i, coeffs, rng.randint(-2, 2)))
    return LiaSystem(ineqs)
