"""The watched-literal propagation kernel against the id-order rescan it replaces."""

import json
import random

import pytest

import corpora
from oracles import brute_force_sat, reference_at_fixpoint, reference_propagate, scan_status, trail_values
from clausekit import cdcl
from clausekit.cdcl import (
    CdclResult,
    CdclState,
    PropClause,
    decide,
    forget,
    propagate,
    solve,
)
from clausekit.formats import parse_bs
from clausekit.scl import scl_run

HEURISTICS = (cdcl.lowest_index_negative, cdcl.lowest_index_positive)


def random_cnf(rng):
    """Small CNFs with unit, duplicate-literal, tautological and empty clauses."""
    num_vars = rng.randint(1, 8)
    clauses = []
    for cid in range(1, rng.randint(1, 30) + 1):
        if rng.random() < 0.02:
            clauses.append(PropClause(cid, ()))
            continue
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        lits = [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(width)]
        if rng.random() < 0.1:
            lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        if rng.random() < 0.05:
            lits.append(-lits[0])
        clauses.append(PropClause(cid, tuple(lits)))
    return clauses, num_vars


@pytest.fixture
def reference(monkeypatch):
    """Route cdcl's propagate and fixpoint test through the rescanning oracle."""

    def use():
        monkeypatch.setattr(cdcl, "propagate", reference_propagate)
        monkeypatch.setattr(cdcl, "at_fixpoint", reference_at_fixpoint)

    return use


def outcome(result):
    verdict = result.model if result.verdict == "sat" else result.proof
    trail = list(result.state.trail)
    return result.verdict, verdict, result.state.events, trail


def drive_with_forgetting(clauses, num_vars):
    """Solve as `solve` does, but forget the oldest idle learned clause after each backjump.

    Returns the final state and how often the forgotten clause was a pending unit.
    """
    state = CdclState(clauses, num_vars)
    forgotten_units = 0
    while True:
        cdcl.propagate(state)
        if state.conflict is not None:
            learned, blevel, _ = cdcl.analyze_conflict(state)
            if blevel < 0:
                return state, forgotten_units
            cdcl.backjump_and_learn(state, learned, blevel)
            reasons = {reason for _, _, reason in state.trail}
            idle = [cid for cid in state.learned_ids if cid not in reasons]
            if idle:
                forgotten_units += any(
                    cid == idle[0] and not (state.true[lit] or state.true[-lit]) for _, cid, lit in state.pending
                )
                forget(state, idle[0])
        elif len(state.trail) == num_vars:
            return state, forgotten_units
        else:
            cdcl.decide(state, cdcl.lowest_index_negative(state))


def test_solve_matches_rescanning_reference(reference):
    rng = random.Random(1912)
    problems = [random_cnf(rng) for _ in range(320)]
    kernel = [[outcome(solve(c, n, h)) for h in HEURISTICS] for c, n in problems]
    reference()
    scanned = [[outcome(solve(c, n, h)) for h in HEURISTICS] for c, n in problems]
    assert kernel == scanned
    verdicts = {kind for runs in kernel for kind, *_ in runs}
    assert verdicts == {"sat", "unsat"}
    for (clauses, num_vars), runs in zip(problems, kernel):
        expected = brute_force_sat([c.lits for c in clauses], num_vars)
        assert all((kind == "sat") == expected for kind, *_ in runs)


def test_learned_clauses_on_larger_formulas_match_rescanning_reference(reference):
    # long enough runs that learned clauses must watch their asserting literal and the
    # highest-level other literal to stay correct across later backjumps
    rng = random.Random(4260)
    problems = [(corpora.random_cnf(rng, n, round(n * 4.26)), n) for n in (20, 24, 28, 32) * 2]
    kernel = [outcome(solve(c, n)) for c, n in problems]
    reference()
    assert kernel == [outcome(solve(c, n)) for c, n in problems]
    assert sum(1 for *_, events, _ in kernel for ev in events if ev[0] == "learn") > 100


def forgetting_cnf(rng):
    """A random 3-CNF of 5-10 variables at a clause/variable ratio of 4.3, for `drive_with_forgetting`."""
    num_vars = rng.randint(5, 10)
    return corpora.random_cnf(rng, num_vars, round(num_vars * 4.3)), num_vars


def test_forgetting_matches_rescanning_reference(reference):
    rng = random.Random(2001)
    problems = [forgetting_cnf(rng) for _ in range(120)]
    kernel = [drive_with_forgetting(c, n) for c, n in problems]
    reference()
    scanned = [drive_with_forgetting(c, n) for c, n in problems]
    assert [(s.events, s.trail) for s, _ in kernel] == [(s.events, s.trail) for s, _ in scanned]
    assert sum(1 for s, _ in kernel for ev in s.events if ev[0] == "forget") > 100
    assert sum(hits for _, hits in kernel) > 0  # a forgotten clause was a pending unit


def test_rendered_forget_line_names_its_clause():
    # no CLI mode forgets, so only a driven run renders a forget line; as text and as JSON it
    # names the forgotten clause, as every other line that names a clause does
    rng = random.Random(2001)
    forgotten = []
    for _ in range(20):
        clauses, num_vars = forgetting_cnf(rng)
        state, _ = drive_with_forgetting(clauses, num_vars)
        result = CdclResult("sat" if len(state.trail) == num_vars else "unsat", state, [])  # render reads no proof
        text, as_json = cdcl.render(result, False), cdcl.render(result, True)
        records = [json.loads(line) for line in "".join(as_json).splitlines()]
        assert "".join(text).splitlines() == [r["line"] for r in records]
        # a line per event, then the verdict's lines: its DIMACS line, and a "sat" run's model line
        assert [r["kind"] for r in records[len(state.events):]] == [result.verdict] * (1 + (result.verdict == "sat"))
        events = [ev for ev in state.events if ev[0] != "decide"]
        named = [r for r in records[:len(state.events)] if r["kind"] != "decide"]
        assert [r["clause"] for r in named] == [ev[3] if ev[0] == "learn" else ev[-1] for ev in events]
        for ev, r in zip(events, named):
            if ev[0] == "forget":
                assert r == {"line": f"forget clause {ev[1]}", "event": "cdcl", "kind": "forget", "clause": ev[1]}
                forgotten.append(ev[1])
    assert len(forgotten) > 10


class TestEdgeCases:
    def test_duplicate_literal_counts_twice(self):
        # 1 1 2 under -2 has two unassigned positions: open, as scan_status counts it
        state = CdclState([PropClause(1, (1, 1, 2))], 2)
        decide(state, -2)
        propagate(state)
        assert [lit for lit, _, _ in state.trail] == [-2]
        assert scan_status((1, 1, 2), trail_values(state.trail)) == ("open", None)
        assert cdcl.at_fixpoint(state)

    def test_duplicate_literal_falsified(self):
        state = CdclState([PropClause(1, (1, 1, 2))], 2)
        decide(state, -1)
        propagate(state)
        assert state.events[-1] == ("propagate", 2, 1)

    def test_doubled_unit_never_propagates(self):
        # 1 1 has two unassigned positions, so it is open until -1 falsifies it
        result = solve([PropClause(1, (1, 1))], 1, cdcl.lowest_index_negative)
        assert result.verdict == "sat" and result.model == (1,)
        assert result.state.events[:2] == [("decide", -1, 1), ("conflict", 1)]

    def test_tautologies_never_propagate_or_conflict(self):
        clauses = [PropClause(1, (1, -1)), PropClause(2, (2, -2, 1)), PropClause(3, (-1,))]
        result = solve(clauses, 2)
        assert result.verdict == "sat" and result.model == (-1, -2)
        assert [ev for ev in result.state.events if ev[0] == "propagate"] == [("propagate", -1, 3)]

    def test_empty_input_clause_is_the_conflict(self):
        result = solve([PropClause(1, (1, 2)), PropClause(2, ()), PropClause(3, (1,))])
        assert result.verdict == "unsat"
        assert result.state.events == [("conflict", 2)]

    def test_contradictory_units_conflict_before_propagating_more(self):
        result = solve([PropClause(1, (1,)), PropClause(2, (2,)), PropClause(3, (-1,))])
        assert result.verdict == "unsat" and result.state.events == [("propagate", 1, 1), ("conflict", 3)]

    def test_smallest_false_clause_is_the_conflict(self):
        # propagating 2 falsifies clauses 7 and 5 at once; 7 is visited first
        clauses = [PropClause(1, (-1, 2)), PropClause(7, (-2, -1)), PropClause(5, (-2, -1))]
        state = CdclState(clauses, 2)
        decide(state, 1)
        propagate(state)
        assert state.events == [("decide", 1, 1), ("propagate", 2, 1), ("conflict", 5)]

    @pytest.mark.parametrize("model", [(-1, -2, -3), (1, -2, 3)])
    def test_full_trail_has_no_unassigned_atom(self, model):
        # slot n + 1 of the truth table is literal -n, so the search stops before it
        result = solve([PropClause(i, (lit,)) for i, lit in enumerate(model, 1)], 3)
        assert result.model == model and cdcl.lowest_unassigned(result.state) == 4
        with pytest.raises(ValueError, match="no unassigned atom left"):
            cdcl.lowest_index_negative(result.state)

    @pytest.mark.parametrize("lit", [4, 5, -4, 0])
    def test_decide_rejects_atoms_outside_the_state(self, lit):
        state = CdclState([PropClause(1, (1, 2, 3))], 3)
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            decide(state, lit)
        assert state.trail == [] and state.level == 0 and not any(state.true)

    def test_forget_idle_learned_then_solve_on(self, reference):
        def script():
            state = CdclState([PropClause(1, (1, 2, 3)), PropClause(2, (-3, 4))], 4)
            for lit in (-1, -2):
                cdcl.decide(state, lit)
                cdcl.propagate(state)
            cdcl.backjump_and_learn(state, (1, 2), 1)  # clause 3 propagates 2
            cdcl.propagate(state)
            cdcl.decide(state, -3)
            cdcl.propagate(state)
            cdcl.backjump_and_learn(state, (1,), 0)  # clause 4; clause 3 is now idle
            forget(state, 3)
            while True:
                cdcl.propagate(state)
                if len(state.trail) == state.num_vars:
                    return state
                cdcl.decide(state, cdcl.lowest_index_negative(state))

        state = script()
        assert 3 not in state.clauses and all(3 not in ws for ws in state.watchers.values())
        after = state.events[state.events.index(("forget", 3)) + 1:]
        assert after == [("decide", -2, 1), ("decide", -3, 2), ("decide", -4, 3)]
        reference()
        assert script().events == state.events

    def test_backjump_level_must_be_the_asserting_level(self):
        state = CdclState([PropClause(1, (1, 2, 3))], 4)
        for lit in (-1, -4, -2):
            decide(state, lit)
            propagate(state)
        # clause 1 propagated 3 at level 3; (1, -3) is asserting from level 1 on
        with pytest.raises(ValueError):
            cdcl.backjump_and_learn(state, (1, -3), 2)
        cdcl.backjump_and_learn(state, (1, -3), 1)
        assert state.trail == [(-1, 1, None), (-3, 1, 2)]


def test_trail_entries_are_exact_tuples():
    # the interpreter unpacks only an exact tuple on its fast path (the 1UIP walk, a backjump, SCL's
    # model); checked after a CDCL run and an SCL run, the golden learn.bs, that each learn a clause
    cdcl_state = solve([PropClause(1, (1, 2, 3)), PropClause(2, (-3, 4)), PropClause(3, (-4, 1, 2))]).state
    scl_state = scl_run(parse_bs("-P(a) | Q(a).\n-P(a) | -Q(a).\nP(b) | R(b).\n")).state
    for state in (cdcl_state, scl_state):
        assert any(ev[0] == "learn" for ev in state.events) and state.trail
        assert {type(entry) for entry in state.trail} == {tuple}


@pytest.fixture(scope="module")
def watch_checks():
    """Solve random 3- and 3/4-CNFs of 10-40 variables near the threshold under both heuristics, checking
    the watches of every learned clause right after `learn_clause` and the hooked clauses at every `decide`.

    Returns, per check, the failures and how often it ran.
    """
    learn_clause, decide = cdcl.learn_clause, cdcl.decide
    checks = {"learn": [], "highest first": 0, "learned": 0, "decide": [], "decisions": 0}

    def checking_learn(kernel, cid, lits, level):
        learn_clause(kernel, cid, lits, level)
        first, second = kernel.watched[cid][:2]
        others = [lit for lit in lits if lit != first]
        # the asserting literal, just assigned, and one of the others of the highest level, the level
        if kernel.trail[-1] != (first, level, cid) or others and (
                second not in others or kernel.var_level[abs(second)] != level):
            checks["learn"].append((lits, level, kernel.watched[cid][:2]))
        # where the highest-level other literal sorts first, placing it takes the second swap
        checks["highest first"] += lits[0] != first and lits[1:2] != [first] and kernel.var_level[abs(lits[0])] == level
        checks["learned"] += 1

    def checking_decide(state, lit):
        value = trail_values(state.trail)
        checks["decide"] += [state.clauses[cid] for cid in state.watched
                             if scan_status(state.clauses[cid].lits, value)[0] in ("unit", "false")]
        checks["decisions"] += 1
        return decide(state, lit)

    rng = random.Random(6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdcl, "learn_clause", checking_learn)
        patch.setattr(cdcl, "decide", checking_decide)
        for i in range(300):
            n = rng.randint(10, 40)
            clauses = corpora.random_cnf(rng, n, round(n * 4.26), (3, 4) if i % 2 else None)
            for heuristic in HEURISTICS:
                solve(clauses, n, heuristic)
    return checks


def test_learned_clauses_watch_their_asserting_and_a_highest_level_literal(watch_checks):
    # as the TrailKernel docstring states: a watch on a lower-level literal misses the clause's
    # units and conflicts once a later backjump unassigns the asserting literal
    assert watch_checks["learn"] == []
    assert watch_checks["learned"] > 5_000 and watch_checks["highest first"] > 1_000, watch_checks


def test_no_hooked_clause_is_unit_or_false_at_a_decision(watch_checks):
    # decisions are made at a propagation fixpoint: a unit clause that the watches missed shows here
    assert watch_checks["decide"] == []
    assert watch_checks["decisions"] > 9_000, watch_checks["decisions"]
