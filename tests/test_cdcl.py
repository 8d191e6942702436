import random

import pytest

from corpora import random_cnf
from oracles import (
    TrailOrdering,
    brute_force_sat,
    is_redundant,
    learn_orderings,
    reference_resolve_1uip,
    replay_step,
)
from clausekit import cdcl
from clausekit.cdcl import (
    CdclResult,
    CdclState,
    PropClause,
    analyze_conflict,
    backjump_and_learn,
    clause_status,
    decide,
    forget,
    lowest_index_negative,
    propagate,
    render,
    solve,
)
from clausekit.errors import ResourceLimitError

# P=1 Q=2 R=3 S=4
DEMO = [PropClause(1, (1, 2, 3)), PropClause(2, (-3, 4)), PropClause(3, (-4, 1, 2))]


def demo_state():
    return CdclState(DEMO)


def drive_to_conflict(state):
    propagate(state)
    decide(state, -1)
    propagate(state)
    decide(state, -2)
    propagate(state)
    return state


class TestPropagate:
    def test_backjump_demo(self):
        state = drive_to_conflict(demo_state())
        assert state.trail == [
            (-1, 1, None),
            (-2, 2, None),
            (3, 2, 1),
            (4, 2, 2),
        ]
        assert state.conflict == 3 and state.level == 2

    def test_no_unit_no_change(self):
        state = demo_state()
        propagate(state)
        assert state.trail == [] and state.conflict is None

    def test_contradictory_units(self):
        state = CdclState([PropClause(1, (1,)), PropClause(2, (-1,))])
        propagate(state)
        assert [lit for lit, _, _ in state.trail] == [1]
        assert state.conflict == 2

    def test_pending_conflict_rejected(self):
        state = drive_to_conflict(demo_state())
        with pytest.raises(ValueError):
            propagate(state)


class TestDecide:
    def test_levels(self):
        state = demo_state()
        propagate(state)
        decide(state, -1)
        assert state.level == 1
        propagate(state)
        decide(state, -2)
        assert state.level == 2

    def test_assigned_atom_rejected(self):
        state = demo_state()
        propagate(state)
        decide(state, -1)
        with pytest.raises(ValueError):
            decide(state, 1)

    def test_fixpoint_required(self):
        state = demo_state()
        propagate(state)
        decide(state, -1)
        decide(state, -2)  # clause 1 is now unit: exhaustive propagation violated
        # the violation is caught at the next decide
        with pytest.raises(ValueError):
            decide(state, -3)


class TestAnalyzeConflict:
    def test_backjump_demo(self):
        state = drive_to_conflict(demo_state())
        learned, level, steps = analyze_conflict(state)
        assert learned == (1, 2) and level == 1
        # resolution chain: first with -R|S, then with P|Q|R
        assert [cid for _, cid in steps] == [2, 1]

    def test_single_current_level_literal_unchanged(self):
        # exhaustive propagation never produces this state, so assemble it:
        # the conflict clause holds one literal per level, one of them current
        state = CdclState([PropClause(1, (1, 4))])
        for lit, level in ((-1, 1), (-4, 2)):
            state.trail_lim.append(len(state.trail))
            state.level = level
            state.trail.append((lit, level, None))
            state.true[lit] = 1
            state.var_level[abs(lit)] = level
        state.conflict = 1
        learned, level, steps = analyze_conflict(state)
        assert learned == (1, 4) and level == 1
        assert steps == []  # returned unchanged

    def test_level_zero_yields_bottom(self):
        state = CdclState([PropClause(1, (1,)), PropClause(2, (-1,))])
        propagate(state)
        learned, level, _ = analyze_conflict(state)
        assert learned == () and level == -1

    def test_requires_conflict(self):
        with pytest.raises(ValueError):
            analyze_conflict(demo_state())


class TestBackjump:
    def test_backjump_demo(self):
        state = drive_to_conflict(demo_state())
        learned, level, _ = analyze_conflict(state)
        backjump_and_learn(state, learned, level)
        assert [(lit, level) for lit, level, _ in state.trail] == [(-1, 1), (2, 1)]
        assert state.trail[1][2] == 4  # the learned clause propagates Q
        assert [state.clauses[i].lits for i in state.learned_ids] == [(1, 2)]
        assert state.level == 1 and state.conflict is None

    def test_unit_learned_at_level_zero(self):
        state = CdclState([PropClause(1, (1, 2)), PropClause(2, (-2, 1))])
        propagate(state)
        decide(state, -1)
        propagate(state)  # 2 via clause 1, then clause 2 is false
        learned, level, _ = analyze_conflict(state)
        assert learned == (1,) and level == 0
        backjump_and_learn(state, learned, level)
        assert state.level == 0
        assert [(lit, level) for lit, level, _ in state.trail] == [(1, 0)]

    NOT_ASSERTING = "not asserting at the backjump level"
    NOT_HIGHEST = "backjump level is not the highest level"

    @pytest.mark.parametrize(
        "lits, level, message",
        [
            ((), 0, "cannot learn the empty clause"),
            ((1, 2), 2, "backjump level must be below the current level"),
            ((3, 4), 1, NOT_ASSERTING),  # two literals above the level
            ((1, 2, 2), 1, NOT_ASSERTING),  # the asserting literal twice
            ((1, 2, -2), 1, NOT_ASSERTING),  # a literal and its complement above the level
            ((-1, 2), 1, NOT_ASSERTING),  # -1 is true at level 1
            ((2, -5), 1, NOT_HIGHEST),  # -5 is false at level 0, below the level
            ((1, 2), 1, None),
            ((1, 2, -5), 1, None),  # the others' highest level, 1, is the level
            ((1,), 0, None),  # a unit clause learned at level 0
        ],
        ids=[
            "empty", "level-not-below", "two-open", "repeated-asserting", "complementary-open", "true-literal",
            "others-below-level", "asserting", "asserting-over-levels", "unit-at-level-0",
        ],
    )
    def test_backjump_conditions(self, lits, level, message):
        # the demo trail -1@1, -2@2, 3@2, 4@2 above 5@0 (clause 4), with atom 6 unassigned
        state = drive_to_conflict(CdclState(DEMO + [PropClause(4, (5,))], num_vars=6))
        trail = list(state.trail)
        if message is not None:
            with pytest.raises(ValueError, match=message):
                backjump_and_learn(state, lits, level)
            assert state.trail == trail and state.level == 2 and state.learned_ids == []
            return
        backjump_and_learn(state, lits, level)
        asserting = next(l for l in lits if abs(l) not in {abs(lit) for lit, lit_level, _ in trail if lit_level <= level})
        assert state.level == level and state.trail[-1] == (asserting, level, 5)
        assert state.learned_ids == [5] and state.events[-1] == ("learn", lits, level, 5)


class TestSolve:
    def test_backjump_demo(self):
        result = solve(DEMO)
        assert result.verdict == "sat"
        assert brute_force_sat(DEMO_LITS := [c.lits for c in DEMO], 4)
        assert all(any(l in result.model for l in c) for c in DEMO_LITS)
        lines = render(result, False)
        assert "learn 1 2 backjump 1\n" in lines

    def test_empty_problem(self):
        result = solve([])
        assert result.verdict == "sat" and result.model == ()

    def test_unit_contradiction(self):
        result = solve([PropClause(1, (1,)), PropClause(2, (-1,))])
        assert result.verdict == "unsat"
        assert result.proof[-1].learned == ()

    def test_empty_input_clause(self):
        result = solve([PropClause(1, ())])
        assert result.verdict == "unsat"


class TestForget:
    def _state_with_idle_learned(self):
        state = CdclState(DEMO)
        cid = state.next_clause_id
        state.clauses[cid] = PropClause(cid, (1, 2))
        state.learned_ids.append(cid)
        state.next_clause_id += 1
        return state, cid

    def test_removal(self):
        state, cid = self._state_with_idle_learned()
        forget(state, cid)
        assert state.learned_ids == [] and cid not in state.clauses

    def test_justifying_clause_locked(self):
        state = drive_to_conflict(demo_state())
        learned, level, _ = analyze_conflict(state)
        backjump_and_learn(state, learned, level)
        with pytest.raises(ValueError):
            forget(state, state.learned_ids[0])

    def test_input_clause_not_forgettable(self):
        state = demo_state()
        with pytest.raises(ValueError):
            forget(state, 1)

    def test_relearned_after_forgetting(self):
        # the same conflict on a fresh run of the same problem relearns the clause
        first = solve(DEMO)
        forgotten = first.state.clauses[first.state.learned_ids[0]].lits
        second = solve(DEMO)
        assert forgotten in [second.state.clauses[i].lits for i in second.state.learned_ids]


class TestIsRedundant:
    ORD = TrailOrdering.from_trail([-1, -2, 3, 4])

    def test_learned_clause_not_redundant(self):
        assert not is_redundant((1, 2), DEMO, self.ORD)

    def test_subset_clause_redundant(self):
        assert is_redundant((1, 2), [PropClause(9, (1,))], self.ORD)

    def test_empty_set(self):
        assert not is_redundant((1, 2), [], self.ORD)

    def test_tautology_redundant_vacuously(self):
        assert is_redundant((1, -1), [], self.ORD)

    def test_atom_cap(self):
        clause = tuple(range(1, 22))
        with pytest.raises(ResourceLimitError):
            is_redundant(clause, [], self.ORD)

    def test_ordering_matters(self):
        # P|Q is implied by unit P, but only when P ranks below the clause
        assert is_redundant((1, 2), [PropClause(5, (1,))], TrailOrdering.from_trail([1, 2]))


def replay_proof(clauses, result: CdclResult) -> int:
    """Independent check of the proof of a run, on either verdict: each analysis, paired with its learn
    event's trail ordering (an "unsat" run's last with the final trail), replays with `resolve_on` from
    its conflict clause to its learned clause, each step on the greatest atom (`replay_step`), and an
    "unsat" proof ends in the empty clause.  Returns the number of steps replayed."""
    by_id = {c.id: c for c in clauses}
    orderings = [ordering for _, ordering in learn_orderings(result.state.events)]
    if result.verdict == "unsat":
        orderings.append(TrailOrdering.from_trail([lit for lit, _, _ in result.state.trail]))
        assert result.proof[-1].learned == ()
    assert len(result.proof) == len(orderings)
    for step, ordering in zip(result.proof, orderings):
        assert replay_step(step, by_id, ordering) == step.learned
        if step.learned:
            new_id = max(by_id) + 1
            assert result.state.clauses[new_id].lits == step.learned
            by_id[new_id] = PropClause(new_id, step.learned)
    return sum(len(step.steps) for step in result.proof)


class TestRandomCorpus:
    def test_oracle_equivalence_and_invariants(self):
        rng = random.Random(20240817)
        checked_learn = checked_steps = 0
        for _ in range(150):
            num_vars = rng.randint(4, 10)
            clauses = random_cnf(rng, num_vars, rng.randint(num_vars, 36))
            result = solve(clauses, num_vars)
            expected = brute_force_sat([c.lits for c in clauses], num_vars)
            if result.verdict == "sat":
                assert expected
                assert all(
                    any(l in result.model for l in c.lits) for c in clauses
                )
            else:
                assert not expected
            checked_steps += replay_proof(clauses, result)
            # non-redundancy of every learned clause, at learning time
            known = {c.id: c for c in clauses}
            for (_, lits, _level, cid), ordering in learn_orderings(result.state.events):
                assert not is_redundant(lits, list(known.values()), ordering)
                known[cid] = PropClause(cid, lits)
                checked_learn += 1
        assert checked_learn > 100 and checked_steps > 500

    def test_analysis_matches_reference(self, monkeypatch):
        # at every conflict of the corpus above, level 0 included, the one-walk analysis
        # gives the rescanning reference's learned clause, backjump level and steps
        analyze, levels = cdcl.resolve_1uip, []

        def compared(kernel, conflict_lits, reasons):
            got = analyze(kernel, conflict_lits, reasons)
            reason_lits = lambda reason: reasons[reason].lits
            assert got == reference_resolve_1uip(kernel.trail, conflict_lits, kernel.level, reason_lits)
            levels.append(kernel.level)
            return got

        monkeypatch.setattr(cdcl, "resolve_1uip", compared)
        rng = random.Random(20240817)
        for _ in range(150):
            num_vars = rng.randint(4, 10)
            solve(random_cnf(rng, num_vars, rng.randint(num_vars, 36)), num_vars)
        assert levels.count(0) > 20 and len(levels) - levels.count(0) > 150

    def test_trail_discipline(self):
        rng = random.Random(7)
        for _ in range(40):
            num_vars = rng.randint(4, 8)
            clauses = random_cnf(rng, num_vars, rng.randint(num_vars, 24))
            result = solve(clauses, num_vars)
            seen = set()
            level = 0
            for lit, lit_level, reason in result.state.trail:
                assert abs(lit) not in seen  # consistent prefixes
                seen.add(abs(lit))
                if reason is None:
                    assert lit_level == level + 1  # decisions increase the level
                level = lit_level


def test_clause_status():
    value = {1: True, 2: False}
    assert clause_status((1, 3), value) == ("sat", None)
    assert clause_status((-1, 2), value) == ("false", None)
    assert clause_status((-1, 2, 3), value) == ("unit", 3)
    assert clause_status((3, 4), value) == ("open", None)


def test_heuristic_default():
    state = demo_state()
    assert lowest_index_negative(state) == -1
