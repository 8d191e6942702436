import itertools
import random

import pytest

from oracles import assignment_satisfies, all_ground_instances, ground_satisfiable
from clausekit import scl
from clausekit.cdcl import decide, lowest_unassigned
from clausekit.errors import ResourceLimitError
from clausekit.formats import parse_bs
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.scl import (
    SclState,
    counter_problem,
    ground_problem,
    scl_propagate,
    render,
    scl_run,
)

C0, C1 = Constant("0"), Constant("1")


def atom(bits: str) -> Atom:
    return Atom("P", tuple(Constant(b) for b in bits))


class TestCounterProblem:
    def test_four_bit_clause_shapes(self):
        expected = parse_bs(
            """
            1 : P(0,0,0,0).
            2 : -P(x1,x2,x3,0) | P(x1,x2,x3,1).
            3 : -P(x1,x2,0,1) | P(x1,x2,1,0).
            4 : -P(x1,0,1,1) | P(x1,1,0,0).
            5 : -P(0,1,1,1) | P(1,0,0,0).
            6 : -P(1,1,1,1).
            """
        )
        assert list(counter_problem(4)) == expected

    def test_one_bit(self):
        assert list(counter_problem(1)) == parse_bs("P(0). -P(0) | P(1). -P(1).")

    def test_two_bits(self):
        assert list(counter_problem(2)) == parse_bs(
            "P(0,0). -P(x1,0) | P(x1,1). -P(0,1) | P(1,0). -P(1,1)."
        )

    def test_clause_count(self):
        for n in (1, 3, 7):
            assert len(counter_problem(n)) == n + 2

    def test_two_bit_family_unsat_by_ground_oracle(self):
        assert not ground_satisfiable(counter_problem(2), [C0, C1])
        assert ground_satisfiable(counter_problem(2)[:-1], [C0, C1])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            counter_problem(0)


class TestSclPropagate:
    def test_four_bit_trail_walks_in_order(self):
        state = SclState.from_problem(ground_problem(counter_problem(4)))
        scl_propagate(state)
        trail_atoms = [state.problem.atoms[abs(lit) - 1] for lit, _, _ in state.trail]
        expected = [atom(format(v, "04b")) for v in range(16)]
        assert trail_atoms == expected
        assert all(lit > 0 for lit, _, _ in state.trail)
        conflict = state.problem.instances[state.conflict]
        assert conflict.clause_id == 6 and conflict.subst == ()

    def test_two_bit_run(self):
        state = SclState.from_problem(ground_problem(counter_problem(2)))
        scl_propagate(state)
        trail_atoms = [state.problem.atoms[abs(lit) - 1] for lit, _, _ in state.trail]
        assert trail_atoms == [atom("00"), atom("01"), atom("10"), atom("11")]
        assert state.problem.instances[state.conflict].clause_id == 4

    def test_no_unit_fixpoint(self):
        clauses = parse_bs("P(0) | P(1). -P(0) | -P(1).")
        state = SclState.from_problem(ground_problem(clauses))
        scl_propagate(state)
        assert state.trail == [] and state.conflict is None

    def test_trail_cap(self):
        state = SclState.from_problem(ground_problem(counter_problem(4)))
        with pytest.raises(ResourceLimitError):
            scl_propagate(state, trail_cap=3)

    def test_propagation_justifications(self):
        # every propagated literal was undefined and the rest of its instance false
        state = SclState.from_problem(ground_problem(counter_problem(3)))
        scl_propagate(state)
        value: dict[int, bool] = {}
        for lit, _, reason in state.trail:
            inst = state.problem.instances[reason]
            others = [l for l in inst.lits if l != lit]
            assert all(value.get(abs(l)) == (l < 0) for l in others)
            assert abs(lit) not in value
            value[abs(lit)] = lit > 0


class TestSclRun:
    def test_counter_four_unsat(self):
        result = scl_run(counter_problem(4))
        assert result.verdict == "unsat"
        assert result.stats.propagations == 16
        assert result.stats.decisions == 0
        assert result.state.problem.instances[result.state.conflict].clause_id == 6

    def test_counter_four_without_final_clause_sat(self):
        result = scl_run(counter_problem(4)[:-1])
        assert result.verdict == "sat"
        assert result.stats.propagations == 16
        assert set(result.model) == {atom(format(v, "04b")) for v in range(16)}

    def test_single_unit(self):
        result = scl_run(parse_bs("P(0)."), domain=[C0])
        assert result.verdict == "sat"
        assert result.model == (Atom("P", (C0,)),)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_exponential_propagation_growth(self, n):
        unsat = scl_run(counter_problem(n))
        assert unsat.verdict == "unsat"
        assert unsat.stats.propagations == 2**n and unsat.stats.decisions == 0
        sat = scl_run(counter_problem(n)[:-1])
        assert sat.verdict == "sat"
        assert sat.stats.propagations == 2**n and len(sat.model) == 2**n

    def test_conflict_above_level_zero_learns(self):
        clauses = parse_bs("-P(0) | P(1). -P(0) | -P(1).")
        result = scl_run(clauses)
        assert result.verdict == "sat"
        assert [line for line, _ in render(result) if line.startswith("learn")] == ["learn -P(0) backjump 0"]
        assert result.stats.decisions >= 1

    def test_learning_is_held_to_the_backjump_rule(self, monkeypatch):
        # deciding P(a) makes clause 2 false at level 1; an extra unassigned atom in the
        # learned clause leaves two literals open after the backjump, so it is not asserting
        resolve = scl.resolve_1uip

        def resolve_with_open_atom(kernel, conflict_lits, reasons):
            learned, blevel, steps = resolve(kernel, conflict_lits, reasons)
            atom = next(a for a in itertools.count(1) if not (kernel.true[a] or kernel.true[-a]))
            return tuple(sorted(learned + (atom,), key=abs)), blevel, steps

        monkeypatch.setattr(scl, "resolve_1uip", resolve_with_open_atom)
        with pytest.raises(ValueError, match="not asserting at the backjump level"):
            scl_run(parse_bs("-P(a) | Q(a). -P(a) | -Q(a). P(b) | R(b)."))

    def test_instance_cap(self):
        clauses = [
            Clause(1, (Literal(True, Atom("P", tuple(Variable(f"x{i}") for i in range(1, 9)))),)),
            Clause(2, (Literal(False, Atom("P", (C0,) * 4 + (C1,) * 4)),)),
        ]
        result = scl_run(clauses, instance_cap=100)
        assert result.verdict == "limit"

    def test_trail_cap_reports_stats(self):
        result = scl_run(counter_problem(4), trail_cap=5)
        assert result.verdict == "limit"
        assert result.stats.propagations == 5

    def test_full_trail_has_no_unassigned_atom(self):
        # atoms P(a) = 1 and Q(a) = 2; the truth table's slot 3 is literal -2, which is on the trail
        state = scl_run(parse_bs("P(a). -Q(a).")).state
        assert [lit for lit, _, _ in state.trail] == [1, -2] and len(state.problem.atoms) == 2
        assert lowest_unassigned(state) == 3

    @pytest.mark.parametrize("lit", [3, -3, 0])
    def test_decide_rejects_atoms_outside_the_herbrand_base(self, lit):
        state = SclState.from_problem(ground_problem(parse_bs("P(a) | Q(a).")))
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            decide(state, lit)
        assert state.trail == [] and state.level == 0 and not any(state.true)

    def test_missing_domain_rejected(self):
        with pytest.raises(ValueError):
            scl_run(counter_problem(2), domain=[C0])


def random_bs(rng: random.Random, arity: int, clause_count: int) -> list[Clause]:
    clauses = []
    for cid in range(1, clause_count + 1):
        lits = []
        for _ in range(rng.randint(1, 3)):
            args = tuple(
                rng.choice([C0, C1, Variable("x1"), Variable("x2")]) for _ in range(arity)
            )
            lits.append(Literal(rng.random() < 0.6, Atom("P", args)))
        clauses.append(Clause(cid, tuple(lits)))
    return clauses


class TestOracleAgreement:
    def test_verdicts_and_models(self):
        rng = random.Random(99)
        sat = unsat = 0
        for _ in range(60):
            clauses = random_bs(rng, rng.randint(1, 3), rng.randint(2, 6))
            result = scl_run(clauses, domain=[C0, C1])
            expected = ground_satisfiable(clauses, [C0, C1])
            if result.verdict == "sat":
                assert expected
                model = {a: True for a in result.model}
                for inst in all_ground_instances(clauses, [C0, C1]):
                    assert assignment_satisfies(inst, model)
                sat += 1
            else:
                assert result.verdict == "unsat" and not expected
                unsat += 1
        assert sat > 5 and unsat > 5


def test_trace_format():
    result = scl_run(counter_problem(2))
    lines = [line for line, _ in render(result)]
    assert lines[0] == "propagate P(0,0) <- clause 1 σ={}"
    assert lines[1] == "propagate P(0,1) <- clause 2 σ={x1->0}"
    assert lines[-3] == "conflict clause 4 σ={}"
    assert lines[-2] == "stats propagations=4 decisions=0 trail=4"
    assert lines[-1] == "s UNSATISFIABLE"
