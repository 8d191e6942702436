"""SCL on ground problems is CDCL, and which instances SCL keeps in the kernel's watch lists.

As CDCL hooks every clause, SCL hooks the one instance of each clause
without variables, made at grounding.

DIMACS variable k is written as the 0-ary predicate P%03d, so SCL's atom k
is variable k whenever every variable occurs in some clause.  CDCL runs with
SCL's decisions (lowest atom, positive) and SCL's unit order (smallest atom,
positive first, then clause id); the two runs then make the same events and
the same analyses, with SCL's instance positions named by their clause ids.
"""

import random
from collections import Counter
from functools import partial

import pytest

from corpora import random_cnf
from test_cdcl import replay_proof
from test_scl_kernel import random_bs
from workload_outputs import load_workloads
from clausekit.cdcl import CdclState, ProofStep, PropClause, lowest_index_positive, solve
from clausekit.formats import parse_dimacs
from clausekit.logic import Atom, Clause, Literal
from clausekit.scl import counter_problem, ground_problem, scl_run


def corpus() -> list[tuple[list[PropClause], int]]:
    """The benchmark's random-3cnf corpus, drawn by the benchmark's own generator from its own seed."""
    workloads = load_workloads()
    rng = random.Random(workloads.CNF_CORPUS_SEED)
    formulas = []
    for _ in range(workloads.CNF_FORMULAS):
        num_vars, clauses = parse_dimacs(workloads.random_3cnf(rng))
        formulas.append((clauses, num_vars))
    return formulas


def small_formulas(seed: int, widths: tuple[int, ...]) -> list[tuple[list[PropClause], int]]:
    """200 formulas of 5-30 variables at a clause/variable ratio of 3.0, 4.26 or 5.0."""
    rng = random.Random(seed)
    formulas = []
    for _ in range(200):
        num_vars = rng.randint(5, 30)
        formulas.append((random_cnf(rng, num_vars, round(num_vars * rng.choice((3.0, 4.26, 5.0))), widths), num_vars))
    return formulas


def as_bs(clauses: list[PropClause]) -> list[Clause]:
    return [Clause(c.id, tuple(Literal(l > 0, Atom(f"P{abs(l):03d}")) for l in c.lits)) for c in clauses]


def scl_events(clauses: list[PropClause]) -> tuple[str, list[tuple], list[ProofStep]]:
    """SCL's verdict, events and proof, with its instance positions named by their clause ids."""
    result = scl_run(as_bs(clauses))
    instances = result.state.problem.instances
    events = []
    for ev in result.state.events:
        if ev[0] == "propagate":
            events.append(("propagate", ev[1], instances[ev[2]].clause_id))
        elif ev[0] == "conflict":
            events.append(("conflict", instances[ev[1]].clause_id))
        elif ev[0] == "learn":
            events.append(("learn", ev[1], ev[2], instances[ev[3]].clause_id))
        else:
            events.append(ev)
    proof = [ProofStep(instances[step.conflict_id].clause_id,
                       tuple((atom, instances[pos].clause_id) for atom, pos in step.steps), step.learned)
             for step in result.proof]
    return result.verdict, events, proof


def cdcl_events(clauses: list[PropClause], num_vars: int) -> tuple[str, list[tuple], list[ProofStep]]:
    """CDCL's verdict, events and proof, after `replay_proof` checks the proof's ordering and replay."""
    result = solve(clauses, num_vars, lowest_index_positive)
    replay_proof(clauses, result)
    return result.verdict, [ev for ev in result.state.events if ev[0] not in ("sat", "unsat")], result.proof


FORMULAS = {
    "corpus": corpus,
    "3cnf": partial(small_formulas, 11, (3,)),
    "widths 2-4": partial(small_formulas, 12, (2, 3, 4)),
}


@pytest.mark.parametrize("formulas", FORMULAS)
def test_scl_on_ground_clauses_makes_cdcls_trace(formulas, monkeypatch):
    # the formulas backjump, so SCL's trigger walk must find instances that exist again
    monkeypatch.setattr(CdclState, "unit_key", lambda self, cid, lit: (abs(lit), lit < 0, cid))
    # the proofs agree too: every analysis above level 0 is the same, and at an "unsat" run's
    # level-0 conflict SCL stops with no steps, while CDCL walks down to the empty clause
    compared = learned = again = steps = 0
    verdicts = Counter()
    for clauses, num_vars in FORMULAS[formulas]():
        if {abs(l) for c in clauses for l in c.lits} != set(range(1, num_vars + 1)):
            continue  # CDCL decides a variable in no clause, and SCL has no atom for it
        verdict, events, proof = scl_events(clauses)
        cdcl_verdict, cdcl_trace, cdcl_proof = cdcl_events(clauses, num_vars)
        assert (verdict, events) == (cdcl_verdict, cdcl_trace)
        if verdict == "unsat":
            assert proof[-1] == (cdcl_proof[-1].conflict_id, (), ()) and cdcl_proof[-1].learned == ()
            proof, cdcl_proof = proof[:-1], cdcl_proof[:-1]
        assert proof == cdcl_proof
        steps += sum(len(step.steps) for step in proof)
        compared += 1
        verdicts[verdict] += 1
        learned += sum(ev[0] == "learn" for ev in events)
        reasons = Counter(ev[2] for ev in events if ev[0] == "propagate")
        again += sum(n > 1 for n in reasons.values())
    assert compared >= (17 if formulas == "corpus" else 150)
    assert verdicts["sat"] and verdicts["unsat"]
    assert learned > 100 and again > 100 and steps > learned


@pytest.mark.parametrize("n", [1, 6, 12])
def test_counter_watches_only_its_clauses_without_variables(n):
    # the carry instances of the clauses with variables are found by the trigger walk alone; the
    # start, the top carry -P(0,1,..,1) | P(1,0,..,0) and the negated final value are watched
    result = scl_run(counter_problem(n))
    assert result.verdict == "unsat" and result.stats.propagations == 2**n
    instances = result.state.problem.instances
    assert sorted(instances[pos].clause_id for pos in result.state.watched) == [1, n + 1, n + 2]


def test_only_start_and_learned_instances_are_watched():
    # the start instances hold every clause without variables, those of two or more literals too
    rng = random.Random(2019)
    dense = created = learned = wide = 0
    while dense < 200:
        clauses, domain = random_bs(rng)
        if len(clauses) < 32:
            continue  # a sparse set
        dense += 1
        start = ground_problem(clauses, domain).instances
        state = scl_run(clauses, domain).state
        instances = state.problem.instances
        learned_at = {pos for pos, inst in enumerate(instances) if inst.clause_id > len(clauses)}
        assert set(state.watched) == {pos for pos, inst in enumerate(start) if inst.lits} | learned_at
        assert {inst.clause_id for inst in start if inst.compiled is None} == {
            c.id for c in clauses if not c.variables() and not c.is_tautology()
        }
        created += len(instances) - len(start) - len(learned_at)
        learned += len(learned_at)
        wide += sum(len(inst.lits) > 1 and inst.compiled is None for inst in start)
    assert created > 2000 and learned > 50 and wide > 2000
