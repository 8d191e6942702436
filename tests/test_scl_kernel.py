"""The SCL engine on the shared trail kernel against the rescanning engine it replaces."""

import dataclasses
import random

import pytest

from oracles import reference_render, reference_scl_run
from clausekit.formats import parse_bs
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.scl import (
    SclResourceExceeded,
    SclSat,
    SclUnsat,
    counter_problem,
    render,
    scl_run,
)

CONSTANTS = [Constant(n) for n in ("a", "b", "c")]
VARIABLES = [Variable(n) for n in ("x", "y", "z")]


def outcome(result, render_result):
    """Verdict, stats, rendered output with JSON fields, trail, model and learned clauses."""
    state = result.state
    if isinstance(result, SclSat):
        verdict = result.model
    elif isinstance(result, SclUnsat):
        verdict = (result.conflict_clause_id, result.conflict_subst)
    else:
        verdict = None
    rendered = list(render_result(result))
    if state is None:
        return type(result), verdict, dataclasses.asdict(result.stats), rendered
    return (
        type(result),
        verdict,
        dataclasses.asdict(result.stats),
        rendered,
        [tuple(e) for e in state.trail],
        [str(c) for c in state.learned],
    )


def same_run(clauses, domain=None, trail_cap=None):
    caps = {} if trail_cap is None else {"trail_cap": trail_cap}
    got = scl_run(clauses, domain, **caps)
    assert outcome(got, render) == outcome(reference_scl_run(clauses, domain, **caps), reference_render)
    return got


def random_bs(rng: random.Random) -> tuple[list[Clause], list[Constant] | None]:
    """Small BS sets.  Half are sparse: three predicates of arity 0-3, up to seven clauses
    of 0-4 literals, an explicit domain with an extra constant for some.  Half are dense:
    eight predicates of arity 0-1 and 32 clauses of two or three literals over the
    domain {a, b}, so that decisions run into conflicts and learn.  Repeated variables
    give repeated-literal and tautological instances."""
    dense = rng.random() < 0.5
    preds = "PQRSTUVW" if dense else "PQR"
    arity = {p: rng.randint(0, 1 if dense else 3) for p in preds}
    clauses = []
    for cid in range(1, (32 if dense else rng.randint(2, 7)) + 1):
        width = rng.randint(2, 3) if dense else rng.choices(range(5), weights=[1, 8, 8, 5, 2])[0]
        lits = []
        for _ in range(width):
            pred = rng.choice(preds)
            args = tuple(rng.choice(CONSTANTS[:2] + VARIABLES) for _ in range(arity[pred]))
            lits.append(Literal(rng.random() < 0.5, Atom(pred, args)))
        clauses.append(Clause(cid, tuple(lits)))
    if dense:
        return clauses, CONSTANTS[:2]
    if rng.random() < 0.3:
        used = {a for c in clauses for l in c.literals for a in l.atom.args if isinstance(a, Constant)}
        return clauses, sorted(used | {CONSTANTS[2]}, key=lambda c: c.name)
    return clauses, None


@pytest.mark.parametrize("n", range(1, 13))
def test_counter_matches_reference(n):
    # from n = 10 on, instance positions are not in (clause id, substitution) order
    for clauses in (counter_problem(n), counter_problem(n)[:-1]):
        result = same_run(clauses)
        assert result.stats.propagations == 2**n and result.stats.decisions == 0


def test_random_sets_match_reference():
    rng = random.Random(2019)
    kinds = {SclSat: 0, SclUnsat: 0, SclResourceExceeded: 0}
    learned = repeated = tautological = explicit = 0
    while sum(kinds.values()) < 320:
        clauses, domain = random_bs(rng)
        try:
            result = same_run(clauses, domain)
        except ValueError:  # no constant to ground over
            continue
        kinds[type(result)] += 1
        learned += len(result.state.learned)
        explicit += domain is not None
        for inst in result.state.problem.instances:
            atoms = [abs(l) for l in inst.lits]
            repeated += len(inst.lits) < len(result.state.problem.clauses[inst.clause_id].literals)
            tautological += len(set(atoms)) < len(atoms)
    assert kinds[SclSat] > 100 and kinds[SclUnsat] > 50
    assert learned > 50 and repeated > 50 and tautological > 50 and explicit > 50


def test_trail_cap_boundaries_match_reference():
    rng = random.Random(7)
    cases = [(counter_problem(n), None) for n in (1, 3, 5)] + [(counter_problem(4)[:-1], None)]
    while len(cases) < 80:
        clauses, domain = random_bs(rng)
        try:
            scl_run(clauses, domain)
        except ValueError:
            continue
        cases.append((clauses, domain))
    exceeded = 0
    for clauses, domain in cases:
        stats = scl_run(clauses, domain).stats
        for bound in {stats.propagations, stats.trail}:
            for cap in range(max(bound - 1, 0), bound + 2):
                exceeded += isinstance(same_run(clauses, domain, trail_cap=cap), SclResourceExceeded)
    assert exceeded > 60


def test_learning_example_matches_reference():
    result = same_run(parse_bs("-P(0) | P(1). -P(0) | -P(1). Q(0) | P(0). -Q(0) | P(0) | Q(1)."))
    assert result.state.learned and result.stats.decisions > 0


class TestOrderAmongInstances:
    # E(y,x) grounds y before x, so instance positions run x->b,y->a before x->a,y->b,
    # while the (clause id, substitution) order puts x->a,y->b first

    def test_unit_tie_goes_to_the_smallest_substitution(self):
        result = same_run(parse_bs("1 : E(a,b). 2 : E(b,a). 3 : -E(y,x) | T(c)."))
        assert "propagate T(c) <- clause 3 σ={x->a,y->b}" in [line for line, _ in render(result)]

    def test_conflict_is_the_smallest_false_instance(self):
        result = same_run(parse_bs("1 : E(a,b). 2 : E(b,a). 3 : T(c). 4 : -E(y,x) | -T(c)."))
        assert isinstance(result, SclUnsat)
        lines = [line for line, _ in render(result)]
        assert lines[-3] == "conflict clause 4 σ={x->a,y->b}" and lines[-1] == "s UNSATISFIABLE"
