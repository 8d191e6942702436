"""Template grounding against the substitution-based reference grounding.

The engine grounds lazily: `ground_problem` gives each clause without
variables its one instance, creates the instances of the other clauses that are
unit or false under the empty trail, and a run creates the rest as the trail
makes them unit or false.  The engine's grounding is compared with the
reference through `template_grounding`, which enumerates every instance the
templates give beside those made at grounding.
"""

import itertools
import json
import random

import pytest

from oracles import reference_ground_problem, scan_status
from test_scl_kernel import swap_bs
from clausekit import scl
from clausekit.errors import ResourceLimitError
from clausekit.formats import parse_bs
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.scl import SclState, counter_problem, ground_problem, render, scl_run

CONSTANTS = [Constant(n) for n in ("a", "b", "c")]
VARIABLES = [Variable(n) for n in ("x1", "x2", "y")]


def random_clause_set(rng: random.Random) -> tuple[list[Clause], list[Constant] | None]:
    """Small BS clause sets: arity 0-3, constants and repeated variables in atoms,
    ground and empty clauses, sometimes extra domain constants."""
    arity = {p: rng.randint(0, 3) for p in ("P", "Q", "R")}
    clauses = []
    for cid in range(1, rng.randint(1, 5) + 1):
        ground = rng.random() < 0.2
        lits = []
        for _ in range(rng.choices(range(5), weights=[1, 6, 6, 5, 3])[0]):
            pred = rng.choice(["P", "Q", "R"])
            pool = CONSTANTS if ground else CONSTANTS + VARIABLES * 2
            args = tuple(rng.choice(pool) for _ in range(arity[pred]))
            lits.append(Literal(rng.random() < 0.6, Atom(pred, args)))
        clauses.append(Clause(cid, tuple(lits)))
    domain = None
    if rng.random() < 0.3:
        used = {a for c in clauses for l in c.literals for a in l.atom.args if isinstance(a, Constant)}
        domain = sorted(used | {Constant("d"), Constant("0")}, key=lambda c: c.name)
        rng.shuffle(domain)
    return clauses, domain


def outcome(ground, clauses, domain, cap=scl.DEFAULT_INSTANCE_CAP):
    """Clauses, domain, atom table and the instances unit or false under the empty trail, as
    (clause id, substitution, literals)."""
    try:
        p = ground(clauses, domain, cap)
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return p.clauses, p.domain, list(p.atoms), [
        (inst.clause_id, inst.subst, inst.lits) for inst in p.instances if len(inst.lits) < 2
    ]


def template_grounding(problem):
    """Every instance the engine's grounding gives, in (clause id, product) order, as an eager
    grounding would keep them: one per substitution, each literal once.  A clause with variables
    gives its instances from its templates; a clause without has the one made at grounding,
    or none if it is a tautology."""
    compiled = {clause.id: clause for clause in problem.compiled}
    made = {inst.clause_id: [inst] for inst in problem.instances if inst.compiled is None}
    instances = []
    for cid in sorted(problem.clauses):
        clause = compiled.get(cid)
        if clause is None:
            instances += made.get(cid, [])
            continue
        instances += [
            scl.GroundInstance(clause.id, clause.subst(clause.key(combo)), tuple(dict.fromkeys(clause.lits(combo))))
            for combo in itertools.product(range(len(problem.domain)), repeat=clause.slots)
        ]
    return instances


def is_ground_tautology(problem, inst) -> bool:
    """Whether a reference instance is of a clause without variables and holds an atom in both signs."""
    return not problem.clauses[inst.clause_id].variables() and any(-lit in inst.lits for lit in inst.lits)


class TestAgainstReference:
    def test_random_clause_sets(self):
        rng = random.Random(2019)
        grounded = merged = without_variables = tautologies = 0
        for _ in range(400):
            clauses, domain = random_clause_set(rng)
            expected = outcome(reference_ground_problem, clauses, domain)
            assert outcome(ground_problem, clauses, domain) == expected
            if isinstance(expected[0], type):
                continue
            grounded += 1
            problem = ground_problem(clauses, domain)
            reference = reference_ground_problem(clauses, domain)
            # only clauses with variables are compiled; a tautology without them has no instance
            assert all(clause.slots for clause in problem.compiled)
            assert template_grounding(problem) == [
                inst for inst in reference.instances if not is_ground_tautology(reference, inst)
            ]
            without_variables += sum(not c.variables() for c in clauses)
            tautologies += sum(is_ground_tautology(reference, inst) for inst in reference.instances)
            merged += sum(
                len(inst.lits) < len(reference.clauses[inst.clause_id].literals)
                for inst in reference.instances
            )
            # the cap boundary: the larger of Herbrand base and instance count
            d = len(problem.domain)
            needed = max(len(problem.atoms), sum(d ** len(c.variables()) for c in clauses))
            for cap in (needed - 1, needed):
                assert outcome(ground_problem, clauses, domain, cap) == outcome(
                    reference_ground_problem, clauses, domain, cap
                )
            assert isinstance(outcome(ground_problem, clauses, domain, needed - 1)[0], type)
        assert grounded > 300 and merged > 50 and without_variables > 300 and tautologies > 20

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_counter(self, n):
        for clauses in (counter_problem(n), counter_problem(n)[:-1]):
            assert outcome(ground_problem, clauses, None) == outcome(
                reference_ground_problem, clauses, None
            )

    def test_arity_three_chain(self):
        clauses = parse_bs(
            """
            A(c0,c1,c2). A(c3,c4,c5).
            -A(x,y,z) | B(z,x,y).
            -B(x,y,z) | C(y,y,x).
            -C(x,y,z) | -A(z,x,c5) | D(x,z,y).
            -D(c5,c3,c5).
            """
        )
        problem = ground_problem(clauses)
        assert len(problem.atoms) == 4 * 6**3
        assert outcome(ground_problem, clauses, None) == outcome(
            reference_ground_problem, clauses, None
        )

    def test_herbrand_base_takes_only_indices_in_range(self):
        atoms = ground_problem(parse_bs("A(c0,c1). -A(x,y) | B(y)."), [Constant(n) for n in ("c0", "c1", "c2")]).atoms
        assert len(atoms) == len(list(atoms)) == 12
        assert atoms[11] == list(atoms)[-1] == Atom("B", (Constant("c2"),))
        for i in (len(atoms), -1):
            with pytest.raises(IndexError):
                atoms[i]

    def test_predicate_at_two_arities_is_rejected(self):
        # parse_bs rejects such text; library callers meet the same check
        x = Variable("x")
        clauses = [Clause(1, (Literal(True, Atom("M", (x,))), Literal(False, Atom("M", (x, x)))))]
        with pytest.raises(ValueError, match="predicate 'M' used with arity 2, expected 1"):
            ground_problem(clauses)
        with pytest.raises(ValueError, match="predicate 'M'"):
            scl_run(clauses)


class TestRepeatedLiterals:
    def test_instance_with_repeated_literal_propagates(self):
        clauses = parse_bs("1 : Q(a).\n2 : -Q(x) | P(y) | P(z).\n")
        result = scl_run(clauses)
        assert "".join(render(result, False)).splitlines() == [
            "propagate Q(a) <- clause 1 σ={}",
            "propagate P(a) <- clause 2 σ={x->a,y->a,z->a}",
            "stats propagations=2 decisions=0 trail=2",
            "s SATISFIABLE",
        ]

    def test_literal_kept_once(self):
        problem = ground_problem(parse_bs("P(x) | P(y) | -Q(x). Q(a). Q(b)."))
        first = [inst for inst in template_grounding(problem) if inst.clause_id == 1]
        # x=a,y=b and x=b,y=a differ in the Q literal, so both stay
        assert [(inst.subst_str(), inst.lits) for inst in first] == [
            ("{x->a,y->a}", (1, -3)),
            ("{x->a,y->b}", (1, 2, -3)),
            ("{x->b,y->a}", (2, 1, -4)),
            ("{x->b,y->b}", (2, -4)),
        ]

    def test_every_substitution_keeps_its_instance(self):
        # x=b,y=a repeats the literal set of x=a,y=b, in the other order, and is an instance too
        same_set = ground_problem(parse_bs("P(x) | P(y). P(a). P(b)."))
        assert [(inst.subst_str(), inst.lits) for inst in template_grounding(same_set)][:4] == [
            ("{x->a,y->a}", (1,)),
            ("{x->a,y->b}", (1, 2)),
            ("{x->b,y->a}", (2, 1)),
            ("{x->b,y->b}", (2,)),
        ]
        # the engine creates both once -P(a) and -P(b) leave them unit on Q
        result = scl_run(parse_bs("P(x) | P(y) | Q. -P(a). -P(b)."))
        assert sorted(inst.subst_str() for inst in result.state.problem.instances if inst.clause_id == 1) == [
            "{x->a,y->a}", "{x->a,y->b}", "{x->b,y->a}", "{x->b,y->b}",
        ]

    def test_ground_unit_written_twice_propagates(self):
        result = scl_run(parse_bs("P(a) | P(a). -P(a) | Q(a)."))
        assert "".join(render(result, False)).splitlines()[:2] == [
            "propagate P(a) <- clause 1 σ={}",
            "propagate Q(a) <- clause 2 σ={}",
        ]


def ground_literals(clause: Clause, subst: dict[str, str]) -> frozenset:
    """The literal set of the clause's instance under {variable name: constant name}."""
    return frozenset(
        (l.positive, l.atom.predicate, tuple(subst[a.name] if isinstance(a, Variable) else a.name for a in l.atom.args))
        for l in clause.literals
    )


def first_with_literal_set(clause: Clause, domain, subst: dict[str, str], variables: list[str]) -> dict[str, str]:
    """The first substitution with subst's literal set, ranging the variables over the domain in
    itertools.product order, the first variable slowest."""
    target = ground_literals(clause, subst)
    for names in itertools.product(sorted(c.name for c in domain), repeat=len(variables)):
        candidate = dict(zip(variables, names))
        if ground_literals(clause, candidate) == target:
            return candidate


class TestSubstitutionOrder:
    # instances of one clause that share a literal set are unit or false together, and a trace
    # line names the first of them in substitution order: variables by name, constants by name

    def test_swapped_arguments_print_the_smallest_substitution(self):
        # first-occurrence order (z, then y) would print σ={y->b,z->a}
        lines = "".join(render(scl_run(parse_bs("-P(z,y) | -P(y,z). P(b,a).")), False)).splitlines()
        assert "propagate -P(a,b) <- clause 1 σ={y->a,z->b}" in lines
        assert not any("σ={y->b,z->a}" in line for line in lines)

    def test_printed_substitution_is_the_first_with_its_literal_set(self):
        # every σ on a propagate or conflict line of an input clause, checked against all of the
        # clause's substitutions; in some sets first-occurrence order would print another σ
        rng = random.Random(5)
        checked = disagree = 0
        for _ in range(300):
            clauses, domain = swap_bs(rng)
            by_id = {c.id: c for c in clauses}
            differs = False
            for fields in map(json.loads, render(scl_run(clauses, domain), True)):
                if fields.get("kind") not in ("propagate", "conflict") or fields["clause"] not in by_id:
                    continue
                clause = by_id[fields["clause"]]
                printed = dict(pair.split("->") for pair in fields["subst"][1:-1].split(",") if pair)
                by_name = first_with_literal_set(clause, domain, printed, sorted(printed))
                assert printed == by_name
                occurrence = [v.name for v in clause.variables()]
                differs |= first_with_literal_set(clause, domain, printed, occurrence) != by_name
                checked += 1
            disagree += differs
        assert checked > 1000 and disagree >= 20


def test_initial_classification_matches_full_scan():
    # the kernel's pending units and false set after hooking the instances created at the start
    rng = random.Random(7)
    for _ in range(150):
        clauses, domain = random_clause_set(rng)
        try:
            problem = ground_problem(clauses, domain)
        except ValueError:
            continue
        state = SclState(problem)
        named = lambda pos: (problem.instances[pos].clause_id, problem.instances[pos].subst)
        scan = [(inst, scan_status(inst.lits, {})) for inst in reference_ground_problem(clauses, domain).instances]
        assert sorted((named(pos), lit) for _, pos, lit in state.pending) == sorted(
            ((inst.clause_id, inst.subst), lit) for inst, (status, lit) in scan if status == "unit"
        )
        assert sorted(map(named, state.false_ids)) == sorted(
            (inst.clause_id, inst.subst) for inst, (status, _) in scan if status == "false"
        )


def eager_ground_problem(clauses, domain=None, instance_cap=scl.DEFAULT_INSTANCE_CAP):
    """Every instance, from the reference grounding, over the engine's atom table."""
    problem = reference_ground_problem(clauses, domain, instance_cap)
    problem.atoms = ground_problem(clauses, domain, instance_cap).atoms
    return problem


def test_runs_match_reference_grounding(monkeypatch):
    # the lazy engine against the same engine with every instance hooked from the start
    rng = random.Random(31)
    cases = []
    while len(cases) < 150:
        clauses, domain = random_clause_set(rng)
        if not isinstance(outcome(ground_problem, clauses, domain)[0], type):
            cases.append((clauses, domain))
    got = [render(scl_run(c, d), True) for c, d in cases]
    monkeypatch.setattr(scl, "ground_problem", eager_ground_problem)
    assert got == [render(scl_run(c, d), True) for c, d in cases]
