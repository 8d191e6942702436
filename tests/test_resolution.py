import itertools
import random

import pytest

from oracles import (
    all_ground_instances,
    assignment_satisfies,
    ground_satisfiable,
    reference_ordered_resolve,
    reference_replay,
    reference_resolution_step,
    reference_saturate,
    unit_weights,
)
from clausekit import resolution
from clausekit.cli import build_parser
from clausekit.errors import ReplayStepError
from clausekit.formats import parse_bs
from clausekit.logic import (
    Atom,
    Clause,
    Constant,
    Literal,
    Substitution,
    Variable,
    rename_apart,
    renamed_equal,
    unify,
)
from clausekit.ordering import config_with_precedence, default_config, literal_is_maximal
from clausekit.resolution import (
    DerivedClause,
    InputRule,
    ResolutionRule,
    SELECTIONS,
    SelectFirstNegative,
    SelectNone,
    check_linear_refutation,
    linear_counter_script,
    replay,
    saturate,
    selection_from_name,
    subsumes,
)
from clausekit.scl import counter_problem

C0, C1 = Constant("0"), Constant("1")
x1, x2 = Variable("x1"), Variable("x2")
COUNTER4 = counter_problem(4)
CFG = default_config(COUNTER4)


def _resolvents(c1, c2, cfg, sel):
    """All ordered resolvents between the two clauses, either one the positive premise."""
    return resolution._resolvents(resolution.ClauseRecord(c1, cfg, sel), resolution.ClauseRecord(c2, cfg, sel), cfg)


def _factors(clause, cfg):
    """Positive factors of the clause, the first merged literal maximal."""
    return resolution._factors(resolution.ClauseRecord(clause, cfg, SelectNone()), cfg)


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


class TestOrderedResolve:
    def test_jump_composition_step(self):
        # the carry clause resolves against the selected first literal of the next one
        class SelectFirstOfClause3:
            def selected_index(self, clause):
                return 0 if clause.id == 3 else None

        out = _resolvents(COUNTER4[1], COUNTER4[2], CFG, SelectFirstOfClause3())
        assert len(out) == 1
        assert renamed_equal(out[0].clause, EXPECTED_DERIVED[0])
        rule = out[0].rule
        assert (rule.positive_parent, rule.positive_index) == (2, 2)
        assert (rule.negative_parent, rule.negative_index) == (3, 1)

    def test_full_jump_against_final_unit(self):
        # binary resolution of the two-literal clause 12 against unit clause 6
        # leaves -P(0,0,0,0); the empty clause needs one more step via clause 1
        clause12 = EXPECTED_DERIVED[5]
        out = _resolvents(clause12, COUNTER4[5], CFG, SelectNone())
        assert [str(d.clause) for d in out] == ["-P(0,0,0,0)"]

    def test_two_positive_clauses(self):
        a = Clause(1, (Literal(True, Atom("P", (C0,))),))
        b = Clause(2, (Literal(True, Atom("P", (x1,))),))
        assert _resolvents(a, b, CFG, SelectNone()) == []

    def test_selection_blocks_positive_premise(self):
        # with the first negative selected everywhere, the carry clauses cannot
        # serve as positive premises, so the jump composition is not generated
        out = _resolvents(COUNTER4[1], COUNTER4[2], CFG, SelectFirstNegative())
        assert out == []

    def test_maximality_blocks_ineligible_negative(self):
        # without selection the negative literal of a carry clause is never
        # maximal, so nothing resolves among the first five counter clauses
        for a, b in itertools.combinations(COUNTER4[:-1], 2):
            assert _resolvents(a, b, CFG, SelectNone()) == []

    def test_constant_clash_never_reaches_unify(self, monkeypatch):
        pairs = []
        real_unify = resolution.unify
        monkeypatch.setattr(resolution, "unify", lambda a, b: pairs.append((a, b)) or real_unify(a, b))
        clash = parse_bs("P(0,x1).\n-P(1,x2) | Q(x2).")
        cfg = default_config(clash)
        assert _resolvents(*clash, cfg, SelectFirstNegative()) == [] and pairs == []
        meet = parse_bs("P(0,x1).\n-P(x2,1) | Q(x2).")
        out = _resolvents(*meet, default_config(meet), SelectFirstNegative())
        assert [str(d.clause) for d in out] == ["Q(0)"] and len(pairs) == 1

    def test_self_resolution_handled(self):
        clause = parse_bs("-Q(x1,0) | Q(0,x1).")[0]
        out = _resolvents(clause, clause, default_config([clause]), SelectFirstNegative())
        assert all(isinstance(d.rule, ResolutionRule) for d in out)


class TestFactor:
    def test_forced_merge(self):
        clause = parse_bs("P(x1) | P(0).")[0]
        out = _factors(clause, default_config([clause]))
        assert [str(d.clause) for d in out] == ["P(0)"]

    def test_counter_clauses_have_no_factors(self):
        for clause in COUNTER4:
            assert _factors(clause, CFG) == []

    def test_ground_distinct_atoms(self):
        clause = parse_bs("P(0) | P(1).")[0]
        assert _factors(clause, default_config([clause])) == []


class TestSubsumes:
    def test_instance_subsumption(self):
        general = parse_bs("P(x1).")[0]
        specific = parse_bs("P(0) | Q.")[0]
        assert subsumes(general, specific)

    def test_constant_clash(self):
        assert not subsumes(parse_bs("P(0).")[0], parse_bs("P(1).")[0])

    def test_multiset_convention(self):
        general = parse_bs("P(x1) | P(x2).")[0]
        assert not subsumes(general, parse_bs("P(0).")[0])
        assert subsumes(general, parse_bs("P(0) | P(1).")[0])

    def test_soundness_by_ground_enumeration(self):
        rng = random.Random(5)
        pairs = 0
        for _ in range(200):
            c1 = _random_clause(rng, 1)
            c2 = _random_clause(rng, 2)
            if not subsumes(c1, c2):
                continue
            pairs += 1
            atoms = sorted(
                {l.atom for c in all_ground_instances([c1, c2], [C0, C1]) for l in c.literals},
                key=str,
            )
            for bits in itertools.product((False, True), repeat=len(atoms)):
                assign = dict(zip(atoms, bits))
                c1_holds = all(
                    assignment_satisfies(g, assign)
                    for g in all_ground_instances([c1], [C0, C1])
                )
                if c1_holds:
                    for g in all_ground_instances([c2], [C0, C1]):
                        assert assignment_satisfies(g, assign)
        assert pairs > 10


def _random_clause(rng: random.Random, cid: int) -> Clause:
    lits = []
    for _ in range(rng.randint(1, 3)):
        args = tuple(rng.choice([C0, C1, x1, x2]) for _ in range(rng.randint(0, 2)))
        lits.append(Literal(rng.random() < 0.5, Atom(f"P{len(args)}", args)))
    return Clause(cid, tuple(lits))


class TestSaturate:
    def test_counter_without_final_clause_generates_nothing(self):
        result = saturate(COUNTER4[:-1], CFG, SelectNone())
        assert result.verdict == "saturated"
        assert result.generated == 0

    def test_unit_conflict(self):
        clauses = parse_bs("P(0). -P(0).")
        result = saturate(clauses, default_config(clauses), SelectNone())
        assert result.verdict == "unsat"
        assert result.generated == 1
        assert result.proof[-1].clause.is_empty

    def test_counter_with_first_negative_walks_the_chain(self):
        # the unit start clause feeds the selected carry literals one value at
        # a time: 2**n generated clauses, exponential like the ground engine
        result = saturate(COUNTER4, CFG, SelectFirstNegative())
        assert result.verdict == "unsat"
        assert result.generated == 16

    def test_limit(self):
        result = saturate(COUNTER4, CFG, SelectFirstNegative(), max_generated=3)
        assert result.verdict == "limit"
        assert result.generated == 3

    def test_empty_input_clause(self):
        # the empty clause refutes on its own; the clause derived before it is subsumed by it
        clauses = [*parse_bs("P(x1). -P(0) | Q."), Clause(3, ())]
        result = saturate(clauses, default_config(clauses), SelectNone())
        assert result.verdict == "unsat"
        assert result.proof == [DerivedClause(Clause(3, ()), InputRule())]
        assert (result.generated, result.subsumed) == (1, 1)

    def test_factoring_needed_for_completeness(self):
        clauses = parse_bs("P(x1) | P(x2). -P(x1) | -P(x2).")
        result = saturate(clauses, default_config(clauses), SelectNone())
        assert result.verdict == "unsat"

    def test_proof_records_replay(self):
        clauses = parse_bs("P(0). -P(0) | Q(1). -Q(x1).")
        result = saturate(clauses, default_config(clauses), SelectFirstNegative())
        assert result.verdict == "unsat"
        by_id = {c.id: c for c in clauses}
        for d in result.proof:
            if isinstance(d.rule, ResolutionRule):
                r = d.rule
                step = (r.positive_parent, r.positive_index, r.negative_parent, r.negative_index)
                [reproduced] = replay(by_id.values(), [step])
                assert renamed_equal(reproduced.clause, d.clause)
            by_id[d.clause.id] = d.clause

    def test_eligibility_discipline(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(80):
            clauses = [_random_clause(rng, cid) for cid in range(1, rng.randint(3, 7))]
            cfg = default_config(clauses)
            sel = rng.choice([SelectNone(), SelectFirstNegative()])
            result = saturate(clauses, cfg, sel, max_generated=300)
            by_id = {c.id: c for c in clauses}
            for cid in sorted(result.derivations):
                d = result.derivations[cid]
                rule = d.rule
                if isinstance(rule, ResolutionRule) and rule.positive_parent in by_id and rule.negative_parent in by_id:
                    pos, neg = by_id[rule.positive_parent], by_id[rule.negative_parent]
                    assert sel.selected_index(pos) is None
                    pos_r, neg_r = rename_apart(pos, neg)
                    sigma = unify(
                        pos_r.literals[rule.positive_index - 1].atom,
                        neg_r.literals[rule.negative_index - 1].atom,
                    )
                    assert sigma is not None
                    assert literal_is_maximal(
                        sigma.apply_clause(pos_r), rule.positive_index - 1, cfg
                    )
                    sel_idx = sel.selected_index(neg)
                    assert sel_idx == rule.negative_index - 1 or (
                        sel_idx is None
                        and literal_is_maximal(
                            sigma.apply_clause(neg_r), rule.negative_index - 1, cfg
                        )
                    )
                    checked += 1
                by_id[cid] = d.clause
        assert checked > 30

    def test_oracle_agreement(self):
        rng = random.Random(2718)
        sat = unsat = 0
        for _ in range(60):
            clauses = [_mono_clause(rng, cid) for cid in range(1, rng.randint(2, 8))]
            cfg = default_config(clauses)
            sel = rng.choice([SelectNone(), SelectFirstNegative()])
            result = saturate(clauses, cfg, sel, max_generated=5000)
            expected = ground_satisfiable(clauses, [C0, C1])
            assert result.verdict in ("unsat", "saturated")
            if result.verdict == "unsat":
                assert not expected
                unsat += 1
            else:
                assert expected
                sat += 1
        assert sat > 5 and unsat > 5


def _bs_set(rng: random.Random) -> list[Clause]:
    """One or two predicates at one or two of the arities 0-3, one to three literals per clause."""
    predicates = ["P", "Q"][: rng.randint(1, 2)]
    arities = rng.sample(range(4), rng.randint(1, 2))
    clauses = []
    for cid in range(1, rng.randint(2, 7) + 1):
        lits = []
        for _ in range(rng.randint(1, 3)):
            args = tuple(rng.choice([C0, C1, x1, x2]) for _ in range(rng.choice(arities)))
            lits.append(Literal(rng.random() < 0.5, Atom(rng.choice(predicates), args)))
        clauses.append(Clause(cid, tuple(lits)))
    return clauses


def test_saturate_matches_the_unindexed_loop():
    """The indexed loop derives what the loop without indexes derives, in the same order.

    Three-literal sets can run for minutes uncapped, so every run is capped;
    each set also runs with the cap at the exact count where the uncapped-
    looking run stopped, and one below it.
    """
    rng = random.Random(1010)
    outcomes = {"unsat": 0, "saturated": 0, "limit": 0}
    for _ in range(400):
        clauses = _bs_set(rng)
        cfg = default_config(clauses)
        sel = rng.choice([SelectNone(), SelectFirstNegative()])
        cap = rng.choice([4, 15, 40])
        caps = [cap]
        while caps:
            cap = caps.pop()
            expected = reference_saturate(clauses, cfg, sel, cap)
            got = saturate(clauses, cfg, sel, cap)
            assert got.generated <= cap
            assert (got.verdict, got.generated, got.kept, got.subsumed, got.tautologies) == (
                expected.verdict, expected.generated, expected.kept, expected.subsumed, expected.tautologies
            )
            assert list(got.derivations.items()) == list(expected.derivations.items())
            assert got.proof == expected.proof
            assert got.clauses == expected.clauses
            outcomes[got.verdict] += 1
            if expected.verdict != "limit" and expected.generated > 1 and cap > expected.generated:
                caps += [expected.generated, expected.generated - 1]
    assert min(outcomes.values()) > 50, outcomes


def _same_run(got, expected) -> None:
    assert (got.verdict, got.generated, got.kept, got.subsumed, got.tautologies) == (
        expected.verdict, expected.generated, expected.kept, expected.subsumed, expected.tautologies
    )
    assert list(got.derivations.items()) == list(expected.derivations.items())
    assert got.proof == expected.proof
    assert got.clauses == expected.clauses


@pytest.mark.parametrize("n", range(1, 9))
def test_saturate_matches_the_unindexed_loop_on_counters(n):
    problem = counter_problem(n)
    satisfiable = problem[:-1]  # without the negated final value
    for clauses in (problem, satisfiable):
        cfg = default_config(clauses)
        for sel in (SelectNone(), SelectFirstNegative()):
            _same_run(saturate(clauses, cfg, sel), reference_saturate(clauses, cfg, sel))
    assert saturate(satisfiable, default_config(satisfiable), SelectNone()).generated == 0  # no inference


def test_subsumption_index_is_the_index_of_what_it_retains():
    """After any sequence of `add` and `remove`, the index equals one built afresh from the clauses it holds."""
    rng = random.Random(2525)

    def filed(index):
        return [{k: v for k, v in table.items() if v} for table in (index.forward, index.backward)]

    pool = [_mono_clause(rng, cid) for cid in range(1, 41)] + [Clause(41)]
    for _ in range(200):
        index, held = resolution.SubsumptionIndex(), {}
        for _ in range(rng.randint(1, 60)):
            clause = rng.choice(pool)
            if clause.id in held:
                index.remove(held.pop(clause.id))
            else:
                index.add(clause, resolution._anchors(clause))
                held[clause.id] = clause
        fresh = resolution.SubsumptionIndex()
        for clause in held.values():
            fresh.add(clause, resolution._anchors(clause))
        assert filed(index) == filed(fresh)
        assert index.anchors == fresh.anchors
        probe = rng.choice(pool[:-1])
        anchors = resolution._anchors(probe)
        assert index.any_subsumes(probe, anchors) == fresh.any_subsumes(probe, anchors)
        assert index.subsumed_by(probe, anchors) == fresh.subsumed_by(probe, anchors)


def _random_script(rng: random.Random, clauses: list[Clause], length: int) -> list[tuple[int, int, int, int]]:
    """Up to `length` replayable steps over the clauses and the conclusions of the steps before."""
    pool = {c.id: c for c in clauses}
    script = []
    for _ in range(40 * length):
        if len(script) == length:
            break
        left, right = rng.choice(list(pool.values())), rng.choice(list(pool.values()))
        if not left.literals or not right.literals:
            continue
        lpos, rpos = rng.randint(1, len(left)), rng.randint(1, len(right))
        left_r, right_r = rename_apart(left, right)
        ll, rl = left_r.literals[lpos - 1], right_r.literals[rpos - 1]
        if ll.positive != rl.positive and unify(ll.atom, rl.atom) is not None:
            script.append((left.id, lpos, right.id, rpos))
            [d] = replay(pool.values(), script[-1:])
            pool[d.clause.id] = d.clause
    return script


def _mono_clause(rng: random.Random, cid: int) -> Clause:
    arity = rng.randint(1, 3)
    lits = []
    for _ in range(rng.randint(1, 3)):
        args = tuple(rng.choice([C0, C1, x1, x2]) for _ in range(arity))
        lits.append(Literal(rng.random() < 0.5, Atom("P", args)))
    return Clause(cid, tuple(lits))


class TestReplay:
    def test_linear_script_derivation(self):
        script = linear_counter_script(4)
        derived = replay(COUNTER4, script)
        assert len(derived) == 8
        for d, expected in zip(derived, EXPECTED_DERIVED):
            assert renamed_equal(d.clause, expected)
        assert str(derived[6].clause) == "P(1,1,1,1)"
        assert derived[7].clause.is_empty

    def test_empty_script(self):
        assert replay(COUNTER4, []) == []

    def test_positive_positive_step_fails(self):
        clauses = parse_bs("P(0). P(1).")
        with pytest.raises(ReplayStepError, match="step 1"):
            replay(clauses, [(1, 1, 2, 1)])

    def test_non_unifiable_step_fails(self):
        clauses = parse_bs("P(0). -P(1).")
        with pytest.raises(ReplayStepError, match="do not unify"):
            replay(clauses, [(1, 1, 2, 1)])

    def test_unknown_id_and_position(self):
        with pytest.raises(ReplayStepError, match="unknown clause id"):
            replay(COUNTER4, [(99, 1, 6, 1)])
        with pytest.raises(ReplayStepError, match="no literal"):
            replay(COUNTER4, [(1, 2, 6, 1)])

    def test_recorded_unifier_applies_to_both_premises(self):
        # replay reads each step's maximality, under a cfg, off the premise instances of this record
        rng = random.Random(8)
        checked = 0
        for _ in range(150):
            clauses = [_random_clause(rng, cid) for cid in range(1, rng.randint(3, 7))]
            script = _random_script(rng, clauses, 8)
            by_id = {c.id: c for c in clauses}
            for (lid, lpos, _, _), d in zip(script, replay(clauses, script)):
                rule = d.rule
                positive, negative = rename_apart(by_id[rule.positive_parent], by_id[rule.negative_parent])
                positive, negative = rule.unifier.apply_clause(positive), rule.unifier.apply_clause(negative)
                resolved = positive.literals[rule.positive_index - 1]
                assert resolved.positive
                assert negative.literals[rule.negative_index - 1] == Literal(not resolved.positive, resolved.atom)
                # the conclusion lists the left premise's literals first
                rests = [
                    [l for i, l in enumerate(c.literals) if i != index - 1]
                    for c, index in ((positive, rule.positive_index), (negative, rule.negative_index))
                ]
                if not by_id[lid].literals[lpos - 1].positive:
                    rests.reverse()
                assert renamed_equal(d.clause, Clause(0, tuple(rests[0] + rests[1])))
                by_id[d.clause.id] = d.clause
                checked += 1
        assert checked > 300


class TestLinearRefutation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_length_is_twice_n(self, n):
        script = linear_counter_script(n)
        assert len(script) == 2 * n
        derived = check_linear_refutation(counter_problem(n), script, default_config(counter_problem(n)))
        assert derived[-1].clause.is_empty

    def test_valid_script_passes(self):
        clauses = parse_bs("P(0,1). -P(0,1) | P(1,0). -P(1,0).")
        good = check_linear_refutation(
            clauses, [(2, 2, 3, 1), (1, 1, 2, 1), (5, 1, 3, 1)], default_config(clauses)
        )
        assert good[-1].clause.is_empty

    def test_second_negative_rejected(self):
        clauses = parse_bs("P(1,0). -P(0,1) | -P(1,0) | P(1,1).")
        with pytest.raises(ValueError, match="first negative"):
            check_linear_refutation(clauses, [(1, 1, 2, 2)], default_config(clauses))

    def test_non_maximal_positive_rejected(self):
        clauses = parse_bs("P(0,1) | P(1,0). -P(0,1).")
        with pytest.raises(ValueError, match="non-maximal"):
            check_linear_refutation(clauses, [(1, 1, 2, 1)], default_config(clauses))


def test_duplicate_clause_ids_rejected():
    # keyed by id, the second clause would hide the first: saturation would answer "saturated"
    atom = Atom("P", (Constant("a"),))
    clauses = [Clause(1, (Literal(True, atom),)), Clause(1, (Literal(False, atom),))]
    cfg = default_config(clauses)
    with pytest.raises(ValueError, match="duplicate clause id 1"):
        saturate(clauses, cfg, SelectNone())
    with pytest.raises(ValueError, match="duplicate clause id 1"):
        replay(clauses, [(1, 1, 1, 1)])
    with pytest.raises(ValueError, match="duplicate clause id 1"):
        check_linear_refutation(clauses, [(1, 1, 1, 1)], cfg)


def test_selection_from_name():
    assert isinstance(selection_from_name("none"), SelectNone)
    assert isinstance(selection_from_name("first-negative"), SelectFirstNegative)
    with pytest.raises(ValueError):
        selection_from_name("bogus")


def test_the_cli_offers_the_selection_table():
    # one table names the strategies, for selection_from_name and for --selection alike
    choices = next(a.choices for a in build_parser()._actions if a.dest == "selection")
    assert list(choices) == list(SELECTIONS) == ["none", "first-negative"]
    assert all(type(selection_from_name(name)) is cls for name, cls in SELECTIONS.items())


# ---------------------------------------------------------------------------
# The single walk from unifier to conclusion against the chain it replaced
# ---------------------------------------------------------------------------

# x1 and x1' both clash when a premise that holds them meets itself or a copy
x1p, x1pp = Variable("x1'"), Variable("x1''")


def _walk_clause(rng: random.Random, cid: int, arity: int) -> Clause:
    """A clause over P and Q at one arity, with repeated variables, constants and primed names."""
    lits = []
    for _ in range(rng.randint(1, 3)):
        args = tuple(rng.choice([C0, C1, x1, x2, x1p, x1p, x1pp]) for _ in range(arity))
        lits.append(Literal(rng.random() < 0.5, Atom(rng.choice("PQ"), args)))
    return Clause(cid, tuple(lits))


def _walk_pairs(seed: int, count: int):
    """Seeded clause pairs and their ordering; one pair in five is a clause and itself."""
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randint(0, 3)
        a = _walk_clause(rng, 1, arity)
        b = a if rng.random() < 0.2 else _walk_clause(rng, 2, arity)
        yield a, b, default_config([a, b])


def _outcome(run):
    """What a run returns, or the type and text of the error it raises."""
    try:
        return run()
    except (ValueError, ReplayStepError) as e:
        return type(e), str(e)


def test_resolvents_match_the_chain_on_random_pairs():
    # same conclusions, recorded unifiers and maximality decisions as rename_apart -> unify ->
    # apply_clause -> canonical_variant, with either clause the first argument
    rejected = derived = 0
    for a, b, cfg in _walk_pairs(33, 1500):
        for sel in (SelectNone(), SelectFirstNegative()):
            for first, second in ((a, b), (b, a)):
                want = reference_ordered_resolve(first, second, unit_weights(cfg), sel)
                assert _resolvents(first, second, cfg, sel) == want
                derived += len(want)
            unifiable = sum(
                reference_resolution_step(p, i, n, j) is not None
                for p, n in ((a, b), (b, a))[: 1 if a is b else 2]
                if sel.selected_index(p) is None
                for i, pl in enumerate(p.literals)
                if pl.positive
                for j, nl in enumerate(n.literals)
                if not nl.positive and sel.selected_index(n) in (None, j)
            )
            rejected += unifiable - len(reference_ordered_resolve(a, b, unit_weights(cfg), sel))
    assert derived > 1000 and rejected > 100


def test_replay_matches_the_chain_on_random_steps():
    # every step between two clauses, or a clause and itself, bad positions included
    seen = set()
    for a, b, cfg in _walk_pairs(34, 600):
        clauses = [a] if a is b else [a, b]
        for left, right in itertools.product(clauses, repeat=2):
            for lpos, rpos in itertools.product(range(1, len(left) + 2), range(1, len(right) + 2)):
                step = [(left.id, lpos, right.id, rpos)]
                for c in (None, cfg):
                    want = _outcome(lambda: reference_replay(clauses, step, c and unit_weights(c)))
                    assert _outcome(lambda: replay(clauses, step, c)) == want
                    seen.add(want[1].split(" ", 2)[-1] if isinstance(want, tuple) else "derived")
    for outcome in ("derived", "no literal", "not complementary", "do not unify", "first negative", "non-maximal"):
        assert any(outcome in s for s in seen), outcome


@pytest.mark.parametrize("n", range(1, 13))
def test_replay_matches_the_chain_on_counter_scripts(n):
    clauses, script = counter_problem(n), linear_counter_script(n)
    cfg = default_config(clauses)
    # the reversed precedence of the bits makes some positive literals non-maximal
    for c in (None, cfg, config_with_precedence(cfg, ["0", "1"])):
        assert _outcome(lambda: replay(clauses, script, c)) == _outcome(
            lambda: reference_replay(clauses, script, c and unit_weights(c))
        )


def _apply_clause_calls(monkeypatch) -> list:
    calls = []
    real = Substitution.apply_clause
    monkeypatch.setattr(Substitution, "apply_clause", lambda self, clause: calls.append(clause) or real(self, clause))
    return calls


def test_inferences_build_no_premise_instance_that_nothing_reads(monkeypatch):
    calls = _apply_clause_calls(monkeypatch)
    for n in range(1, 13):
        replay(counter_problem(n), linear_counter_script(n))
    clauses = counter_problem(5)
    assert saturate(clauses, default_config(clauses), SelectFirstNegative()).verdict == "unsat"
    assert calls == []
    for n in range(1, 13):
        clauses, script = counter_problem(n), linear_counter_script(n)
        check_linear_refutation(clauses, script, default_config(clauses))
        assert len(calls) <= len(script)
        calls.clear()
