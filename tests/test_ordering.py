import itertools
import random
from collections import Counter

import pytest

from oracles import apply_atom, reference_kbo_compare, unit_weights
import clausekit
from clausekit.errors import ClausekitError, OrderingConfigError, UsageError
from clausekit.logic import Atom, Clause, Constant, Literal, Substitution, Variable
from clausekit.ordering import (
    Cmp,
    OrderingConfig,
    config_with_precedence,
    default_config,
    kbo_compare,
    literal_is_maximal,
)
from clausekit.scl import counter_problem

x1, x2, x3 = Variable("x1"), Variable("x2"), Variable("x3")
c0, c1 = Constant("0"), Constant("1")


def P(*args):
    return Atom("P", args)


CFG = default_config(counter_problem(4))


def test_default_precedence_puts_one_above_zero():
    assert CFG.prec_of("1") > CFG.prec_of("0")
    assert CFG.prec_of("P") > CFG.prec_of("1")


class TestKboCompare:
    def test_last_argument_decides(self):
        # the positive literal of the carry clause is the greater atom
        assert kbo_compare(P(x1, x2, x3, c1), P(x1, x2, x3, c0), CFG) is Cmp.GT
        assert kbo_compare(P(x1, x2, x3, c0), P(x1, x2, x3, c1), CFG) is Cmp.LT

    def test_equal(self):
        assert kbo_compare(P(c0), P(c0), CFG) is Cmp.EQ

    def test_variable_condition_fails_both_ways(self):
        assert kbo_compare(P(x1, c0), P(x2, c1), CFG) is Cmp.INCOMPARABLE

    def test_head_precedence(self):
        assert kbo_compare(Atom("Q", (c0,)), Atom("P", (c0,)), default_config(
            [Clause(1, (Literal(True, Atom("Q", (c0,))), Literal(True, Atom("P", (c0,)))))]
        )) is Cmp.GT

    def test_unknown_symbol(self):
        with pytest.raises(OrderingConfigError):
            kbo_compare(Atom("R", (c0,)), P(c0), CFG)


def _ground_atoms(max_arity=2):
    out = []
    for arity in range(max_arity + 1):
        for combo in itertools.product([c0, c1], repeat=arity):
            out.append(Atom("P", combo))
            out.append(Atom("Q", combo))
    return out


GROUND_CFG = OrderingConfig({"0": 0, "1": 1, "P": 2, "Q": 3})


class TestGroundOrder:
    atoms = _ground_atoms()

    def test_strict_total_order_on_same_arity(self):
        for s, t in itertools.product(self.atoms, repeat=2):
            r = kbo_compare(s, t, GROUND_CFG)
            if s == t:
                assert r is Cmp.EQ
            else:
                assert r in (Cmp.GT, Cmp.LT)  # total with total precedence
                assert kbo_compare(t, s, GROUND_CFG) is {Cmp.GT: Cmp.LT, Cmp.LT: Cmp.GT}[r]  # antisymmetric

    def test_irreflexive(self):
        for s in self.atoms:
            assert kbo_compare(s, s, GROUND_CFG) is Cmp.EQ

    def test_transitive(self):
        greater = {
            (str(s), str(t))
            for s, t in itertools.product(self.atoms, repeat=2)
            if kbo_compare(s, t, GROUND_CFG) is Cmp.GT
        }
        for s, t, u in itertools.product(self.atoms, repeat=3):
            if (str(s), str(t)) in greater and (str(t), str(u)) in greater:
                assert (str(s), str(u)) in greater


def test_stability_under_substitution():
    """GT survives every grounding over the problem's constants."""
    term_pool = [x1, x2, x3, c0, c1]
    sample = [
        Atom("P", combo) for combo in itertools.product(term_pool, repeat=2)
    ] + [Atom("P", (t,)) for t in term_pool]
    for s, t in itertools.product(sample, repeat=2):
        if kbo_compare(s, t, CFG) is not Cmp.GT:
            continue
        variables = list(dict.fromkeys(a for a in s.args + t.args if isinstance(a, Variable)))
        for combo in itertools.product([c0, c1], repeat=len(variables)):
            theta = Substitution(dict(zip(variables, combo)))
            assert kbo_compare(apply_atom(theta, s), apply_atom(theta, t), CFG) is Cmp.GT


def maximality(clause):
    return [literal_is_maximal(clause, i, CFG) for i in range(len(clause))]


class TestMaximalLiterals:
    def test_carry_clause_positive_literal(self):
        clause = counter_problem(4)[1]  # -P(x1,x2,x3,0) | P(x1,x2,x3,1)
        assert maximality(clause) == [False, True]

    def test_unit_clause(self):
        assert maximality(counter_problem(4)[0]) == [True]

    def test_ground_carry_clause(self):
        # -P(0,1,1,1) | P(1,0,0,0): equal weight, first argument decides
        assert maximality(counter_problem(4)[4]) == [False, True]

    def test_all_positive_literals_maximal_in_counter(self):
        for clause in counter_problem(4)[:-1]:
            for lit, maximal in zip(clause.literals, maximality(clause)):
                assert maximal or not lit.positive


def test_exceeded_literal_stays_non_maximal_under_substitution():
    """Saturation keeps only literals maximal before instantiation as candidates;
    that is sound because an exceeded literal is exceeded in every instance."""
    rng = random.Random(31)
    variables = [x1, x2, x3]
    constants = [Constant(n) for n in "abc"]
    checked = 0
    for _ in range(3000):
        symbols = ["a", "b", "c", "P", "Q"]
        cfg = OrderingConfig(dict(zip(rng.sample(symbols, len(symbols)), range(len(symbols)))))
        arity = {"P": rng.randint(0, 3), "Q": rng.randint(0, 3)}
        literals = []
        for _ in range(rng.randint(2, 4)):
            predicate = rng.choice("PQ")
            args = tuple(rng.choice(variables + constants) for _ in range(arity[predicate]))
            literals.append(Literal(rng.random() < 0.5, Atom(predicate, args)))
        clause = Clause(1, tuple(literals))
        exceeded = [i for i in range(len(literals)) if not literal_is_maximal(clause, i, cfg)]
        for _ in range(3):
            # applied simultaneously, so swaps of variables are substitutions too
            theta = {v: rng.choice(variables + constants) for v in variables}
            instance = Clause(1, tuple(
                Literal(l.positive, Atom(l.atom.predicate, tuple(theta.get(a, a) for a in l.atom.args)))
                for l in literals
            ))
            for i in exceeded:
                assert not literal_is_maximal(instance, i, cfg), (clause, theta, i)
                checked += 1
    assert checked > 3000


def test_config_with_precedence_override():
    cfg = config_with_precedence(CFG, ["0", "1"])
    assert cfg.prec_of("0") > cfg.prec_of("1")
    assert kbo_compare(P(x1, c0), P(x1, c1), cfg) is Cmp.GT


@pytest.mark.parametrize("names, message", [
    (["1", ""], "precedence has an empty name"),
    (["1", "P", "1"], "precedence names '1' twice"),
    (["Q"], "precedence names 'Q', which is no symbol of the problem"),
])
def test_a_bad_precedence_is_a_usage_error(names, message):
    # a ClausekitError, so the CLI exits with 2, and still the ValueError that library callers catch
    with pytest.raises(UsageError, match=f"^{message}$") as info:
        config_with_precedence(CFG, names)
    assert isinstance(info.value, ClausekitError) and isinstance(info.value, ValueError)
    assert clausekit.UsageError is UsageError


def test_agrees_with_the_weighted_reference_at_unit_weights():
    """Arity, then head precedence, then the first differing argument is KBO with every weight 1."""
    rng = random.Random(2001)
    symbols = ["a", "b", "c", "P", "Q", "R"]
    terms = [x1, x2, x3] + [Constant(n) for n in "abc"]
    verdicts = Counter()
    for _ in range(2_000):
        cfg = OrderingConfig(dict(zip(rng.sample(symbols, len(symbols)), range(len(symbols)))))
        weighted = unit_weights(cfg)
        for _ in range(50):
            s, t = (Atom(rng.choice("PQR"), tuple(rng.choices(terms, k=rng.randint(0, 3)))) for _ in "st")
            verdict = kbo_compare(s, t, cfg)
            assert verdict is reference_kbo_compare(s, t, weighted), (s, t, cfg)
            verdicts[verdict] += 1
    assert sum(verdicts.values()) == 100_000 and min(verdicts.values()) > 1_000
