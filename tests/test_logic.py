import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ReferenceSubstitution,
    reference_canonical_variant,
    reference_rename_apart,
    reference_variables,
)
from clausekit.logic import (
    Atom,
    Clause,
    Constant,
    Literal,
    Substitution,
    Variable,
    canonical_variant,
    match_atoms,
    rename_apart,
    renamed_equal,
    unify,
)

x1, x2, x3 = Variable("x1"), Variable("x2"), Variable("x3")
c0, c1 = Constant("0"), Constant("1")


def P(*args):
    return Atom("P", args)


def pos(atom):
    return Literal(True, atom)


def neg(atom):
    return Literal(False, atom)


class TestInternedTerms:
    def test_equal_names_give_one_object(self):
        assert Variable("x1") is x1
        assert Constant("".join(["0"])) is c0
        assert hash(x1) == object.__hash__(x1)

    def test_classes_do_not_share_names(self):
        assert Variable("x") != Constant("x")
        assert Variable("x") is not Constant("x")
        assert len({Variable("a"), Constant("a")}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            x1.name = "x2"
        with pytest.raises(AttributeError):
            del c0.name
        assert x1.name == "x1"

    @pytest.mark.parametrize("term", [x1, c0])
    def test_copies_are_the_interned_object(self, term):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert copy.deepcopy(P(term, term)).args == (term, term)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(term, protocol)) is term

    def test_repr_and_str(self):
        assert repr(x1) == "Variable(name='x1')"
        assert repr(c0) == "Constant(name='0')"
        assert str(P(x1, c0)) == "P(x1,0)"


class TestUnify:
    def test_forced_by_constant_match(self):
        sigma = unify(P(x1, x2, x3, c1), P(x1, x2, c0, c1))
        assert sigma == Substitution({x3: c0})

    def test_identity(self):
        sigma = unify(P(x1, c0), P(x1, c0))
        assert sigma == Substitution()

    def test_constant_clash(self):
        assert unify(P(c0), P(c1)) is None

    def test_predicate_and_arity_clash(self):
        assert unify(Atom("P", (c0,)), Atom("Q", (c0,))) is None
        assert unify(P(c0), P(c0, c0)) is None

    def test_variable_to_variable(self):
        sigma = unify(P(x1), P(x2))
        assert sigma is not None
        assert sigma.apply_atom(P(x1)) == sigma.apply_atom(P(x2))


terms = st.sampled_from([Variable("x1"), Variable("x2"), Variable("x3"), c0, c1])
atoms = st.builds(lambda args: Atom("P", tuple(args)), st.lists(terms, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(atoms, atoms)
def test_unify_is_most_general(a, b):
    """Every ground unifier factors through the computed unifier."""
    sigma = unify(a, b)
    variables = list(dict.fromkeys(t for t in a.args + b.args if isinstance(t, Variable)))
    ground_unifier_exists = False
    for combo in itertools.product([c0, c1], repeat=len(variables)):
        theta = Substitution(dict(zip(variables, combo)))
        if theta.apply_atom(a) == theta.apply_atom(b):
            ground_unifier_exists = True
            assert sigma is not None
            assert theta.apply_atom(sigma.apply_atom(a)) == theta.apply_atom(a)
            for v in variables:
                assert theta.apply_atom(sigma.apply_atom(P(v))) == theta.apply_atom(P(v))
    if sigma is not None and a.arity == b.arity and a.predicate == b.predicate:
        assert sigma.apply_atom(a) == sigma.apply_atom(b)
        assert ground_unifier_exists


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from([x1, x2, x3]), terms, max_size=3))
def test_substitution_idempotent(raw):
    try:
        sigma = Substitution(raw)
    except ValueError:
        return  # cyclic inputs are rejected
    clause = Clause(1, (pos(P(x1, x2)), neg(P(x3, c0))))
    once = sigma.apply_clause(clause)
    assert sigma.apply_clause(once) == once
    assert all(v != t for v, t in sigma.items())


class TestApply:
    def test_direct_replacement(self):
        sigma = Substitution({x3: c0})
        clause = Clause(2, (neg(P(x1, x2, x3, c0)), pos(P(x1, x2, x3, c1))))
        assert sigma.apply_clause(clause).literals == (
            neg(P(x1, x2, c0, c0)),
            pos(P(x1, x2, c0, c1)),
        )

    def test_identity(self):
        clause = Clause(3, (pos(P(x1)), neg(P(x2))))
        assert Substitution().apply_clause(clause) == clause

    def test_two_bindings(self):
        sigma = Substitution({x1: c0, x2: c1})
        assert sigma.apply_atom(P(x1, x2)) == P(c0, c1)

    def test_literal_order_preserved(self):
        clause = Clause(4, (pos(P(x1)), pos(P(x2)), neg(P(x1))))
        applied = Substitution({x1: c0}).apply_clause(clause)
        assert [str(l) for l in applied.literals] == ["P(0)", "P(x2)", "-P(0)"]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Substitution({x1: x2, x2: x1})


class TestRenameApart:
    def test_shared_variable_renamed(self):
        a, b = rename_apart(Clause(1, (pos(P(x1)),)), Clause(2, (pos(Atom("Q", (x1,))),)))
        assert a.literals == (pos(P(x1)),)
        (lit,) = b.literals
        assert lit.atom.args[0] != x1 and isinstance(lit.atom.args[0], Variable)

    def test_ground_unchanged(self):
        g1, g2 = Clause(1, (pos(P(c0)),)), Clause(2, (neg(P(c1)),))
        assert rename_apart(g1, g2) == (g1, g2)

    def test_fresh_against_both(self):
        a = Clause(1, (pos(P(x1)), pos(P(x2))))
        b = Clause(2, (neg(P(x2)),))
        a2, b2 = rename_apart(a, b)
        assert set(a2.variables()).isdisjoint(b2.variables())


def _spelled(clause):
    """A clause as its id and, per literal in order, sign, predicate and each term's class and name."""
    return clause.id, [
        (l.positive, l.atom.predicate, [(type(a).__name__, a.name) for a in l.atom.args]) for l in clause.literals
    ]


def test_renaming_matches_the_per_term_reference():
    # primed names beside their stems, and a constant that shares a variable's name
    pool = [Variable(n) for n in ("x1", "x1'", "x1''", "x2", "x2'", "y", "z'")]
    pool += [Constant("x1"), Constant("x2'"), Constant("a"), Constant("b")]
    rng = random.Random(24)

    def clause(cid):
        lits = []
        for _ in range(rng.randint(0, 4)):
            args = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            lits.append(Literal(rng.random() < 0.5, Atom(rng.choice("PQ") + str(len(args)), args)))
        return Clause(cid, tuple(lits))

    renamed = 0
    for _ in range(2000):
        c1, c2 = clause(rng.randint(1, 9)), clause(rng.randint(1, 9))
        got, want = rename_apart(c1, c2), reference_rename_apart(c1, c2)
        assert [_spelled(c) for c in got] == [_spelled(c) for c in want]
        assert got[0] is c1 and (got[1] is c2) == (want[1] is c2)
        renamed += got[1] is not c2
        for c in (c1, c2):
            assert _spelled(canonical_variant(c)) == _spelled(reference_canonical_variant(c))
            assert c.variables() == reference_variables(c)
    assert renamed > 500


def test_instantiation_matches_the_rebuilding_reference():
    # chains, cycles, ground and already canonical clauses, and a constant that shares a variable's name
    variables = [Variable(n) for n in ("x1", "x2", "x3", "y", "z")]
    constants = [Constant("x1"), Constant("a"), Constant("b")]
    rng = random.Random(25)

    def clause():
        pool = rng.choice([variables + constants, constants, [x1, x2] + constants])
        lits = []
        for _ in range(rng.randint(0, 4)):
            args = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            lits.append(Literal(rng.random() < 0.5, Atom(rng.choice("PQ") + str(len(args)), args)))
        return Clause(rng.randint(1, 9), tuple(lits))

    seen = {"chain": 0, "cycle": 0, "unchanged": 0, "instantiated": 0, "canonical": 0}
    for _ in range(2000):
        keys = rng.sample(variables, rng.randint(0, 4))
        bindings = {v: rng.choice(variables + constants) for v in keys}
        seen["chain"] += any(t in bindings for t in bindings.values())
        try:
            want = ReferenceSubstitution(bindings)
        except ValueError:
            seen["cycle"] += 1
            with pytest.raises(ValueError, match="cyclic substitution"):
                Substitution(bindings)
            continue
        sigma = Substitution(bindings)
        assert dict(sigma.items()) == want._bindings
        c = clause()
        got = sigma.apply_clause(c)
        assert _spelled(got) == _spelled(want.apply_clause(c))
        seen["unchanged" if got is c else "instantiated"] += 1
        canonical = canonical_variant(c)
        assert _spelled(canonical) == _spelled(reference_canonical_variant(c))
        assert (canonical is c) == (reference_canonical_variant(c) == c)
        seen["canonical"] += canonical is c
    assert min(seen.values()) > 100, seen


class TestClause:
    def test_empty_clause(self):
        assert Clause(1).is_empty
        assert str(Clause(1)) == "⊥"

    def test_tautology(self):
        assert Clause(1, (pos(P(c0)), neg(P(c0)))).is_tautology()
        assert not Clause(1, (pos(P(c0)), neg(P(c1)))).is_tautology()

    def test_renamed_equal(self):
        a = Clause(1, (neg(P(x1, c0)), pos(P(x1, c1))))
        b = Clause(2, (neg(P(x2, c0)), pos(P(x2, c1))))
        assert renamed_equal(a, b)
        assert not renamed_equal(a, Clause(3, (pos(P(x1, c1)), neg(P(x1, c0)))))

    def test_canonical_variant_swaps(self):
        clause = Clause(1, (pos(P(x2, x1)),))
        assert str(canonical_variant(clause)) == "P(x1,x2)"


def test_match_atoms_one_way():
    assert match_atoms(P(x1), P(c0)) == {x1: c0}
    assert match_atoms(P(c0), P(x1)) is None  # constants do not match variables
    assert match_atoms(P(x1, x1), P(c0, c1)) is None
