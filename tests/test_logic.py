import itertools

import pytest
from hypothesis import given, settings, strategies as st

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
    variables = list(dict.fromkeys(a.variables() + b.variables()))
    ground_unifier_exists = False
    for combo in itertools.product([c0, c1], repeat=len(variables)):
        theta = Substitution(dict(zip(variables, combo)))
        if theta.apply_atom(a) == theta.apply_atom(b):
            ground_unifier_exists = True
            assert sigma is not None
            assert theta.apply_atom(sigma.apply_atom(a)) == theta.apply_atom(a)
            for v in variables:
                assert theta.apply_term(sigma.apply_term(v)) == theta.apply_term(v)
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

    def test_complement_involution(self):
        lit = neg(P(c0))
        assert lit.complement().complement() == lit


def test_match_atoms_one_way():
    assert match_atoms(P(x1), P(c0)) == {x1: c0}
    assert match_atoms(P(c0), P(x1)) is None  # constants do not match variables
    assert match_atoms(P(x1, x1), P(c0, c1)) is None
