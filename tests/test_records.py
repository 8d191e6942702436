"""The value records' contract: immutable tuple records that check their fields and hash as their field tuples."""

import copy
import pickle

import pytest

from clausekit.cdcl import PropClause
from clausekit.lia import LinIneq
from clausekit.logic import Atom, Clause, Constant, Literal, Variable
from clausekit.scl import GroundInstance

a, x = Constant("a"), Variable("x")
ATOM = Atom("P", (a, x))
LITERAL = Literal(False, ATOM)
CLAUSE = Clause(7, (LITERAL, Literal(True, Atom("Q"))))
# a learned instance, which holds its substitution pairs as its key; an instance with a compiled clause
# is not pickled, as the compiled clause caches %-formats and lambdas
INSTANCE = GroundInstance(3, (), (1, -2))


@pytest.mark.parametrize("record, field", [
    (ATOM, "predicate"),
    (LITERAL, "positive"),
    (CLAUSE, "literals"),
    (PropClause(1, (1, -2)), "lits"),
    (LinIneq(1, (("x", 1),), 0), "const"),
    (INSTANCE, "lits"),
])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_prop_clause_rejects_literal_zero():
    with pytest.raises(ValueError, match="0 is not a literal"):
        PropClause(1, (0,))
    with pytest.raises(ValueError, match="0 is not a literal"):
        PropClause(1, (3, 0, -1))
    assert PropClause(1, ()).lits == ()


def test_inequation_rejects_a_zero_coefficient_and_a_repeated_variable():
    for coeffs in ((), (("x", 0),), (("x", 1), ("y", 0))):
        with pytest.raises(ValueError, match="nonzero coefficient"):
            LinIneq(1, coeffs, 0)
    with pytest.raises(ValueError, match="duplicate variable"):
        LinIneq(1, (("x", 1), ("y", 2), ("x", -1)), 0)


def test_clause_length_counts_literals():
    assert len(CLAUSE) == 2
    assert len(Clause(1)) == 0 and not Clause(1)
    assert len(Clause(1, (LITERAL,) * 3)) == 3


def test_records_hash_and_compare_as_their_field_tuples():
    # the property that keeps set and dict orders, and so every output, as they were
    assert hash(Atom("P", (a, x))) == hash(("P", (a, x)))
    assert hash(LITERAL) == hash((False, ATOM))
    assert hash(CLAUSE) == hash((7, CLAUSE.literals))
    assert hash(PropClause(2, (1, -3))) == hash((2, (1, -3)))
    assert hash(INSTANCE) == hash((3, (), (1, -2), None)) and INSTANCE == (3, (), (1, -2), None)
    assert ATOM == ("P", (a, x)) and PropClause(2, (1,)) == (2, (1,))


@pytest.mark.parametrize("record", [
    ATOM, LITERAL, CLAUSE, Clause(3), PropClause(1, (1, -2)), LinIneq(1, (("x", 2),), -1), INSTANCE,
])
def test_records_copy_and_pickle(record):
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert restored == record and type(restored) is type(record)
