"""The seeded corpora that the tests draw through `tests/corpora.py`, pinned by sha1.

Each digest was taken with the generator each test carried before the
family moved to `corpora`, so a change to a family's stream fails here
rather than passing silently on other inputs.
"""

import hashlib
import random

import pytest

from corpora import random_cnf
from test_cdcl_kernel import forgetting_cnf
from test_scl_ground import small_formulas


def digest(corpus) -> str:
    """sha1 of the (clauses, num_vars) pairs, each clause as its (id, lits)."""
    return hashlib.sha1(repr([(n, [tuple(c) for c in clauses]) for clauses, n in corpus]).encode()).hexdigest()


def drawn(seed: int, count: int, low: int, high: int, num_clauses):
    """count 3-CNFs from one stream, as the tests draw them: num_vars in low..high, then
    num_clauses(rng, num_vars) clauses."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        num_vars = rng.randint(low, high)
        corpus.append((random_cnf(rng, num_vars, num_clauses(rng, num_vars)), num_vars))
    return corpus


def larger_formulas():
    # test_cdcl_kernel.test_learned_clauses_on_larger_formulas_match_rescanning_reference
    rng = random.Random(4260)
    return [(random_cnf(rng, n, round(n * 4.26)), n) for n in (20, 24, 28, 32) * 2]


def forgetting_formulas():
    rng = random.Random(2001)
    return [forgetting_cnf(rng) for _ in range(120)]


CORPORA = {
    # test_acceptance.cnf_corpus, for acceptance 2 and 3
    "acceptance": (lambda: drawn(987654321, 1000, 4, 12, lambda rng, n: rng.randint(n, 40)),
                   "9061b7d861cf2fedb2ceda030aed67925134de35"),
    # test_cdcl.TestRandomCorpus: oracle equivalence and analysis against the reference
    "cdcl random corpus": (lambda: drawn(20240817, 150, 4, 10, lambda rng, n: rng.randint(n, 36)),
                           "464c781f3847f9ece0bf1e9061445bd266291129"),
    "cdcl trail discipline": (lambda: drawn(7, 40, 4, 8, lambda rng, n: rng.randint(n, 24)),
                              "26d40b8a3905bcefbc3167ef1a3418181aa3ecd2"),
    "cdcl kernel larger formulas": (larger_formulas, "433e7cfe1b8972c474fa3a2fff14bb4e8edabe1e"),
    "cdcl kernel forgetting": (forgetting_formulas, "8c059a36659f02187193ea22ed994bc189b1b01b"),
    "scl ground 3cnf": (lambda: small_formulas(11, (3,)), "5cb6016b9f14b59df10a14f70507315a735c93bc"),
    "scl ground widths 2-4": (lambda: small_formulas(12, (2, 3, 4)), "82b10e91f37fa9e2566c8bbc1cd30d7639c3e295"),
}


@pytest.mark.parametrize("name", CORPORA)
def test_corpus_is_drawn_as_pinned(name):
    draw, expected = CORPORA[name]
    assert digest(draw()) == expected
