"""Seeded input families shared by the tests; each draws from a `random.Random` that the caller seeds.

Every test draws the corpus it drew before the family moved here, to the
byte: `tests/test_corpora.py` pins the sha1 of each.
"""

from __future__ import annotations

import random
from typing import Sequence

from clausekit.cdcl import PropClause


def random_cnf(
    rng: random.Random, num_vars: int, num_clauses: int, widths: Sequence[int] | None = None
) -> list[PropClause]:
    """Clauses 1..num_clauses over atoms 1..num_vars, each of distinct atoms, each atom negated with odds 1/2.

    A clause has 3 atoms, or, given widths, `rng.choice(widths)` atoms.
    Without widths no choice is drawn, so `widths=(3,)` draws other clauses
    from the same seed.
    """
    clauses = []
    for cid in range(1, num_clauses + 1):
        atoms = rng.sample(range(1, num_vars + 1), 3 if widths is None else rng.choice(widths))
        clauses.append(PropClause(cid, tuple(a if rng.random() < 0.5 else -a for a in atoms)))
    return clauses
