"""Dual-route consistency checks.

The enumerator and the integer linear algebra are independent code paths;
for abelian presentations they must agree exactly: Smith normal form of the
exponent matrix predicts the group order, and a coset enumeration of the
same presentation must find precisely that many cosets.  Random small
presentations also get a full closure audit and a realized-group
abelianization cross-check.
"""

import random
from math import prod

import pytest

from weakcomm.finite_groups import derived_subgroup, realize
from weakcomm.presentations import Presentation, presentation_to_text
from weakcomm.smith import abelianization
from weakcomm.todd_coxeter import (
    EnumerationLimits,
    LimitExceeded,
    closure_audit,
    enumerate_cosets,
)
from weakcomm.words import Word, commutator


def _random_word(rng: random.Random, num_gens: int, max_len: int = 6) -> Word:
    n = rng.randint(1, max_len)
    return Word(tuple((rng.randrange(num_gens), rng.choice((1, -1))) for _ in range(n)))


def test_abelian_presentations_match_smith_form():
    rng = random.Random(271828)
    checked = 0
    for _ in range(60):
        k = rng.randint(1, 3)
        rows = rng.randint(1, 3)
        relators = [_random_word(rng, k) for _ in range(rows)]
        relators += [
            commutator(Word.gen(i), Word.gen(j))
            for i in range(k)
            for j in range(i + 1, k)
        ]
        p = Presentation.make([f"g{i}" for i in range(k)], relators)
        form = abelianization(p)
        if form.free_rank > 0:
            with pytest.raises(LimitExceeded):
                enumerate_cosets(p, limits=EnumerationLimits(max_cosets=3000))
            continue
        expected = prod(form.factors)
        if expected > 2000:
            continue
        table = enumerate_cosets(p)
        assert table.num_cosets == expected, (presentation_to_text(p), expected, table.num_cosets)
        closure_audit(table)
        checked += 1
    assert checked >= 20  # the sample must actually exercise the finite route


def test_random_small_presentations_close_consistently():
    rng = random.Random(161803)
    finite_hits = 0
    for _ in range(40):
        k = rng.randint(1, 2)
        relators = [_random_word(rng, k, max_len=5) for _ in range(rng.randint(1, 3))]
        p = Presentation.make([f"g{i}" for i in range(k)], relators)
        try:
            table = enumerate_cosets(p, limits=EnumerationLimits(max_cosets=20000))
        except LimitExceeded:
            continue
        closure_audit(table)
        finite_hits += 1
        if table.num_cosets <= 400:
            group = realize(table)
            # the realized abelianization must match the exact linear algebra
            form = abelianization(p)
            quotient_order = group.order // derived_subgroup(group).order
            assert quotient_order == prod(form.factors) * (0 if form.free_rank else 1)
    assert finite_hits >= 10
