"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its stated runtime budget.  Expected orders marked as
regression pins were computed and verified on the first successful run and
are asserted exactly ever since.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from helpers import a5_permutation_model, group_order_orbit_stabilizer
from weakcomm.carriers import (
    BaumslagSolitarCarrier,
    FiniteCarrier,
    FreeAbelianCarrier,
    FreeCarrier,
)
from weakcomm.finite_groups import realize
from weakcomm.group_rings import (
    RingMatrix,
    conjugated_diagonal_idempotent,
    epsilon,
    hattori_stallings,
    kappa,
    pushforward,
    random_ring_element,
    torsion_idempotent,
    trace_audit,
)
from weakcomm.presentations import direct_power, parse_presentation, parse_word
from weakcomm.sidki import (
    analyze_double_kernel,
    double_presentation,
    identity_witness,
    subgroup_families,
    torsion_probe,
)
from weakcomm.smith import abelianization, is_perfect
from weakcomm.todd_coxeter import closure_audit, enumerate_cosets

A5_TEXT = "< a, b | a^2, b^3, (a*b)^5 >"
C2_TEXT = "< a | a^2 >"
KLEIN_TEXT = "< a, b | a^2, b^2, [a,b] >"
TRIVIAL_TEXT = "< | >"


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.2f}s over {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s budget")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_enumeration_baseline():
    # ground truth first: a verified 5-point realization, order counted by
    # orbit-stabilizer, before the enumerator is trusted
    a, b = a5_permutation_model()
    oracle_order = group_order_orbit_stabilizer([a, b], 5)
    assert oracle_order == 60
    p = parse_presentation(A5_TEXT)
    with criterion(1, "enumeration-baseline", budget_seconds=None):
        start = time.monotonic()
        trivial_index = enumerate_cosets(p).num_cosets
        first = time.monotonic() - start
        start = time.monotonic()
        a_index = enumerate_cosets(p, [parse_word("a", p)]).num_cosets
        second = time.monotonic() - start
        assert trivial_index == oracle_order == 60
        assert a_index == 30
        assert first < 1.0 and second < 1.0


def test_criterion_2_double_of_order_two():
    with criterion(2, "double-of-c2", budget_seconds=1.0):
        p = parse_presentation(C2_TEXT)
        base = realize(enumerate_cosets(p))
        data = double_presentation(p, base.words)
        # hand oracle: the relators are a^2, a_psi^2, [a, a_psi]
        assert len(data.double.relators) == 3
        x_table = enumerate_cosets(data.double)
        assert x_table.num_cosets == 4
        form = abelianization(data.double)
        assert form.factors == (2, 2) and form.free_rank == 0
        fam = subgroup_families(data, realize(x_table))
        assert fam.w.order == 1


def test_criterion_3_torsion_in_klein_double():
    with criterion(3, "torsion-in-klein-double", budget_seconds=10.0):
        p = parse_presentation(KLEIN_TEXT)
        base = realize(enumerate_cosets(p))
        data = double_presentation(p, base.words)
        x_group = realize(enumerate_cosets(data.double))
        fam = subgroup_families(data, x_group)
        assert fam.w.order >= 2  # the rank-one 2-torsion quotient forces this
        assert 2 in torsion_probe(fam.w).orders
        # regression pins from the first verified run
        assert x_group.order == 32
        assert fam.w.order == 2


def test_criterion_4_stem_audit_a5():
    with criterion(4, "stem-audit-a5", budget_seconds=60.0):
        p = parse_presentation(A5_TEXT)
        base = realize(enumerate_cosets(p))
        data = double_presentation(p, base.words)
        analysis = analyze_double_kernel(data, base)
        assert analysis.x_order == analysis.index * 60
        closure_audit(analysis.table)  # exhaustive relator/permutation check
        # the stem verdicts of analyze-w: rho surjective, W central, X
        # perfect (so W <= X' = X), Lagrange
        assert is_perfect(p)
        assert analysis.rho_image_order == 60**3 == 216000
        assert analysis.w_central
        assert is_perfect(data.double)
        assert analysis.lagrange_consistent
        # the two known quotient constraints bound |W|: even and at most 8
        assert analysis.w_order % 2 == 0 and 2 <= analysis.w_order <= 8
        # regression pins from the first verified run
        assert analysis.x_order == 432000
        assert analysis.w_order == 2


def test_criterion_5_trivial_base_is_vacuous():
    with criterion(5, "trivial-base", budget_seconds=1.0):
        p = parse_presentation(TRIVIAL_TEXT)
        base = realize(enumerate_cosets(p))
        data = double_presentation(p, base.words)
        assert enumerate_cosets(data.double).num_cosets == 1
        analysis = analyze_double_kernel(data, base)
        assert is_perfect(p) and is_perfect(data.double)  # so W <= X' = X
        assert analysis.rho_image_order == 1 and analysis.w_central
        assert analysis.lagrange_consistent
        assert analysis.x_order == 1 and analysis.w_order == 1


def test_criterion_6_identity_suite():
    with criterion(6, "commutator-identity-suite", budget_seconds=30.0):
        rng = Random(20220919)
        f2 = FreeCarrier(2)
        failures = 0
        for _ in range(1000):
            args = [f2.random_element(rng, max_length=6) for _ in range(4)]
            if not identity_witness(f2, *args):
                failures += 1
        z3 = FreeAbelianCarrier(3)
        for _ in range(1000):
            args = [z3.random_element(rng) for _ in range(4)]
            if not identity_witness(z3, *args):
                failures += 1
        assert failures == 0


def _idempotent_corpus(rng: Random):
    """Conjugated diagonal idempotents over the torsion-free carriers,
    torsion idempotents over small cyclic groups, and a pushforward of a
    double-ring idempotent along rho."""
    corpus = []
    for carrier in (FreeAbelianCarrier(2), FreeCarrier(2)):
        for n, rank in ((1, 0), (2, 1), (2, 2), (3, 1)):
            corpus.append(("conjugated", conjugated_diagonal_idempotent(carrier, rng, n, rank)))
    for n in (2, 3, 4, 6):
        pres = parse_presentation(f"< a | a^{n} >")
        carrier = FiniteCarrier(realize(enumerate_cosets(pres)))
        p = torsion_idempotent(carrier, carrier.group.generator_element(0), n)
        corpus.append((f"torsion-c{n}", RingMatrix(carrier, [[p]])))

    pres = parse_presentation(C2_TEXT)
    base = realize(enumerate_cosets(pres))
    data = double_presentation(pres, base.words)
    x_group = realize(enumerate_cosets(data.double))
    triple = realize(enumerate_cosets(direct_power(pres, 3)))
    images = tuple(triple.evaluate(img) for img in data.maps.rho.images)

    def rho_on_elements(elem: int) -> int:
        z = 0
        for i, _ in x_group.words[elem].letters:
            z = triple.mul(z, images[i])
        return z

    x_carrier = FiniteCarrier(x_group)
    p = torsion_idempotent(x_carrier, x_group.generator_element(0), 2)
    pushed = pushforward(RingMatrix(x_carrier, [[p]]), rho_on_elements, FiniteCarrier(triple))
    assert pushed.is_idempotent()
    corpus.append(("rho-pushforward", pushed))
    return corpus


def test_criterion_7_trace_property_suite():
    with criterion(7, "trace-properties", budget_seconds=60.0):
        c6 = FiniteCarrier(realize(enumerate_cosets(parse_presentation("< a | a^6 >"))))
        carriers = (c6, FreeAbelianCarrier(2), FreeCarrier(2), BaumslagSolitarCarrier(2))
        rng = Random(1976)
        for carrier in carriers:
            for _ in range(200):
                x = random_ring_element(carrier, rng)
                y = random_ring_element(carrier, rng)
                assert kappa(x * y) == kappa(y * x)
                assert epsilon(x * y) == epsilon(x) * epsilon(y)
        for _name, mat in _idempotent_corpus(Random(424242)):
            cf = hattori_stallings(mat)
            assert cf.at_identity() == kappa(mat)
            assert cf.total() == epsilon(mat)


def test_criterion_8_weak_bass_behavior():
    with criterion(8, "weak-bass-and-value-constraints", budget_seconds=60.0):
        rng = Random(8128)
        for carrier in (FreeAbelianCarrier(2), FreeCarrier(2)):
            for n, rank in ((2, 1), (2, 2), (3, 1), (3, 2)):
                mat = conjugated_diagonal_idempotent(carrier, rng, n, rank)
                report = trace_audit(mat)
                assert report.weak_bass_delta == 0
                assert report.all_zaleskii_pass
        for n in (2, 3, 4, 6):
            pres = parse_presentation(f"< a | a^{n} >")
            carrier = FiniteCarrier(realize(enumerate_cosets(pres)))
            p = torsion_idempotent(carrier, carrier.group.generator_element(0), n)
            report = trace_audit(RingMatrix(carrier, [[p]]))
            assert report.weak_bass_delta == Fraction(n - 1, n)
            assert report.all_zaleskii_pass
        for _name, mat in _idempotent_corpus(Random(55)):
            report = trace_audit(mat)
            assert report.all_zaleskii_pass
            assert report.hs_consistent
