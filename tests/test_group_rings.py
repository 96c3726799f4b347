from fractions import Fraction
from functools import cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm.carriers import (
    BaumslagSolitarCarrier,
    BSElement,
    CarrierError,
    ConjugacyUnsupportedError,
    FiniteCarrier,
    FreeAbelianCarrier,
    FreeCarrier,
)
from weakcomm.finite_groups import realize
from weakcomm.group_rings import (
    GroupRingError,
    RingElement,
    RingMatrix,
    conjugated_diagonal_idempotent,
    diagonal_matrix,
    epsilon,
    format_ring_element,
    hattori_stallings,
    identity_matrix,
    is_idempotent,
    kappa,
    monomial,
    pushforward,
    random_invertible,
    random_ring_element,
    ring_one,
    ring_zero,
    torsion_idempotent,
    trace_audit,
)
from weakcomm.presentations import direct_power, parse_presentation
from weakcomm.sidki import RelatorSchedule, double_presentation
from weakcomm.todd_coxeter import enumerate_cosets
from weakcomm.words import Word

from helpers import bs12_mul, c6_mul, free_mul, naive_matrix_product, naive_ring_product, z2_mul


def finite_carrier(text):
    return FiniteCarrier(realize(enumerate_cosets(parse_presentation(text))))


@pytest.fixture(scope="module")
def c2():
    return finite_carrier("< a | a^2 >")


@pytest.fixture(scope="module")
def c6():
    return finite_carrier("< a | a^6 >")


@pytest.fixture(scope="module")
def z2():
    return FreeAbelianCarrier(2)


@pytest.fixture(scope="module")
def f2():
    return FreeCarrier(2)


@pytest.fixture(scope="module")
def bs2():
    return BaumslagSolitarCarrier(2)


ALL_CARRIER_FIXTURES = ("c6", "z2", "f2", "bs2")


# -- arithmetic ----------------------------------------------------------------


def test_difference_of_squares_over_z():
    z = FreeAbelianCarrier(1)
    g = (1,)
    x = ring_one(z) + monomial(z, g)
    y = ring_one(z) - monomial(z, g)
    assert x * y == ring_one(z) - monomial(z, (2,))


def test_scale_to_zero(c2):
    p = monomial(c2, 1, Fraction(1, 2))
    assert p.scale(0).is_zero()
    assert not p.scale(0).support()


def test_torsion_idempotent_squares(c2):
    g = c2.group.generator_element(0)
    p = torsion_idempotent(c2, g, 2)
    assert p * p == p
    assert kappa(p) == Fraction(1, 2)
    assert epsilon(p) == 1


def test_group_mismatch_rejected(c2, c6):
    with pytest.raises(GroupRingError):
        ring_one(c2) + ring_one(c6)


def test_kappa_examples(c2):
    x = ring_one(c2).scale(2) + monomial(c2, 1, 3)
    assert kappa(x) == 2
    assert kappa(identity_matrix(c2, 4)) == 4
    p = torsion_idempotent(c2, 1, 2)
    assert kappa(p) == Fraction(1, 2)


def test_epsilon_examples(c2):
    p = torsion_idempotent(c2, 1, 2)
    assert epsilon(p) == 1
    assert epsilon(ring_zero(c2)) == 0


def test_trace_properties_200_pairs(c6, z2, f2, bs2):
    for seed, carrier in enumerate((c6, z2, f2, bs2), start=101):
        rng = Random(seed)
        for _ in range(200):
            x = random_ring_element(carrier, rng)
            y = random_ring_element(carrier, rng)
            assert kappa(x * y) == kappa(y * x)
            assert epsilon(x * y) == epsilon(x) * epsilon(y)
            assert epsilon(x + y) == epsilon(x) + epsilon(y)


def test_is_idempotent_matrices(c2):
    assert is_idempotent(diagonal_matrix(c2, [ring_zero(c2)] * 2))
    assert is_idempotent(identity_matrix(c2, 2))
    p = torsion_idempotent(c2, 1, 2)
    assert is_idempotent(diagonal_matrix(c2, [p, ring_zero(c2)]))
    assert not is_idempotent(RingMatrix(c2, [[monomial(c2, 1)]]))  # g^2 != g... g^2 = e
    assert not is_idempotent(monomial(c2, 1))


def test_torsion_idempotent_validates_order(c6):
    g = c6.group.generator_element(0)
    with pytest.raises(GroupRingError):
        torsion_idempotent(c6, g, 3)  # order is 6, not 3
    with pytest.raises(GroupRingError):
        torsion_idempotent(c6, c6.identity, 2)
    assert torsion_idempotent(c6, c6.identity, 1) == ring_one(c6)
    p = torsion_idempotent(c6, g, 6)
    assert kappa(p) == Fraction(1, 6)
    assert epsilon(p) == 1


# -- Hattori-Stallings ---------------------------------------------------------


def test_hs_identity_matrix_over_f2(f2):
    cf = hattori_stallings(identity_matrix(f2, 2))
    assert cf.at_identity() == 2
    assert cf.total() == 2
    assert len(cf.values) == 1  # only the identity class appears


def test_hs_torsion_idempotent_c3():
    c3 = finite_carrier("< a | a^3 >")
    p = torsion_idempotent(c3, c3.group.generator_element(0), 3)
    cf = hattori_stallings(RingMatrix(c3, [[p]]))
    assert [v for _, v in cf.values] == [Fraction(1, 3)] * 3


def test_hs_conjugated_diagonal_over_z2(z2):
    rng = Random(21)
    for _ in range(10):
        mat = conjugated_diagonal_idempotent(z2, rng, 2, 1)
        assert mat.is_idempotent()
        cf = hattori_stallings(mat)
        assert cf.at_identity() == 1
        assert cf.total() == 1
        # all classes away from the identity vanish
        assert all(v == 0 for g, v in cf.values if g != z2.identity)


def test_hs_consistency_on_corpus(z2, f2, c6):
    rng = Random(5150)
    for carrier in (z2, f2, c6):
        for n, rank in ((1, 1), (2, 1), (3, 2)):
            mat = conjugated_diagonal_idempotent(carrier, rng, n, rank)
            cf = hattori_stallings(mat)
            assert cf.at_identity() == kappa(mat)
            assert cf.total() == epsilon(mat)


def test_hs_conjugation_invariance(z2, f2):
    rng = Random(404)
    for carrier in (z2, f2):
        for _ in range(5):
            mat = conjugated_diagonal_idempotent(carrier, rng, 2, 1)
            u, u_inv = random_invertible(carrier, rng, 2)
            assert u * u_inv == identity_matrix(carrier, 2)
            conjugated = u * mat * u_inv
            assert hattori_stallings(conjugated).values == hattori_stallings(mat).values


def test_hs_rejects_bs_carrier(bs2):
    with pytest.raises(ConjugacyUnsupportedError):
        hattori_stallings(identity_matrix(bs2, 1))


def test_free_conjugacy_canonicalization(f2):
    a, b = Word.gen(0), Word.gen(1)
    w = b.inverse() * (a * b) * b  # conjugate of a*b
    assert f2.canonical_class(w) == f2.canonical_class(a * b)
    assert f2.canonical_class(b * a) == f2.canonical_class(a * b)
    assert f2.canonical_class(a) != f2.canonical_class(b)


# -- pushforward ---------------------------------------------------------------


def test_pushforward_identity(c2):
    mat = identity_matrix(c2, 2)
    assert pushforward(mat, lambda g: g, c2) == mat


def test_pushforward_collapse_merges(c2):
    x = monomial(c2, 1) + ring_one(c2)
    mat = RingMatrix(c2, [[x]])
    image = pushforward(mat, lambda g: 0, c2)
    assert image.entries[0][0] == ring_one(c2).scale(2)


def test_cancellation_leaves_empty_support(c2, z2):
    x = RingElement(z2, {(1, 0): 2, (0, 1): Fraction(-3, 2), (0, 0): 1})
    a = monomial(c2, c2.group.generator_element(0))
    a_minus_b = RingMatrix(z2, [[monomial(z2, (1, 0)) - monomial(z2, (0, 1))]])
    cancelled = [
        x + (-x),
        (ring_one(c2) - a) * (ring_one(c2) + a),
        pushforward(a_minus_b, lambda g: z2.identity, z2).entries[0][0],
        RingElement(c2, {c2.group.generator_element(0): 0}),
    ]
    for y in cancelled:
        assert y.support() == []
        assert y.is_zero()


def test_pushforward_multiplicative(z2, c6):
    rng = Random(8)
    # Z^2 -> Z^2 doubling the first coordinate is a homomorphism
    mapping = lambda g: (2 * g[0], g[1])
    for _ in range(20):
        a = RingMatrix(z2, [[random_ring_element(z2, rng) for _ in range(2)] for _ in range(2)])
        b = RingMatrix(z2, [[random_ring_element(z2, rng) for _ in range(2)] for _ in range(2)])
        left = pushforward(a * b, mapping, z2)
        right = pushforward(a, mapping, z2) * pushforward(b, mapping, z2)
        assert left == right


def test_pushforward_of_double_idempotent_along_rho():
    pres = parse_presentation("< a | a^2 >")
    base = realize(enumerate_cosets(pres))
    data = double_presentation(pres, base.words, RelatorSchedule.FULL)
    x_group = realize(enumerate_cosets(data.double))
    triple = realize(enumerate_cosets(direct_power(pres, 3)))
    x_carrier = FiniteCarrier(x_group)
    t_carrier = FiniteCarrier(triple)
    images = tuple(triple.evaluate(img) for img in data.maps.rho.images)

    def mapping(elem):
        z = 0
        for i, _ in x_group.words[elem].letters:
            z = triple.mul(z, images[i])
        return z

    p = torsion_idempotent(x_carrier, x_group.generator_element(0), 2)
    mat = RingMatrix(x_carrier, [[p]])
    image = pushforward(mat, mapping, t_carrier)
    assert mat.is_idempotent() and image.is_idempotent()


# -- trace audit ---------------------------------------------------------------


def test_trace_audit_identity_over_z2(z2):
    report = trace_audit(identity_matrix(z2, 3))
    assert report.kappa == report.epsilon == 3
    assert report.weak_bass_delta == 0
    assert report.all_zaleskii_pass
    assert report.hs_consistent
    assert report.kaplansky_dichotomy is None


def test_trace_audit_torsion_obstruction(c2):
    p = torsion_idempotent(c2, 1, 2)
    report = trace_audit(RingMatrix(c2, [[p]]))
    assert report.kappa == Fraction(1, 2)
    assert report.epsilon == 1
    assert report.weak_bass_delta == Fraction(1, 2)
    assert not report.weak_bass_holds
    assert report.all_zaleskii_pass
    assert report.kaplansky_dichotomy is True  # kappa not in {0,1}, p nontrivial


def test_trace_audit_conjugated_diagonal(f2):
    rng = Random(9)
    report = trace_audit(conjugated_diagonal_idempotent(f2, rng, 2, 1))
    assert report.weak_bass_delta == 0
    assert report.all_zaleskii_pass and report.hs_consistent


def test_trace_audit_refuses_non_idempotent(c2):
    with pytest.raises(GroupRingError):
        trace_audit(RingMatrix(c2, [[monomial(c2, 1)]]))


def test_kaplansky_dichotomy_trivials(z2):
    one = trace_audit(identity_matrix(z2, 1))
    zero = trace_audit(diagonal_matrix(z2, [ring_zero(z2)]))
    assert one.kaplansky_dichotomy is True
    assert zero.kaplansky_dichotomy is True


def test_zaleskii_on_generated_corpus(z2, f2, c6):
    rng = Random(1234)
    for carrier in (z2, f2, c6):
        for n, rank in ((2, 0), (2, 2), (3, 1)):
            report = trace_audit(conjugated_diagonal_idempotent(carrier, rng, n, rank))
            assert report.all_zaleskii_pass
            assert report.epsilon == rank  # similarity preserves the rank


# -- BS(1, n) ------------------------------------------------------------------


def test_bs_rewriting_rule(bs2):
    a = bs2.element_from_word(Word.gen(0))
    t = bs2.element_from_word(Word.gen(1))
    lhs = bs2.mul(bs2.mul(t, a), bs2.inv(t))
    assert lhs == bs2.element_from_word(Word.gen(0) ** 2)


def test_bs_normal_form_roundtrip(bs2):
    rng = Random(31337)
    for _ in range(200):
        x = bs2.random_element(rng)
        p, q, r = bs2.normal_form(x)
        assert p >= 0 and r >= 0
        if p > 0 and r > 0:
            assert q % bs2.n != 0
        assert bs2.from_normal_form(p, q, r) == x


def test_bs_mul_against_normal_form(bs2):
    # t^-1 a t = element with normal form (1, 1, 1)
    x = bs2.element_from_word(Word.gen(1).inverse() * Word.gen(0) * Word.gen(1))
    assert bs2.normal_form(x) == (1, 1, 1)
    assert bs2.format_element(x) == "t^-1*a*t"


def test_bs_inverse(bs2):
    rng = Random(2)
    for _ in range(100):
        x = bs2.random_element(rng)
        assert bs2.mul(x, bs2.inv(x)) == bs2.identity


def test_bs_rejects_bad_normal_form(bs2):
    with pytest.raises(CarrierError):
        bs2.from_normal_form(-1, 1, 0)


def test_bs_non_minimal_normal_form_canonicalized(bs2):
    # q divisible by n with p, r > 0 collapses
    x = bs2.from_normal_form(1, 2, 1)
    assert bs2.normal_form(x) == (0, 1, 0)
    assert x == bs2.element_from_word(Word.gen(0))


def test_bs_element_is_affine_pair(bs2):
    x = bs2.from_normal_form(1, 1, 0)
    assert x == BSElement(Fraction(1, 2), -1)


def test_bs_rejects_denominator_no_power_of_n_clears(bs2):
    with pytest.raises(CarrierError):
        bs2.mul(BSElement(Fraction(1, 3), 0), bs2.identity)
    with pytest.raises(CarrierError):
        BaumslagSolitarCarrier(6).mul(bs2.identity, BSElement(Fraction(1, 10), 0))


def test_bs_denominator_valuation_takes_least_power():
    bs6 = BaumslagSolitarCarrier(6)
    x = BSElement(Fraction(1, 4), 0)  # 4 divides 6^2 but not 6
    assert bs6.normal_form(x) == (2, 9, 2)
    assert bs6.from_normal_form(2, 9, 2) == x
    deep = BSElement(Fraction(1, 2**70), 0)
    assert BaumslagSolitarCarrier(2).normal_form(deep) == (70, 1, 70)


def test_free_abelian_rejects_rank_mismatch(z2):
    x = RingElement(z2, {(1, 0, 5): 1})
    y = RingElement(z2, {(1, 0): Fraction(1, 2)})
    with pytest.raises(CarrierError):
        x * y
    with pytest.raises(CarrierError):
        y * x


# -- products against the naive oracle of tests/helpers.py -----------------------

_ELEMENTS = {
    "c6": st.integers(0, 5),
    "z2": st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    "f2": st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=4).map(
        lambda letters: free_mul((), tuple(letters))
    ),
    "bs2": st.builds(
        lambda q, p, k: (Fraction(q, 2**p), k),
        st.integers(-4, 4),
        st.integers(0, 2),
        st.integers(-2, 2),
    ),
}
_COEFFICIENTS = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3, 6))
)


@cache
def _oracle_carriers() -> dict:
    """Per carrier: the library carrier, the oracle's multiplication, and the
    map from oracle elements to carrier elements."""
    c6 = finite_carrier("< a | a^6 >")
    powers = [c6.element_from_word(Word.gen(0) ** k) for k in range(6)]
    assert sorted(powers) == list(range(6))
    return {
        "c6": (c6, c6_mul, powers.__getitem__),
        "z2": (FreeAbelianCarrier(2), z2_mul, tuple),
        "f2": (FreeCarrier(2), free_mul, Word),
        "bs2": (BaumslagSolitarCarrier(2), bs12_mul, lambda e: BSElement(*e)),
    }


def _terms(name: str):
    return st.dictionaries(_ELEMENTS[name], _COEFFICIENTS, max_size=4)


def _ring(name: str, terms: dict) -> RingElement:
    carrier, _, to_carrier = _oracle_carriers()[name]
    return RingElement(carrier, {to_carrier(g): c for g, c in terms.items()})


def _assert_exact_and_zero_free(x: RingElement) -> None:
    assert all(type(c) is Fraction and c != 0 for _, c in x.items())


@pytest.mark.parametrize("name", sorted(_ELEMENTS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ring_product_matches_oracle(name, data):
    mul = _oracle_carriers()[name][1]
    x, y = data.draw(_terms(name)), data.draw(_terms(name))
    product = _ring(name, x) * _ring(name, y)
    assert product == _ring(name, naive_ring_product(mul, x, y))
    _assert_exact_and_zero_free(product)


@pytest.mark.parametrize("name", sorted(_ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_product_matches_oracle(name, data):
    carrier, mul, _ = _oracle_carriers()[name]
    n = data.draw(st.sampled_from((2, 3)))
    entry = st.one_of(st.just({}), _terms(name))
    a, b = (data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)) for _ in range(2))
    product = RingMatrix(carrier, [[_ring(name, e) for e in row] for row in a]) * RingMatrix(
        carrier, [[_ring(name, e) for e in row] for row in b]
    )
    expected = naive_matrix_product(mul, a, b)
    assert product == RingMatrix(carrier, [[_ring(name, e) for e in row] for row in expected])
    for row in product.entries:
        for e in row:
            _assert_exact_and_zero_free(e)


def test_mixed_denominators_cancel_exactly(z2, c6):
    x = RingElement(z2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3)})
    y = RingElement(z2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 3)})
    # the a terms, -1/6 and +1/6 over the common denominator 36, cancel
    assert x * y == RingElement(z2, {(0, 0): Fraction(1, 4), (2, 0): Fraction(-1, 9)})
    assert (x * y).support() == [(0, 0), (2, 0)]
    norm = RingElement(c6, {g: Fraction(1, 6) for g in range(6)})
    a = c6.group.generator_element(0)
    assert (RingElement(c6, {0: Fraction(1, 2), a: Fraction(-1, 2)}) * norm).support() == []
    # entry (0, 0): 1/2 a * 1/3 b over 6 and -2/3 a * 1/4 b over 12 cancel
    half_a, two_thirds_a = monomial(z2, (1, 0), Fraction(1, 2)), monomial(z2, (1, 0), Fraction(-2, 3))
    zero = ring_zero(z2)
    left = RingMatrix(z2, [[half_a, two_thirds_a], [zero, monomial(z2, (0, 1), Fraction(1, 6))]])
    right = RingMatrix(
        z2,
        [[monomial(z2, (0, 1), Fraction(1, 3)), zero], [monomial(z2, (0, 1), Fraction(1, 4)), ring_one(z2)]],
    )
    product = left * right
    assert product.entries[0][0].is_zero() and product.entries[0][0].support() == []
    assert product.entries[0][1] == two_thirds_a
    assert product.entries[1][0] == monomial(z2, (0, 2), Fraction(1, 24))
    assert product.entries[1][1] == monomial(z2, (0, 1), Fraction(1, 6))


# -- formatting ----------------------------------------------------------------


def test_format_zero(c2, z2):
    assert format_ring_element(ring_zero(c2)) == "0"
    x = RingElement(z2, {(1, 0): Fraction(-1, 3), (0, 0): Fraction(1, 2)})
    assert format_ring_element(x) == "1/2*e - 1/3*a"
