from fractions import Fraction
from random import Random

import pytest

from weakcomm.carriers import (
    BaumslagSolitarCarrier,
    BSElement,
    CarrierError,
    ConjugacyUnsupportedError,
    FiniteCarrier,
    FreeAbelianCarrier,
    FreeCarrier,
    parse_carrier_word,
)
from weakcomm.finite_groups import realize
from weakcomm.group_rings import (
    GroupRingError,
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
    parse_ring_element,
    pushforward,
    random_invertible,
    random_ring_element,
    ring_one,
    ring_zero,
    torsion_idempotent,
    trace_audit,
    zero_matrix,
)
from weakcomm.presentations import direct_power, parse_presentation
from weakcomm.sidki import RelatorSchedule, double_presentation
from weakcomm.todd_coxeter import enumerate_cosets
from weakcomm.words import Word


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
    assert is_idempotent(zero_matrix(c2, 2))
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
    zero = trace_audit(zero_matrix(z2, 1))
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
    a = parse_carrier_word(bs2, "a")
    t = parse_carrier_word(bs2, "t")
    lhs = bs2.mul(bs2.mul(t, a), bs2.inv(t))
    assert lhs == parse_carrier_word(bs2, "a^2")


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
    x = parse_carrier_word(bs2, "t^-1*a*t")
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
    assert x == parse_carrier_word(bs2, "a")


def test_bs_element_is_affine_pair(bs2):
    x = bs2.from_normal_form(1, 1, 0)
    assert x == BSElement(Fraction(1, 2), -1)


# -- literals ------------------------------------------------------------------


def test_parse_ring_element_torsion(c2):
    lit = parse_ring_element(c2, "1/2*e + 1/2*a")
    assert lit == torsion_idempotent(c2, 1, 2)


def test_parse_ring_element_signs(z2):
    x = parse_ring_element(z2, "2*a - 3/2*b + a")
    assert x.coefficient((1, 0)) == 3
    assert x.coefficient((0, 1)) == Fraction(-3, 2)


def test_format_parse_round_trip(c6, z2, f2):
    rng = Random(6)
    for carrier in (c6, z2, f2):
        for _ in range(20):
            x = random_ring_element(carrier, rng)
            assert parse_ring_element(carrier, format_ring_element(x)) == x


def test_format_zero(c2):
    assert format_ring_element(ring_zero(c2)) == "0"


def test_parse_ring_element_rejects_garbage(c2):
    # every input either parses (and round-trips) or raises a controlled
    # ValueError subclass; anything else is a bug
    rng = Random(99)
    alphabet = "ae*+-/12^ ()"
    for _ in range(1500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            x = parse_ring_element(c2, text)
        except ValueError:
            continue
        assert parse_ring_element(c2, format_ring_element(x)) == x
