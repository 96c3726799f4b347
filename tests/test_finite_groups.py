from random import Random

import pytest

from helpers import PermutationOracle
from weakcomm.finite_groups import (
    FiniteGroupError,
    FiniteHom,
    InvalidHomomorphismError,
    center,
    conjugacy_classes,
    derived_subgroup,
    kernel_and_image,
    normal_closure,
    realize,
    regular_identity_decider,
    subgroup_from_elements,
    subgroup_generated,
)
from weakcomm.presentations import direct_power, parse_presentation, parse_word
from weakcomm.sidki import double_presentation, rho_on_elements
from weakcomm.smith import is_perfect
from weakcomm.todd_coxeter import enumerate_cosets
from weakcomm.words import Word

A5_TEXT = "< a, b | a^2, b^3, (a*b)^5 >"


def group(text):
    return realize(enumerate_cosets(parse_presentation(text)))


@pytest.fixture(scope="module")
def a5():
    return group(A5_TEXT)


@pytest.fixture(scope="module")
def s3():
    return group("< a, b | a^2, b^3, (a*b)^2 >")


def test_realize_c3_words():
    g = group("< a | a^3 >")
    assert g.order == 3
    assert [w.letters for w in g.words] == [(), ((0, 1),), ((0, 1), (0, 1))]


def test_realize_klein_four():
    g = group("< a, b | a^2, b^2, [a,b] >")
    assert g.order == 4


def test_realize_rejects_nontrivial_subgroup():
    p = parse_presentation("< a | a^4 >")
    table = enumerate_cosets(p, [parse_word("a^2", p)])
    with pytest.raises(FiniteGroupError):
        realize(table)


def test_realize_a5_shortlex(a5):
    assert a5.order == 60
    assert len(a5.words[0]) == 0
    assert len({w.letters for w in a5.words}) == 60
    # independent distance oracle: positive-generator BFS over the action
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for perm in a5.gen_perms:
                y = perm[x]
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    for x in a5.elements():
        assert len(a5.words[x]) == dist[x]  # words are length-minimal
        assert a5.evaluate(a5.words[x]) == x


def test_group_axioms_on_s3(s3):
    for x in s3.elements():
        assert s3.mul(x, 0) == x == s3.mul(0, x)
        assert s3.mul(x, s3.inv(x)) == 0
        for y in s3.elements():
            for z in s3.elements():
                assert s3.mul(s3.mul(x, y), z) == s3.mul(x, s3.mul(y, z))


def test_subgroup_generated_c4():
    g = group("< a | a^4 >")
    sq = g.mul(g.generator_element(0), g.generator_element(0))
    sub = subgroup_generated(g, [sq])
    assert sub.order == 2


def test_normal_closure_identity():
    g = group("< a | a^4 >")
    assert normal_closure(g, [0]).order == 1


def test_subgroup_generated_whole_a5(a5):
    sub = subgroup_generated(a5, [a5.generator_element(0), a5.generator_element(1)])
    assert sub.order == 60


def test_lagrange_for_generated_subgroups(a5):
    for x in range(0, 60, 7):
        sub = subgroup_generated(a5, [x])
        assert 60 % sub.order == 0


def test_kernel_identity_map(s3):
    h = FiniteHom(s3, s3, tuple(s3.generator_element(i) for i in range(2)))
    kernel, image = kernel_and_image(h)
    assert kernel.order == 1
    assert image.order == 6


def test_kernel_c4_to_c2():
    c4 = group("< a | a^4 >")
    c2 = group("< a | a^2 >")
    h = FiniteHom(c4, c2, (c2.generator_element(0),))
    kernel, image = kernel_and_image(h)
    assert kernel.order == 2
    assert image.order == 2


def test_invalid_homomorphism_rejected():
    c3 = group("< a | a^3 >")
    c2 = group("< a | a^2 >")
    h = FiniteHom(c3, c2, (c2.generator_element(0),))
    assert not h.verify()
    with pytest.raises(InvalidHomomorphismError):
        kernel_and_image(h)


@pytest.mark.parametrize("image", [-1, 7])
def test_homomorphism_images_must_be_target_elements(image):
    c4 = group("< a | a^4 >")
    with pytest.raises(InvalidHomomorphismError):
        FiniteHom(c4, c4, (image,))


def test_kernel_normality_exhaustive(s3):
    c2 = group("< a | a^2 >")
    # sign map: a -> generator, b -> identity
    h = FiniteHom(s3, c2, (c2.generator_element(0), 0))
    kernel, _ = kernel_and_image(h)
    assert kernel.order == 3
    for x in s3.elements():
        for k in kernel.elements:
            assert s3.mul(s3.mul(x, k), s3.inv(x)) in kernel.elements


def test_center_abelian():
    g = group("< a, b | a^2, b^2, [a,b] >")
    assert center(g).order == 4


def test_center_s3_trivial(s3):
    assert center(s3).order == 1


def test_derived_subgroup_a5_is_whole(a5):
    # cross-check against the presentation-level perfectness test
    assert is_perfect(parse_presentation(A5_TEXT))
    assert derived_subgroup(a5).order == 60


def test_derived_subgroup_s3(s3):
    derived = derived_subgroup(s3)
    assert derived.order == 3
    # brute-force oracle: subgroup generated by all element commutators
    all_comms = {s3.commutator(x, y) for x in s3.elements() for y in s3.elements()}
    assert subgroup_generated(s3, all_comms).elements == derived.elements


def test_conjugacy_classes_s3(s3):
    classes = conjugacy_classes(s3)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert classes == PermutationOracle.of(s3).classes()


def test_class_equation_a5(a5):
    classes = conjugacy_classes(a5)
    sizes = sorted(len(c) for c in classes)
    assert sum(sizes) == 60
    assert all(60 % s == 0 for s in sizes)
    assert sizes == [1, 12, 12, 15, 20]


def test_element_orders_divide_group_order(s3, a5):
    for g in (s3, a5):
        for x in g.elements():
            assert g.order % g.element_order(x) == 0


def test_element_order_values(a5):
    orders = {a5.element_order(x) for x in a5.elements()}
    assert orders == {1, 2, 3, 5}


def test_is_central():
    g = group("< a, b | a^4, b^2, b^-1*a*b*a >")  # dihedral of order 8
    assert g.order == 8
    sq = subgroup_generated(g, [g.mul(g.generator_element(0), g.generator_element(0))])
    assert sq.order == 2
    central = PermutationOracle.of(g).center()
    assert center(g).elements == sq.elements == central
    assert not set(subgroup_generated(g, [g.generator_element(0)]).elements) <= set(central)


def test_subgroup_from_elements_validates_closure(s3):
    with pytest.raises(FiniteGroupError):
        subgroup_from_elements(s3, [0, s3.generator_element(1)])


def test_regular_identity_decider(s3):
    decide = regular_identity_decider(s3)
    assert decide(Word.gen(0) ** 2)
    assert not decide(Word.gen(0))


# -- whole-group tables against the permutation oracle --------------------------

BASES = {
    "S3": "< a, b | a^2, b^3, (a*b)^2 >",
    "D4": "< a, b | a^2, b^4, (a*b)^2 >",
    "Q8": "< a, b | a^4, a^2*b^-2, b^-1*a*b*a >",
    "A4": "< a, b | a^2, b^3, (a*b)^3 >",
    "S4": "< a, b | a^2, b^3, (a*b)^4 >",
}
DOUBLES = {"X(Klein)": "< a, b | a^2, b^2, [a,b] >", "X(S3)": BASES["S3"]}


def _double_of(text):
    p = parse_presentation(text)
    data = double_presentation(p, group(text).words)
    return data, realize(enumerate_cosets(data.double))


@pytest.fixture(scope="module", params=list(BASES) + list(DOUBLES))
def realized(request):
    """(name, realized group, its permutation oracle)"""
    name = request.param
    g = group(BASES[name]) if name in BASES else _double_of(DOUBLES[name])[1]
    return name, g, PermutationOracle.of(g)


def test_oracle_reads_back_every_element(realized):
    _, g, oracle = realized
    assert [oracle.element(p) for p in oracle.perms] == list(g.elements())


def test_conjugacy_classes_match_oracle(realized):
    _, g, oracle = realized
    assert conjugacy_classes(g) == oracle.classes()


def test_center_matches_oracle(realized):
    _, g, oracle = realized
    assert center(g).elements == oracle.center()


def test_derived_subgroup_matches_oracle(realized):
    _, g, oracle = realized
    assert derived_subgroup(g).elements == oracle.derived()


def test_normal_closure_matches_oracle(realized):
    name, g, oracle = realized
    rng = Random(f"normal-closure/{name}")
    for size in (1, 1, 2, 3):
        gens = [rng.randrange(g.order) for _ in range(size)]
        assert normal_closure(g, gens).elements == oracle.normal_closure(gens), gens


def test_kernel_and_image_match_oracle(realized):
    name, g, oracle = realized
    rng = Random(f"kernel/{name}")
    targets = [(g, oracle, tuple(g.generator_element(i) for i in range(len(g.gen_perms))))]
    if name in DOUBLES:
        data, _ = _double_of(DOUBLES[name])
        triple = realize(enumerate_cosets(direct_power(data.base, 3)))
        rho = rho_on_elements(data, g, triple)
        targets.append((triple, PermutationOracle.of(triple), rho.images))
    else:
        # maps onto cyclic groups, kept when the images satisfy the relators
        for m in (2, 3, 4):
            c = group(f"< t | t^{m} >")
            for _ in range(6):
                images = tuple(rng.randrange(m) for _ in g.gen_perms)
                if FiniteHom(g, c, images).verify():
                    targets.append((c, PermutationOracle.of(c), images))
    assert len(targets) > 1
    for target, target_oracle, images in targets:
        kernel, image = kernel_and_image(FiniteHom(g, target, images))
        values = oracle.hom_values(target_oracle, images)
        assert kernel.elements == tuple(x for x, v in enumerate(values) if v == 0)
        assert image.elements == tuple(sorted(set(values)))


def test_tree_walks_match_oracle(realized):
    # mul, inv, element_order and FiniteHom.apply walk the spanning tree;
    # the oracle composes permutations along the stored words
    name, g, oracle = realized
    rng = Random(f"walks/{name}")
    for _ in range(200):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert g.mul(x, y) == oracle.mul(x, y)
    for x in g.elements():
        assert g.inv(x) == oracle.inv(x)
        n, z = 1, x
        while z != 0:
            z = oracle.mul(z, x)
            n += 1
        assert g.element_order(x) == n
    # conjugation by u is an automorphism: generator i goes to u^-1 g_i u
    u = rng.randrange(g.order)
    images = tuple(oracle.conjugate(g.generator_element(i), u) for i in range(len(g.gen_perms)))
    h = FiniteHom(g, g, images)
    assert [h.apply(x) for x in g.elements()] == oracle.hom_values(oracle, images)


def test_realize_shares_the_table_columns():
    table = enumerate_cosets(parse_presentation(BASES["S4"]))
    g = realize(table)
    assert g.gen_perms[0] is table.columns[0]
    assert g.inv_gen_perms[1] is table.columns[3]


def test_realize_builds_words_on_first_read():
    g = group(BASES["S4"])
    assert "words" not in vars(g)
    assert g.mul(g.inv(5), 5) == 0 and g.order == 24
    assert "words" not in vars(g)
    words = g.words
    assert "words" in vars(g) and g.words is words


def test_realize_words_are_shortlex_reduced_and_shared(realized):
    _, g, _ = realized
    # shortlex-least words by levels: a level's words extend the previous
    # level's in lexicographic order, and the first to reach an element wins
    least = {0: ()}
    level = [((), 0)]
    while level:
        following = []
        for letters, x in level:
            for i, perm in enumerate(g.gen_perms):
                y = perm[x]
                if y not in least:
                    least[y] = letters + ((i, 1),)
                    following.append((least[y], y))
        level = following
    assert [w.letters for w in g.words] == [least[x] for x in g.elements()]
    # positive letters only, so freely reduced; and the letter objects are the
    # ones every word shares
    shared = [Word.gen(i).letters[0] for i in range(len(g.gen_perms))]
    assert all(letter is shared[letter[0]] for w in g.words for letter in w.letters)
