import random

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm.presentations import (
    GeneratorMap,
    Presentation,
    PresentationError,
    PresentationSyntaxError,
    UndeclaredGeneratorError,
    direct_power,
    direct_power_identity_decider,
    free_identity_decider,
    parse_presentation,
    parse_word,
    parse_words,
    presentation_to_text,
    relator_identity_decider,
    word_to_text,
)
from weakcomm.words import Word, commutator

CORPUS = [
    "< a | a^2 >",
    "< a, b | a^2, b^3, (a*b)^5 >",
    "< a, b | a^2, b^2, [a,b] >",
    "< a, b | >",
    "< | >",
    "< x_1, x_2, y | x_1*x_2^-3, [x_1, y]^2 >",
]


def test_parse_cyclic():
    p = parse_presentation("< a | a^2 >")
    assert p.num_generators == 1
    assert len(p.relators) == 1
    assert p.relators[0] == Word(((0, 1), (0, 1)))


def test_parse_triangle_presentation_hand_oracle():
    # hand parse: relator letter counts 2, 3, 10
    p = parse_presentation("< a, b | a^2, b^3, (a*b)^5 >")
    assert p.num_generators == 2
    assert [len(r) for r in p.relators] == [2, 3, 10]
    assert p.relators[2] == (Word.gen(0) * Word.gen(1)) ** 5


def test_undeclared_generator():
    with pytest.raises(UndeclaredGeneratorError) as exc:
        parse_presentation("< a | b^2 >")
    assert exc.value.name == "b"
    assert exc.value.line == 1


def test_syntax_error_carries_position():
    with pytest.raises(PresentationSyntaxError) as exc:
        parse_presentation("< a |\n a^ >")
    assert exc.value.line == 2


def test_comments_and_whitespace():
    text = """# a comment
    < a,   # generators
      b | a^2, b^3 >
    """
    p = parse_presentation(text)
    assert p.generator_names == ("a", "b")
    assert len(p.relators) == 2


def test_commutator_sugar():
    p = parse_presentation("< a, b | [a,b] >")
    assert p.relators[0] == commutator(Word.gen(0), Word.gen(1))


def test_nested_expressions():
    p = parse_presentation("< a, b | [a, [a, b]]^-2, (a*b^-1)^3 >")
    assert len(p.relators) == 2


def test_duplicate_and_trivial_relators_dropped():
    p = parse_presentation("< a | a^2, a*a, a*a^-1 >")
    assert len(p.relators) == 1


def test_parse_print_round_trip_on_corpus():
    for text in CORPUS:
        p = parse_presentation(text)
        assert parse_presentation(presentation_to_text(p)) == p


def test_printer_canonical_form():
    p = parse_presentation("<a,b|a^2,[a,b]>")
    assert presentation_to_text(p) == "< a, b | a^2, a^-1*b^-1*a*b >"


def test_parse_word_helper():
    p = parse_presentation("< a, b | >")
    assert parse_word("a*b^-2", p) == Word(((0, 1), (1, -1), (1, -1)))
    with pytest.raises(UndeclaredGeneratorError):
        parse_word("c", p)


def test_parse_words_is_a_comma_list():
    p = parse_presentation("< a, b | >")
    assert parse_words("", p) == []
    assert parse_words(" a , [a,b] ", p) == [Word.gen(0), commutator(Word.gen(0), Word.gen(1))]
    for text, column in (("a,", 3), ("a,,b", 3), (",a", 1), ("[a,", 4)):
        with pytest.raises(PresentationSyntaxError) as exc:
            parse_words(text, p)
        assert (exc.value.line, exc.value.col) == (1, column)


def test_error_at_the_end_names_the_end_of_input():
    with pytest.raises(PresentationSyntaxError, match="found end of input"):
        parse_presentation("< a | a")
    with pytest.raises(PresentationSyntaxError, match="found end of input"):
        parse_words("[a,", parse_presentation("< a, b | >"))


# single spaces between tokens keep every integer at two digits at most, so
# no exponent allocates a long word
TOKENS = list("<>|,*^()[]") + ["a", "b", "-", "2", "-3", "\u00b2", "\u00e9", "\n", "#c\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=30), st.booleans())
def test_any_text_parses_and_round_trips_or_raises_a_presentation_error(tokens, framed):
    if framed:  # a valid header, so that some texts parse
        tokens = ["<", "a", ",", "b", "|", *tokens, ">"]
    try:
        p = parse_presentation(" ".join(tokens))
    except PresentationError:
        return
    assert parse_presentation(presentation_to_text(p)) == p


def test_presentation_invariants():
    with pytest.raises(PresentationError):
        Presentation.make(["a", "a"])
    with pytest.raises(PresentationError):
        Presentation.make(["a"], [Word.gen(1)])


@pytest.mark.parametrize(
    "build, column",
    [
        pytest.param(lambda: parse_presentation("a | >"), 1, id="missing-open"),
        pytest.param(lambda: parse_presentation("< a b | a^2 >"), 5, id="missing-comma"),
        pytest.param(lambda: parse_presentation("< a, | >"), 6, id="trailing-comma"),
        pytest.param(lambda: parse_presentation("< a, b >"), 8, id="missing-bar"),
        pytest.param(lambda: parse_presentation("< a | a"), 8, id="missing-close"),
        pytest.param(lambda: parse_presentation("< a | a > x"), 11, id="trailing-input"),
        pytest.param(lambda: parse_presentation("< a | a^\u00b2 >"), 9, id="superscript-exponent"),
        pytest.param(lambda: parse_presentation("< a | a^\u0663 >"), 9, id="non-ascii-digit"),
        pytest.param(lambda: parse_presentation("< \u00e9 | >"), 3, id="non-ascii-name"),
        pytest.param(lambda: parse_presentation("< a, a | >"), None, id="repeated-name"),
        pytest.param(lambda: Presentation.make(["a-b"]), None, id="invalid-name"),
    ],
)
def test_header_errors(build, column):
    with pytest.raises(PresentationError) as exc:
        build()
    if column is None:
        assert not isinstance(exc.value, PresentationSyntaxError)
    else:
        assert isinstance(exc.value, PresentationSyntaxError)
        assert (exc.value.line, exc.value.col) == (1, column)


def test_direct_power_counts():
    p = parse_presentation("< a | a^2 >")
    d3 = direct_power(p, 3)
    assert d3.generator_names == ("a_1", "a_2", "a_3")
    # 3 power relators + 3 commutators
    assert len(d3.relators) == 6


def test_direct_power_identity_case():
    p = parse_presentation("< a | a^2 >")
    d1 = direct_power(p, 1)
    assert d1.generator_names == ("a_1",)
    assert len(d1.relators) == 1


def test_apply_map_on_generators_and_identity():
    c2 = parse_presentation("< a | a^2 >")
    cube = direct_power(c2, 3)
    rho_like = GeneratorMap(c2, cube, (Word.gen(0) * Word.gen(1),))
    assert rho_like.apply(Word.gen(0)) == Word.gen(0) * Word.gen(1)
    assert rho_like.apply(Word.identity()) == Word.identity()


def test_apply_map_respects_multiplication():
    rng = random.Random(17)
    source = parse_presentation("< a, b | >")
    target = parse_presentation("< x, y | >")
    images = (parse_word("x*y^-1", target), parse_word("y*x*y", target))
    m = GeneratorMap(source, target, images)

    def random_word():
        n = rng.randint(0, 8)
        return Word(tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(n)))

    for _ in range(300):
        u, v = random_word(), random_word()
        assert m.apply(u * v) == m.apply(u) * m.apply(v)


def test_map_image_count_validated():
    p = parse_presentation("< a, b | >")
    q = parse_presentation("< x | >")
    with pytest.raises(PresentationError):
        GeneratorMap(p, q, (Word.gen(0),))


def test_free_decider():
    p = parse_presentation("< a, b | >")
    decide = free_identity_decider(p)
    assert decide(Word.identity())
    assert not decide(Word.gen(0))
    with pytest.raises(PresentationError):
        free_identity_decider(parse_presentation("< a | a^2 >"))


def test_direct_power_decider_projects():
    base = parse_presentation("< a | >")
    decide = direct_power_identity_decider(free_identity_decider(base), 2, 1)
    assert decide(commutator(Word.gen(0), Word.gen(1)))
    assert not decide(Word.gen(0) * Word.gen(1))


def test_relator_decider_sound_cases():
    p = parse_presentation("< a, b | a^2, [a,b] >")
    decide = relator_identity_decider(p)
    assert decide(Word.identity())
    assert decide(Word.gen(0) ** 2)
    assert decide(Word.gen(0) ** -2)
    # cyclic rotation of the commutator
    rotated = Word(p.relators[1].letters[1:] + p.relators[1].letters[:1])
    assert decide(rotated)
    assert not decide(Word.gen(1))
