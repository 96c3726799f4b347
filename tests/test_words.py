import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from weakcomm.words import Word, commutator, free_reduce

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1))),
    max_size=24,
)


def w(*pairs):
    return Word(tuple(pairs))


def test_forced_cancellation():
    # (a b)(b^-1 a) -> a a
    assert w((0, 1), (1, 1)) * w((1, -1), (0, 1)) == w((0, 1), (0, 1))


def test_invert_reverses_and_flips():
    assert w((0, 1), (1, -1)).inverse() == w((1, 1), (0, -1))


def test_cyclic_reduction_definition():
    core, conj = w((0, 1), (1, 1), (0, -1)).cyclically_reduce()
    assert core == w((1, 1))
    assert conj == w((0, 1))
    assert conj * core * conj.inverse() == w((0, 1), (1, 1), (0, -1))


def test_commutator_expansion():
    a, b = Word.gen(0), Word.gen(1)
    assert commutator(a, b) == w((0, -1), (1, -1), (0, 1), (1, 1))


def test_power():
    a = Word.gen(0)
    assert a**3 == w((0, 1), (0, 1), (0, 1))
    assert a**-2 == w((0, -1), (0, -1))
    assert (a * Word.gen(1)) ** 0 == Word.identity()


def test_bad_letters_rejected():
    with pytest.raises(ValueError):
        Word(((0, 2),))
    with pytest.raises(ValueError):
        Word(((-1, 1),))


@given(letters)
def test_free_reduction_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == once


@given(letters)
def test_no_adjacent_inverse_pairs(ls):
    reduced = free_reduce(ls)
    for (i1, s1), (i2, s2) in zip(reduced, reduced[1:]):
        assert not (i1 == i2 and s1 == -s2)


@given(letters)
def test_invert_is_involution(ls):
    word = Word(tuple(ls))
    assert word.inverse().inverse() == word
    assert (word * word.inverse()).is_identity()
    assert (word.inverse() * word).is_identity()


@given(letters, letters)
def test_product_reduces_at_the_seam(xs, ys):
    x, y = Word(tuple(xs)), Word(tuple(ys))
    assert x * y == Word(x.letters + y.letters)
    assert (x * y).letters == free_reduce(tuple(xs) + tuple(ys))
    assert (x * x.inverse()) == Word.identity()
    assert (x * x.inverse()).letters == ()


def test_letters_are_shared():
    x, y = Word(((0, 1), (1, -1))), Word(((1, -1), (0, 1)))
    assert x.letters[0] is y.letters[1]
    assert x.letters[1] is y.letters[0]
    assert (x * y).letters[1] is x.letters[1]
    copied = pickle.loads(pickle.dumps(x))
    assert copied == x and copied.letters[0] is x.letters[0]
    assert (copied * x.inverse()).is_identity()


@given(letters, letters)
def test_equal_words_hash_equal_by_every_route(xs, ys):
    x, y = Word(tuple(xs)), Word(tuple(ys))
    routes = [
        Word(x.letters + y.letters),
        x * y,
        (y.inverse() * x.inverse()).inverse(),
        Word(free_reduce(tuple(xs) + tuple(ys))),
        pickle.loads(pickle.dumps(x * y)),
        copy.copy(x * y),
        copy.deepcopy(x * y),
    ]
    for word in routes:
        assert word == x * y
        assert hash(word) == hash(x * y)
    assert hash(x**3) == hash(x * x * x) and x**3 == x * x * x
    assert hash(x**-2) == hash(x.inverse() * x.inverse())


def test_word_is_immutable():
    word = Word.gen(0)
    with pytest.raises(AttributeError):
        word.letters = ()
    with pytest.raises(AttributeError):
        del word.letters
    with pytest.raises(AttributeError):
        word.extra = 1
    assert word == Word.gen(0) and word.letters == ((0, 1),)
    assert repr(word) == "Word(letters=((0, 1),))"
    assert repr(Word()) == "Word(letters=())"


def test_multiply_associative_on_random_sample():
    rng = random.Random(20240817)

    def random_word():
        n = rng.randint(0, 8)
        return Word(tuple((rng.randrange(4), rng.choice((1, -1))) for _ in range(n)))

    for _ in range(1000):
        a, b, c = random_word(), random_word(), random_word()
        assert (a * b) * c == a * (b * c)


@given(letters)
def test_cyclic_core_is_cyclically_reduced(ls):
    core, conj = Word(tuple(ls)).cyclically_reduce()
    assert conj * core * conj.inverse() == Word(tuple(ls))
    if core.letters:
        first, last = core.letters[0], core.letters[-1]
        assert not (first[0] == last[0] and first[1] == -last[1])


def test_exponent_sums():
    word = w((0, 1), (1, -1), (0, 1), (2, 1))
    assert word.exponent_sums(3) == [2, -1, 1]
