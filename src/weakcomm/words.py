"""Freely reduced words over indexed generator symbols.

A letter is a pair ``(generator index, sign)`` with sign +1 or -1.  Words
reduce eagerly: every constructor cancels adjacent inverse pairs, so any
``Word`` in circulation is freely reduced and equality of words is plain
tuple equality.
"""

from __future__ import annotations

from typing import Iterable

Letter = tuple[int, int]


# One shared tuple per letter value, with its inverse: words hold these, not
# copies.  A letter and its inverse enter together, once ``_intern`` has
# checked them.
_LETTERS: dict[Letter, tuple[Letter, Letter]] = {}


def _intern(letter) -> tuple[Letter, Letter]:
    index, sign = letter
    if sign != 1 and sign != -1:
        raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
    if index < 0:
        raise ValueError(f"generator index must be nonnegative, got {index!r}")
    key = (index, sign)
    if key not in _LETTERS:  # an unhashable spelling of a known letter may get here
        shared, inverse = (index, 1), (index, -1)
        _LETTERS[shared] = (shared, inverse)
        _LETTERS[inverse] = (inverse, shared)
    return _LETTERS[key]


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain (single stack pass)."""
    out: list[Letter] = []
    for letter in letters:
        try:
            shared, inverse = _LETTERS[letter]
        except (KeyError, TypeError):
            shared, inverse = _intern(letter)
        if out and out[-1] is inverse:
            out.pop()
        else:
            out.append(shared)
    return tuple(out)


def _reduced(letters: tuple[Letter, ...]) -> "Word":
    """A Word from letters that are already freely reduced and shared."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_hash(w, hash(letters))
    return w


class Word:
    """A freely reduced, immutable word, hashed once when made; () is the identity."""

    __slots__ = ("letters", "_hash")

    def __new__(cls, letters: Iterable[Letter] = ()) -> "Word":
        return _reduced(free_reduce(letters))

    def __setattr__(self, name, *value):
        raise AttributeError(f"Word is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._hash == other._hash and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Word(letters={self.letters!r})"

    def __reduce__(self):
        # copies and unpickled words go through the constructor, so their
        # letters are the shared ones that the product looks up
        return (Word, (self.letters,))

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def gen(index: int) -> "Word":
        return Word(((index, 1),))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        x, y = self.letters, other.letters
        if not x or not y or x[-1] is not _LETTERS[y[0]][1]:
            return _reduced(x + y)
        k, top = 1, min(len(x), len(y))
        while k < top and x[-1 - k] is _LETTERS[y[k]][1]:
            k += 1
        return _reduced(x[: len(x) - k] + y[k:])

    def inverse(self) -> "Word":
        return _reduced(tuple(_LETTERS[letter][1] for letter in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def max_index(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((i for i, _ in self.letters), default=-1)

    def exponent_sums(self, num_generators: int) -> list[int]:
        sums = [0] * num_generators
        for i, s in self.letters:
            sums[i] += s
        return sums

    def cyclically_reduce(self) -> tuple["Word", "Word"]:
        """Return (core, conjugator) with self == conjugator * core * conjugator^-1
        and core cyclically reduced."""
        ls = list(self.letters)
        prefix: list[Letter] = []
        while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
            prefix.append(ls[0])
            ls = ls[1:-1]
        return Word(tuple(ls)), Word(tuple(prefix))

    def syllables(self) -> list[tuple[int, int]]:
        """Run-length form: list of (generator index, nonzero exponent)."""
        out: list[tuple[int, int]] = []
        for i, s in self.letters:
            if out and out[-1][0] == i:
                out[-1] = (i, out[-1][1] + s)
            else:
                out.append((i, s))
        return out


_set_letters, _set_hash = Word.letters.__set__, Word._hash.__set__
_IDENTITY = Word(())


def shift_word(w: Word, offset: int) -> Word:
    """Add ``offset`` to every generator index of ``w`` (a word of one factor
    moved into its copy inside a product or a double)."""
    return Word(tuple((i + offset, s) for i, s in w.letters))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x^-1 y^-1 x y."""
    return x.inverse() * y.inverse() * x * y
