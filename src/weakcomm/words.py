"""Freely reduced words over indexed generator symbols.

A letter is a pair ``(generator index, sign)`` with sign +1 or -1.  Words
reduce eagerly: every constructor cancels adjacent inverse pairs, so any
``Word`` in circulation is freely reduced and equality of words is plain
tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Letter = tuple[int, int]


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain (single stack pass)."""
    out: list[Letter] = []
    for index, sign in letters:
        if sign != 1 and sign != -1:
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if index < 0:
            raise ValueError(f"generator index must be nonnegative, got {index!r}")
        if out and out[-1][0] == index and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((index, sign))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", free_reduce(self.letters))

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def gen(index: int, sign: int = 1) -> "Word":
        return Word(((index, sign),))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -s) for i, s in reversed(self.letters)))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def conjugated_by(self, k: "Word") -> "Word":
        """Return k^-1 * self * k."""
        return k.inverse() * self * k

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

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


_IDENTITY = Word(())


def shift_word(w: Word, offset: int) -> Word:
    """Add ``offset`` to every generator index of ``w`` (a word of one factor
    moved into its copy inside a product or a double)."""
    return Word(tuple((i + offset, s) for i, s in w.letters))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x^-1 y^-1 x y."""
    return x.inverse() * y.inverse() * x * y
