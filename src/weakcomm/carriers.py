"""Computable group element carriers for group rings and identity checks.

Each carrier knows how to multiply and invert its elements, exposes a total
sort key for deterministic printing, and (when supported) canonicalizes
conjugacy classes:

* finite groups: least element index in the class,
* free abelian Z^n: the identity map (classes are singletons),
* free groups: the lexicographically least rotation of the cyclically
  reduced core,
* BS(1, n): conjugacy canonicalization is NOT available.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from random import Random

from .finite_groups import FiniteGroup, class_representative_map
from .presentations import word_to_text
from .words import Word


class CarrierError(ValueError):
    pass


class ConjugacyUnsupportedError(CarrierError):
    """The carrier has no conjugacy canonicalization (e.g. BS(1, n))."""


_DEFAULT_FREE_NAMES = "abcdefgh"


def _auto_names(rank: int, prefix: str = "x") -> tuple[str, ...]:
    if rank <= len(_DEFAULT_FREE_NAMES):
        return tuple(_DEFAULT_FREE_NAMES[:rank])
    return tuple(f"{prefix}{i + 1}" for i in range(rank))


@dataclass(frozen=True)
class FiniteCarrier:
    """Elements are indices of a realized finite group."""

    group: FiniteGroup

    has_conjugacy = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "_class_rep", class_representative_map(self.group))

    @property
    def name(self) -> str:
        return f"finite(order {self.group.order})"

    @property
    def identity(self) -> int:
        return 0

    def mul(self, x: int, y: int) -> int:
        return self.group.mul(x, y)

    def inv(self, x: int) -> int:
        return self.group.inv(x)

    def sort_key(self, x: int):
        return x

    def canonical_class(self, x: int) -> int:
        return self._class_rep[x]  # type: ignore[attr-defined]

    def generator_names(self) -> tuple[str, ...]:
        return self.group.presentation.generator_names

    def element_from_word(self, w: Word) -> int:
        return self.group.evaluate(w)

    def format_element(self, x: int) -> str:
        return word_to_text(self.group.words[x], self.generator_names())

    def random_element(self, rng: Random) -> int:
        return rng.randrange(self.group.order)


@dataclass(frozen=True)
class FreeAbelianCarrier:
    """Z^n; elements are integer tuples of length n."""

    rank: int
    names: tuple[str, ...] = ()

    has_conjugacy = True

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise CarrierError("rank must be positive")
        if not self.names:
            object.__setattr__(self, "names", _auto_names(self.rank))
        if len(self.names) != self.rank:
            raise CarrierError("one name per coordinate required")

    @property
    def name(self) -> str:
        return f"Z^{self.rank}"

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def mul(self, x, y):
        if len(x) != self.rank or len(y) != self.rank:
            raise CarrierError(f"elements of Z^{self.rank} must have {self.rank} coordinates")
        return tuple(map(add, x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def sort_key(self, x):
        return x

    def canonical_class(self, x):
        return x

    def generator_names(self) -> tuple[str, ...]:
        return self.names

    def element_from_word(self, w: Word):
        out = [0] * self.rank
        for i, s in w.letters:
            if i >= self.rank:
                raise CarrierError("word index out of range")
            out[i] += s
        return tuple(out)

    def format_element(self, x) -> str:
        if all(v == 0 for v in x):
            return "e"
        return "*".join(
            self.names[i] if v == 1 else f"{self.names[i]}^{v}"
            for i, v in enumerate(x)
            if v
        )

    def random_element(self, rng: Random, bound: int = 3):
        return tuple(rng.randint(-bound, bound) for _ in range(self.rank))


@dataclass(frozen=True)
class FreeCarrier:
    """Free group of given rank; elements are freely reduced words."""

    rank: int
    names: tuple[str, ...] = ()

    has_conjugacy = True

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise CarrierError("rank must be positive")
        if not self.names:
            object.__setattr__(self, "names", _auto_names(self.rank))
        if len(self.names) != self.rank:
            raise CarrierError("one name per generator required")

    @property
    def name(self) -> str:
        return f"F_{self.rank}"

    @property
    def identity(self) -> Word:
        return Word.identity()

    def mul(self, x: Word, y: Word) -> Word:
        return x * y

    def inv(self, x: Word) -> Word:
        return x.inverse()

    def sort_key(self, x: Word):
        return (len(x.letters), x.letters)

    def canonical_class(self, x: Word) -> Word:
        core, _ = x.cyclically_reduce()
        ls = core.letters
        if not ls:
            return core
        best = min(ls[k:] + ls[:k] for k in range(len(ls)))
        return Word(best)

    def generator_names(self) -> tuple[str, ...]:
        return self.names

    def element_from_word(self, w: Word) -> Word:
        if w.max_index() >= self.rank:
            raise CarrierError("word index out of range")
        return w

    def format_element(self, x: Word) -> str:
        return word_to_text(x, self.names)

    def random_element(self, rng: Random, max_length: int = 4) -> Word:
        length = rng.randint(0, max_length)
        letters = []
        for _ in range(length):
            letters.append((rng.randrange(self.rank), rng.choice((1, -1))))
        return Word(tuple(letters))


def _denominator_valuation(b: Fraction, n: int) -> int:
    """Least e >= 0 with b * n^e integral; raises when no power suffices.

    Each step divides the denominator by its gcd with n, which lowers every
    prime's exponent by its exponent in n, so the steps to reach 1 are the
    least such e."""
    d, e = b.denominator, 0
    while d != 1:
        g = gcd(d, n)
        if g == 1:
            raise CarrierError("denominator is not supported by powers of n")
        d //= g
        e += 1
    return e


@dataclass(frozen=True)
class BSElement:
    """Element of BS(1, n) in affine coordinates: x -> n^k * x + b."""

    b: Fraction
    k: int


@dataclass(frozen=True)
class BaumslagSolitarCarrier:
    """BS(1, n) = <a, t | t a t^-1 = a^n>, realized by affine maps with the
    canonical normal form t^-p a^q t^r (p, r >= 0; n does not divide q when
    both p > 0 and r > 0)."""

    n: int

    has_conjugacy = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise CarrierError("BS(1, n) carrier needs n >= 2")

    @property
    def name(self) -> str:
        return f"BS(1,{self.n})"

    @property
    def identity(self) -> BSElement:
        return BSElement(Fraction(0), 0)

    def mul(self, x: BSElement, y: BSElement) -> BSElement:
        k = x.k
        b = x.b + (y.b * self.n**k if k >= 0 else y.b / self.n**-k)
        _denominator_valuation(b, self.n)
        return BSElement(b, k + y.k)

    def inv(self, x: BSElement) -> BSElement:
        k = x.k
        return BSElement(-x.b / self.n**k if k >= 0 else -x.b * self.n**-k, -k)

    def sort_key(self, x: BSElement):
        return (x.k, x.b)

    def canonical_class(self, x: BSElement):
        raise ConjugacyUnsupportedError(
            f"conjugacy canonicalization is not available for {self.name}"
        )

    def generator_names(self) -> tuple[str, ...]:
        return ("a", "t")

    def element_from_word(self, w: Word) -> BSElement:
        a = BSElement(Fraction(1), 0)
        t = BSElement(Fraction(0), 1)
        gens = (a, t)
        out = self.identity
        for i, s in w.letters:
            if i >= 2:
                raise CarrierError("word index out of range")
            g = gens[i] if s == 1 else self.inv(gens[i])
            out = self.mul(out, g)
        return out

    def normal_form(self, x: BSElement) -> tuple[int, int, int]:
        """The triple (p, q, r) with x = t^-p a^q t^r."""
        p = max(_denominator_valuation(x.b, self.n), -x.k, 0)
        q = x.b * self.n**p
        assert q.denominator == 1
        return (p, int(q), x.k + p)

    def from_normal_form(self, p: int, q: int, r: int) -> BSElement:
        if p < 0 or r < 0:
            raise CarrierError("normal form requires p >= 0 and r >= 0")
        return BSElement(Fraction(q, self.n**p), r - p)

    def format_element(self, x: BSElement) -> str:
        p, q, r = self.normal_form(x)
        parts = []
        if p:
            parts.append(f"t^{-p}")
        if q:
            parts.append("a" if q == 1 else f"a^{q}")
        if r:
            parts.append("t" if r == 1 else f"t^{r}")
        return "*".join(parts) if parts else "e"

    def random_element(self, rng: Random, bound: int = 2) -> BSElement:
        p = rng.randint(0, bound)
        q = rng.randint(-self.n**bound, self.n**bound)
        r = rng.randint(0, bound)
        return self.from_normal_form(p, q, r)
