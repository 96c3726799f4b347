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
from operator import add, mul
from random import Random

from .finite_groups import FiniteGroup, class_representative_map
from .presentations import word_to_text
from .words import Word


class CarrierError(ValueError):
    pass


class ConjugacyUnsupportedError(CarrierError):
    """The carrier has no conjugacy canonicalization (e.g. BS(1, n))."""


_DEFAULT_FREE_NAMES = "abcdefgh"


def _auto_names(rank: int) -> tuple[str, ...]:
    if rank <= len(_DEFAULT_FREE_NAMES):
        return tuple(_DEFAULT_FREE_NAMES[:rank])
    return tuple(f"x{i + 1}" for i in range(rank))


@dataclass(frozen=True)
class FiniteCarrier:
    """Elements are indices of a realized finite group."""

    group: FiniteGroup

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

    def product_code(self, elements):
        return None, self.group.mul, None

    def sort_key(self, x: int):
        return x

    def canonical_class(self, x: int) -> int:
        return self._class_rep[x]  # type: ignore[attr-defined]

    def format_element(self, x: int) -> str:
        names = self.group.presentation.generator_names
        return word_to_text(Word(tuple((i, 1) for i in self.group.path(x))), names)

    def random_element(self, rng: Random) -> int:
        return rng.randrange(self.group.order)


@dataclass(frozen=True)
class FreeAbelianCarrier:
    """Z^n; elements are integer tuples of length n."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise CarrierError("rank must be positive")

    @property
    def name(self) -> str:
        return f"Z^{self.rank}"

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def _check(self, *xs) -> None:
        if any(len(x) != self.rank for x in xs):
            raise CarrierError(f"elements of Z^{self.rank} must have {self.rank} coordinates")

    def mul(self, x, y):
        self._check(x, y)
        return tuple(map(add, x, y))

    def inv(self, x):
        self._check(x)
        return tuple(-a for a in x)

    def product_code(self, elements):
        """Kronecker substitution: x -> sum x_i R^i with balanced digits and
        R = 4 max|x_i| + 2 over ``elements``.  One code serves a whole matrix
        product, whose every key product is one left key times one right key:
        their sum keeps every digit in [-R/2, R/2), so the product is int ``+``."""
        rank, top = self.rank, 0
        for x in elements:
            if len(x) != rank:
                self._check(x)
            for v in x:
                if not isinstance(v, int):
                    raise CarrierError(f"elements of Z^{rank} must have integer coordinates")
                top = v if v > top else -v if -v > top else top
        radix, half, digits = 4 * top + 2, 2 * top + 1, range(rank)
        bias = half * (radix**rank - 1) // (radix - 1)  # half in every digit

        def encode(x) -> int:
            k = 0
            for v in reversed(x):
                k = k * radix + v
            return k

        def decode(k: int) -> tuple[int, ...]:
            k += bias
            out = []
            for _ in digits:
                out.append(k % radix - half)
                k //= radix
            return tuple(out)

        return encode, add, decode

    def sort_key(self, x):
        return x

    def canonical_class(self, x):
        return x

    def format_element(self, x) -> str:
        if all(v == 0 for v in x):
            return "e"
        names = _auto_names(self.rank)
        return "*".join(names[i] if v == 1 else f"{names[i]}^{v}" for i, v in enumerate(x) if v)

    def random_element(self, rng: Random):
        return tuple(rng.randint(-3, 3) for _ in range(self.rank))


@dataclass(frozen=True)
class FreeCarrier:
    """Free group of given rank; elements are freely reduced words."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise CarrierError("rank must be positive")

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

    def product_code(self, elements):
        return None, mul, None

    def sort_key(self, x: Word):
        return (len(x.letters), x.letters)

    def canonical_class(self, x: Word) -> Word:
        core, _ = x.cyclically_reduce()
        ls = core.letters
        if not ls:
            return core
        best = min(ls[k:] + ls[:k] for k in range(len(ls)))
        return Word(best)

    def format_element(self, x: Word) -> str:
        return word_to_text(x, _auto_names(self.rank))

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

    def __hash__(self) -> int:  # an int b hashes as the equal Fraction does
        return hash((self.k, self.b.numerator, self.b.denominator))


@dataclass(frozen=True)
class BaumslagSolitarCarrier:
    """BS(1, n) = <a, t | t a t^-1 = a^n>, realized by affine maps with the
    canonical normal form t^-p a^q t^r (p, r >= 0; n does not divide q when
    both p > 0 and r > 0)."""

    n: int

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

    def product_code(self, elements):
        return None, self.mul, None

    def sort_key(self, x: BSElement):
        return (x.k, x.b)

    def canonical_class(self, x: BSElement):
        raise ConjugacyUnsupportedError(
            f"conjugacy canonicalization is not available for {self.name}"
        )

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

    def random_element(self, rng: Random) -> BSElement:
        p = rng.randint(0, 2)
        q = rng.randint(-self.n**2, self.n**2)
        r = rng.randint(0, 2)
        return self.from_normal_form(p, q, r)
