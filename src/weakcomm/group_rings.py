"""Exact rational group rings over computable groups, square matrices over
them, and the trace functions: the identity-coefficient trace, the
augmentation, and the Hattori-Stallings class function.

Every element is held in one canonical form, integer numerators over one
positive denominator with no common factor, so equality (idempotency, trace
identities) is exact and compares integers; a ``Fraction`` is made only when
a coefficient is read.  A product sets up the carrier's ``product_code`` (one
int per element of Z^n) once, accumulates each output entry's integer
numerators over the lcm of its term products' denominators, and decodes only
the surviving keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Callable, Mapping, Sequence


class GroupRingError(ValueError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise GroupRingError(f"coefficients must be exact rationals, got {type(value)!r}")


class RingElement:
    """Finite rational combination of group elements in one canonical form:
    sum (nums[g] / den) g with den > 0, no zero numerator stored, and
    gcd(den, *nums) = 1.  Treat instances as immutable."""

    __slots__ = ("carrier", "den", "nums")

    def __new__(cls, carrier, coeffs: Mapping) -> "RingElement":
        fractions = {g: _as_fraction(c) for g, c in coeffs.items()}
        den = lcm(*[c.denominator for c in fractions.values()])
        nums = {g: c.numerator * (den // c.denominator) for g, c in fractions.items()}
        return _element(carrier, den, nums)

    def coefficient(self, g) -> Fraction:
        return Fraction(self.nums.get(g, 0), self.den)

    def support(self) -> list:
        return sorted(self.nums, key=self.carrier.sort_key)

    def items(self) -> list[tuple[object, Fraction]]:
        return [(g, Fraction(self.nums[g], self.den)) for g in self.support()]

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.carrier == other.carrier and (self.den, self.nums) == (other.den, other.nums)

    __hash__ = None  # type: ignore[assignment]

    def _check_same(self, other: "RingElement") -> None:
        if self.carrier != other.carrier:
            raise GroupRingError("ring elements over different groups")

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_same(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {g: n * a for g, n in self.nums.items()}
        for g, n in other.nums.items():
            out[g] = out.get(g, 0) + n * b
        return _element(self.carrier, den, out)

    def __neg__(self) -> "RingElement":
        return _element(self.carrier, self.den, {g: -n for g, n in self.nums.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "RingElement":
        s = _as_fraction(scalar)
        nums = {g: n * s.numerator for g, n in self.nums.items()}
        return _element(self.carrier, self.den * s.denominator, nums)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_same(other)
        a = [[self]]
        return _products(self.carrier, a, a if other is self else [[other]])[0][0]

    def __repr__(self) -> str:
        return f"RingElement({format_ring_element(self)!r})"


def _element(carrier, den: int, nums: dict) -> RingElement:
    """sum (nums[g] / den) g in canonical form: zero numerators dropped, and
    den and the numerators divided by their gcd."""
    nums = {g: n for g, n in nums.items() if n}
    common = gcd(den, *nums.values())
    if common != 1:
        den //= common
        nums = {g: n // common for g, n in nums.items()}
    x = object.__new__(RingElement)
    x.carrier, x.den, x.nums = carrier, den, nums
    return x


def _products(carrier, a: Sequence, b: Sequence) -> list[list[RingElement]]:
    """The product of the square arrays of elements ``a`` and ``b`` under one
    ``product_code`` for all their terms (``b is a`` encodes them once).
    Entry (i, j) accumulates integer numerators over the lcm of its term
    products' denominators, and only its surviving keys are decoded."""
    terms = (g for m in ((a,) if b is a else (a, b)) for row in m for x in row for g in x.nums)
    encode, mul, decode = carrier.product_code(terms)

    def encoded(m: Sequence) -> list:
        if encode is None:
            return [[(x.den, list(x.nums.items())) for x in row] for row in m]
        return [[(x.den, [(encode(g), n) for g, n in x.nums.items()]) for x in row] for row in m]

    left = encoded(a)
    right = left if b is a else encoded(b)

    def entry(i: int, j: int) -> RingElement:
        pairs = [(left[i][k], right[k][j]) for k in range(n) if left[i][k][1] and right[k][j][1]]
        common = lcm(*[dx * dy for (dx, _), (dy, _) in pairs])
        acc: dict = {}
        get = acc.get
        for (dx, xs), (dy, ys) in pairs:
            scale = common // (dx * dy)
            for g, p in xs:
                p *= scale
                for h, q in ys:
                    k = mul(g, h)
                    acc[k] = get(k, 0) + p * q
        if decode is not None:
            acc = {decode(k): v for k, v in acc.items() if v}
        return _element(carrier, common, acc)

    n = len(a)
    return [[entry(i, j) for j in range(n)] for i in range(n)]


def ring_zero(carrier) -> RingElement:
    return RingElement(carrier, {})


def ring_one(carrier) -> RingElement:
    return _element(carrier, 1, {carrier.identity: 1})


def monomial(carrier, g, coeff=1) -> RingElement:
    return RingElement(carrier, {g: coeff})


class RingMatrix:
    """Square matrix over one group ring."""

    __slots__ = ("carrier", "n", "entries")

    def __init__(self, carrier, entries: Sequence[Sequence[RingElement]]):
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise GroupRingError("matrix must be square")
            for e in row:
                if not isinstance(e, RingElement) or e.carrier != carrier:
                    raise GroupRingError("entries must share the matrix carrier")
        self.carrier = carrier
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.n == other.n
            and self.entries == other.entries
        )

    __hash__ = None  # type: ignore[assignment]

    def _check_same(self, other: "RingMatrix") -> None:
        if self.carrier != other.carrier or self.n != other.n:
            raise GroupRingError("matrix shapes or carriers differ")

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        self._check_same(other)
        return RingMatrix(self.carrier, _products(self.carrier, self.entries, other.entries))

    def is_idempotent(self) -> bool:
        return self * self == self

    def __repr__(self) -> str:
        return f"RingMatrix(n={self.n}, carrier={self.carrier.name})"


def identity_matrix(carrier, n: int) -> RingMatrix:
    return diagonal_matrix(carrier, [ring_one(carrier)] * n)


def diagonal_matrix(carrier, diag: Sequence[RingElement]) -> RingMatrix:
    n = len(diag)
    zero = ring_zero(carrier)
    return RingMatrix(carrier, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def kappa(x) -> Fraction:
    """Coefficient of the identity (summed over the diagonal for matrices)."""
    if isinstance(x, RingElement):
        return x.coefficient(x.carrier.identity)
    if isinstance(x, RingMatrix):
        e = x.carrier.identity
        return sum((x.entries[i][i].coefficient(e) for i in range(x.n)), Fraction(0))
    raise GroupRingError(f"unsupported operand {type(x)!r}")


def epsilon(x) -> Fraction:
    """Sum of all coefficients (over the diagonal for matrices)."""
    if isinstance(x, RingElement):
        return Fraction(sum(x.nums.values()), x.den)
    if isinstance(x, RingMatrix):
        return sum((epsilon(x.entries[i][i]) for i in range(x.n)), Fraction(0))
    raise GroupRingError(f"unsupported operand {type(x)!r}")


def is_idempotent(a) -> bool:
    if isinstance(a, (RingElement, RingMatrix)):
        return a * a == a
    raise GroupRingError(f"unsupported operand {type(a)!r}")


def torsion_idempotent(carrier, g, n: int) -> RingElement:
    """(1/n)(1 + g + ... + g^(n-1)) for an element g of exact order n."""
    if n < 1:
        raise GroupRingError("order must be positive")
    power = carrier.identity
    nums: dict = {}
    for k in range(n):
        if k > 0 and power == carrier.identity:
            raise GroupRingError(f"element has order {k}, not {n}")
        nums[power] = 1
        power = carrier.mul(power, g)
    if power != carrier.identity:
        raise GroupRingError(f"element does not have order {n}")
    return _element(carrier, n, nums)


@dataclass(frozen=True)
class ClassFunction:
    """Mapping from canonical conjugacy-class representatives to rationals."""

    carrier: object
    values: tuple[tuple[object, Fraction], ...]  # sorted by carrier sort key

    def at_identity(self) -> Fraction:
        for g, c in self.values:
            if g == self.carrier.identity:  # type: ignore[attr-defined]
                return c
        return Fraction(0)

    def total(self) -> Fraction:
        return sum((c for _, c in self.values), Fraction(0))


def hattori_stallings(a: RingMatrix) -> ClassFunction:
    """Sum the diagonal coefficients over each conjugacy class.

    Requires a carrier with conjugacy canonicalization; BS(1, n)'s
    ``canonical_class`` raises ``ConjugacyUnsupportedError``."""
    carrier = a.carrier
    sums: dict = {}
    for i, row in enumerate(a.entries):
        for g, n in row[i].nums.items():
            rep = carrier.canonical_class(g)
            sums[rep] = sums.get(rep, 0) + Fraction(n, row[i].den)
    nonzero = [(g, c) for g, c in sums.items() if c]
    ordered = tuple(sorted(nonzero, key=lambda item: carrier.sort_key(item[0])))
    return ClassFunction(carrier, ordered)


def pushforward(a: RingMatrix, mapping: Callable, target_carrier) -> RingMatrix:
    """Transport coefficients entrywise along a group homomorphism, merging
    coefficients that land on the same element."""
    out_rows = []
    for row in a.entries:
        out_row = []
        for entry in row:
            nums: dict = {}
            for g, n in entry.nums.items():
                k = mapping(g)
                nums[k] = nums.get(k, 0) + n
            out_row.append(_element(target_carrier, entry.den, nums))
        out_rows.append(out_row)
    return RingMatrix(target_carrier, out_rows)


# ---------------------------------------------------------------------------
# Trace audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    kappa: Fraction
    epsilon: Fraction
    class_function: ClassFunction
    kappa_nonnegative: bool
    epsilon_integer_in_range: bool
    weak_bass_delta: Fraction
    hs_consistent: bool
    kaplansky_dichotomy: bool | None  # only set for 1x1 matrices

    @property
    def weak_bass_holds(self) -> bool:
        return self.weak_bass_delta == 0

    @property
    def all_zaleskii_pass(self) -> bool:
        return self.kappa_nonnegative and self.epsilon_integer_in_range


def trace_audit(a: RingMatrix) -> TraceReport:
    """Audit an idempotent matrix: trace values, the value-constraint
    verdicts, the augmentation-minus-identity-coefficient delta, and (for
    1x1 matrices) the dichotomy 'identity coefficient in {0,1} iff the
    element is 0 or 1'.  Refuses non-idempotent input."""
    if not a.is_idempotent():
        raise GroupRingError("trace audit requires an idempotent matrix")
    k = kappa(a)
    e = epsilon(a)
    cf = hattori_stallings(a)
    hs_ok = cf.at_identity() == k and cf.total() == e
    dichotomy = None
    if a.n == 1:
        elem = a.entries[0][0]
        is_trivial = elem.is_zero() or elem == ring_one(a.carrier)
        dichotomy = (k in (0, 1)) == is_trivial
    return TraceReport(
        kappa=k,
        epsilon=e,
        class_function=cf,
        kappa_nonnegative=k >= 0,
        epsilon_integer_in_range=(e.denominator == 1 and 0 <= e <= a.n),
        weak_bass_delta=e - k,
        hs_consistent=hs_ok,
        kaplansky_dichotomy=dichotomy,
    )


# ---------------------------------------------------------------------------
# Idempotent corpus: conjugates of diagonal 0/1 matrices by random
# invertibles (unit diagonals and transvections), the canonical family with
# known ground truth.
# ---------------------------------------------------------------------------


def random_ring_element(carrier, rng: Random) -> RingElement:
    coeffs: dict = {}
    for _ in range(rng.randint(1, 3)):
        g = carrier.random_element(rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            coeffs[g] = coeffs.get(g, Fraction(0)) + c
    return RingElement(carrier, coeffs)


def _unit_diagonal(carrier, rng: Random, n: int) -> tuple[RingMatrix, RingMatrix]:
    diag = []
    diag_inv = []
    for _ in range(n):
        g = carrier.random_element(rng)
        lam = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))
        diag.append(monomial(carrier, g, lam))
        diag_inv.append(monomial(carrier, carrier.inv(g), 1 / lam))
    return diagonal_matrix(carrier, diag), diagonal_matrix(carrier, diag_inv)


def _transvection(carrier, rng: Random, n: int) -> tuple[RingMatrix, RingMatrix]:
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    r = random_ring_element(carrier, rng)
    m = identity_matrix(carrier, n)
    rows = [list(row) for row in m.entries]
    rows[i][j] = rows[i][j] + r
    inv_rows = [list(row) for row in m.entries]
    inv_rows[i][j] = inv_rows[i][j] - r
    return RingMatrix(carrier, rows), RingMatrix(carrier, inv_rows)


def random_invertible(
    carrier, rng: Random, n: int, steps: int = 3
) -> tuple[RingMatrix, RingMatrix]:
    """A product of unit diagonals and transvections, with its exact inverse."""
    u = identity_matrix(carrier, n)
    u_inv = identity_matrix(carrier, n)
    for _ in range(steps):
        if n > 1 and rng.random() < 0.7:
            f, f_inv = _transvection(carrier, rng, n)
        else:
            f, f_inv = _unit_diagonal(carrier, rng, n)
        u = u * f
        u_inv = f_inv * u_inv
    return u, u_inv


def conjugated_diagonal_idempotent(
    carrier, rng: Random, n: int, rank: int
) -> RingMatrix:
    """U * diag(1..1, 0..0) * U^-1 for a random invertible U; exactly idempotent."""
    if not 0 <= rank <= n:
        raise GroupRingError("rank out of range")
    one = ring_one(carrier)
    zero = ring_zero(carrier)
    d = diagonal_matrix(carrier, [one] * rank + [zero] * (n - rank))
    u, u_inv = random_invertible(carrier, rng, n)
    return u * d * u_inv


# ---------------------------------------------------------------------------
# Ring element text:  coeff * word terms joined by + / -, e.g.
# "1/2*e + 1/2*a"; rationals written p/q.
# ---------------------------------------------------------------------------


def format_ring_element(x: RingElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for g, c in x.items():
        magnitude = f"{abs(c)}*{x.carrier.format_element(g)}"
        if not parts:
            parts.append(magnitude if c > 0 else f"-{magnitude}")
        else:
            parts.append(f"+ {magnitude}" if c > 0 else f"- {magnitude}")
    return " ".join(parts)
