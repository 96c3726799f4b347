"""Exact rational group rings over computable groups, square matrices over
them, and the trace functions: the identity-coefficient trace, the
augmentation, and the Hattori-Stallings class function.

Coefficients are arbitrary-precision rationals throughout, so every equality
check (idempotency, trace identities) is exact.  Products work in integers:
each factor's coefficients are brought over one common denominator, each
output entry accumulates integer numerators over the lcm of its term
products' denominators, and a ``Fraction`` is made once per surviving term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random
from typing import Callable, Mapping, Sequence

from .carriers import ConjugacyUnsupportedError


class GroupRingError(ValueError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise GroupRingError(f"coefficients must be exact rationals, got {type(value)!r}")


class RingElement:
    """Finite rational combination of group elements (no zero coefficients
    stored).  Treat instances as immutable."""

    __slots__ = ("carrier", "_coeffs")

    def __init__(self, carrier, coeffs: Mapping | None = None):
        self.carrier = carrier
        cleaned = {}
        if coeffs:
            for g, c in coeffs.items():
                c = _as_fraction(c)
                if c:
                    cleaned[g] = c
        self._coeffs = cleaned

    @classmethod
    def _exact(cls, carrier, coeffs: dict) -> "RingElement":
        """Wrap ``coeffs`` as is: every value must be a nonzero ``Fraction``."""
        x = object.__new__(cls)
        x.carrier = carrier
        x._coeffs = coeffs
        return x

    def coefficient(self, g) -> Fraction:
        return self._coeffs.get(g, Fraction(0))

    def support(self) -> list:
        return sorted(self._coeffs, key=self.carrier.sort_key)

    def items(self) -> list[tuple[object, Fraction]]:
        return [(g, self._coeffs[g]) for g in self.support()]

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.carrier == other.carrier and self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def _check_same(self, other: "RingElement") -> None:
        if self.carrier != other.carrier:
            raise GroupRingError("ring elements over different groups")

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self._coeffs)
        for g, c in other._coeffs.items():
            out[g] = out.get(g, 0) + c
        return RingElement(self.carrier, out)

    def __neg__(self) -> "RingElement":
        return RingElement(self.carrier, {g: -c for g, c in self._coeffs.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "RingElement":
        s = _as_fraction(scalar)
        if not s:
            return RingElement(self.carrier)
        return RingElement(self.carrier, {g: s * c for g, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_same(other)
        return _sum_of_products(self.carrier, [(_numerators(self), _numerators(other))])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RingElement({format_ring_element(self)!r})"


def _numerators(x: RingElement) -> tuple[int, list]:
    """(d, [(g, n_g), ...]) with x = sum (n_g / d) g and d the lcm of the
    denominators of x."""
    coeffs = x._coeffs
    d = lcm(*[c.denominator for c in coeffs.values()])
    return d, [(g, c.numerator * (d // c.denominator)) for g, c in coeffs.items()]


def _sum_of_products(carrier, pairs: list) -> RingElement:
    """Sum of x * y over ``pairs`` of factors in the form of ``_numerators``,
    as integer numerators over the lcm of the products' denominators."""
    common = lcm(*[dx * dy for (dx, _), (dy, _) in pairs])
    mul = carrier.mul
    acc: dict = {}
    get = acc.get
    for (dx, xs), (dy, ys) in pairs:
        scale = common // (dx * dy)
        for g, a in xs:
            a *= scale
            for h, b in ys:
                k = mul(g, h)
                acc[k] = get(k, 0) + a * b
    return RingElement._exact(
        carrier, {g: Fraction(n, common) for g, n in acc.items() if n}
    )


def ring_zero(carrier) -> RingElement:
    return RingElement(carrier)


def ring_one(carrier) -> RingElement:
    return RingElement(carrier, {carrier.identity: Fraction(1)})


def monomial(carrier, g, coeff=1) -> RingElement:
    return RingElement(carrier, {g: _as_fraction(coeff)})


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

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_same(other)
        return RingMatrix(
            self.carrier,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_same(other)
        return RingMatrix(
            self.carrier,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        self._check_same(other)
        n = self.n
        left = [[_numerators(e) for e in row] for row in self.entries]
        right = [[_numerators(f) for f in row] for row in other.entries]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                pairs = [(left[i][k], right[k][j]) for k in range(n) if left[i][k][1] and right[k][j][1]]
                row.append(_sum_of_products(self.carrier, pairs))
            rows.append(row)
        return RingMatrix(self.carrier, rows)

    def is_idempotent(self) -> bool:
        return self * self == self

    def __repr__(self) -> str:
        return f"RingMatrix(n={self.n}, carrier={self.carrier.name})"


def identity_matrix(carrier, n: int) -> RingMatrix:
    one = ring_one(carrier)
    zero = ring_zero(carrier)
    return RingMatrix(carrier, [[one if i == j else zero for j in range(n)] for i in range(n)])


def diagonal_matrix(carrier, diag: Sequence[RingElement]) -> RingMatrix:
    n = len(diag)
    zero = ring_zero(carrier)
    return RingMatrix(
        carrier, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
    )


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
        return sum(x._coeffs.values(), Fraction(0))
    if isinstance(x, RingMatrix):
        return sum((epsilon(x.entries[i][i]) for i in range(x.n)), Fraction(0))
    raise GroupRingError(f"unsupported operand {type(x)!r}")


def is_idempotent(a) -> bool:
    if isinstance(a, RingElement):
        return a * a == a
    if isinstance(a, RingMatrix):
        return a.is_idempotent()
    raise GroupRingError(f"unsupported operand {type(a)!r}")


def torsion_idempotent(carrier, g, n: int) -> RingElement:
    """(1/n)(1 + g + ... + g^(n-1)) for an element g of exact order n."""
    if n < 1:
        raise GroupRingError("order must be positive")
    power = carrier.identity
    coeffs: dict = {}
    for k in range(n):
        if k > 0 and power == carrier.identity:
            raise GroupRingError(f"element has order {k}, not {n}")
        coeffs[power] = coeffs.get(power, Fraction(0)) + Fraction(1, n)
        power = carrier.mul(power, g)
    if power != carrier.identity:
        raise GroupRingError(f"element does not have order {n}")
    return RingElement(carrier, coeffs)


@dataclass(frozen=True)
class ClassFunction:
    """Mapping from canonical conjugacy-class representatives to rationals."""

    carrier: object
    values: tuple[tuple[object, Fraction], ...]  # sorted by carrier sort key

    def at(self, x) -> Fraction:
        rep = self.carrier.canonical_class(x)  # type: ignore[attr-defined]
        for g, c in self.values:
            if g == rep:
                return c
        return Fraction(0)

    def at_identity(self) -> Fraction:
        for g, c in self.values:
            if g == self.carrier.identity:  # type: ignore[attr-defined]
                return c
        return Fraction(0)

    def total(self) -> Fraction:
        return sum((c for _, c in self.values), Fraction(0))


def hattori_stallings(a: RingMatrix) -> ClassFunction:
    """Sum the diagonal coefficients over each conjugacy class.

    Requires a carrier with conjugacy canonicalization; BS(1, n) raises an
    explicit capability error."""
    carrier = a.carrier
    if not getattr(carrier, "has_conjugacy", False):
        raise ConjugacyUnsupportedError(
            f"Hattori-Stallings trace needs conjugacy canonicalization; "
            f"{carrier.name} does not provide it"
        )
    sums: dict = {}
    for i in range(a.n):
        for g, c in a.entries[i][i].items():
            rep = carrier.canonical_class(g)
            s = sums.get(rep, Fraction(0)) + c
            if s:
                sums[rep] = s
            else:
                sums.pop(rep, None)
    ordered = tuple(sorted(sums.items(), key=lambda item: carrier.sort_key(item[0])))
    return ClassFunction(carrier, ordered)


def pushforward(a: RingMatrix, mapping: Callable, target_carrier) -> RingMatrix:
    """Transport coefficients entrywise along a group homomorphism, merging
    coefficients that land on the same element."""
    out_rows = []
    for row in a.entries:
        out_row = []
        for entry in row:
            coeffs: dict = {}
            for g, c in entry._coeffs.items():
                k = mapping(g)
                coeffs[k] = coeffs.get(k, 0) + c
            out_row.append(RingElement(target_carrier, coeffs))
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


def random_ring_element(carrier, rng: Random, max_support: int = 3) -> RingElement:
    coeffs: dict = {}
    for _ in range(rng.randint(1, max_support)):
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
