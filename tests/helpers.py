"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: permutation groups
are realized on explicit points with orders counted by orbit-stabilizer,
invariant-factor products are cross-checked against gcds of k x k minors,
the FULL double is written out letter by letter, without
``weakcomm.sidki``, and group-ring products are summed term by term in
``Fraction``s over dicts, without ``weakcomm.group_rings`` or
``weakcomm.carriers``.  Realized groups are checked through
:class:`PermutationOracle`, which multiplies elements as composed
permutations and runs no ``weakcomm.finite_groups`` algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from weakcomm.presentations import Presentation
from weakcomm.words import Word


def perm_identity(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_power(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = perm_identity(len(p))
    for _ in range(n):
        out = perm_compose(out, p)
    return out


def orbit_with_transversal(gens, point, degree):
    orbit = {point: perm_identity(degree)}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit[y] = perm_compose(orbit[x], g)
                queue.append(y)
    return orbit


def group_order_orbit_stabilizer(gens, degree: int) -> int:
    """|G| = |orbit| * |stabilizer|, recursing on Schreier generators."""
    identity = perm_identity(degree)
    gens = [g for g in gens if g != identity]
    if not gens:
        return 1
    point = min(i for g in gens for i in range(degree) if g[i] != i)
    orbit = orbit_with_transversal(gens, point, degree)
    stab_gens = set()
    for x, u in orbit.items():
        for g in gens:
            v = orbit[g[x]]
            schreier = perm_compose(perm_compose(u, g), perm_inverse(v))
            if schreier != identity:
                stab_gens.add(schreier)
    return len(orbit) * group_order_orbit_stabilizer(list(stab_gens), degree)


def a5_permutation_model():
    """Search for a realization of < a, b | a^2, b^3, (a*b)^5 > on 5 points.

    Returns verified permutations (a, b) whose group is transitive of order
    60.  The relators are checked explicitly before the assignment is
    accepted."""
    identity = perm_identity(5)
    a = (1, 0, 3, 2, 4)  # product of two 2-cycles, a^2 = e by construction
    for b in permutations(range(5)):
        if perm_power(b, 3) != identity or b == identity:
            continue
        ab = perm_compose(a, b)
        if perm_power(ab, 5) != identity:
            continue
        if len(orbit_with_transversal([a, b], 0, 5)) != 5:
            continue
        order = group_order_orbit_stabilizer([a, b], 5)
        if order == 60:
            return a, b
    raise AssertionError("no 5-point realization found")


def det(matrix) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * matrix[0][j] * det(minor)
    return total


def minor_gcds(rows, num_cols) -> list[int]:
    """Entry k-1 is the gcd of all k x k minors (0 when all vanish)."""
    m = len(rows)
    out = []
    for k in range(1, min(m, num_cols) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(num_cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det(sub))
        out.append(g)
    return out


def invariant_factors_from_minors(rows, num_cols) -> list[int]:
    """d_k = gcd_k / gcd_{k-1}, stopping at the first vanishing gcd."""
    gcds = minor_gcds(rows, num_cols)
    factors = []
    prev = 1
    for g in gcds:
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def full_double_oracle(base: Presentation, element_words) -> Presentation:
    """The literal FULL double of a finite base: its relators, their partner
    copies, and one commutator [w, w_psi] = w^-1 w_psi^-1 w w_psi per
    non-identity element word, with the partner of ``x`` named ``x_psi``."""
    g = base.num_generators

    def psi(letters):
        return tuple((i + g, s) for i, s in letters)

    def inverse(letters):
        return tuple((i, -s) for i, s in reversed(letters))

    relators = [r.letters for r in base.relators]
    relators += [psi(r) for r in relators]
    for w in element_words:
        if w.letters:
            u, v = w.letters, psi(w.letters)
            relators.append(inverse(u) + inverse(v) + u + v)
    names = list(base.generator_names) + [name + "_psi" for name in base.generator_names]
    return Presentation.make(names, [Word(r) for r in relators])


# -- realized groups ------------------------------------------------------------


class PermutationOracle:
    """A realized group read only through its generator permutations and its
    element words: element x acts on the elements as z -> z * x, the
    composition of the generator permutations along the word of x.  Every
    query below is brute force over these permutations."""

    def __init__(self, gen_perms, words):
        degree = len(words)
        inverses = [perm_inverse(p) for p in gen_perms]
        self.perms = []
        for w in words:
            perm = perm_identity(degree)
            for i, s in w.letters:
                perm = perm_compose(perm, gen_perms[i] if s == 1 else inverses[i])
            self.perms.append(perm)
        self.words = words
        self.order = degree

    @classmethod
    def of(cls, group):
        return cls(group.gen_perms, group.words)

    def element(self, perm) -> int:
        """The element acting as ``perm``: the image of the identity."""
        return perm[0]

    def mul(self, x: int, y: int) -> int:
        return self.element(perm_compose(self.perms[x], self.perms[y]))

    def inv(self, x: int) -> int:
        return self.element(perm_inverse(self.perms[x]))

    def conjugate(self, x: int, by: int) -> int:
        return self.mul(self.mul(self.inv(by), x), by)

    def generated(self, gens) -> tuple[int, ...]:
        found = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for k in gens:
                y = self.mul(x, k)
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return tuple(sorted(found))

    def normal_closure(self, gens) -> tuple[int, ...]:
        return self.generated({self.conjugate(s, y) for s in gens for y in range(self.order)})

    def derived(self) -> tuple[int, ...]:
        elements = range(self.order)
        return self.generated(
            {self.mul(self.inv(self.mul(y, x)), self.mul(x, y)) for x in elements for y in elements}
        )

    def center(self) -> tuple[int, ...]:
        elements = range(self.order)
        return tuple(x for x in elements if all(self.mul(x, y) == self.mul(y, x) for y in elements))

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out = {}
        for x in range(self.order):
            cls = tuple(sorted({self.conjugate(x, y) for y in range(self.order)}))
            out[cls[0]] = cls
        return tuple(out[rep] for rep in sorted(out))

    def hom_values(self, target: "PermutationOracle", images) -> list[int]:
        """The value at each element, evaluated along its word, of the map
        that sends generator i to ``images[i]`` in ``target``."""
        values = []
        for w in self.words:
            z = 0
            for i, s in w.letters:
                z = target.mul(z, images[i] if s == 1 else target.inv(images[i]))
            values.append(z)
        return values


# -- group rings ---------------------------------------------------------------
# Group elements: C6 as ints mod 6, Z^n as int n-tuples, F_2 as freely reduced
# tuples of (index, sign) letters, BS(1, 2) as affine pairs (b, k) for the
# map z -> 2^k z + b.


def c6_mul(x: int, y: int) -> int:
    return (x + y) % 6


def zn_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    assert len(x) == len(y)
    return tuple(a + b for a, b in zip(x, y))


def free_mul(x: tuple, y: tuple) -> tuple:
    out = list(x)
    for index, sign in y:
        if out and out[-1] == (index, -sign):
            out.pop()
        else:
            out.append((index, sign))
    return tuple(out)


def bs12_mul(x: tuple[Fraction, int], y: tuple[Fraction, int]) -> tuple[Fraction, int]:
    """The affine map z -> x(y(z))."""
    (bx, kx), (by, ky) = x, y
    return (bx + Fraction(2) ** kx * by, kx + ky)


def naive_ring_product(mul, x: dict, y: dict) -> dict:
    """Product of two group-ring elements given as {element: coefficient}."""
    out: dict = {}
    for g, a in x.items():
        for h, b in y.items():
            k = mul(g, h)
            out[k] = out.get(k, Fraction(0)) + Fraction(a) * Fraction(b)
    return {k: c for k, c in out.items() if c != 0}


def naive_matrix_product(mul, a: list, b: list) -> list:
    """Product of square matrices of {element: coefficient} entries."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry: dict = {}
            for k in range(n):
                for g, c in naive_ring_product(mul, a[i][k], b[k][j]).items():
                    entry[g] = entry.get(g, Fraction(0)) + c
            row.append({g: c for g, c in entry.items() if c != 0})
        out.append(row)
    return out
