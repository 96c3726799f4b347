"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: permutation groups
are realized on explicit points with orders counted by orbit-stabilizer,
invariant-factor products are cross-checked against gcds of k x k minors,
and the FULL double is written out letter by letter, without
``weakcomm.sidki``.
"""

from __future__ import annotations

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
