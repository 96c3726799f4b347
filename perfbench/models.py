"""The benchmark's own models of the base groups.

Each base is a presentation, written as relators of (generator, exponent)
syllables, together with a concrete permutation group whose generators
satisfy every relator: permutations of a few points, or 2x2 matrices over a
prime field acting on the nonzero vectors.  Nothing here imports weakcomm,
so the orders |G| and |G'|, and the orders of rho-images in G^3, that the
checks compare with are computed apart from the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

Perm = tuple[int, ...]
Syllables = tuple[tuple[int, int], ...]
Letters = tuple[tuple[int, int], ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        length = 0
        z = start
        while not seen[z]:
            seen[z] = True
            z = p[z]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def closure(gens: list[Perm], degree: int) -> set[Perm]:
    """Every product of the generators (a finite group is closed under them)."""
    identity = tuple(range(degree))
    seen = {identity}
    stack = [identity]
    while stack:
        x = stack.pop()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def expand(syllables: Syllables) -> Letters:
    """Freely reduced letters (generator, +1 or -1) of a syllable word."""
    out: list[tuple[int, int]] = []
    for gen, exp in syllables:
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if out and out[-1] == (gen, -sign):
                out.pop()
            else:
                out.append((gen, sign))
    return tuple(out)


def evaluate(letters: Letters, images: tuple[Perm, ...]) -> Perm:
    x = tuple(range(len(images[0])))
    for gen, sign in letters:
        x = compose(x, images[gen] if sign == 1 else inverse(images[gen]))
    return x


def matrix_perm(m: tuple[tuple[int, int], tuple[int, int]], p: int) -> Perm:
    """A 2x2 matrix over F_p as a permutation of the nonzero vectors."""
    vectors = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}
    (a, b), (c, d) = m
    return tuple(index[((a * x + b * y) % p, (c * x + d * y) % p)] for x, y in vectors)


def cycle(n: int) -> Perm:
    return tuple((i + 1) % n for i in range(n))


@dataclass(frozen=True)
class Base:
    """A presented base group and the images of its generators in a model.

    ``schur_multiplier`` is |M(G)| from the literature, given for the perfect
    bases only: the kernel W of a perfect base is central and |W| divides
    |M(G)|^3."""

    name: str
    generators: int
    relators: tuple[Syllables, ...]
    images: tuple[Perm, ...]
    schur_multiplier: int | None = None


_A, _B = 0, 1
_AB = ((_A, 1), (_B, 1))


def _triangle(p: int, q: int, r: int) -> tuple[Syllables, ...]:
    return (((_A, p),), ((_B, q),), _AB * r)


def _cyclic(n: int) -> Base:
    return Base(f"C{n}", 1, (((_A, n),),), (cycle(n),))


BASES: dict[str, Base] = {
    b.name: b
    for b in [
        *(_cyclic(n) for n in range(2, 7)),
        Base(
            "Klein",
            2,
            (((_A, 2),), ((_B, 2),), ((_A, -1), (_B, -1), (_A, 1), (_B, 1))),
            ((1, 0, 3, 2), (2, 3, 0, 1)),
        ),
        Base(
            "C2xC4",
            2,
            (((_A, 2),), ((_B, 4),), ((_A, -1), (_B, -1), (_A, 1), (_B, 1))),
            ((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)),
        ),
        Base("S3", 2, _triangle(2, 3, 2), ((1, 0, 2), (1, 2, 0))),
        Base("D4", 2, (((_A, 2),), ((_B, 4),), _AB * 2), ((0, 3, 2, 1), cycle(4))),
        Base(
            "Q8",
            2,
            (((_A, 4),), ((_A, 2), (_B, -2)), ((_B, -1), (_A, 1), (_B, 1), (_A, 1))),
            (matrix_perm(((0, 2), (1, 0)), 3), matrix_perm(((1, 1), (1, 2)), 3)),
        ),
        Base("D5", 2, (((_A, 2),), ((_B, 5),), _AB * 2), ((0, 4, 3, 2, 1), cycle(5))),
        Base("A4", 2, _triangle(2, 3, 3), ((1, 0, 3, 2), (0, 2, 3, 1))),
        Base("S4", 2, _triangle(2, 3, 4), ((1, 0, 2, 3), (0, 2, 3, 1))),
        Base(
            "A5",
            2,
            _triangle(2, 3, 5),
            ((1, 0, 3, 2, 4), (0, 2, 4, 3, 1)),
            schur_multiplier=2,
        ),
        Base(
            "SL(2,5)",
            2,
            (
                ((_A, 4),),
                ((_A, 2), (_B, -3)),
                ((_A, 2),) + ((_B, -1), (_A, -1)) * 5,
            ),
            (matrix_perm(((0, 1), (4, 0)), 5), matrix_perm(((0, 1), (4, 1)), 5)),
            schur_multiplier=1,
        ),
    ]
}


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Model:
    base: Base
    order: int
    derived_order: int

    @property
    def perfect(self) -> bool:
        return self.order == self.derived_order

    def rho_order(self, letters: Letters) -> int:
        """Order of rho(w) in G^3, where a base letter g maps to (g, g, 1)
        and its partner (index shifted by the base rank) to (1, g, g)."""
        k = self.base.generators
        degree = len(self.base.images[0])
        identity = tuple(range(degree))
        triple = [identity, identity, identity]
        for gen, sign in letters:
            g = self.base.images[gen % k]
            if sign == -1:
                g = inverse(g)
            slots = (0, 1) if gen < k else (1, 2)
            for s in slots:
                triple[s] = compose(triple[s], g)
        return lcm(*(perm_order(p) for p in triple))


def build_model(base: Base) -> Model:
    """Check the model satisfies every relator, then count |G| and |G'|."""
    degree = len(base.images[0])
    identity = tuple(range(degree))
    for relator in base.relators:
        if evaluate(expand(relator), base.images) != identity:
            raise ModelError(f"model of {base.name} violates a relator")
    elements = closure(list(base.images), degree)
    commutators = {
        compose(compose(inverse(x), inverse(y)), compose(x, y))
        for x in base.images
        for y in base.images
    }
    # G' is the normal closure of the generator commutators.
    gens = list(commutators)
    while True:
        derived = closure(gens, degree)
        fresh = [
            c
            for c in (compose(compose(inverse(g), x), g) for x in gens for g in base.images)
            if c not in derived
        ]
        if not fresh:
            break
        gens.extend(fresh)
    return Model(base, len(elements), len(derived))
