"""Concrete finite groups realized from a closed coset table over the
trivial subgroup (regular action), with subgroup generation, kernels, and
basic structure queries.

Element 0 is the identity; the element words are shortlex over the positive
generators (breadth-first Cayley search in declared generator order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .presentations import Presentation
from .todd_coxeter import CosetTable, spanning_tree
from .words import Word


class FiniteGroupError(ValueError):
    pass


class InvalidHomomorphismError(FiniteGroupError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    presentation: Presentation
    gen_perms: tuple[tuple[int, ...], ...]
    inv_gen_perms: tuple[tuple[int, ...], ...]
    words: tuple[Word, ...]

    @property
    def order(self) -> int:
        return len(self.words)

    @property
    def identity(self) -> int:
        return 0

    def generator_element(self, i: int) -> int:
        return self.gen_perms[i][0]

    def elements(self) -> range:
        return range(self.order)

    def mul(self, x: int, y: int) -> int:
        gp = self.gen_perms
        for i, _ in self.words[y].letters:  # shortlex words use positive letters
            x = gp[i][x]
        return x

    def evaluate(self, w: Word, start: int = 0) -> int:
        gp = self.gen_perms
        ip = self.inv_gen_perms
        x = start
        for i, s in w.letters:
            x = gp[i][x] if s == 1 else ip[i][x]
        return x

    def inv(self, x: int) -> int:
        ip = self.inv_gen_perms
        z = 0
        for i, _ in reversed(self.words[x].letters):
            z = ip[i][z]
        return z

    def conjugate(self, x: int, by: int) -> int:
        return self.mul(self.mul(self.inv(by), x), by)

    def commutator(self, x: int, y: int) -> int:
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))

    def element_order(self, x: int) -> int:
        n = 1
        z = x
        while z != 0:
            z = self.mul(z, x)
            n += 1
        return n


def realize(table: CosetTable) -> FiniteGroup:
    """Turn a closed table over the trivial subgroup into a concrete group."""
    if table.subgroup_words:
        raise FiniteGroupError("realize requires a table over the trivial subgroup")
    g = table.presentation.num_generators
    n = table.num_cosets
    gen_perms = tuple(table.column(2 * i) for i in range(g))
    inv_perms = tuple(table.column(2 * i + 1) for i in range(g))
    tree = spanning_tree(table, range(0, 2 * g, 2))  # positive letters only
    if len(tree.order) != n:
        raise FiniteGroupError("generators do not reach every coset")
    words = tuple(Word(ls) for ls in tree.letters())
    return FiniteGroup(table.presentation, gen_perms, inv_perms, words)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]  # sorted

    def __post_init__(self) -> None:
        if not self.elements or self.elements[0] != 0:
            raise FiniteGroupError("a subgroup must contain the identity")
        if tuple(sorted(self.elements)) != self.elements:
            raise FiniteGroupError("subgroup elements must be sorted")
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x in self._members  # type: ignore[attr-defined]

    def is_central(self) -> bool:
        """True when every element commutes with every group generator."""
        G = self.parent
        gens = [G.generator_element(i) for i in range(G.presentation.num_generators)]
        return all(
            G.mul(s, k) == G.mul(k, s) for s in self.elements for k in gens
        )


def _closure(G: FiniteGroup, gens: Iterable[int]) -> list[int]:
    gen_list = [x for x in dict.fromkeys(gens) if x != 0]
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for k in gen_list:
            y = G.mul(x, k)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup(G, tuple(_closure(G, gens)))


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    group_gens = [G.generator_element(i) for i in range(G.presentation.num_generators)]
    current = list(gens)
    while True:
        elements = _closure(G, current)
        members = set(elements)
        new = []
        for s in elements:
            for k in group_gens:
                t = G.conjugate(s, k)
                if t not in members:
                    members.add(t)
                    new.append(t)
        if not new:
            return Subgroup(G, tuple(sorted(members)))
        current.extend(new)


def center(G: FiniteGroup) -> Subgroup:
    gens = [G.generator_element(i) for i in range(G.presentation.num_generators)]
    elems = [
        x for x in G.elements() if all(G.mul(x, k) == G.mul(k, x) for k in gens)
    ]
    return Subgroup(G, tuple(elems))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """The commutator subgroup, computed as the normal closure of the
    commutators of generator pairs (equal to the subgroup generated by all
    commutators)."""
    g = G.presentation.num_generators
    gens = [G.generator_element(i) for i in range(g)]
    comms = [G.commutator(a, b) for a in gens for b in gens]
    return normal_closure(G, comms)


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition into conjugacy classes, each sorted, listed by least element;
    the least element is the canonical representative."""
    gens = [G.generator_element(i) for i in range(G.presentation.num_generators)]
    n = G.order
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = [x]
        seen[x] = True
        queue = deque([x])
        while queue:
            z = queue.popleft()
            for k in gens:
                w = G.conjugate(z, k)
                if not seen[w]:
                    seen[w] = True
                    orbit.append(w)
                    queue.append(w)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def class_representative_map(G: FiniteGroup) -> list[int]:
    reps = [0] * G.order
    for cls in conjugacy_classes(G):
        rep = cls[0]
        for x in cls:
            reps[x] = rep
    return reps


def subgroup_from_elements(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    elems = tuple(sorted(set(elements)))
    if tuple(_closure(G, elems)) != elems:
        raise FiniteGroupError("element set is not closed under the group operation")
    return Subgroup(G, elems)


def intersect(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise FiniteGroupError("subgroups of different parents")
    common = sorted(set(a.elements) & set(b.elements))
    return subgroup_from_elements(a.parent, common)


@dataclass(frozen=True)
class FiniteHom:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.presentation.num_generators:
            raise InvalidHomomorphismError("one image per source generator required")
        if not all(0 <= x < self.target.order for x in self.images):
            raise InvalidHomomorphismError("a generator image is not a target element")

    def apply(self, x: int) -> int:
        T = self.target
        z = 0
        for i, _ in self.source.words[x].letters:
            z = T.mul(z, self.images[i])
        return z

    def verify(self) -> bool:
        """True iff every source relator maps to the identity of the target."""
        T = self.target
        for r in self.source.presentation.relators:
            z = 0
            for i, s in r.letters:
                img = self.images[i] if s == 1 else T.inv(self.images[i])
                z = T.mul(z, img)
            if z != 0:
                return False
        return True


def kernel_and_image(h: FiniteHom) -> tuple[Subgroup, Subgroup]:
    if not h.verify():
        raise InvalidHomomorphismError("generator images do not satisfy the relators")
    kernel_elems = [x for x in h.source.elements() if h.apply(x) == 0]
    kernel = subgroup_from_elements(h.source, kernel_elems)
    image = subgroup_generated(h.target, h.images)
    if kernel.order * image.order != h.source.order:
        raise FiniteGroupError("kernel/image sizes violate Lagrange bookkeeping")
    return kernel, image


def regular_identity_decider(G: FiniteGroup) -> Callable[[Word], bool]:
    """Word problem via the regular action of a realized group."""
    return lambda w: G.evaluate(w) == 0
