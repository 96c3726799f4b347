"""Concrete finite groups realized from a closed coset table over the
trivial subgroup (regular action), with subgroup generation, kernels, and
basic structure queries.

Element 0 is the identity; the element words are shortlex over the positive
generators (breadth-first Cayley search in declared generator order).  The
group keeps that search's spanning tree, not the words, so a whole-group
table (a left translate, conjugation by a generator, a homomorphism's
values) is carried along the tree edges in O(|G|) steps instead of one word
walk per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Sequence

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
    # The breadth-first spanning tree of the shortlex words: the elements in
    # visit order, and per element y > 0 its parent and the generator i of
    # the tree edge, y = parent[y] * g_i (the identity has generator -1).
    tree_order: tuple[int, ...]
    tree_parent: tuple[int, ...]
    tree_generator: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.tree_order)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The shortlex words, built on first read.  A tree word extends its
        parent's by one positive letter, so the product only appends it."""
        letters = [Word.gen(i) for i in range(self.presentation.num_generators)]
        words = [Word.identity()] * self.order
        for y in self.tree_order[1:]:
            words[y] = words[self.tree_parent[y]] * letters[self.tree_generator[y]]
        return tuple(words)

    def path(self, x: int) -> list[int]:
        """The generators of x's shortlex word, read off the tree."""
        gens = []
        while x:
            gens.append(self.tree_generator[x])
            x = self.tree_parent[x]
        return gens[::-1]

    def generator_element(self, i: int) -> int:
        return self.gen_perms[i][0]

    def elements(self) -> range:
        return range(self.order)

    def mul(self, x: int, y: int) -> int:
        gp = self.gen_perms
        for i in self.path(y):
            x = gp[i][x]
        return x

    def evaluate(self, w: Word) -> int:
        gp = self.gen_perms
        ip = self.inv_gen_perms
        x = 0
        for i, s in w.letters:
            x = gp[i][x] if s == 1 else ip[i][x]
        return x

    def inv(self, x: int) -> int:
        ip = self.inv_gen_perms
        z = 0
        for i in reversed(self.path(x)):
            z = ip[i][z]
        return z

    def commutator(self, x: int, y: int) -> int:
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))

    def element_order(self, x: int) -> int:
        n = 1
        z = x
        while z != 0:
            z = self.mul(z, x)
            n += 1
        return n

    def along_tree(self, root: int, steps: Sequence[Sequence[int]]) -> list[int]:
        """The table t with t[0] = root and t[y] = steps[i][t[parent]] for
        each tree edge parent -> y by generator i.  With ``gen_perms`` as
        steps it is the left translate x -> root * x."""
        table = [root] * self.order
        parent = self.tree_parent
        generator = self.tree_generator
        for y in self.tree_order[1:]:
            table[y] = steps[generator[y]][table[parent[y]]]
        return table

    def right_multiplication(self, x: int) -> tuple[int, ...]:
        """The permutation z -> z * x: the generator columns along the word
        of x, composed with ``map``."""
        perm: Iterable[int] = range(self.order)
        for i in self.path(x):
            perm = map(self.gen_perms[i].__getitem__, perm)
        return tuple(perm)

    def conjugation_table(self, j: int) -> tuple[int, ...]:
        """The permutation x -> g_j^-1 * x * g_j."""
        left = self.along_tree(self.inv_gen_perms[j][0], self.gen_perms)
        return tuple(map(self.gen_perms[j].__getitem__, left))


def realize(table: CosetTable) -> FiniteGroup:
    """Turn a closed table over the trivial subgroup into a concrete group
    whose generator permutations are the table's own column tuples."""
    if table.subgroup_words:
        raise FiniteGroupError("realize requires a table over the trivial subgroup")
    columns = table.columns
    tree = spanning_tree(table, range(0, len(columns), 2))  # positive letters only
    if len(tree.order) != table.num_cosets:
        raise FiniteGroupError("generators do not reach every coset")
    return FiniteGroup(
        table.presentation,
        columns[0::2],
        columns[1::2],
        tuple(tree.order),
        tuple(tree.parent),
        tuple(c // 2 for c in tree.column),
    )


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]  # sorted

    def __post_init__(self) -> None:
        if not self.elements or self.elements[0] != 0:
            raise FiniteGroupError("a subgroup must contain the identity")
        if tuple(sorted(self.elements)) != self.elements:
            raise FiniteGroupError("subgroup elements must be sorted")

    @property
    def order(self) -> int:
        return len(self.elements)


class _Generated:
    """A subgroup grown one generator at a time.  ``elements`` (identity
    first) is closed under right multiplication by every generator added so
    far, each walked as the generator columns along its word."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.elements = [0]
        self.members = {0}
        self.walks: list[list[tuple[int, ...]]] = []

    def add(self, k: int) -> bool:
        """Join k to the generators; False when k is already a member."""
        if k in self.members:
            return False
        gp = self.group.gen_perms
        self.walks.append([gp[i] for i in self.group.path(k)])
        old = len(self.elements)
        # the old elements are closed under the old generators, so they need
        # only the new one; each new element needs every generator
        self._extend(self.elements[:old], self.walks[-1:])
        self._extend(islice(self.elements, old, None), self.walks)
        return True

    def _extend(self, xs: Iterable[int], walks: list[list[tuple[int, ...]]]) -> None:
        elements, members = self.elements, self.members
        for x in xs:  # may be a scan of ``elements`` that takes in what it appends
            for walk in walks:
                y = x
                for perm in walk:
                    y = perm[y]
                if y not in members:
                    members.add(y)
                    elements.append(y)


def _closure(G: FiniteGroup, gens: Iterable[int]) -> list[int]:
    sub = _Generated(G)
    for k in gens:
        sub.add(k)
    return sorted(sub.elements)


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    return Subgroup(G, tuple(_closure(G, gens)))


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The smallest normal subgroup containing ``gens``.  Only the gathered
    generators are conjugated: a subgroup is normal once the conjugate of
    each of its generators by each group generator lies in it."""
    gp, ip = G.gen_perms, G.inv_gen_perms
    sub = _Generated(G)
    pending = list(gens)
    while pending:
        s = pending.pop()
        if sub.add(s):
            pending += [gp[j][G.mul(ip[j][0], s)] for j in range(len(gp))]
    return Subgroup(G, tuple(sorted(sub.elements)))


def center(G: FiniteGroup) -> Subgroup:
    """The elements fixed by conjugation with every generator."""
    central: Iterable[int] = G.elements()
    for j in range(G.presentation.num_generators):
        t = G.conjugation_table(j)
        central = [x for x in central if t[x] == x]
    return Subgroup(G, tuple(central))


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
    tables = [G.conjugation_table(j) for j in range(G.presentation.num_generators)]
    seen = [False] * G.order
    classes = []
    for x in G.elements():
        if seen[x]:
            continue
        seen[x] = True
        orbit = [x]
        for z in orbit:  # the scan takes in what it appends
            for t in tables:
                w = t[z]
                if not seen[w]:
                    seen[w] = True
                    orbit.append(w)
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
        for i in self.source.path(x):
            z = T.mul(z, self.images[i])
        return z

    def values(self) -> list[int]:
        """The image of every source element, carried along the source's
        spanning tree: h(x * g_i) = h(x) * images[i]."""
        T = self.target
        return self.source.along_tree(0, [T.right_multiplication(k) for k in self.images])

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
    values = h.values()
    kernel = subgroup_from_elements(h.source, [x for x, v in enumerate(values) if v == 0])
    image = Subgroup(h.target, tuple(sorted(set(values))))
    if kernel.order * image.order != h.source.order:
        raise FiniteGroupError("kernel/image sizes violate Lagrange bookkeeping")
    return kernel, image


def regular_identity_decider(G: FiniteGroup) -> Callable[[Word], bool]:
    """Word problem via the regular action of a realized group."""
    return lambda w: G.evaluate(w) == 0
