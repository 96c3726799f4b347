"""The Sidki double X(G), the canonical maps, and the kernel analyses built
on them.

Given a presentation of G with generators g_1..g_k, the double has those
generators plus commuting partner copies (suffix ``_psi``) and relators

* the relators of G and their partner copies, and
* commutators [w, w_psi]: when the element words of a realized finite G
  are given (the FULL double), those of the words of length at most
  ``SHORT_WORD_LENGTH``, or else one per group element; otherwise one per
  declared generator, which is an explicit under-approximation and marks
  the result PARTIAL.

The FULL double omits the longer commutators only under a certificate
checked at run time: each omitted [w, w_psi] fixes coset 0 of the short
double's table over iota_psi(G).  That proves it trivial, because it then
lies in iota_psi(G) and in ker(rho), and rho(iota_psi(g)) = (1, g, g) makes
the two meet trivially (Sidki, J. Algebra 63, 1980).

The canonical maps are rho (g -> (g,g,1), g_psi -> (1,g,g) into G^3), the
middle retraction mu_rho, the left-right projection omega_rho, and the two
embeddings iota, iota_psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable

from .finite_groups import (
    FiniteGroup,
    FiniteHom,
    Subgroup,
    derived_subgroup,
    intersect,
    kernel_and_image,
    normal_closure,
    realize,
    subgroup_generated,
)
from .presentations import (
    GeneratorMap,
    Presentation,
    direct_power,
    direct_power_identity_decider,
    free_identity_decider,
    relator_identity_decider,
)
from .todd_coxeter import (
    CosetEnumerationError,
    CosetTable,
    EnumerationLimits,
    DEFAULT_LIMITS,
    LimitExceeded,
    closure_audit,
    enumerate_cosets,
    spanning_tree,
    word_columns,
)
from .words import Word, commutator, shift_word


class SidkiError(ValueError):
    pass


PSI_MARKER = "_psi"

# The FULL double imposes [w, w_psi] outright for the element words of at
# most this length and certifies the commutators of the longer ones.
SHORT_WORD_LENGTH = 2


@dataclass(frozen=True)
class CanonicalMaps:
    rho: GeneratorMap
    mu_rho: GeneratorMap
    omega_rho: GeneratorMap
    iota: GeneratorMap
    iota_psi: GeneratorMap
    verified: dict = field(default_factory=dict)  # map name -> bool


@dataclass(frozen=True)
class DoubleData:
    base: Presentation
    double: Presentation
    element_words: tuple[Word, ...] | None
    maps: CanonicalMaps  # not verified; see :func:`canonical_maps`
    # None: no commutator was omitted; True: the omitted ones were certified
    # trivial; False: the certificate failed and every one is imposed.
    certificate: bool | None = None
    # The certifying table of ``double`` over iota_psi(G), when one was made.
    table: CosetTable | None = field(default=None, repr=False, compare=False)

    @property
    def partial(self) -> bool:
        return self.element_words is None

    def psi_word(self, w: Word) -> Word:
        return shift_word(w, self.base.num_generators)


def _psi_names(base: Presentation) -> list[str]:
    taken = set(base.generator_names)
    out = []
    for name in base.generator_names:
        candidate = name + PSI_MARKER
        while candidate in taken:
            candidate += "_"
        out.append(candidate)
        taken.add(candidate)
    return out


def double_presentation(
    base: Presentation,
    elements: tuple[Word, ...] | list[Word] | None = None,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> DoubleData:
    """Build the double of a presented group.

    Given ``elements``, one word per group element (shortlex words from a
    realized finite group) in any order, the double is FULL: the commutators
    follow the words in shortlex order, and the identity's is trivial and
    dropped.  Without them only the generator commutators are imposed and
    the result is flagged PARTIAL, which poisons any claim about the double
    as a group.

    The FULL double imposes [w, w_psi] only for the element words of length
    at most ``SHORT_WORD_LENGTH`` (the short set) when some word is longer.
    It enumerates this short double X_S over iota_psi(G) and checks that
    every omitted [w, w_psi] fixes coset 0.  That proves X_S = X(G): an
    element that fixes coset 0 lies in iota_psi(G); rho is a homomorphism
    from X_S to G^3 that kills every [w, w_psi]; and rho(iota_psi(g)) =
    (1, g, g), so iota_psi(G) meets ker(rho) trivially and the omitted
    commutator is trivial in X_S.  The table is kept in ``DoubleData.table``
    for :func:`analyze_double_kernel`.

    The attempt may hold at most min(``limits.max_cosets``, |G|^3) live
    cosets and ``limits.max_definitions`` definitions; that is the bound on
    what a failed attempt costs, never a claim.  A hit limit or a commutator
    that moves coset 0 makes the double impose every element's commutator,
    with no enumeration, and sets ``certificate`` to False."""
    g = base.num_generators
    names = list(base.generator_names) + _psi_names(base)
    base_relators = list(base.relators) + [shift_word(r, g) for r in base.relators]

    def presented(words) -> Presentation:
        commutators = [commutator(w, shift_word(w, g)) for w in words]
        return Presentation.make(names, base_relators + commutators)

    certificate = table = None
    if elements is not None:
        # shortlex, so the double does not hang on how the base was numbered
        words = sorted((w for w in elements if w.letters), key=lambda w: (len(w), w.letters))
        short = [w for w in words if len(w) <= SHORT_WORD_LENGTH]
        if len(short) < len(words):
            budget = replace(limits, max_cosets=min(limits.max_cosets, len(elements) ** 3))
            double = presented(short)
            table = _certified_table(double, words, g, budget)
            certificate = table is not None
            if not certificate:
                double = presented(words)
        else:
            double = presented(words)
    else:
        double = presented(Word.gen(i) for i in range(g))

    data = DoubleData(
        base=base,
        double=double,
        element_words=tuple(elements) if elements is not None else None,
        maps=_build_maps(base, double, g),
        certificate=certificate,
        table=table,
    )
    _check_retraction(data)
    return data


def _certified_table(
    short_double: Presentation,
    words: list[Word],
    g: int,
    limits: EnumerationLimits,
) -> CosetTable | None:
    """The table of ``short_double`` over iota_psi(G) when every [w, w_psi]
    with w in ``words`` longer than ``SHORT_WORD_LENGTH`` fixes coset 0; None
    when one does not or a limit is hit.

    A commutator that fixes coset 0 lies in iota_psi(G), and it lies in
    ker(rho), which meets iota_psi(G) trivially; so it is trivial.  One
    trace per word costs O(sum of |w|)."""
    try:
        table = enumerate_cosets(short_double, _psi_generators(g), limits)
    except LimitExceeded:
        return None
    for w in words:
        if len(w) > SHORT_WORD_LENGTH and table.trace(0, commutator(w, shift_word(w, g))):
            return None
    return table


def _psi_generators(g: int) -> tuple[Word, ...]:
    return tuple(Word.gen(g + i) for i in range(g))


def _build_maps(base: Presentation, double: Presentation, g: int) -> CanonicalMaps:
    g3 = direct_power(base, 3)
    g2 = direct_power(base, 2)
    rho_images = []
    omega_images = []
    mu_images = []
    for i in range(g):  # base generators: diagonal-left
        rho_images.append(Word.gen(i) * Word.gen(g + i))
        omega_images.append(Word.gen(i))
        mu_images.append(Word.gen(i))
    for i in range(g):  # partner generators: diagonal-right
        rho_images.append(Word.gen(g + i) * Word.gen(2 * g + i))
        omega_images.append(Word.gen(g + i))
        mu_images.append(Word.gen(i))
    return CanonicalMaps(
        rho=GeneratorMap(double, g3, tuple(rho_images)),
        mu_rho=GeneratorMap(double, base, tuple(mu_images)),
        omega_rho=GeneratorMap(double, g2, tuple(omega_images)),
        iota=GeneratorMap(base, double, tuple(Word.gen(i) for i in range(g))),
        iota_psi=GeneratorMap(base, double, tuple(Word.gen(g + i) for i in range(g))),
    )


def _check_retraction(data: DoubleData) -> None:
    # mu_rho after iota must be the identity on base generators.
    iota = data.maps.iota
    mu = data.maps.mu_rho
    for i in range(data.base.num_generators):
        if mu.apply(iota.images[i]) != Word.gen(i):
            raise SidkiError("retraction check failed: mu_rho(iota(g)) != g")


def canonical_maps(
    data: DoubleData, base_identity: Callable[[Word], bool] | None = None
) -> CanonicalMaps:
    """Return the five canonical maps, verifying each on all source relators
    when a word-problem decider for the base is available.

    ``base_identity`` decides w = e over the base presentation; pass
    :func:`weakcomm.finite_groups.regular_identity_decider` of a realized
    base, or omit it for a free base.  Verification failure raises (it
    signals a constructor bug); unverifiable maps are reported in
    ``verified`` as False without an error."""
    maps = data.maps
    g = data.base.num_generators
    if base_identity is None and not data.base.relators:
        base_identity = free_identity_decider(data.base)

    verified: dict[str, bool] = {}
    if base_identity is not None:
        deciders = {
            "rho": direct_power_identity_decider(base_identity, 3, g),
            "mu_rho": base_identity,
            "omega_rho": direct_power_identity_decider(base_identity, 2, g),
        }
        for name, decider in deciders.items():
            if not getattr(maps, name).verify(decider):
                raise SidkiError(f"map {name} fails on a double relator")
            verified[name] = True
    else:
        verified.update({"rho": False, "mu_rho": False, "omega_rho": False})

    # The embeddings send base relators to relators of the double (or their
    # partner copies), so a syntactic membership check suffices.
    syntactic = relator_identity_decider(data.double)
    for name in ("iota", "iota_psi"):
        if not getattr(maps, name).verify(syntactic):
            raise SidkiError(f"map {name} fails on a base relator")
        verified[name] = True

    return replace(maps, verified=verified)


# ---------------------------------------------------------------------------
# Subgroup families L, D, W inside a realized double
# ---------------------------------------------------------------------------


def rho_on_elements(
    data: DoubleData, x_group: FiniteGroup, triple_group: FiniteGroup
) -> FiniteHom:
    """rho as a homomorphism from a realized double to a realized G^3."""
    images = tuple(triple_group.evaluate(img) for img in data.maps.rho.images)
    return FiniteHom(x_group, triple_group, images)


@dataclass(frozen=True)
class SubgroupFamilies:
    l: Subgroup
    d: Subgroup
    w: Subgroup
    rho: FiniteHom


def subgroup_families(
    data: DoubleData, x_group: FiniteGroup, triple_group: FiniteGroup | None = None
) -> SubgroupFamilies:
    """Compute L (generated by all w^-1 w_psi), D (generated by all
    commutators [x, y_psi]), and W = ker(rho), inside a realized double of a
    finite base.  Raises when the computed kernel differs from D meet L.

    D = [iota(G), iota_psi(G)] is the normal closure in X of the commutators
    [g_i, g_j_psi] of generators, because X is generated by both copies."""
    if data.partial:
        raise SidkiError("subgroup families need the FULL double of a finite base")
    if x_group.presentation != data.double:
        raise SidkiError("realized group does not match the double presentation")
    if triple_group is None:
        triple_group = realize(enumerate_cosets(direct_power(data.base, 3)))

    l_sub = subgroup_generated(
        x_group, [x_group.evaluate(w.inverse() * data.psi_word(w)) for w in data.element_words]
    )
    g = data.base.num_generators
    gen = x_group.generator_element
    d_sub = normal_closure(
        x_group, [x_group.commutator(gen(i), gen(g + j)) for i in range(g) for j in range(g)]
    )

    rho_hom = rho_on_elements(data, x_group, triple_group)
    w_sub, _ = kernel_and_image(rho_hom)
    if intersect(d_sub, l_sub).elements != w_sub.elements:
        raise SidkiError("kernel of rho differs from the intersection of D and L")
    return SubgroupFamilies(l_sub, d_sub, w_sub, rho_hom)


# ---------------------------------------------------------------------------
# Identity witnesses inside G x G x G
# ---------------------------------------------------------------------------


def identity_witness(carrier, u, v, x, y) -> bool:
    """Check, entirely inside triples over the carrier, that

    * ([u,v], e, e) equals the image of u^-1 u_psi * v^-1 v_psi * uv ((uv)^-1)_psi,
    * the image of [x, y_psi] equals (e, [x,y], e),

    where a base element w maps to (w, w, e) and its partner to (e, w, w)."""
    e = carrier.identity
    mul = carrier.mul
    inv = carrier.inv

    def tmul(s, t):
        return (mul(s[0], t[0]), mul(s[1], t[1]), mul(s[2], t[2]))

    def tinv(s):
        return (inv(s[0]), inv(s[1]), inv(s[2]))

    def left(w):
        return (w, w, e)

    def right(w):
        return (e, w, w)

    comm_uv = mul(mul(inv(u), inv(v)), mul(u, v))
    uv = mul(u, v)
    lhs1 = (comm_uv, e, e)
    rhs1 = tmul(
        tmul(tmul(tinv(left(u)), right(u)), tmul(tinv(left(v)), right(v))),
        tmul(left(uv), right(inv(uv))),
    )
    first = lhs1 == rhs1

    comm_xy = mul(mul(inv(x), inv(y)), mul(x, y))
    lhs2 = tmul(tmul(tmul(tinv(left(x)), tinv(right(y))), left(x)), right(y))
    second = lhs2 == (e, comm_xy, e)
    return first and second


# ---------------------------------------------------------------------------
# Kernel analysis through a coset enumeration over the partner copy of G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelAnalysis:
    """ker(rho) extracted from the enumeration of the double over iota_psi(G).

    W meets iota_psi(G) trivially, because rho is injective on
    iota_psi(G); so an element of W is trivial iff it fixes coset 0.  Closure, commutation
    and element orders are read from traces of kernel words from coset 0,
    never from coset permutations."""

    index: int
    base_order: int
    x_order: int
    w_order: int
    w_words: tuple[Word, ...]
    w_element_orders: tuple[int, ...]
    w_abelian: bool
    w_central: bool
    rho_image_order: int
    table: CosetTable

    @property
    def lagrange_consistent(self) -> bool:
        return self.x_order == self.w_order * self.rho_image_order


def analyze_double_kernel(
    data: DoubleData,
    base_group: FiniteGroup,
    limits: EnumerationLimits = DEFAULT_LIMITS,
    table: CosetTable | None = None,
) -> KernelAnalysis:
    """ker(rho), |X| and |im rho| from the table of the double over
    iota_psi(G): ``table`` when given, else the certifying table the double
    was built with, else a fresh enumeration under ``limits``.  A given
    table whose columns differ from the certifying table's must pass
    :func:`closure_audit`."""
    if data.partial:
        raise SidkiError("kernel analysis needs the FULL double")
    if base_group.presentation != data.base:
        raise SidkiError("realized base does not match the double's base")
    g = data.base.num_generators
    m = base_group.order

    psi_gens = _psi_generators(g)
    if table is None:
        if data.table is not None:
            table = data.table
        else:
            table = enumerate_cosets(data.double, psi_gens, limits)
    elif table.subgroup_words != psi_gens or table.presentation != data.double:
        raise SidkiError("supplied table does not enumerate the double over iota_psi(G)")
    elif data.table is None or table.columns != data.table.columns:
        try:
            closure_audit(table)
        except CosetEnumerationError as exc:
            raise SidkiError(f"supplied table fails the closure audit: {exc}") from None
    n = table.num_cosets
    x_order = n * m

    gp = base_group.gen_perms
    ip = base_group.inv_gen_perms

    def step(triple, col):
        gen, sign = col // 2, col % 2 == 0
        p_, q_, r_ = triple
        if gen < g:
            perm = gp[gen] if sign else ip[gen]
            return (perm[p_], perm[q_], r_)
        perm = gp[gen - g] if sign else ip[gen - g]
        return (p_, perm[q_], perm[r_])

    # rho images of the coset representatives, carried along the tree edges
    tree = spanning_tree(table, range(table.num_columns))
    rho_rep: list[tuple | None] = [None] * n
    rho_rep[0] = (0, 0, 0)
    for y in tree.order[1:]:
        rho_rep[y] = step(rho_rep[tree.parent[y]], tree.column[y])

    # kernel elements: cosets whose representative maps to (e, q, q); the
    # unique element of ker(rho) in that coset is iota_psi(q^-1) * rep.
    w_cosets: list[int] = []
    w_words: list[Word] = []
    for c in range(n):
        p_, q_, r_ = rho_rep[c]  # type: ignore[misc]
        if p_ == 0 and q_ == r_:
            correction = data.psi_word(base_group.words[base_group.inv(q_)])
            w_cosets.append(c)
            w_words.append(correction * Word(tree.path(c)))
    w_order = len(w_words)

    gens = _kernel_generators(table, w_cosets, w_words, step)
    w_orders = tuple(sorted(_coset_order(table, w) for w in w_words))
    w_abelian = all(
        table.trace(0, commutator(s, t)) == 0 for i, s in enumerate(gens) for t in gens[:i]
    )
    # W is normal, so it is central iff its generators commute with X's
    w_central = all(
        table.trace(0, commutator(s, Word.gen(x))) == 0
        for s in gens
        for x in range(data.double.num_generators)
    )

    rho_image_order = _rho_image_order(base_group)
    # Sidki (1980): im(rho) = {(a, b, c) : a b^-1 c in G'}, of order |G|^2 |G'|.
    expected = m * m * derived_subgroup(base_group).order
    if rho_image_order != expected:
        raise SidkiError(
            f"|im rho| = {rho_image_order} contradicts |G|^2 |G'| = {expected}"
        )
    return KernelAnalysis(
        index=n,
        base_order=m,
        x_order=x_order,
        w_order=w_order,
        w_words=tuple(w_words),
        w_element_orders=w_orders,
        w_abelian=w_abelian,
        w_central=w_central,
        rho_image_order=rho_image_order,
        table=table,
    )


def _kernel_generators(
    table: CosetTable, cosets: list[int], words: list[Word], step
) -> list[Word]:
    """Generators of W picked greedily from ``words``, where ``words[i]``
    names the kernel coset ``cosets[i]``; ``step`` moves a rho triple by a
    column.  Raises unless each word maps to (e, e, e) under rho and takes
    coset 0 to its coset, and unless the products of the generators, traced
    from coset 0, stay in the kernel cosets.  As W meets iota_psi(G)
    trivially, the words are then |W| distinct elements of W, and the
    generators generate W.  Costs O(|W| * |generators| * max |w|) steps."""
    kernel = set(cosets)
    gens: list[Word] = []
    orbit = [0]  # the cosets 0 * x for x in <gens>
    reached = {0}
    for c, w in zip(cosets, words):
        if reduce(step, word_columns(w), (0, 0, 0)) != (0, 0, 0) or table.trace(0, w) != c:
            raise SidkiError("a kernel word is not the element of ker(rho) in its coset")
        if c in reached:
            continue
        gens.append(w)
        # the new generator on the old orbit, every generator on what is new
        old = len(orbit)
        for i, x in enumerate(orbit):  # the orbit grows while it is scanned
            for s in gens if i >= old else gens[-1:]:
                y = table.trace(x, s)
                if y not in reached:
                    if y not in kernel:
                        raise SidkiError("kernel extraction is not closed under products")
                    reached.add(y)
                    orbit.append(y)
    return gens


def _coset_order(table: CosetTable, w: Word) -> int:
    """The order of an element w of W: the least k with 0 * w^k = 0."""
    k, coset = 1, table.trace(0, w)
    while coset != 0:
        coset = table.trace(coset, w)
        k += 1
    return k


def _rho_image_order(base_group: FiniteGroup) -> int:
    """Order of im(rho), counted on the graph Gamma of its right cosets of
    rho(iota_psi(G)) = {(e, q, q)}.

    The coset through (x, y, z) is named one-to-one by the vertex
    (x, z^-1 y); iota(a) moves (x, u) to (x a, u a), and iota_psi(a) moves it
    to (x, a^-1 u a).  rho is injective on iota_psi(G), so |im rho| is |G|
    times the number of vertices reached from (e, e).  The breadth-first
    search takes O(|G| |G'| g) steps for g generators and O(|G|^2) bytes."""
    m = base_group.order
    gp = base_group.gen_perms
    conj = [base_group.conjugation_table(j) for j in range(len(gp))]
    seen = bytearray(m * m)
    seen[0] = 1
    queue = [0]  # vertices x * m + u, in visit order
    for key in queue:  # the queue grows while it is scanned
        x, u = divmod(key, m)
        for a, c in zip(gp, conj):
            for k in (a[x] * m + a[u], x * m + c[u]):
                if not seen[k]:
                    seen[k] = 1
                    queue.append(k)
    return len(queue) * m


# ---------------------------------------------------------------------------
# Torsion probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionReport:
    orders: tuple[int, ...]  # sorted, one per element


def torsion_probe(w: Subgroup) -> TorsionReport:
    """Element orders of a computed kernel subgroup."""
    orders = tuple(sorted(w.parent.element_order(x) for x in w.elements))
    return TorsionReport(orders)
