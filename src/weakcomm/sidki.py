"""The Sidki double X(G), the canonical maps, and the kernel analyses built
on them.

Given a presentation of G with generators g_1..g_k, the double has those
generators plus commuting partner copies (suffix ``_psi``) and relators

* the relators of G and their partner copies, and
* commutators [w, w_psi]: in the FULL schedule (finite G only, element
  words supplied by a realized group) those of the element words of length
  at most ``SHORT_WORD_LENGTH``, or else one per group element; in the
  GENERATOR_ONLY schedule one per declared generator, which is an explicit
  under-approximation and marks the result PARTIAL.

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

import enum
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from math import lcm
from typing import Callable

from .finite_groups import (
    FiniteGroup,
    FiniteHom,
    Subgroup,
    derived_subgroup,
    intersect,
    kernel_and_image,
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
from .smith import is_perfect
from .todd_coxeter import (
    CosetTable,
    EnumerationLimits,
    DEFAULT_LIMITS,
    LimitExceeded,
    enumerate_cosets,
    spanning_tree,
    word_image,
)
from .words import Word, commutator, shift_word


class SidkiError(ValueError):
    pass


class ScheduleError(SidkiError):
    pass


class PerfectBaseRequired(SidkiError):
    """The audited construction requires a perfect base group."""


PSI_MARKER = "_psi"

# The FULL schedule imposes [w, w_psi] outright for the element words of at
# most this length and certifies the commutators of the longer ones.
SHORT_WORD_LENGTH = 2


class RelatorSchedule(enum.Enum):
    FULL = "full"
    GENERATOR_ONLY = "generators"


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
    schedule: RelatorSchedule
    element_words: tuple[Word, ...] | None
    maps: CanonicalMaps  # not verified; see :func:`canonical_maps`
    # None: no commutator was omitted; True: the omitted ones were certified
    # trivial; False: the certificate failed and every one is imposed.
    certificate: bool | None = None
    # The certifying table of ``double`` over iota_psi(G), when one was made.
    table: CosetTable | None = field(default=None, repr=False, compare=False)

    @property
    def partial(self) -> bool:
        return self.schedule is RelatorSchedule.GENERATOR_ONLY

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
    schedule: RelatorSchedule = RelatorSchedule.FULL,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> DoubleData:
    """Build the double of a presented group.

    For the FULL schedule, ``elements`` must list one word per group element
    (shortlex words from a realized finite group); the identity contributes a
    trivial commutator and is dropped.  GENERATOR_ONLY only imposes the
    generator commutators and flags the result PARTIAL, which poisons any
    claim about the double as a group.

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
    if schedule is RelatorSchedule.FULL:
        if elements is None:
            raise ScheduleError(
                "the FULL schedule needs the element words of a realized finite group"
            )
        words = [w for w in elements if not w.is_identity()]
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
        schedule=schedule,
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
    l_generator_words: tuple[Word, ...]
    d_generator_words: tuple[Word, ...]
    l: Subgroup
    d: Subgroup
    w: Subgroup
    rho: FiniteHom


def subgroup_families(
    data: DoubleData, x_group: FiniteGroup, triple_group: FiniteGroup | None = None
) -> SubgroupFamilies:
    """Compute L (generated by all w^-1 w_psi), D (generated by all
    commutators [x, y_psi]), and W = ker(rho), inside a realized double of a
    finite base.  Raises when the computed kernel differs from D meet L."""
    if data.schedule is not RelatorSchedule.FULL or data.element_words is None:
        raise SidkiError("subgroup families need the FULL schedule of a finite base")
    if x_group.presentation != data.double:
        raise SidkiError("realized group does not match the double presentation")
    if triple_group is None:
        triple_group = realize(enumerate_cosets(direct_power(data.base, 3)))

    words = data.element_words
    l_words = tuple(
        w.inverse() * data.psi_word(w) for w in words if not w.is_identity()
    )
    d_words = tuple(
        commutator(x, data.psi_word(y))
        for x in words
        for y in words
        if not (x.is_identity() or y.is_identity())
    )
    l_sub = subgroup_generated(x_group, [x_group.evaluate(w) for w in l_words])
    d_sub = subgroup_generated(x_group, [x_group.evaluate(w) for w in d_words])

    rho_hom = rho_on_elements(data, x_group, triple_group)
    w_sub, _ = kernel_and_image(rho_hom)
    if intersect(d_sub, l_sub).elements != w_sub.elements:
        raise SidkiError("kernel of rho differs from the intersection of D and L")
    return SubgroupFamilies(l_words, d_words, l_sub, d_sub, w_sub, rho_hom)


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

    The pair (coset action, rho) is faithful on the double because rho is
    injective on iota_psi(G), so commutation and element orders may be read
    off the coset permutations of kernel elements."""

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
    was built with, else a fresh enumeration under ``limits``."""
    if data.schedule is not RelatorSchedule.FULL:
        raise SidkiError("kernel analysis needs the FULL schedule")
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
    rep_letters = tree.letters()

    # kernel elements: cosets whose representative maps to (e, q, q); the
    # unique element of ker(rho) in that coset is iota_psi(q^-1) * rep.
    w_words: list[Word] = []
    for c in range(n):
        p_, q_, r_ = rho_rep[c]  # type: ignore[misc]
        if p_ == 0 and q_ == r_:
            correction = data.psi_word(base_group.words[base_group.inv(q_)])
            w_words.append(correction * Word(rep_letters[c]))
    w_order = len(w_words)

    w_perms = [word_image(table, w) for w in w_words]
    perm_set = set(w_perms)
    if len(perm_set) != w_order:
        raise SidkiError("kernel extraction produced duplicate elements")
    for p1 in w_perms:
        for p2 in w_perms:
            if tuple(p2[z] for z in p1) not in perm_set:
                raise SidkiError("kernel extraction is not closed under products")

    w_orders = tuple(sorted(_perm_order(p) for p in w_perms))
    w_abelian = all(
        [p2[z] for z in p1] == [p1[z] for z in p2] for p1 in w_perms for p2 in w_perms
    )
    gen_cols = [table.column(2 * i) for i in range(data.double.num_generators)]
    w_central = all(
        [col[z] for z in p] == [p[col[z]] for z in range(n)]
        for p in w_perms
        for col in gen_cols
    )

    rho_image_order = _rho_image_order(base_group, g, step)
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


def _perm_order(perm: list[int]) -> int:
    n = len(perm)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        z = start
        while not seen[z]:
            seen[z] = True
            z = perm[z]
            length += 1
        order = lcm(order, length)
    return order


def _rho_image_order(base_group: FiniteGroup, g: int, step) -> int:
    """Order of the subgroup H of base^3 generated by the rho images of the
    double's generators, by Schreier's lemma for the projection of H onto
    its first two coordinates.

    A breadth-first search over the pairs (a, b) keeps, per pair, the third
    coordinate c of its transversal element (a, b, c).  An edge that reaches
    a known pair closes a Schreier generator (e, e, c' c_known^-1); these
    generate the kernel K of the projection, so |H| = #pairs * |K|.  Memory
    is O(|G|^2), never O(|G|^3)."""
    m = base_group.order
    third = [-1] * (m * m)
    third[0] = 0
    pairs = 1
    queue = deque([(0, 0, 0)])
    cols = [2 * i for i in range(2 * g)]  # positive letters generate
    closing: set[tuple[int, int]] = set()
    while queue:
        t = queue.popleft()
        for col in cols:
            nt = step(t, col)
            key = nt[0] * m + nt[1]
            known = third[key]
            if known < 0:
                third[key] = nt[2]
                pairs += 1
                queue.append(nt)
            elif known != nt[2]:
                closing.add((nt[2], known))
    schreier = [base_group.mul(c, base_group.inv(k)) for c, k in closing]
    return pairs * subgroup_generated(base_group, schreier).order


# ---------------------------------------------------------------------------
# Stem-extension audit for perfect bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StemReport:
    base_order: int
    x_order: int
    w_order: int
    rho_image_order: int
    rho_surjective: bool
    w_central: bool
    w_in_derived: bool | None  # None: not computed
    x_perfect: bool
    lagrange_consistent: bool
    w_element_orders: tuple[int, ...]

    @property
    def lemma_consistent(self) -> bool | None:
        """Centrality-with-containment and perfectness of the double must
        stand or fall together for a perfect base.  None when W is central
        but its containment in X' was not computed."""
        if self.w_central and self.w_in_derived is None:
            return None
        stem = self.w_central and self.w_in_derived is True
        return stem == self.x_perfect

    @property
    def all_pass(self) -> bool:
        return (
            self.rho_surjective
            and self.w_central
            and self.w_in_derived is True
            and self.x_perfect
            and self.lagrange_consistent
        )


def stem_audit(
    data: DoubleData,
    base_group: FiniteGroup,
    analysis: KernelAnalysis | None = None,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> StemReport:
    """Audit the extension W -> X -> G^3 for a perfect finite base: rho
    surjective, W central, W inside the derived subgroup, X perfect.

    Reads the coset table of the double over iota_psi(G), reusing
    ``analysis`` when the caller already holds the kernel analysis of
    ``data``.  Refuses a non-perfect base."""
    if not is_perfect(data.base):
        raise PerfectBaseRequired("stem audit requires a perfect base group")
    m = base_group.order
    x_perfect = is_perfect(data.double)

    if analysis is None:
        analysis = analyze_double_kernel(data, base_group, limits)
    elif analysis.table.presentation != data.double or analysis.base_order != m:
        raise SidkiError("supplied kernel analysis is not of this double")
    # X perfect gives W <= X' = X; otherwise containment is not computed.
    return StemReport(
        base_order=m,
        x_order=analysis.x_order,
        w_order=analysis.w_order,
        rho_image_order=analysis.rho_image_order,
        rho_surjective=analysis.rho_image_order == m**3,
        w_central=analysis.w_central,
        w_in_derived=True if x_perfect else None,
        x_perfect=x_perfect,
        lagrange_consistent=analysis.lagrange_consistent,
        w_element_orders=analysis.w_element_orders,
    )


# ---------------------------------------------------------------------------
# Torsion probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionReport:
    orders: tuple[int, ...]  # sorted, one per element

    @property
    def max_order(self) -> int:
        return max(self.orders)

    @property
    def has_involution(self) -> bool:
        return 2 in self.orders

    def multiset(self) -> Counter:
        return Counter(self.orders)


def torsion_probe(w: Subgroup) -> TorsionReport:
    """Element orders of a computed kernel subgroup."""
    orders = tuple(sorted(w.parent.element_order(x) for x in w.elements))
    return TorsionReport(orders)
