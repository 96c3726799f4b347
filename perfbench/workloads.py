"""The three workloads of the benchmark.

Each workload is a list of operations.  An operation calls the public
functions of the ``weakcomm`` modules (reached through ``lib``, the modules
as imported during set-up), wraps each call in a span named after its layer,
and returns an observation.  Its check compares the observation with the
models of ``models.py`` or with properties the method must have; checks run
outside the timed region.

The seed changes only what the program is given: generator names and the
spelling of every presentation, the random conjugators of the idempotent
corpus, the torsion elements and the ring elements of the product pairs.
The ladder, the list of realized bases and the amount of work per round are
fixed, so the exact enumerator counts repeat on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from random import Random
from typing import Any, Callable

import models

WORKLOADS = ("kernel-ladder", "realized-doubles", "idempotent-audit")

LADDER = ("S4", "A5", "SL(2,5)")
REALIZED = ("C2", "C3", "C4", "C5", "C6", "Klein", "C2xC4", "S3", "D4", "Q8", "D5", "A4", "S4")
TORSION_BASES = ("Klein", "A4")
SMOKE_BASES = ("C2", "Klein", "A4")


@dataclass(frozen=True)
class AuditShape:
    """How much work one idempotent-audit round does."""

    depth: int  # steps of random_invertible
    count: int  # conjugated idempotents per carrier (Z^2, F_2)
    work_band: tuple[int, int]  # squaring work of each, see squaring_work()
    torsion_per_order: int  # torsion elements per element order, per base
    pairs: int  # product pairs per carrier
    terms: int  # terms per ring element of a pair
    pair_carrier: str  # the finite carrier of the pairs


FULL_AUDIT = AuditShape(7, 10, (150_000, 250_000), 3, 120, 4, "C6")
SMOKE_AUDIT = AuditShape(3, 2, (200, 4000), 1, 4, 2, "C2")


# ---------------------------------------------------------------------------
# Inputs: presentations spelled from the seed
# ---------------------------------------------------------------------------

_NAME_POOL = "abcdfghkmnpqrstuvwxyz"


def _spell_run(name: str, sign: int, count: int, rng: Random) -> str:
    if count == 1 and sign == 1 and rng.random() < 0.7:
        return name
    if count > 1 and rng.random() < 0.3:
        single = name if sign == 1 else f"{name}^-1"
        return "*".join([single] * count)
    return f"{name}^{sign * count}"


def _spell_letters(letters: models.Letters, names: list[str], rng: Random) -> str:
    sep = rng.choice(("*", " * "))
    return sep.join(
        _spell_run(names[gen], sign, len(list(run)), rng)
        for (gen, sign), run in groupby(letters)
    )


def spell(base: models.Base, rng: Random) -> tuple[str, tuple[str, ...]]:
    """A presentation text of ``base`` with seeded generator names and
    seeded, equivalent spellings of each relator (powers written out or
    not, periodic relators as ``(u)^k`` or not)."""
    names = [
        ch + (str(rng.randrange(10)) if rng.random() < 0.3 else "")
        for ch in rng.sample(_NAME_POOL, base.generators)
    ]
    relators = []
    for syllables in base.relators:
        letters = models.expand(syllables)
        n = len(letters)
        period = next(k for k in range(1, n + 1) if n % k == 0 and letters[:k] * (n // k) == letters)
        if period < n and rng.random() < 0.5:
            relators.append(f"({_spell_letters(letters[:period], names, rng)})^{n // period}")
        else:
            relators.append(_spell_letters(letters, names, rng))
    return f"< {', '.join(names)} | {', '.join(relators)} >", tuple(names)


@dataclass
class Item:
    """One base: its model, its seeded text, and (after set-up) the
    program's parse of that text."""

    base: models.Base
    model: models.Model
    text: str
    names: tuple[str, ...]
    presentation: Any = None


def parse_problems(item: Item) -> list[str]:
    p = item.presentation
    want = [models.expand(r) for r in item.base.relators]
    if p.generator_names != item.names or [r.letters for r in p.relators] != want:
        return [f"{item.base.name}: parsed presentation differs from {item.text!r}"]
    return []


def make_items(workload: str, seed: int, smoke: bool = False) -> list[Item]:
    rng = Random(f"{workload}/{seed}")
    if smoke:
        names = SMOKE_BASES
    elif workload == "kernel-ladder":
        names = LADDER
    elif workload == "realized-doubles":
        names = REALIZED
    else:
        names = TORSION_BASES + (FULL_AUDIT.pair_carrier,)
    items = []
    for name in names:
        base = models.BASES[name]
        text, gen_names = spell(base, rng)
        items.append(Item(base, models.build_model(base), text, gen_names))
    return items


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable[[Any, Any, dict], Any]  # (lib, tracer, round state) -> observation
    check: Callable[[Any, Any], list[str]]  # (observation, lib) -> problems
    summary: Callable[[Any], dict] = lambda obs: {}


def _realize(lib, tr, presentation):
    with tr.span("todd_coxeter.enumerate"):
        table = lib.tc.enumerate_cosets(presentation)
    tr.enumeration(table)
    with tr.span("finite_groups.realize"):
        return lib.fg.realize(table)


def _double_and_cube(lib, tr, p):
    """G, the FULL double of G, X(G) and G^3, each finite one realized."""
    g = _realize(lib, tr, p)
    with tr.span("sidki.double"):
        data = lib.sk.double_presentation(p, g.words)
    x = _realize(lib, tr, data.double)
    with tr.span("presentations.direct_power"):
        cube = lib.pr.direct_power(p, 3)
    return g, data, x, _realize(lib, tr, cube)


def _problems(name: str, conditions: list[tuple[bool, str]]) -> list[str]:
    return [f"{name}: {what}" for ok, what in conditions if not ok]


def _column(letter: tuple[int, int]) -> int:
    gen, sign = letter
    return 2 * gen + (0 if sign == 1 else 1)


def coset_perm(rows, letters) -> tuple[int, ...]:
    """Right action of a word on the cosets of a closed table."""
    perm = list(range(len(rows)))
    for letter in letters:
        col = _column(letter)
        perm = [rows[x][col] for x in perm]
    return tuple(perm)


def _commute(p, q) -> bool:
    return all(p[q[z]] == q[p[z]] for z in range(len(p)))


# -- kernel-ladder ------------------------------------------------------------


@dataclass
class LadderObs:
    base_order: int
    index: int
    x_order: int
    w_order: int
    rho_image_order: int
    w_letters: list
    rows: tuple
    stats: Any  # counters of the enumeration over iota_psi(G)
    perfect: tuple[bool, bool]  # base, double


def ladder_run(item: Item, lib, tr, state) -> LadderObs:
    p = item.presentation
    g = _realize(lib, tr, p)
    with tr.span("sidki.double"):
        data = lib.sk.double_presentation(p, g.words)
    with tr.span("sidki.maps"):
        maps = lib.sk.canonical_maps(data, lib.fg.regular_identity_decider(g))
    with tr.span("todd_coxeter.enumerate"):
        table = lib.tc.enumerate_cosets(data.double, maps.iota_psi.images)
    tr.enumeration(table)
    with tr.span("sidki.kernel"):
        an = lib.sk.analyze_double_kernel(data, g, table=table)
    with tr.span("todd_coxeter.closure_audit"):
        lib.tc.closure_audit(table)
    with tr.span("smith.is_perfect"):
        perfect = (lib.sm.is_perfect(p), lib.sm.is_perfect(data.double))
    return LadderObs(
        base_order=g.order,
        index=an.index,
        x_order=an.x_order,
        w_order=an.w_order,
        rho_image_order=an.rho_image_order,
        w_letters=[w.letters for w in an.w_words],
        rows=table.rows,
        stats=table.stats,
        perfect=perfect,
    )


def ladder_check(item: Item, obs: LadderObs, lib=None) -> list[str]:
    m = item.model
    perms = [coset_perm(obs.rows, w) for w in obs.w_letters]
    conditions = [
        (obs.base_order == m.order, "|G| differs from the model"),
        (obs.index * m.order == obs.x_order, "index * |G| != |X|"),
        (obs.rho_image_order == m.order**2 * m.derived_order, "|im rho| != |G|^2 |G'|"),
        (obs.x_order == obs.w_order * obs.rho_image_order, "|X| != |W| |im rho|"),
        (len(obs.w_letters) == obs.w_order, "|W| differs from the W words listed"),
        (all(m.rho_order(w) == 1 for w in obs.w_letters), "a W word is not in ker rho"),
        (obs.perfect == (m.perfect, m.perfect), "perfectness differs from the model"),
        (len(set(perms)) == len(perms), "two W words act alike"),
        (all(_commute(p, q) for p in perms for q in perms), "W is not abelian"),
    ]
    if m.perfect:
        gens = [tuple(row[c] for row in obs.rows) for c in range(0, len(obs.rows[0]), 2)]
        conditions += [
            (all(_commute(p, c) for p in perms for c in gens), "W is not central"),
            (m.base.schur_multiplier**3 % obs.w_order == 0, "|W| does not divide |M(G)|^3"),
        ]
    return _problems(item.base.name, conditions)


def ladder_summary(obs: LadderObs) -> dict:
    return {
        "index": obs.index,
        "X": obs.x_order,
        "W": obs.w_order,
        "im_rho": obs.rho_image_order,
        "definitions": obs.stats.definitions,
        "coincidences": obs.stats.coincidences,
    }


# -- realized-doubles -----------------------------------------------------------


@dataclass
class RealizedObs:
    g: Any
    data: Any
    x: Any
    t_order: int
    l_order: int
    d_order: int
    w_elements: tuple[int, ...]
    derived_order: int
    center_elements: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    torsion_orders: tuple[int, ...]


def realized_run(item: Item, lib, tr, state) -> RealizedObs:
    g, data, x, t = _double_and_cube(lib, tr, item.presentation)
    with tr.span("sidki.families"):
        fam = lib.sk.subgroup_families(data, x, t)
    with tr.span("finite_groups.subgroups"):
        derived = lib.fg.derived_subgroup(x)
        center = lib.fg.center(x)
    with tr.span("finite_groups.classes"):
        classes = lib.fg.conjugacy_classes(x)
    with tr.span("sidki.torsion"):
        torsion = lib.sk.torsion_probe(fam.w)
    return RealizedObs(
        g=g,
        data=data,
        x=x,
        t_order=t.order,
        l_order=fam.l.order,
        d_order=fam.d.order,
        w_elements=fam.w.elements,
        derived_order=derived.order,
        center_elements=center.elements,
        classes=classes,
        torsion_orders=torsion.orders,
    )


def _mul(x_group, a: int, b: int) -> int:
    """a * b in a realized group, walking b's word through the generator
    permutations of its regular action."""
    gp, ip = x_group.gen_perms, x_group.inv_gen_perms
    for gen, sign in x_group.words[b].letters:
        a = gp[gen][a] if sign == 1 else ip[gen][a]
    return a


def _order(x_group, a: int) -> int:
    n, z = 1, a
    while z != 0:
        z = _mul(x_group, z, a)
        n += 1
    return n


def realized_check(item: Item, obs: RealizedObs, lib) -> list[str]:
    m = item.model
    x = obs.x
    order = x.order
    w = obs.w_elements
    gens = [x.gen_perms[i][0] for i in range(len(x.gen_perms))]
    table_w = lib.sk.analyze_double_kernel(obs.data, obs.g).w_order
    members = sorted(a for cls in obs.classes for a in cls)
    singletons = sorted(cls[0] for cls in obs.classes if len(cls) == 1)
    return _problems(
        item.base.name,
        [
            (obs.g.order == m.order, "|G| differs from the model"),
            (obs.t_order == m.order**3, "|G^3| differs from the model"),
            (obs.l_order * m.order == order, "|L| |G| != |X|"),
            (obs.d_order * m.order**2 == order, "|D| |G|^2 != |X|"),
            (order == len(w) * m.order**2 * m.derived_order, "|X| != |W| |G|^2 |G'|"),
            (all(_mul(x, a, k) == _mul(x, k, a) for a in w for k in gens), "W is not central"),
            (table_w == len(w), f"|W| = {len(w)} but the coset-table route gives {table_w}"),
            (order == obs.derived_order * (m.order // m.derived_order) ** 2, "|X/X'| != |G/G'|^2"),
            (members == list(range(order)), "the classes do not partition X"),
            (all(order % len(cls) == 0 for cls in obs.classes), "a class size does not divide |X|"),
            (list(obs.center_elements) == singletons, "Z(X) differs from the singleton classes"),
            (set(w) <= set(obs.center_elements), "W is not inside Z(X)"),
            (sorted(obs.torsion_orders) == sorted(_order(x, a) for a in w), "W element orders differ"),
        ],
    )


def realized_summary(obs: RealizedObs) -> dict:
    return {"X": obs.x.order, "W": len(obs.w_elements), "classes": len(obs.classes)}


# -- idempotent-audit -----------------------------------------------------------


def _terms(matrix) -> int:
    return sum(len(e.support()) for row in matrix.entries for e in row)


def squaring_work(matrix) -> int:
    """Term products made by squaring the matrix, each weighted by 15 plus the
    letters of its two group elements (word length counts for F_2 only)."""
    n = matrix.n
    size = [[len(e.support()) for e in row] for row in matrix.entries]
    letters = [
        [sum(len(getattr(g, "letters", ())) for g in e.support()) for e in row]
        for row in matrix.entries
    ]
    return sum(
        15 * size[i][k] * size[k][j] + size[i][k] * letters[k][j] + letters[i][k] * size[k][j]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


MAX_CONJUGATOR_TERMS = 100

_TORSION_FREE = {"Z2": lambda lib: lib.ca.FreeAbelianCarrier(2), "F2": lambda lib: lib.ca.FreeCarrier(2)}


@dataclass(frozen=True)
class ConjSpec:
    carrier: str
    n: int
    rank: int
    seed: int
    depth: int


def _conjugator(lib, spec: ConjSpec):
    carrier = _TORSION_FREE[spec.carrier](lib)
    u, u_inv = lib.gr.random_invertible(carrier, Random(spec.seed), spec.n, spec.depth)
    one, zero = lib.gr.ring_one(carrier), lib.gr.ring_zero(carrier)
    d = lib.gr.diagonal_matrix(carrier, [one] * spec.rank + [zero] * (spec.n - spec.rank))
    return u, d, u_inv


def pick_conjugated(lib, rng: Random, shape: AuditShape) -> list[ConjSpec]:
    """Seeded conjugators U whose idempotents U D U^-1 lie in the work band,
    ``shape.count`` of them per carrier.  The last one is the candidate, of
    at most 20 in the band, that brings the summed squaring work closest to
    count times the middle of the band (stopping early within 1%): every
    seed then gives a round of about the same size."""
    lo, hi = shape.work_band
    budget = shape.count * (lo + hi) // 2
    specs = []
    for carrier in _TORSION_FREE:
        total = tries = 0
        best: tuple[float, ConjSpec | None] = (float("inf"), None)
        chosen = 0
        while chosen < shape.count:
            n = 2 + chosen % 2
            spec = ConjSpec(carrier, n, 1 + rng.randrange(n - 1), rng.randrange(2**32), shape.depth)
            u, d, u_inv = _conjugator(lib, spec)
            # A conjugator this large makes an idempotent far above the band.
            if _terms(u) > MAX_CONJUGATOR_TERMS:
                continue
            work = squaring_work(u * d * u_inv)
            if not lo <= work <= hi:
                continue
            if chosen < shape.count - 1:
                specs.append(spec)
                chosen += 1
                total += work
                continue
            tries += 1
            best = min(best, (abs(budget - total - work), spec), key=lambda b: b[0])
            if best[0] <= 0.01 * budget or tries == 20:
                specs.append(best[1])
                chosen += 1
    return specs


@dataclass
class ConjObs:
    rank: int
    kappa: Fraction
    epsilon: Fraction


def conj_run(spec: ConjSpec, lib, tr, state) -> ConjObs:
    with tr.span("group_rings.build"):
        u, d, u_inv = _conjugator(lib, spec)
        m = u * d * u_inv
    with tr.span("group_rings.audit"):
        report = lib.gr.trace_audit(m)
    tr.count("group_rings.matrices")
    tr.count("group_rings.terms", _terms(m))
    return ConjObs(spec.rank, report.kappa, report.epsilon)


def conj_check(spec: ConjSpec, obs: ConjObs, lib=None) -> list[str]:
    if obs.kappa == obs.epsilon == obs.rank:
        return []
    return [f"U D U^-1 over {spec.carrier}: kappa {obs.kappa}, epsilon {obs.epsilon}, rank {obs.rank}"]


@dataclass
class Context:
    """X(G) and G^3 of a torsion base, as realized in the current round."""

    x: Any
    x_carrier: Any
    cube_carrier: Any
    rho: Any


@dataclass
class ContextObs:
    g_order: int
    t_order: int
    verified: dict


def context_run(item: Item, lib, tr, state) -> ContextObs:
    g, data, x, t = _double_and_cube(lib, tr, item.presentation)
    with tr.span("sidki.maps"):
        maps = lib.sk.canonical_maps(data, lib.fg.regular_identity_decider(g))
        rho = lib.fg.FiniteHom(x, t, tuple(t.evaluate(img) for img in maps.rho.images))
    with tr.span("carriers.finite_carrier"):
        x_carrier = lib.ca.FiniteCarrier(x)
        cube_carrier = lib.ca.FiniteCarrier(t)
    state[item.base.name] = Context(x, x_carrier, cube_carrier, rho)
    return ContextObs(g.order, t.order, dict(maps.verified))


def context_check(item: Item, obs: ContextObs, lib=None) -> list[str]:
    m = item.model
    return _problems(
        item.base.name,
        [
            (obs.g_order == m.order and obs.t_order == m.order**3, "|G| or |G^3| differs from the model"),
            (all(obs.verified.values()), "a canonical map was not verified"),
        ],
    )


@dataclass(frozen=True)
class TorsionSpec:
    base: str
    letters: models.Letters  # a word in the generators of X(G)
    order: int  # order of that element of X(G)
    rho_order: int  # order of its rho-image, from the model of G^3


def pick_torsion(lib, item: Item, rng: Random, shape: AuditShape) -> list[TorsionSpec]:
    """Per element order of X(G) above 1, seeded conjugates u^-1 x u of
    elements x of that order.  Orders are counted on the regular action of
    a realized X(G), with this module's own multiplication."""
    p = item.presentation
    g = lib.fg.realize(lib.tc.enumerate_cosets(p))
    data = lib.sk.double_presentation(p, g.words)
    x = lib.fg.realize(lib.tc.enumerate_cosets(data.double))
    by_order: dict[int, list[int]] = {}
    for a in range(1, x.order):
        by_order.setdefault(_order(x, a), []).append(a)
    specs = []
    ngens = 2 * item.base.generators
    for order in sorted(by_order):
        for _ in range(shape.torsion_per_order):
            a = rng.choice(by_order[order])
            u = tuple((rng.randrange(ngens), rng.choice((1, -1))) for _ in range(3))
            u_inv = tuple((gen, -sign) for gen, sign in reversed(u))
            word = u_inv + x.words[a].letters + u
            letters = models.expand(tuple(word))
            specs.append(TorsionSpec(item.base.name, letters, order, item.model.rho_order(letters)))
    return specs


@dataclass
class TorsionObs:
    kappa: Fraction
    epsilon: Fraction
    pushed_kappa: Fraction
    pushed_epsilon: Fraction


def torsion_run(spec: TorsionSpec, lib, tr, state) -> TorsionObs:
    ctx = state[spec.base]
    with tr.span("group_rings.build"):
        g = ctx.x.evaluate(lib.words.Word(spec.letters))
        e = lib.gr.torsion_idempotent(ctx.x_carrier, g, spec.order)
        m = lib.gr.RingMatrix(ctx.x_carrier, [[e]])
    with tr.span("group_rings.audit"):
        report = lib.gr.trace_audit(m)
    with tr.span("group_rings.pushforward"):
        pushed = lib.gr.pushforward(m, ctx.rho.apply, ctx.cube_carrier)
    with tr.span("group_rings.audit"):
        pushed_report = lib.gr.trace_audit(pushed)
    tr.count("group_rings.matrices", 2)
    tr.count("group_rings.terms", _terms(m) + _terms(pushed))
    return TorsionObs(report.kappa, report.epsilon, pushed_report.kappa, pushed_report.epsilon)


def torsion_check(spec: TorsionSpec, obs: TorsionObs, lib=None) -> list[str]:
    bad = []
    if obs.kappa != Fraction(1, spec.order) or obs.epsilon != 1:
        bad.append(f"X({spec.base}) order {spec.order}: kappa {obs.kappa}, epsilon {obs.epsilon}")
    if obs.pushed_kappa != Fraction(1, spec.rho_order) or obs.pushed_epsilon != 1:
        bad.append(
            f"X({spec.base}) pushed to G^3, rho-order {spec.rho_order}: "
            f"kappa {obs.pushed_kappa}, epsilon {obs.pushed_epsilon}"
        )
    return bad


@dataclass(frozen=True)
class PairSpec:
    carrier: str
    pairs: tuple  # ((x terms, y terms), ...); a term is (element spec, coefficient)


def _random_terms(carrier: str, order: int, rng: Random, count: int) -> tuple:
    terms = []
    for _ in range(count):
        if carrier == "finite":
            elem = rng.randrange(order)
        elif carrier == "Z2":
            elem = (rng.randint(-3, 3), rng.randint(-3, 3))
        elif carrier == "F2":
            letters = [(rng.randrange(2), rng.choice((1, -1)))]
            while len(letters) < 4:
                letter = (rng.randrange(2), rng.choice((1, -1)))
                if letter != (letters[-1][0], -letters[-1][1]):
                    letters.append(letter)
            elem = tuple(letters)
        else:  # BS(1,2) normal form t^-p a^q t^r
            elem = (rng.randint(0, 2), rng.randint(-4, 4), rng.randint(0, 2))
        coeff = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4))
        terms.append((elem, coeff))
    return tuple(terms)


def make_pairs(rng: Random, shape: AuditShape, finite_order: int) -> list[PairSpec]:
    specs = []
    for carrier in ("finite", "Z2", "F2", "BS"):
        pairs = tuple(
            tuple(_random_terms(carrier, finite_order, rng, shape.terms) for _ in range(2))
            for _ in range(shape.pairs)
        )
        specs.append(PairSpec(carrier, pairs))
    return specs


@dataclass
class PairObs:
    values: list  # (kappa(xy), kappa(yx), epsilon(xy), epsilon(x), epsilon(y)) per pair


def pairs_run(spec: PairSpec, finite: Item, lib, tr, state) -> PairObs:
    if spec.carrier == "finite":
        group = _realize(lib, tr, finite.presentation)
        with tr.span("carriers.finite_carrier"):
            carrier = lib.ca.FiniteCarrier(group)
        gen = lib.words.Word.gen(0)
        element = lambda k: group.evaluate(gen**k)  # noqa: E731
    elif spec.carrier == "Z2":
        carrier, element = lib.ca.FreeAbelianCarrier(2), tuple
    elif spec.carrier == "F2":
        carrier, element = lib.ca.FreeCarrier(2), lib.words.Word
    else:
        carrier = lib.ca.BaumslagSolitarCarrier(2)
        element = lambda t: carrier.from_normal_form(*t)  # noqa: E731
    gr = lib.gr
    with tr.span("group_rings.build"):
        ring = [
            tuple(
                gr.RingElement(carrier, _merge((element(e), c) for e, c in terms))
                for terms in pair
            )
            for pair in spec.pairs
        ]
    with tr.span("group_rings.products"):
        values = [
            (gr.kappa(x * y), gr.kappa(y * x), gr.epsilon(x * y), gr.epsilon(x), gr.epsilon(y))
            for x, y in ring
        ]
    return PairObs(values)


def _merge(terms) -> dict:
    out: dict = {}
    for elem, coeff in terms:
        out[elem] = out.get(elem, 0) + coeff
    return out


def pairs_check(spec: PairSpec, obs: PairObs, lib=None) -> list[str]:
    bad = []
    for (x_terms, y_terms), (kxy, kyx, exy, ex, ey) in zip(spec.pairs, obs.values):
        own_x = sum((c for _, c in x_terms), Fraction(0))
        own_y = sum((c for _, c in y_terms), Fraction(0))
        if kxy != kyx or exy != ex * ey or ex != own_x or ey != own_y:
            bad.append(f"pair over {spec.carrier}: kappa {kxy} vs {kyx}, epsilon {exy} vs {ex}*{ey}")
    if len(obs.values) != len(spec.pairs):
        bad.append(f"pairs over {spec.carrier}: {len(obs.values)} results for {len(spec.pairs)} pairs")
    return bad


# ---------------------------------------------------------------------------
# Assembling a workload
# ---------------------------------------------------------------------------


def _bind(run, check, spec, summary=lambda obs: {}) -> tuple:
    return (
        lambda lib, tr, state: run(spec, lib, tr, state),
        lambda obs, lib: check(spec, obs, lib),
        summary,
    )


def make_ops(workload: str, items: list[Item], lib, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one round.  Input selection that needs the program
    (the idempotent corpus and the torsion elements) happens here, before
    anything is timed."""
    if workload == "kernel-ladder":
        return [Op(f"rung {it.base.name}", *_bind(ladder_run, ladder_check, it, ladder_summary)) for it in items]
    if workload == "realized-doubles":
        return [
            Op(f"base {it.base.name}", *_bind(realized_run, realized_check, it, realized_summary))
            for it in items
        ]
    if workload != "idempotent-audit":
        raise ValueError(f"unknown workload {workload!r}")
    shape = SMOKE_AUDIT if smoke else FULL_AUDIT
    rng = Random(f"{workload}/{seed}/corpus")
    by_name = {it.base.name: it for it in items}
    finite = by_name[shape.pair_carrier]
    ops = [
        Op(f"conjugated {s.carrier} n={s.n} rank={s.rank}", *_bind(conj_run, conj_check, s))
        for s in pick_conjugated(lib, rng, shape)
    ]
    for name in TORSION_BASES:
        item = by_name[name]
        ops.append(Op(f"context X({name})", *_bind(context_run, context_check, item)))
        ops += [
            Op(f"torsion X({name}) order {s.order}", *_bind(torsion_run, torsion_check, s))
            for s in pick_torsion(lib, item, rng, shape)
        ]
    ops += [
        Op(f"pairs {s.carrier}", *_bind(lambda spec, *a: pairs_run(spec, finite, *a), pairs_check, s))
        for s in make_pairs(rng, shape, finite.model.order)
    ]
    return ops
