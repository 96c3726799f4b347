"""Coset enumeration for finitely presented groups.

The strategy is HLT: relator scans drive coset definitions, with a full
lookahead pass run whenever the coset limit is hit, so that coincidences can
free space before the enumeration gives up.  Coincidences are processed
immediately through a union-find with column merging.  Most scans find the
relator closed, so a scan first walks it forward in one plain loop: while
the enumeration runs, each column list ends in a spare -1, so a walk that
meets an undefined entry stays at -1 and needs no test.  Only a relator that
does not close goes on to the full scan: a deduction, a coincidence or a
definition.

The table is stored by columns.  Once the dead rows outnumber the live ones
by ``_COMPACT_MARGIN``, they are dropped between cosets and the live cosets
renumbered in order, which changes no definition; so memory follows the live
cosets, and ``max_cosets`` bounds it.

Cosets are numbered from 0; coset 0 is the subgroup coset.  Columns come
in pairs: column 2*i is generator i, column 2*i+1 its inverse, so the
inverse of column c is c ^ 1.  A generator with a relator x^2 or x^-2 is an
involution: while the enumeration runs, its two columns are one list, so an
entry and its inverse entry are made together, and its x^2 relators are
not scanned (they hold by construction; :func:`closure_audit` still checks
them).  The closed table keeps the columns as tuples, an involution's two
columns as one; no layout by rows is stored.

Over the trivial subgroup with two or more generators, the table is first
sought as the orbit of (K1, K2) on the cosets of the subgroups generated by
each half of the generators; it is taken only where a run-time certificate
shows it is the regular action, and HLT runs otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .presentations import Presentation, word_to_text
from .words import Letter, Word


class CosetEnumerationError(ValueError):
    """Base class for enumeration failures."""


class TableNotClosedError(CosetEnumerationError):
    """Raised by :class:`CosetTable` on a table with no cosets, a missing,
    short or long column, or an entry that is not a coset number."""


class LimitExceeded(CosetEnumerationError):
    """The enumeration hit a resource limit.  Inconclusive: the index may be
    infinite or merely larger than the budget allows."""

    def __init__(self, kind: str, limit: int):
        assert kind in ("cosets", "definitions")
        self.kind = kind
        self.limit = limit
        super().__init__(
            f"coset enumeration exceeded its {kind} limit ({limit}); inconclusive"
        )


@dataclass(frozen=True)
class EnumerationLimits:
    max_cosets: int = 2_000_000
    max_definitions: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_cosets <= 0 or self.max_definitions <= 0:
            raise ValueError("enumeration limits must be positive")


DEFAULT_LIMITS = EnumerationLimits()

# Compact the table between cosets once its dead rows outnumber the live
# ones by this many.
_COMPACT_MARGIN = 1024


@dataclass(frozen=True)
class EnumerationStats:
    definitions: int
    coincidences: int
    lookaheads: int
    peak_live: int  # the most live cosets, or orbit points, one enumeration held


def letter_column(letter: Letter) -> int:
    index, sign = letter
    return 2 * index + (0 if sign == 1 else 1)


def word_columns(w: Word) -> list[int]:
    return [letter_column(letter) for letter in w.letters]


def column_letter(col: int) -> Letter:
    return (col // 2, 1 if col % 2 == 0 else -1)


@dataclass(frozen=True)
class CosetTable:
    """A closed coset table by columns: ``columns[c][x]`` is the coset that x
    reaches by column c.  Every column has n >= 1 coset numbers (with no
    generators, n = 1).  Construction raises :class:`TableNotClosedError`
    otherwise, so no reader checks again."""

    presentation: Presentation
    subgroup_words: tuple[Word, ...]
    columns: tuple[tuple[int, ...], ...]
    stats: EnumerationStats | None = None

    def __post_init__(self) -> None:
        n = self.num_cosets
        if len(self.columns) != self.num_columns or n == 0:
            raise TableNotClosedError("a coset table needs a coset and a column per letter")
        for col in self.columns:
            if len(col) != n or min(col) < 0 or max(col) >= n:
                raise TableNotClosedError("coset table is not closed")

    @property
    def num_cosets(self) -> int:
        return len(self.columns[0]) if self.columns else 1

    @property
    def num_columns(self) -> int:
        return 2 * self.presentation.num_generators

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows, transposed on each call: never kept beside the columns."""
        return tuple(zip(*self.columns)) if self.columns else ((),)

    def trace(self, coset: int, w: Word) -> int:
        columns = self.columns
        for letter in w.letters:
            coset = columns[letter_column(letter)][coset]
        return coset


class _NeedSpace(Exception):
    pass


# A word as the column list of each letter, and of each letter's inverse.
_Path = tuple[list[list[int]], list[list[int]]]


class _Enumerator:
    """HLT over column storage: ``cols[c][k]`` is the entry of coset k in
    column c, or -1 while undefined; each list ends in a spare -1, its
    ``col[-1]``.  An involution's two columns are one list, so
    ``cols[c ^ 1]`` is the inverse column of every column c.  A dead coset
    keeps its row, pointing through ``p`` to a smaller coset, until
    :meth:`_compact` drops it."""

    def __init__(
        self,
        presentation: Presentation,
        subgroup_words: tuple[Word, ...],
        limits: EnumerationLimits,
    ):
        g = presentation.num_generators
        for w in subgroup_words:
            if w.max_index() >= g:
                raise CosetEnumerationError("subgroup word uses undeclared generator")
        self.limits = limits
        squares = [r for r in presentation.relators if len(r) == 2 and r.letters[0] == r.letters[1]]
        involutions = {r.letters[0][0] for r in squares}
        cols: list[list[int]] = []
        for i in range(g):
            col = [-1, -1]  # coset 0 and the spare
            cols += (col, col) if i in involutions else (col, [-1, -1])
        self.cols = cols
        # (column, inverse column) once per list, in column order
        self.pairs = [
            (cols[c], cols[c ^ 1]) for c in range(2 * g) if c % 2 == 0 or cols[c] is not cols[c ^ 1]
        ]
        self.lists = [col for col, _ in self.pairs]
        self.relator_paths = [self._path(r) for r in presentation.relators if r not in squares]
        self.subgroup_paths = [self._path(w) for w in subgroup_words if w.letters]
        self.p = [0]
        self.live = 1
        self.peak_live = 1
        self.defs = 0
        self.coincidences = 0
        self.lookaheads = 0

    def _path(self, w: Word) -> _Path:
        columns = word_columns(w)
        return [self.cols[c] for c in columns], [self.cols[c ^ 1] for c in columns]

    # -- union-find ---------------------------------------------------------

    def rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, x: int, y: int, queue: list[int]) -> None:
        rx = self.rep(x)
        ry = self.rep(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self.p[ry] = rx
            queue.append(ry)

    def _coincidence(self, a: int, b: int) -> None:
        p = self.p
        merge = self._merge
        pairs = self.pairs
        queue: list[int] = []
        merge(a, b, queue)
        for gamma in queue:  # merges append to the queue while it is scanned
            for col, inv in pairs:
                delta = col[gamma]
                if delta < 0:
                    continue
                inv[delta] = -1
                mu = gamma  # the roots, as rep finds them, without compressing
                while p[mu] != mu:
                    mu = p[mu]
                nu = delta
                while p[nu] != nu:
                    nu = p[nu]
                if col[mu] >= 0:
                    merge(nu, col[mu], queue)
                elif inv[nu] >= 0:
                    merge(mu, inv[nu], queue)
                else:
                    col[mu] = nu
                    inv[nu] = mu
        self.live -= len(queue)
        self.coincidences += len(queue)

    def _compact(self, alpha: int) -> int:
        """Drop the dead rows and renumber the live cosets 0, 1, ... in their
        old order, so that every comparison of coset numbers, and with it the
        rest of the enumeration, comes out as before.  Only called with no
        coincidence pending, when live rows point only at live cosets.  The
        column lists are renumbered in place, so the paths keep them.
        Returns the number of live cosets below ``alpha``: the new number of
        the first live coset at or after it."""
        p = self.p
        kept = [k for k in range(len(p)) if p[k] == k]
        renumber = [-1] * (len(p) + 1)  # the last entry maps -1 to itself
        # New numbers only for kept cosets: ints made for the dead rows too
        # would be freed between the kept ones and leave the heap fragmented.
        for new, old in enumerate(kept):
            renumber[old] = new
        for col in self.lists:
            col[:] = [renumber[e] for e in map(col.__getitem__, kept)]
            col.append(-1)  # the spare
        p[:] = map(renumber.__getitem__, kept)
        return bisect_left(kept, alpha)

    # -- definitions and scanning -------------------------------------------

    def _define(self, alpha: int, col: list[int], inv: list[int]) -> None:
        if self.live >= self.limits.max_cosets:
            raise _NeedSpace
        if self.defs >= self.limits.max_definitions:
            raise LimitExceeded("definitions", self.limits.max_definitions)
        beta = len(self.p)
        for lst in self.lists:
            lst.append(-1)
        self.p.append(beta)
        col[alpha] = beta
        inv[beta] = alpha
        self.defs += 1
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live

    def _scan(self, alpha: int, path: _Path, fill: bool) -> None:
        fwd, back = path
        f = alpha
        b = alpha
        i = 0
        j = len(fwd) - 1
        while True:
            while i <= j:
                nxt = fwd[i][f]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                prev = back[j][b]
                if prev < 0:
                    break
                b = prev
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                fwd[i][f] = b
                back[i][b] = f
                return
            if not fill:
                return
            self._define(f, fwd[i], back[i])

    def _lookahead(self) -> None:
        self.lookaheads += 1
        p = self.p
        for beta in range(len(p)):
            if p[beta] == beta:
                self._process(beta, self.relator_paths, fill=False)

    def _process(self, alpha: int, paths: list[_Path], fill: bool = True) -> None:
        p = self.p
        for path in paths:
            f = alpha  # a path that closes at alpha is only walked
            for col in path[0]:
                f = col[f]
            if f != alpha:
                self._scan(alpha, path, fill)
                if p[alpha] != alpha:
                    return
        if fill:
            for col, inv in self.pairs:
                if col[alpha] < 0:
                    self._define(alpha, col, inv)

    # -- main loop ------------------------------------------------------------

    def run(self) -> tuple[tuple[int, ...], ...]:
        p = self.p
        paths = self.subgroup_paths + self.relator_paths  # coset 0 scans the subgroup words too
        alpha = 0
        while alpha < len(p):
            # A full budget makes a lookahead, then a retry.  This ends: a
            # retry after a lookahead that freed a coset finishes alpha or
            # makes a definition, and max_definitions caps the definitions.
            while p[alpha] == alpha:
                try:
                    self._process(alpha, paths)
                    break
                except _NeedSpace:
                    before = self.live
                    self._lookahead()
                    if self.live >= before:
                        raise LimitExceeded("cosets", self.limits.max_cosets) from None
            paths = self.relator_paths
            alpha += 1
            if len(p) - self.live > self.live + _COMPACT_MARGIN:
                alpha = self._compact(alpha)
        return self._finish()

    def _finish(self) -> tuple[tuple[int, ...], ...]:
        """Compact, drop the spares, then freeze the lists into tuples, clearing
        each once frozen (an involution's list gives one tuple for both of its
        columns).  An undefined entry left fails :class:`CosetTable`'s check."""
        self._compact(0)
        for col in self.lists:
            col.pop()
        cols = self.cols
        columns: list[tuple[int, ...]] = []
        for c, col in enumerate(cols):
            if c % 2 and col is cols[c - 1]:
                columns.append(columns[-1])
            else:
                columns.append(tuple(col))
                col.clear()
        return tuple(columns)


def enumerate_cosets(
    presentation: Presentation,
    subgroup: tuple[Word, ...] | list[Word] = (),
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by ``subgroup`` words.

    Returns a closed, compacted table whose coset count is the subgroup
    index.  Raises :class:`LimitExceeded` when a limit is hit, which is
    always inconclusive.  The counters sum every enumeration the call ran
    (see :func:`_orbit_of_halves`), and ``peak_live`` is the largest of their
    peaks and of the orbit's size."""
    subgroup = tuple(subgroup)
    runs: list[tuple[int, int, int, int]] = []
    columns = _columns(presentation, subgroup, limits, runs)
    defs, coincidences, lookaheads, peaks = zip(*runs)
    stats = EnumerationStats(sum(defs), sum(coincidences), sum(lookaheads), max(peaks))
    return CosetTable(presentation, subgroup, columns, stats)


def _columns(
    presentation: Presentation,
    subgroup: tuple[Word, ...],
    limits: EnumerationLimits,
    runs: list[tuple[int, int, int, int]],
) -> tuple[tuple[int, ...], ...]:
    """The closed table's columns: the certified orbit of halves, else HLT's,
    whose counters join ``runs`` even when it raises."""
    if not subgroup and presentation.num_generators >= 2:
        columns = _orbit_of_halves(presentation, limits, runs)
        if columns is not None:
            return columns
    e = _Enumerator(presentation, subgroup, limits)
    try:
        return e.run()
    finally:
        runs.append((e.defs, e.coincidences, e.lookaheads, e.peak_live))


def _orbit_of_halves(
    presentation: Presentation, limits: EnumerationLimits, runs: list[tuple[int, int, int, int]]
) -> tuple[tuple[int, ...], ...] | None:
    """G's columns over the trivial subgroup as the orbit of (0, 0) under the
    generator columns of T1 x T2, G's tables over K1 = <the first g // 2
    generators> and K2 = <the rest>, numbered breadth-first (shortlex); None
    when not certified.  The orbit's size n is the index of the intersection
    of K1 and K2, so n <= |G| = [G : K1] |K1| <= [G : K1] k1, k1 being the
    order of the group presented by the first-half relators, of which K1 is
    a quotient.  n == [G : K1] k1 forces K1 and K2 to meet trivially: the
    orbit is then the regular action.  T1, T2 and the enumeration of k1
    share one definitions budget.  A limit hit in T1 or T2, or an orbit past
    ``max_cosets`` (|G| >= n), raises; one in the enumeration of k1, which
    may hold n cosets, only fails the certificate."""
    g = presentation.num_generators
    h = g // 2
    start = len(runs)

    def budget(max_cosets: int) -> EnumerationLimits:
        left = limits.max_definitions - sum(r[0] for r in runs[start:])
        if left <= 0:
            raise LimitExceeded("definitions", limits.max_definitions)
        return EnumerationLimits(max_cosets, left)

    gens1, gens2 = tuple(map(Word.gen, range(h))), tuple(map(Word.gen, range(h, g)))
    t1 = CosetTable(presentation, gens1, _columns(presentation, gens1, limits, runs))
    shared = budget(limits.max_cosets)  # what T1 left
    t2 = CosetTable(presentation, gens2, _columns(presentation, gens2, shared, runs))
    m1, m2 = t1.num_cosets, t2.num_cosets
    index, points = {0: 0}, [0]  # y1 * m2 + y2 -> point number, and back
    forward: list[list[int]] = [[] for _ in range(g)]
    steps = list(zip(t1.columns[0::2], t2.columns[0::2], forward))
    for key in points:  # the queue: points are appended while it is scanned
        y1, y2 = divmod(key, m2)
        for c1, c2, col in steps:
            z = c1[y1] * m2 + c2[y2]
            x = index.get(z)
            if x is None:
                x = index[z] = len(points)
                points.append(z)
            col.append(x)
        if len(points) > limits.max_cosets:
            raise LimitExceeded("cosets", limits.max_cosets)
    n = len(points)
    runs.append((0, 0, 0, n))  # the orbit's points are its peak
    del index, points, steps
    relators = [r for r in presentation.relators if r.max_index() < h]
    sub = Presentation.make(presentation.generator_names[:h], relators)
    try:
        k1 = len(_columns(sub, (), budget(n), runs)[0])
    except LimitExceeded:
        return None
    if n != m1 * k1:
        return None
    columns: list[tuple[int, ...]] = []
    for col in forward:  # each list cleared once frozen
        inv = [0] * n
        for x, y in enumerate(col):
            inv[y] = x
        fwd = tuple(col)
        columns += (fwd, fwd) if inv == col else (fwd, tuple(inv))
        col.clear()
    return tuple(columns)


def _compose(perm, col) -> tuple[int, ...]:
    """``col[x]`` for each x in ``perm`` (itemgetter of one key is no tuple)."""
    return itemgetter(*perm)(col) if len(perm) > 1 else (col[perm[0]],)


def standardize(table: CosetTable) -> CosetTable:
    """Renumber cosets in breadth-first order from coset 0, scanning columns
    in declared generator order.  Canonical: two tables of the same action
    standardize identically."""
    n = table.num_cosets
    order = spanning_tree(table, range(table.num_columns)).order
    if len(order) != n:
        raise CosetEnumerationError("coset action is not transitive")
    new_index = [0] * n
    for new, old in enumerate(order):
        new_index[old] = new
    columns = tuple(_compose(_compose(order, col), new_index) for col in table.columns)
    return CosetTable(table.presentation, table.subgroup_words, columns, table.stats)


@dataclass(frozen=True)
class SpanningTree:
    """A breadth-first spanning tree of a table's coset graph, rooted at
    coset 0.  ``order`` lists the reached cosets in visit order; a reached
    coset y > 0 hangs off ``parent[y]`` by an edge in column ``column[y]``,
    and an unreached coset has parent -1."""

    order: list[int]
    parent: list[int]
    column: list[int]

    def path(self, y: int) -> tuple[Letter, ...]:
        """The letters of the tree word from coset 0 to the reached coset y."""
        letters = []
        while y:
            letters.append(column_letter(self.column[y]))
            y = self.parent[y]
        return tuple(reversed(letters))


def spanning_tree(table: CosetTable, columns: Iterable[int]) -> SpanningTree:
    """Breadth-first search of a closed table from coset 0 that scans
    ``columns`` in the order given and stops once every coset is reached."""
    n = table.num_cosets
    scanned = [(c, table.columns[c]) for c in columns]
    parent = [-1] * n
    column = [-1] * n
    parent[0] = 0
    order = [0]
    for x in order:  # the queue: cosets are appended while it is scanned
        if len(order) == n:
            break
        for c, col in scanned:
            y = col[x]
            if parent[y] < 0:
                parent[y] = x
                column[y] = c
                order.append(y)
    return SpanningTree(order, parent, column)


def word_image(table: CosetTable, w: Word) -> tuple[int, ...]:
    """The permutation induced by a word (homomorphic extension)."""
    perm = tuple(range(table.num_cosets))
    for c in word_columns(w):
        perm = _compose(perm, table.columns[c])
    return perm


def closure_audit(table: CosetTable) -> None:
    """Exhaustively check the closure contract; raises on any violation.

    Verified: columns are permutations, inverse-column consistency, every
    relator traces to the identity permutation, subgroup generators fix
    coset 0, and the joint action is transitive."""
    n = table.num_cosets
    identity = tuple(range(n))
    columns = table.columns
    for c, col in enumerate(columns):
        if len(set(col)) != n:  # the entries are coset numbers already
            raise CosetEnumerationError(f"column {c} is not a permutation")
    for c in range(0, table.num_columns, 2):
        if _compose(columns[c], columns[c + 1]) != identity:
            raise CosetEnumerationError(f"inverse consistency fails in column {c}")
    for r in table.presentation.relators:
        if word_image(table, r) != identity:
            raise CosetEnumerationError("a relator does not act trivially")
    for w in table.subgroup_words:
        if table.trace(0, w) != 0:
            raise CosetEnumerationError("a subgroup generator moves coset 0")
    if len(spanning_tree(table, range(table.num_columns)).order) != n:
        raise CosetEnumerationError("joint action is not transitive")


def dump_table(table: CosetTable) -> str:
    """Text dump: header with presentation hash and subgroup words, then one
    row per coset with a column per signed generator (1-based cosets)."""
    names = table.presentation.generator_names
    header = [
        f"# presentation sha256:{table.presentation.digest()}",
        "# subgroup: "
        + (
            ", ".join(word_to_text(w, names) for w in table.subgroup_words)
            if table.subgroup_words
            else "trivial"
        ),
        "# columns: " + " ".join(f"{n} {n}^-1" for n in names),
    ]
    body = [
        f"{i + 1}: " + " ".join(str(e + 1) for e in row)
        for i, row in enumerate(table.rows)
    ]
    return "\n".join(header + body) + "\n"
