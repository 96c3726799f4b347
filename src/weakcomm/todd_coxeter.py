"""Coset enumeration for finitely presented groups.

The strategy is HLT: relator scans drive coset definitions, with a full
lookahead pass run periodically and whenever the coset limit is hit, so that
coincidences can free space before the enumeration gives up.  Coincidences
are processed immediately through a union-find with column merging.

The table is stored by columns.  Once the dead rows outnumber the live ones
by ``_COMPACT_MARGIN``, they are dropped between cosets and the live cosets
renumbered in order, which changes no definition; so memory follows the live
cosets, and ``max_cosets`` bounds it.

Cosets are numbered from 0; row 0 is the subgroup coset.  Columns come in
pairs: column 2*i is generator i, column 2*i+1 its inverse, so the inverse
of column c is c ^ 1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .presentations import Presentation, word_to_text
from .words import Letter, Word


class CosetEnumerationError(ValueError):
    """Base class for enumeration failures."""


class TableNotClosedError(CosetEnumerationError):
    """Raised by :class:`CosetTable` on a table with no rows, a short or long
    row, or an entry that is not a coset number."""


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

# Run a full lookahead pass after this many new definitions.
_LOOKAHEAD_PERIOD = 500_000

# Compact the table between cosets once its dead rows outnumber the live
# ones by this many.
_COMPACT_MARGIN = 1024

# The closed table's rows are built this many at a time.
_FINISH_CHUNK = 4096


@dataclass(frozen=True)
class EnumerationStats:
    definitions: int
    coincidences: int
    lookaheads: int
    peak_live: int  # the most live cosets at any moment


def letter_column(letter: Letter) -> int:
    index, sign = letter
    return 2 * index + (0 if sign == 1 else 1)


def word_columns(w: Word) -> list[int]:
    return [letter_column(letter) for letter in w.letters]


def column_letter(col: int) -> Letter:
    return (col // 2, 1 if col % 2 == 0 else -1)


@dataclass(frozen=True)
class CosetTable:
    """A closed coset table: at least one row, one entry per column in every
    row, and every entry a coset number.  Construction raises
    :class:`TableNotClosedError` otherwise, so no reader checks again."""

    presentation: Presentation
    subgroup_words: tuple[Word, ...]
    rows: tuple[tuple[int, ...], ...]
    stats: EnumerationStats | None = None

    def __post_init__(self) -> None:
        n = len(self.rows)
        width = self.num_columns
        if n == 0:
            raise TableNotClosedError("a coset table needs at least one row")
        for row in self.rows:
            if len(row) != width or (width and (min(row) < 0 or max(row) >= n)):
                raise TableNotClosedError("coset table is not closed")

    @property
    def num_cosets(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return 2 * self.presentation.num_generators

    def column(self, col: int) -> tuple[int, ...]:
        return tuple(row[col] for row in self.rows)

    def trace(self, coset: int, w: Word) -> int:
        for letter in w.letters:
            coset = self.rows[coset][letter_column(letter)]
        return coset


class _NeedSpace(Exception):
    pass


class _Enumerator:
    """HLT over column storage: ``cols[c][k]`` is the entry of coset k in
    column c, or -1 while undefined.  A dead coset keeps its row, pointing
    through ``p`` to a smaller coset, until :meth:`_compact` drops it."""

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
        self.presentation = presentation
        self.subgroup_words = subgroup_words
        self.limits = limits
        self.relator_paths = [word_columns(r) for r in presentation.relators]
        self.subgroup_paths = [word_columns(w) for w in subgroup_words if w.letters]
        self.cols: list[list[int]] = [[-1] for _ in range(2 * g)]
        self.p = [0]
        self.live = 1
        self.peak_live = 1
        self.defs = 0
        self.coincidences = 0
        self.lookaheads = 0
        self._defs_at_lookahead = 0

    # -- union-find ---------------------------------------------------------

    def rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, x: int, y: int, queue: deque) -> None:
        rx = self.rep(x)
        ry = self.rep(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self.p[ry] = rx
            self.live -= 1
            self.coincidences += 1
            queue.append(ry)

    def _coincidence(self, a: int, b: int) -> None:
        cols = self.cols
        queue: deque = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for c, col in enumerate(cols):
                delta = col[gamma]
                if delta < 0:
                    continue
                inv = cols[c ^ 1]
                inv[delta] = -1
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if col[mu] >= 0:
                    self._merge(nu, col[mu], queue)
                elif inv[nu] >= 0:
                    self._merge(mu, inv[nu], queue)
                else:
                    col[mu] = nu
                    inv[nu] = mu

    def _compact(self, alpha: int) -> int:
        """Drop the dead rows and renumber the live cosets 0, 1, ... in their
        old order, so that every comparison of coset numbers, and with it the
        rest of the enumeration, comes out as before.  Only called with no
        coincidence pending, when live rows point only at live cosets.
        Returns the number of live cosets below ``alpha``: the new number of
        the first live coset at or after it."""
        p = self.p
        kept = [k for k in range(len(p)) if p[k] == k]
        renumber = [-1] * (len(p) + 1)  # the last entry maps -1 to itself
        # New numbers only for kept cosets: ints made for the dead rows too
        # would be freed between the kept ones and leave the heap fragmented.
        for new, old in enumerate(kept):
            renumber[old] = new
        for col in self.cols:
            col[:] = [renumber[e] for e in map(col.__getitem__, kept)]
        p[:] = map(renumber.__getitem__, kept)
        return bisect_left(kept, alpha)

    # -- definitions and scanning -------------------------------------------

    def _define(self, alpha: int, c: int) -> None:
        if self.live >= self.limits.max_cosets:
            raise _NeedSpace
        if self.defs >= self.limits.max_definitions:
            raise LimitExceeded("definitions", self.limits.max_definitions)
        cols = self.cols
        beta = len(self.p)
        for col in cols:
            col.append(-1)
        self.p.append(beta)
        cols[c][alpha] = beta
        cols[c ^ 1][beta] = alpha
        self.defs += 1
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live

    def _scan(self, alpha: int, path: list[int], fill: bool) -> None:
        cols = self.cols
        f = alpha
        b = alpha
        i = 0
        j = len(path) - 1
        while True:
            while i <= j:
                nxt = cols[path[i]][f]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                prev = cols[path[j] ^ 1][b]
                if prev < 0:
                    break
                b = prev
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                cols[path[i]][f] = b
                cols[path[i] ^ 1][b] = f
                return
            if not fill:
                return
            self._define(f, path[i])

    def _lookahead(self) -> None:
        self.lookaheads += 1
        self._defs_at_lookahead = self.defs
        p = self.p
        for beta in range(len(p)):
            if p[beta] != beta:
                continue
            for path in self.relator_paths:
                self._scan(beta, path, fill=False)
                if p[beta] != beta:
                    break

    def _process(self, alpha: int) -> None:
        p = self.p
        for path in self.relator_paths:
            self._scan(alpha, path, fill=True)
            if p[alpha] != alpha:
                return
        for c, col in enumerate(self.cols):
            if col[alpha] < 0:
                self._define(alpha, c)

    # -- main loop ------------------------------------------------------------

    def run(self) -> CosetTable:
        p = self.p
        for path in self.subgroup_paths:
            self._scan(0, path, fill=True)
        alpha = 0
        while alpha < len(p):
            if self.defs - self._defs_at_lookahead >= _LOOKAHEAD_PERIOD:
                self._lookahead()
            if p[alpha] == alpha:
                try:
                    self._process(alpha)
                except _NeedSpace:
                    before = self.live
                    self._lookahead()
                    if self.live >= before:
                        raise LimitExceeded("cosets", self.limits.max_cosets) from None
                    if p[alpha] == alpha:
                        try:
                            self._process(alpha)
                        except _NeedSpace:
                            raise LimitExceeded(
                                "cosets", self.limits.max_cosets
                            ) from None
            alpha += 1
            if len(p) - self.live > self.live + _COMPACT_MARGIN:
                alpha = self._compact(alpha)
        return self._finish()

    def _finish(self) -> CosetTable:
        """Compact, then build the rows from the last one back, truncating
        the columns as they are read, so that the two layouts never coexist
        in full.  An undefined entry left in a row fails the closedness
        check of :class:`CosetTable`."""
        self._compact(0)
        cols = self.cols
        if cols:
            backwards = []
            for start in reversed(range(0, len(self.p), _FINISH_CHUNK)):
                backwards += zip(*(reversed(col[start:]) for col in cols))
                for col in cols:
                    del col[start:]
            rows = tuple(reversed(backwards))
        else:  # no generators: one empty row per coset
            rows = ((),) * len(self.p)
        stats = EnumerationStats(
            self.defs, self.coincidences, self.lookaheads, self.peak_live
        )
        return CosetTable(self.presentation, self.subgroup_words, rows, stats)


def enumerate_cosets(
    presentation: Presentation,
    subgroup: tuple[Word, ...] | list[Word] = (),
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by ``subgroup`` words.

    Returns a closed, compacted table whose coset count is the subgroup
    index.  Raises :class:`LimitExceeded` when a limit is hit, which is
    always inconclusive."""
    return _Enumerator(presentation, tuple(subgroup), limits).run()


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
    rows = table.rows
    new_rows = [tuple(new_index[e] for e in rows[old]) for old in order]
    return CosetTable(table.presentation, table.subgroup_words, tuple(new_rows), table.stats)


@dataclass(frozen=True)
class SpanningTree:
    """A breadth-first spanning tree of a table's coset graph, rooted at
    coset 0.  ``order`` lists the reached cosets in visit order; a reached
    coset y > 0 hangs off ``parent[y]`` by an edge in column ``column[y]``,
    and an unreached coset has parent -1."""

    order: list[int]
    parent: list[int]
    column: list[int]

    def letters(self) -> list[tuple[Letter, ...]]:
        """Per coset, the letters of the tree word that traces coset 0 to it
        (empty for an unreached coset)."""
        parent = self.parent
        column = self.column
        letters: list[tuple[Letter, ...]] = [()] * len(parent)
        for y in self.order[1:]:
            letters[y] = letters[parent[y]] + (column_letter(column[y]),)
        return letters


def spanning_tree(table: CosetTable, columns: Iterable[int]) -> SpanningTree:
    """Breadth-first search of a closed table from coset 0 that scans
    ``columns`` in the order given and stops once every coset is reached."""
    rows = table.rows
    n = len(rows)
    columns = tuple(columns)
    parent = [-1] * n
    column = [-1] * n
    parent[0] = 0
    order = [0]
    for x in order:  # the queue: cosets are appended while it is scanned
        if len(order) == n:
            break
        row = rows[x]
        for c in columns:
            y = row[c]
            if parent[y] < 0:
                parent[y] = x
                column[y] = c
                order.append(y)
    return SpanningTree(order, parent, column)


def word_image(table: CosetTable, w: Word) -> tuple[int, ...]:
    """The permutation induced by a word (homomorphic extension)."""
    rows = table.rows
    arr = list(range(table.num_cosets))
    for letter in w.letters:
        col = letter_column(letter)
        arr = [rows[x][col] for x in arr]
    return tuple(arr)


def closure_audit(table: CosetTable) -> None:
    """Exhaustively check the closure contract; raises on any violation.

    Verified: columns are permutations, inverse-column consistency, every
    relator traces to the identity permutation, subgroup generators fix
    coset 0, and the joint action is transitive."""
    n = table.num_cosets
    full = list(range(n))
    identity = tuple(full)
    rows = table.rows
    for c in range(table.num_columns):
        if sorted(rows[x][c] for x in full) != full:
            raise CosetEnumerationError(f"column {c} is not a permutation")
    for c in range(0, table.num_columns, 2):
        for x in full:
            if rows[rows[x][c]][c + 1] != x:
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
