"""Coset enumeration for finitely presented groups.

The strategy is HLT: relator scans drive coset definitions, with a full
lookahead pass run periodically and whenever the coset limit is hit, so that
coincidences can free space before the enumeration gives up.  Coincidences
are processed immediately through a union-find with column merging.

Cosets are numbered from 0; row 0 is the subgroup coset.  Columns come in
pairs: column 2*i is generator i, column 2*i+1 its inverse, so the inverse
of column c is c ^ 1.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class EnumerationStats:
    definitions: int
    coincidences: int
    lookaheads: int


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
        self.ncols = 2 * g
        self.relator_paths = [word_columns(r) for r in presentation.relators]
        self.subgroup_paths = [word_columns(w) for w in subgroup_words if w.letters]
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]
        self.live = 1
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
        table = self.table
        ncols = self.ncols
        queue: deque = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                tmu = table[mu]
                if tmu[c] is not None:
                    self._merge(nu, tmu[c], queue)
                else:
                    tnu = table[nu]
                    if tnu[c ^ 1] is not None:
                        self._merge(mu, tnu[c ^ 1], queue)
                    else:
                        tmu[c] = nu
                        tnu[c ^ 1] = mu

    # -- definitions and scanning -------------------------------------------

    def _define(self, alpha: int, c: int) -> None:
        if self.live >= self.limits.max_cosets:
            raise _NeedSpace
        if self.defs >= self.limits.max_definitions:
            raise LimitExceeded("definitions", self.limits.max_definitions)
        table = self.table
        beta = len(table)
        table.append([None] * self.ncols)
        self.p.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha
        self.defs += 1
        self.live += 1

    def _scan(self, alpha: int, path: list[int], fill: bool) -> None:
        table = self.table
        f = alpha
        b = alpha
        i = 0
        j = len(path) - 1
        while True:
            while i <= j:
                nxt = table[f][path[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                prev = table[b][path[j] ^ 1]
                if prev is None:
                    break
                b = prev
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                table[f][path[i]] = b
                table[b][path[i] ^ 1] = f
                return
            if not fill:
                return
            self._define(f, path[i])

    def _lookahead(self) -> None:
        self.lookaheads += 1
        self._defs_at_lookahead = self.defs
        p = self.p
        for beta in range(len(self.table)):
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
        row = self.table[alpha]
        for c in range(self.ncols):
            if row[c] is None:
                self._define(alpha, c)

    # -- main loop ------------------------------------------------------------

    def run(self) -> CosetTable:
        p = self.p
        for path in self.subgroup_paths:
            self._scan(0, path, fill=True)
        alpha = 0
        while alpha < len(self.table):
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
        return self._finish()

    def _finish(self) -> CosetTable:
        table = self.table
        p = self.p
        live_order = [i for i in range(len(table)) if p[i] == i]
        new_index = {old: new for new, old in enumerate(live_order)}
        rows = []
        for old in live_order:
            new_row = []
            for e in table[old]:
                if e is None:
                    raise CosetEnumerationError(
                        "internal error: incomplete row after enumeration"
                    )
                new_row.append(new_index[self.rep(e)])
            rows.append(tuple(new_row))
        stats = EnumerationStats(self.defs, self.coincidences, self.lookaheads)
        return CosetTable(self.presentation, self.subgroup_words, tuple(rows), stats)


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


def permutation_rep(table: CosetTable) -> tuple[tuple[int, ...], ...]:
    """One permutation of {0..n-1} per generator (right action on cosets)."""
    return tuple(table.column(2 * i) for i in range(table.presentation.num_generators))


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


def representative_words(table: CosetTable) -> list[Word]:
    """A word per coset tracing coset 0 to it (breadth-first, standard order)."""
    tree = spanning_tree(table, range(table.num_columns))
    if len(tree.order) != table.num_cosets:
        raise CosetEnumerationError("coset action is not transitive")
    return [Word(ls) for ls in tree.letters()]


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
