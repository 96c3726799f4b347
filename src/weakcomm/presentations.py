"""Group presentations: parsing, printing, generator maps, products.

Text format: ``< g1, g2, ... | r1, r2, ... >`` with identifiers matching
``[A-Za-z][A-Za-z0-9_]*``.  Relator expressions use ``*`` for concatenation,
``^`` for ASCII integer exponents (negative allowed), ``[x,y]`` as
commutator sugar for x^-1 y^-1 x y, and parentheses.  Whitespace is
insignificant and ``#`` starts a line comment.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

from .words import Word, commutator, shift_word

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_NAME + r"\Z")


class PresentationError(ValueError):
    """Base class for presentation construction and parsing failures."""


class PresentationSyntaxError(PresentationError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class UndeclaredGeneratorError(PresentationError):
    def __init__(self, name: str, line: int, col: int):
        self.name = name
        self.line = line
        self.col = col
        super().__init__(f"undeclared generator {name!r} (line {line}, column {col})")


@dataclass(frozen=True)
class Presentation:
    """Generator names plus freely reduced relator words over their indices
    (generator i is ``generator_names[i]``).

    Relators that reduce to the empty word are dropped and duplicates
    (after free reduction) are removed, keeping first occurrences.
    """

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        for name in self.generator_names:
            if not _IDENT_RE.match(name):
                raise PresentationError(f"invalid generator name {name!r}")
        if len(set(self.generator_names)) != len(self.generator_names):
            raise PresentationError("duplicate generator names")
        cleaned: list[Word] = []
        seen: set[tuple] = set()
        for r in self.relators:
            if not isinstance(r, Word):
                raise PresentationError("relators must be Word instances")
            if r.max_index() >= len(self.generator_names):
                raise PresentationError(
                    f"relator uses generator index {r.max_index()}, "
                    f"but only {len(self.generator_names)} generators are declared"
                )
            if r.is_identity() or r.letters in seen:
                continue
            seen.add(r.letters)
            cleaned.append(r)
        object.__setattr__(self, "relators", tuple(cleaned))

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @staticmethod
    def make(names: Sequence[str], relators: Sequence[Word] = ()) -> "Presentation":
        return Presentation(tuple(names), tuple(relators))

    def digest(self) -> str:
        return hashlib.sha256(presentation_to_text(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Whitespace and comments match without a named group; any other character
# matches ``bad``.
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]+|#.*|(?P<ident>{_NAME})|(?P<int>-?[0-9]+)|(?P<punct>[<>|,*^()\[\]])|(?P<bad>.)"
)


class _Parser:
    """Recursive descent over ``(kind, text, offset)`` tokens, where the kind
    of punctuation is the character itself."""

    def __init__(self, text: str, names: Sequence[str] = ()):
        self.text = text
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise PresentationSyntaxError(
                    f"unexpected character {m.group()!r}", *self.position(m.start())
                )
            if kind:
                self.tokens.append((m.group() if kind == "punct" else kind, m.group(), m.start()))
        self.tokens.append(("end", "end of input", len(text)))
        self.pos = 0
        self.gen_index = {name: i for i, name in enumerate(names)}

    def position(self, offset: int) -> tuple[int, int]:
        """The 1-based line and column of ``text[offset]``."""
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> str:
        if not self.accept(kind):
            wanted = {"ident": "a generator name", "int": "an integer", "end": "end of input"}
            self.fail(f"expected {wanted.get(kind, repr(kind))}")
        return self.tokens[self.pos - 1][1]

    def fail(self, expected: str) -> NoReturn:
        kind, text, offset = self.tokens[self.pos]
        found = text if kind == "end" else repr(text)
        raise PresentationSyntaxError(f"{expected}, found {found}", *self.position(offset))

    def comma_list(self, item: Callable[[], object], close: str) -> list:
        """Items separated by commas, up to ``close`` (which is consumed);
        empty when ``close`` comes first."""
        items = []
        if not self.accept(close):
            items.append(item())
            while self.accept(","):
                items.append(item())
            self.expect(close)
        return items

    def word(self) -> Word:
        result = self.factor()
        while self.accept("*"):
            result = result * self.factor()
        return result

    def factor(self) -> Word:
        atom = self.atom()
        return atom ** int(self.expect("int")) if self.accept("^") else atom

    def atom(self) -> Word:
        if self.accept("ident"):
            _, name, offset = self.tokens[self.pos - 1]
            if name not in self.gen_index:
                raise UndeclaredGeneratorError(name, *self.position(offset))
            return Word.gen(self.gen_index[name])
        if self.accept("("):
            inner = self.word()
            self.expect(")")
            return inner
        if self.accept("["):
            left = self.word()
            self.expect(",")
            right = self.word()
            self.expect("]")
            return commutator(left, right)
        self.fail("expected a word")


def parse_presentation(text: str) -> Presentation:
    parser = _Parser(text)
    parser.expect("<")
    names = parser.comma_list(lambda: parser.expect("ident"), "|")
    parser.gen_index = {name: i for i, name in enumerate(names)}
    relators = parser.comma_list(parser.word, ">")
    parser.expect("end")
    return Presentation.make(names, relators)


def parse_word(text: str, presentation: Presentation) -> Word:
    """Parse a single word expression over a presentation's generators."""
    parser = _Parser(text, presentation.generator_names)
    w = parser.word()
    parser.expect("end")
    return w


def parse_words(text: str, presentation: Presentation) -> list[Word]:
    """Parse comma-separated words over a presentation's generators; empty
    text gives no words, and an empty item is an error."""
    parser = _Parser(text, presentation.generator_names)
    return parser.comma_list(parser.word, "end")


def word_to_text(w: Word, names: Sequence[str]) -> str:
    if w.is_identity():
        return "e"
    parts = []
    for index, exp in w.syllables():
        if exp == 1:
            parts.append(names[index])
        else:
            parts.append(f"{names[index]}^{exp}")
    return "*".join(parts)


def presentation_to_text(p: Presentation) -> str:
    pieces = ["<"]
    if p.generator_names:
        pieces.append(", ".join(p.generator_names))
    pieces.append("|")
    if p.relators:
        pieces.append(", ".join(word_to_text(r, p.generator_names) for r in p.relators))
    pieces.append(">")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Generator maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorMap:
    """A map defined on generators, extended homomorphically to words."""

    source: Presentation
    target: Presentation
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.num_generators:
            raise PresentationError(
                f"expected {self.source.num_generators} images, got {len(self.images)}"
            )
        for w in self.images:
            if w.max_index() >= self.target.num_generators:
                raise PresentationError("image word uses undeclared target generator")

    def apply(self, w: Word) -> Word:
        if w.max_index() >= self.source.num_generators:
            raise PresentationError("word uses undeclared source generator")
        out = Word.identity()
        for i, s in w.letters:
            img = self.images[i]
            out = out * (img if s == 1 else img.inverse())
        return out

    def verify(self, is_identity: Callable[[Word], bool]) -> bool:
        """True when every source relator's image is confirmed trivial by the
        supplied decider.  The decider must be sound for True."""
        return all(is_identity(self.apply(r)) for r in self.source.relators)


# ---------------------------------------------------------------------------
# Direct powers
# ---------------------------------------------------------------------------


def direct_power(p: Presentation, k: int) -> Presentation:
    """k disjoint copies (copy-major generator layout, names suffixed _1.._k)
    plus all commutators between generators of distinct copies."""
    if k < 1:
        raise PresentationError(f"direct power requires k >= 1, got {k}")
    g = p.num_generators
    names = [f"{name}_{c + 1}" for c in range(k) for name in p.generator_names]
    relators: list[Word] = []
    for c in range(k):
        relators.extend(shift_word(r, c * g) for r in p.relators)
    for c1 in range(k):
        for c2 in range(c1 + 1, k):
            for i in range(g):
                for j in range(g):
                    relators.append(
                        commutator(Word.gen(c1 * g + i), Word.gen(c2 * g + j))
                    )
    return Presentation.make(names, relators)


# ---------------------------------------------------------------------------
# Word-problem deciders (sound for True; used to verify generator maps)
# ---------------------------------------------------------------------------


def direct_power_identity_decider(
    base_decider: Callable[[Word], bool], copies: int, base_num_generators: int
) -> Callable[[Word], bool]:
    """Decide w = e in a ``direct_power`` target by projecting to each copy."""

    def decide(w: Word) -> bool:
        for c in range(copies):
            lo = c * base_num_generators
            hi = lo + base_num_generators
            projected = Word(tuple((i - lo, s) for i, s in w.letters if lo <= i < hi))
            if not base_decider(projected):
                return False
        return True

    return decide
