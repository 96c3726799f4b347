"""Group presentations: parsing, printing, generator maps, products.

Text format: ``< g1, g2, ... | r1, r2, ... >`` with identifiers matching
``[A-Za-z][A-Za-z0-9_]*``.  Relator expressions use ``*`` for concatenation,
``^`` for integer exponents (negative allowed), ``[x,y]`` as commutator sugar
for x^-1 y^-1 x y, and parentheses.  Whitespace is insignificant and ``#``
starts a line comment.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .words import Word, commutator, shift_word

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


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
# Lexer / parser
# ---------------------------------------------------------------------------

_PUNCT = "<>|,*^()[]"


@dataclass(frozen=True)
class _Token:
    kind: str  # one of _PUNCT, "int", "ident", "end"
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "-" or ch.isdigit():
            start, scol = i, col
            j = i + 1 if ch == "-" else i
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i:j]
            if digits in ("", "-"):
                raise PresentationSyntaxError("expected digits after '-'", line, col)
            tokens.append(_Token("int", int(digits), line, scol))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise PresentationSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], gen_index: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.gen_index = gen_index

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = {"ident": "a generator name", "int": "an integer"}.get(kind, repr(kind))
            raise PresentationSyntaxError(f"expected {wanted}, found {tok.value!r}", tok.line, tok.col)
        return self.advance()

    def finish(self) -> None:
        tail = self.peek()
        if tail.kind != "end":
            raise PresentationSyntaxError(
                f"unexpected trailing input {tail.value!r}", tail.line, tail.col
            )

    def word(self) -> Word:
        result = self.factor()
        while self.peek().kind == "*":
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> Word:
        atom = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exp = self.expect("int")
            return atom ** int(exp.value)  # type: ignore[arg-type]
        return atom

    def atom(self) -> Word:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            name = str(tok.value)
            if name not in self.gen_index:
                raise UndeclaredGeneratorError(name, tok.line, tok.col)
            return Word.gen(self.gen_index[name])
        if tok.kind == "(":
            self.advance()
            inner = self.word()
            self.expect(")")
            return inner
        if tok.kind == "[":
            self.advance()
            left = self.word()
            self.expect(",")
            right = self.word()
            self.expect("]")
            return commutator(left, right)
        raise PresentationSyntaxError(
            f"expected a word, found {tok.value!r}", tok.line, tok.col
        )


def parse_presentation(text: str) -> Presentation:
    parser = _Parser(_tokenize(text), {})
    parser.expect("<")
    names: list[str] = []
    if parser.peek().kind == "ident":
        names.append(str(parser.advance().value))
        while parser.peek().kind == ",":
            parser.advance()
            names.append(str(parser.expect("ident").value))
    parser.expect("|")
    parser.gen_index = {name: i for i, name in enumerate(names)}
    relators: list[Word] = []
    if parser.peek().kind != ">":
        relators.append(parser.word())
        while parser.peek().kind == ",":
            parser.advance()
            relators.append(parser.word())
    parser.expect(">")
    parser.finish()
    return Presentation.make(names, relators)


def parse_word(text: str, presentation: Presentation) -> Word:
    """Parse a single word expression over a presentation's generators."""
    names = presentation.generator_names
    parser = _Parser(_tokenize(text), {name: i for i, name in enumerate(names)})
    w = parser.word()
    parser.finish()
    return w


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


def free_identity_decider(p: Presentation) -> Callable[[Word], bool]:
    """Word problem of a free group: trivial iff freely reduced to empty."""
    if p.relators:
        raise PresentationError("free decider requires a presentation without relators")
    return lambda w: w.is_identity()


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


def relator_identity_decider(p: Presentation) -> Callable[[Word], bool]:
    """Partial decider: confirms words that freely reduce to empty or are a
    cyclic rotation of a relator or an inverse relator.  Sound for True."""
    accepted: set[tuple] = set()
    for r in p.relators:
        for w in (r, r.inverse()):
            ls = w.letters
            for shift in range(len(ls)):
                accepted.add(ls[shift:] + ls[:shift])

    def decide(w: Word) -> bool:
        return w.is_identity() or w.letters in accepted

    return decide
