"""The README's library tour runs, and the README says what the library and
its command line do."""

import argparse
import re
from pathlib import Path

from weakcomm.cli import build_parser
from weakcomm.finite_groups import realize
from weakcomm.presentations import parse_presentation, parse_words
from weakcomm.sidki import SHORT_WORD_LENGTH, double_presentation
from weakcomm.todd_coxeter import enumerate_cosets

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading: str, language: str = "") -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) :]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language or 'plain'} block under {heading!r}"
    return match.group(1)


def library_tour() -> str:
    return section_block("## Library tour", "python")


def test_library_tour_prints_the_a5_double(capsys):
    exec(compile(library_tour(), str(README), "exec"), {})
    assert capsys.readouterr().out.strip() == "432000 2"


def test_library_tour_counts_the_a5_commutators():
    match = re.search(r"(\d+) short commutators, (\d+) certified", library_tour())
    assert match, "the tour no longer counts the commutators"
    short, certified = map(int, match.groups())
    p = parse_presentation("< a, b | a^2, b^3, (a*b)^5 >")
    words = [w for w in realize(enumerate_cosets(p)).words if not w.is_identity()]
    data = double_presentation(p, words)
    assert data.certificate is True
    assert len(data.double.relators) - 2 * len(p.relators) == short
    assert sum(len(w) > SHORT_WORD_LENGTH for w in words) == certified


def test_command_line_block_lists_the_parser_subcommands():
    listed = {line.split()[1] for line in section_block("## Command line").splitlines()}
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == set(subparsers.choices)


def test_documented_presentation_and_subgroup_syntax_parse():
    p = parse_presentation(section_block("Presentation files look like:"))
    assert p.generator_names == ("a", "b")
    match = re.search(r'--subgroup "([^"]*)"', section_block("## Command line"))
    assert match, "the Command line block no longer shows --subgroup"
    assert len(parse_words(match.group(1), p)) == 2
