"""The README's library tour runs and says what the library does."""

import re
from pathlib import Path

from weakcomm.finite_groups import realize
from weakcomm.presentations import parse_presentation
from weakcomm.sidki import SHORT_WORD_LENGTH, double_presentation
from weakcomm.todd_coxeter import enumerate_cosets

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library tour") :]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library tour'"
    return match.group(1)


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
