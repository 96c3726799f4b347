import random

import pytest

from helpers import (
    a5_permutation_model,
    group_order_orbit_stabilizer,
    perm_identity,
)
import weakcomm.todd_coxeter as todd_coxeter
from weakcomm.finite_groups import realize
from weakcomm.presentations import parse_presentation, parse_word
from weakcomm.sidki import double_presentation
from weakcomm.todd_coxeter import (
    CosetTable,
    EnumerationLimits,
    LimitExceeded,
    TableNotClosedError,
    closure_audit,
    dump_table,
    enumerate_cosets,
    spanning_tree,
    standardize,
    word_image,
)
from weakcomm.words import Word, commutator

A5_TEXT = "< a, b | a^2, b^3, (a*b)^5 >"


@pytest.fixture(scope="module")
def a5_oracle_order():
    """Verify the expected index 60 on an explicit 5-point realization
    before trusting the enumerator."""
    a, b = a5_permutation_model()
    assert group_order_orbit_stabilizer([a, b], 5) == 60
    return 60


def test_cyclic_five():
    p = parse_presentation("< a | a^5 >")
    table = enumerate_cosets(p)
    assert table.num_cosets == 5
    closure_audit(table)


def test_whole_group_subgroup():
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p, [parse_word("a", p), parse_word("b", p)])
    assert table.num_cosets == 1


def test_a5_over_trivial_matches_oracle(a5_oracle_order):
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p)
    assert table.num_cosets == a5_oracle_order
    closure_audit(table)


def test_a5_over_a(a5_oracle_order):
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p, [parse_word("a", p)])
    # order of a is 2, so the index is 60 / 2
    assert table.num_cosets == a5_oracle_order // 2
    closure_audit(table)


def test_trivial_presentation():
    p = parse_presentation("< | >")
    table = enumerate_cosets(p)
    assert table.num_cosets == 1
    assert table.rows == ((),)  # no columns: one row of width 0
    closure_audit(table)


def test_index_multiplicativity_c12():
    g = parse_presentation("< a | a^12 >")
    h_index = enumerate_cosets(g, [parse_word("a^4", g)]).num_cosets
    k_index = enumerate_cosets(g, [parse_word("a^2", g)]).num_cosets
    # K = <a^2> is cyclic of order 6; H corresponds to the square subgroup
    k = parse_presentation("< x | x^6 >")
    kh_index = enumerate_cosets(k, [parse_word("x^2", k)]).num_cosets
    assert h_index == k_index * kh_index == 4


def test_index_multiplicativity_a5(a5_oracle_order):
    g = parse_presentation(A5_TEXT)
    over_a = enumerate_cosets(g, [parse_word("a", g)]).num_cosets
    a_order = enumerate_cosets(parse_presentation("< x | x^2 >")).num_cosets
    assert over_a * a_order == enumerate_cosets(g).num_cosets == a5_oracle_order


def test_coset_limit_distinguished():
    p = parse_presentation(A5_TEXT)
    with pytest.raises(LimitExceeded) as exc:
        enumerate_cosets(p, limits=EnumerationLimits(max_cosets=10))
    assert exc.value.kind == "cosets"
    assert "inconclusive" in str(exc.value)
    assert "infinite" not in str(exc.value)


def test_definition_limit_distinguished():
    p = parse_presentation(A5_TEXT)
    with pytest.raises(LimitExceeded) as exc:
        enumerate_cosets(p, limits=EnumerationLimits(max_definitions=5))
    assert exc.value.kind == "definitions"


def test_free_group_enumeration_is_inconclusive():
    p = parse_presentation("< a, b | >")
    with pytest.raises(LimitExceeded):
        enumerate_cosets(p, limits=EnumerationLimits(max_cosets=500))


def test_limits_validated():
    with pytest.raises(ValueError):
        EnumerationLimits(max_cosets=0)


def _relabel(table: CosetTable, rng: random.Random) -> CosetTable:
    """Randomly renumber the non-subgroup cosets of a closed table."""
    n = table.num_cosets
    perm = [0] + rng.sample(range(1, n), n - 1)
    rows: list[tuple[int, ...]] = [()] * n
    for old in range(n):
        rows[perm[old]] = tuple(perm[e] for e in table.rows[old])
    return CosetTable(table.presentation, table.subgroup_words, tuple(rows))


def test_standardize_fixpoint():
    p = parse_presentation("< a | a^4 >")
    table = standardize(enumerate_cosets(p))
    assert standardize(table).rows == table.rows


def test_standardize_canonical_under_relabeling():
    rng = random.Random(99)
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p, [parse_word("a", p)])
    expected = standardize(table).rows
    for _ in range(5):
        assert standardize(_relabel(table, rng)).rows == expected


def test_standardize_canonical_a5_trivial():
    rng = random.Random(5)
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p)
    assert standardize(_relabel(table, rng)).rows == standardize(table).rows
    assert standardize(table).num_cosets == 60


@pytest.mark.parametrize(
    "rows",
    [((1, -1),) * 2, ((1, 2), (0, 0)), ((1, 1), (0,)), ()],
    ids=["undefined-entry", "entry-equal-to-n", "short-row", "no-rows"],
)
def test_table_must_be_closed(rows):
    p = parse_presentation("< a | a^2 >")
    with pytest.raises(TableNotClosedError):
        CosetTable(p, (), rows)


def test_permutation_rep_c2():
    p = parse_presentation("< a | a^2 >")
    table = enumerate_cosets(p)
    assert table.column(0) == (1, 0)


def test_relators_act_trivially():
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p)
    identity = tuple(range(table.num_cosets))
    for r in p.relators:
        assert word_image(table, r) == identity


def test_commutator_acts_nontrivially_on_a5():
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p)
    comm = commutator(Word.gen(0), Word.gen(1))
    assert word_image(table, comm) != tuple(range(60))


def test_determinism_byte_identical():
    p = parse_presentation(A5_TEXT)
    first = dump_table(standardize(enumerate_cosets(p, [parse_word("a", p)])))
    second = dump_table(standardize(enumerate_cosets(p, [parse_word("a", p)])))
    assert first == second


def test_representative_words_trace_correctly():
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p, [parse_word("b", p)])
    tree = spanning_tree(table, range(table.num_columns))
    assert len(tree.order) == table.num_cosets
    for coset, letters in enumerate(tree.letters()):
        assert table.trace(0, Word(letters)) == coset


def test_dump_has_header_and_rows():
    p = parse_presentation("< a | a^3 >")
    text = dump_table(enumerate_cosets(p))
    lines = text.strip().splitlines()
    assert lines[0].startswith("# presentation sha256:")
    assert lines[1] == "# subgroup: trivial"
    assert len(lines) == 3 + 3  # header + one row per coset


def test_subgroup_word_validation():
    p = parse_presentation("< a | a^2 >")
    with pytest.raises(ValueError):
        enumerate_cosets(p, [Word.gen(5)])


@pytest.mark.parametrize(
    "text, subgroup, index",
    [
        # classical benchmark enumerations with known indices
        ("< a, b | a^6, b^6, (a*b)^2, (a^2*b^2)^2, (a^3*b^3)^5 >", "a", 500),
        (
            "< a, b | a^4, b^4, (a*b)^4, (a^-1*b)^4, (a^2*b)^4, (a*b^2)^4,"
            " (a^2*b^2)^4, (a^-1*b*a*b)^4, (a*b^-1*a*b)^4 >",
            "a",
            1024,
        ),
    ],
)
def test_benchmark_enumerations(text, subgroup, index):
    p = parse_presentation(text)
    table = enumerate_cosets(p, [parse_word(subgroup, p)])
    assert table.num_cosets == index
    closure_audit(table)


def test_random_subgroup_indices_match_realized_orders(a5_oracle_order):
    # subgroup enumeration cross-checked against orders computed in the
    # realized group (itself certified by the permutation oracle)
    from weakcomm.finite_groups import realize, subgroup_generated

    rng = random.Random(1729)
    p = parse_presentation(A5_TEXT)
    group = realize(enumerate_cosets(p))
    assert group.order == a5_oracle_order
    for _ in range(12):
        count = rng.randint(1, 2)
        words = [
            Word(tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))))
            for _ in range(count)
        ]
        index = enumerate_cosets(p, words).num_cosets
        sub = subgroup_generated(group, [group.evaluate(w) for w in words])
        assert index * sub.order == group.order


def test_lookahead_recovers_space():
    # tight limit that still admits the final table after collapses
    p = parse_presentation(A5_TEXT)
    table = enumerate_cosets(p, [parse_word("a", p)], EnumerationLimits(max_cosets=40))
    assert table.num_cosets == 30
    assert table.stats.peak_live <= 40
    closure_audit(table)


def _short_double_over_iota_psi(text: str):
    p = parse_presentation(text)
    data = double_presentation(p, realize(enumerate_cosets(p)).words)
    assert data.certificate  # so data.double is the short double
    g = p.num_generators
    return data.double, [Word.gen(g + i) for i in range(g)]


@pytest.mark.parametrize(
    "text, index, definitions, coincidences, peak_live",
    [
        ("< a, b | a^2, b^3, (a*b)^4 >", 576, 1711, 1136, 884),
        (A5_TEXT, 7200, 25558, 18359, 9280),
        ("< a, b | a^4, a^2*b^-3, a^2*(a*b)^-5 >", 14400, 64281, 49882, 19608),
    ],
    ids=["S4", "A5", "SL(2,5)"],
)
def test_definition_sequence_is_pinned(text, index, definitions, coincidences, peak_live):
    # any change to the order of definitions moves these counts
    table = enumerate_cosets(*_short_double_over_iota_psi(text))
    assert table.num_cosets == index
    assert (table.stats.definitions, table.stats.coincidences) == (definitions, coincidences)
    assert (table.stats.lookaheads, table.stats.peak_live) == (0, peak_live)


@pytest.mark.parametrize(
    "text, subgroup",
    [
        (A5_TEXT, ""),
        ("< a, b | a^6, b^6, (a*b)^2, (a^2*b^2)^2, (a^3*b^3)^5 >", "a"),
        ("< | >", ""),
    ],
)
def test_compaction_changes_no_definition(monkeypatch, text, subgroup):
    p = parse_presentation(text)
    words = [parse_word(subgroup, p)] if subgroup else []
    monkeypatch.setattr(todd_coxeter, "_COMPACT_MARGIN", 10**9)  # only at the end
    never = enumerate_cosets(p, words)
    monkeypatch.setattr(todd_coxeter, "_COMPACT_MARGIN", -(10**9))  # after every coset
    monkeypatch.setattr(todd_coxeter, "_FINISH_CHUNK", 3)
    always = enumerate_cosets(p, words)
    assert always.rows == never.rows
    assert always.stats == never.stats
