import random

import pytest

from helpers import (
    PermutationOracle,
    a5_permutation_model,
    group_order_orbit_stabilizer,
    perm_compose,
    perm_identity,
    perm_inverse,
)
import weakcomm.todd_coxeter as todd_coxeter
from weakcomm.finite_groups import realize
from weakcomm.presentations import direct_power, parse_presentation, parse_word
from weakcomm.sidki import double_presentation
from weakcomm.todd_coxeter import (
    CosetTable,
    EnumerationLimits,
    EnumerationStats,
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
S4_TEXT = "< a, b | a^2, b^3, (a*b)^4 >"


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


def test_coset_limit_in_a_subgroup_word_is_inconclusive():
    # the subgroup words are scanned at coset 0 under the same valve
    p = parse_presentation(A5_TEXT)
    word = parse_word("b*a*b*a*b*a*b", p)
    with pytest.raises(LimitExceeded) as exc:
        enumerate_cosets(p, [word], EnumerationLimits(max_cosets=3))
    assert exc.value.kind == "cosets"


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
    columns = []
    for col in table.columns:
        new = [0] * n
        for old in range(n):
            new[perm[old]] = perm[col[old]]
        columns.append(tuple(new))
    return CosetTable(table.presentation, table.subgroup_words, tuple(columns))


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
    "columns",
    [((1, 0), (1, -1)), ((1, 2), (1, 0)), ((1, 0), (1,)), ((1, 0),), ((), ())],
    ids=["undefined-entry", "entry-equal-to-n", "short-column", "wrong-column-count", "no-cosets"],
)
def test_table_must_be_closed(columns):
    p = parse_presentation("< a | a^2 >")
    with pytest.raises(TableNotClosedError):
        CosetTable(p, (), columns)


def test_rows_transpose_the_columns():
    table = CosetTable(parse_presentation("< a | a^3 >"), (), ((1, 2, 0), (2, 0, 1)))
    assert table.rows == ((1, 2), (2, 0), (0, 1))
    assert table.rows is not table.rows  # built on each read, never kept


# closure_audit, one check at a time, on tables built from columns; each
# table is closed, so only the audit can refuse it
C3 = parse_presentation("< a | a^3 >")


@pytest.mark.parametrize(
    "table, message",
    [
        (CosetTable(C3, (), ((1, 1, 0), (2, 0, 1))), "column 0 is not a permutation"),
        (CosetTable(C3, (), ((1, 2, 0), (1, 2, 0))), "inverse consistency fails in column 0"),
        (CosetTable(C3, (), ((1, 0, 2), (1, 0, 2))), "a relator does not act trivially"),
        (
            CosetTable(C3, (Word.gen(0),), ((1, 2, 0), (2, 0, 1))),
            "a subgroup generator moves coset 0",
        ),
        (
            CosetTable(parse_presentation("< a | a^2 >"), (), ((0, 2, 1), (0, 2, 1))),
            "joint action is not transitive",
        ),
    ],
    ids=["not-a-permutation", "inverse-mismatch", "relator-moves", "subgroup-word-moves", "not-transitive"],
)
def test_closure_audit_refuses(table, message):
    with pytest.raises(todd_coxeter.CosetEnumerationError, match=message):
        closure_audit(table)


@pytest.mark.parametrize("text", ["< a | a >", "< | >"])
def test_closure_audit_passes_one_coset(text):
    # one coset: itemgetter of a single key returns an item, not a tuple
    table = enumerate_cosets(parse_presentation(text))
    assert table.num_cosets == 1
    closure_audit(table)
    assert standardize(table).columns == table.columns


def test_permutation_rep_c2():
    p = parse_presentation("< a | a^2 >")
    table = enumerate_cosets(p)
    assert table.rows == ((1, 1), (0, 0))


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
    for coset in range(table.num_cosets):
        assert table.trace(0, Word(tree.path(coset))) == coset


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


@pytest.mark.parametrize("square", ["a^2", "a^-2", "a*a", "a^4, a^6"])
def test_involution_columns_are_equal(a5_oracle_order, square):
    # an involution keeps one column while the enumeration runs; the closed
    # table still has both, equal.  Without a relator x^2 (a^4, a^6), the
    # orbit of halves finds that the column is its own inverse
    p = parse_presentation(f"< a, b | {square}, b^3, (a*b)^5 >")
    table = enumerate_cosets(p)
    assert table.num_cosets == a5_oracle_order
    assert [row[0] for row in table.rows] == [row[1] for row in table.rows]
    assert [row[2] for row in table.rows] != [row[3] for row in table.rows]
    assert table.columns[0] is table.columns[1]  # one tuple for both
    closure_audit(table)


def test_trivial_involution_has_fixed_points():
    p = parse_presentation("< a, b | a^2, a, b^3 >")
    table = enumerate_cosets(p)
    assert table.num_cosets == group_order_orbit_stabilizer([(1, 2, 0)], 3)
    assert all(row[0] == row[1] == x for x, row in enumerate(table.rows))
    closure_audit(table)


def _a5_word_perm(a5_model, w: Word) -> tuple[int, ...]:
    out = perm_identity(5)
    for index, sign in w.letters:
        gen = a5_model[index]
        out = perm_compose(out, gen if sign == 1 else perm_inverse(gen))
    return out


@pytest.mark.parametrize(
    "subgroup, max_cosets",
    [(["a"], None), (["a"], 31), (["b*a*b^-1"], None), (["b*a*b^-1"], 31), (["a", "b*a*b^-1"], None)],
)
def test_involution_in_subgroup_words(a5_oracle_order, subgroup, max_cosets):
    # index |G| / |H| with |H| counted on the 5-point model; unlimited, the
    # enumeration holds more than 31 live cosets, so a limit of 31 forces a
    # lookahead
    model = a5_permutation_model()
    p = parse_presentation(A5_TEXT)
    words = [parse_word(text, p) for text in subgroup]
    order = group_order_orbit_stabilizer([_a5_word_perm(model, w) for w in words], 5)
    limits = EnumerationLimits(max_cosets=max_cosets) if max_cosets else EnumerationLimits()
    table = enumerate_cosets(p, words, limits)
    assert table.num_cosets == a5_oracle_order // order
    assert table.stats.peak_live <= limits.max_cosets
    assert (table.stats.lookaheads > 0) == (max_cosets is not None)
    # a lookahead fires only on a full budget
    assert table.stats.lookaheads == 0 or table.stats.peak_live == limits.max_cosets
    closure_audit(table)


def _short_double_over_iota_psi(text: str):
    p = parse_presentation(text)
    data = double_presentation(p, realize(enumerate_cosets(p)).words)
    assert data.certificate  # so data.double is the short double
    g = p.num_generators
    return data.double, [Word.gen(g + i) for i in range(g)]


@pytest.fixture(scope="module")
def s4_double_unbounded():
    double, psi_gens = _short_double_over_iota_psi(S4_TEXT)
    return double, psi_gens, enumerate_cosets(double, psi_gens)


@pytest.mark.parametrize("max_cosets", [576, 600, 707, 708])
def test_coset_budget_is_a_lookahead_valve(s4_double_unbounded, max_cosets):
    # unbounded, S4's short double over iota_psi(G) peaks at 708 live cosets;
    # any budget from its index 576 up closes it, looking ahead below 708
    double, psi_gens, unbounded = s4_double_unbounded
    table = enumerate_cosets(double, psi_gens, EnumerationLimits(max_cosets=max_cosets))
    assert table.num_cosets == 576
    assert table.stats.peak_live <= max_cosets
    assert (table.stats.lookaheads > 0) == (max_cosets < unbounded.stats.peak_live == 708)
    assert dump_table(standardize(table)) == dump_table(standardize(unbounded))


@pytest.mark.parametrize(
    "text, index, definitions, coincidences, peak_live",
    [
        (S4_TEXT, 576, 1352, 777, 708),
        (A5_TEXT, 7200, 19872, 12673, 8257),
        ("< a, b | a^4, a^2*b^-3, a^2*(a*b)^-5 >", 14400, 64023, 49624, 19608),
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
    "text, index, max_cosets, definitions, coincidences, lookaheads",
    [
        (A5_TEXT, 7200, 8207, 17730, 10531, 1),
        ("< a, b | a^4, a^2*b^-3, a^2*(a*b)^-5 >", 14400, 17004, 44837, 30438, 2),
    ],
    ids=["A5", "SL(2,5)"],
)
def test_lookahead_path_is_pinned(text, index, max_cosets, definitions, coincidences, lookaheads):
    # a budget below the unbounded peak makes lookaheads; any change to the
    # definitions or the lookahead scans moves these counts
    double, psi_gens = _short_double_over_iota_psi(text)
    table = enumerate_cosets(double, psi_gens, EnumerationLimits(max_cosets=max_cosets))
    assert table.num_cosets == index
    assert table.stats == EnumerationStats(definitions, coincidences, lookaheads, max_cosets)


@pytest.mark.parametrize(
    "text, subgroup, max_cosets",
    [
        *(
            pytest.param(text, subgroup, None, id=f"{text}-{subgroup}")
            for text, subgroup in [
                (A5_TEXT, ""),
                ("< a, b | a^6, b^6, (a*b)^2, (a^2*b^2)^2, (a^3*b^3)^5 >", "a"),
                ("< | >", ""),
                # every generator an involution, with coincidences to compact away
                ("< a, b, c | a^2, b^2, c^2, (a*b)^3, (b*c)^3, (c*a)^3, (a*b*c)^4 >", ""),
                (A5_TEXT, "a"),
            ]
        ),
        # S4's short double over iota_psi(G); at 600 cosets lookaheads fire,
        # and the spare entry at each column's end must survive each compaction
        pytest.param(S4_TEXT, "iota_psi(G)", None, id="S4 double-iota_psi(G)"),
        pytest.param(S4_TEXT, "iota_psi(G)", 600, id="S4 double-iota_psi(G)-600"),
    ],
)
def test_compaction_changes_no_definition(monkeypatch, text, subgroup, max_cosets):
    if subgroup == "iota_psi(G)":
        p, words = _short_double_over_iota_psi(text)
    else:
        p = parse_presentation(text)
        words = [parse_word(subgroup, p)] if subgroup else []
    limits = EnumerationLimits(max_cosets=max_cosets) if max_cosets else EnumerationLimits()
    monkeypatch.setattr(todd_coxeter, "_COMPACT_MARGIN", 10**9)  # only at the end
    never = enumerate_cosets(p, words, limits)
    monkeypatch.setattr(todd_coxeter, "_COMPACT_MARGIN", -(10**9))  # after every coset
    always = enumerate_cosets(p, words, limits)
    assert always.columns == never.columns
    assert always.stats == never.stats
    assert (always.stats.lookaheads > 0) == (max_cosets is not None)


# -- the orbit of halves: tables over the trivial subgroup ----------------------

# the bases of perfbench's realized-doubles workload
REALIZED_BASES = {
    **{f"C{n}": f"< a | a^{n} >" for n in range(2, 7)},
    "Klein": "< a, b | a^2, b^2, a^-1*b^-1*a*b >",
    "C2xC4": "< a, b | a^2, b^4, a^-1*b^-1*a*b >",
    "S3": "< a, b | a^2, b^3, (a*b)^2 >",
    "D4": "< a, b | a^2, b^4, (a*b)^2 >",
    "Q8": "< a, b | a^4, a^2*b^-2, b^-1*a*b*a >",
    "D5": "< a, b | a^2, b^5, (a*b)^2 >",
    "A4": "< a, b | a^2, b^3, (a*b)^3 >",
    "S4": S4_TEXT,
}
SL25_TEXT = "< a, b | a^4, a^2*b^-3, a^2*(a*b)^-5 >"


def _hlt(p) -> tuple[CosetTable, int]:
    """The table over the trivial subgroup by plain HLT, with its definitions."""
    e = todd_coxeter._Enumerator(p, (), EnumerationLimits())
    table = CosetTable(p, (), e.run())
    return table, e.defs


def _x(text):
    p = parse_presentation(text)
    return double_presentation(p, realize(enumerate_cosets(p)).words).double


def _cube(text):
    return direct_power(parse_presentation(text), 3)


@pytest.mark.parametrize("base", REALIZED_BASES)
@pytest.mark.parametrize("make", [parse_presentation, _x, _cube], ids=["G", "X(G)", "G^3"])
def test_orbit_of_halves_is_hlt_standardized(base, make):
    p = make(REALIZED_BASES[base])
    table = enumerate_cosets(p)
    hlt, _ = _hlt(p)
    closure_audit(table)
    assert dump_table(standardize(table)) == dump_table(standardize(hlt))
    n = table.num_cosets
    if n <= 1000:
        # n distinct elements, element x the image of coset 0 under its word
        oracle = PermutationOracle.of(realize(table))
        assert [oracle.element(perm) for perm in oracle.perms] == list(range(n))
        assert len(set(oracle.perms)) == n


@pytest.mark.parametrize(
    "p",
    [
        parse_presentation(REALIZED_BASES["Q8"]),  # <a> and <b> meet in <a^2>
        _cube(REALIZED_BASES["Q8"]),  # the halves meet in <a_2^2>
        parse_presentation(SL25_TEXT),  # a^2 = b^3
        # the trivial group; its first half < a | > is infinite
        parse_presentation("< a, b | a*b*a^-1*b^-2, b*a*b^-1*a^-2 >"),
    ],
    ids=["Q8", "Q8^3", "SL(2,5)", "trivial"],
)
def test_uncertified_orbit_falls_back_to_hlt(monkeypatch, p):
    hlt, definitions = _hlt(p)
    runs = []

    class Spy(todd_coxeter._Enumerator):
        def __init__(self, presentation, subgroup, limits):
            runs.append((presentation, subgroup))
            super().__init__(presentation, subgroup, limits)

    monkeypatch.setattr(todd_coxeter, "_Enumerator", Spy)
    table = enumerate_cosets(p)
    assert runs[-1] == (p, ())  # HLT over the trivial subgroup, after the attempt
    assert table.columns == hlt.columns
    assert table.stats.definitions > definitions  # the failed attempt counts


@pytest.mark.parametrize("base", ["Klein", "A4", "S4"])
def test_certified_table_is_numbered_shortlex(base):
    group = realize(enumerate_cosets(parse_presentation(REALIZED_BASES[base])))
    assert group.tree_order == tuple(range(group.order))
    assert list(group.words) == sorted(group.words, key=lambda w: (len(w), w.letters))


def test_orbit_of_halves_limits():
    p = _x(REALIZED_BASES["S4"])
    with pytest.raises(LimitExceeded) as exc:
        enumerate_cosets(p, limits=EnumerationLimits(max_cosets=13823))
    assert exc.value.kind == "cosets"
    # T1, T2 and the order of the first half share one definitions budget:
    # one definition less fails the certificate, and HLT needs far more
    spent = enumerate_cosets(p).stats.definitions
    assert _hlt(p)[1] > spent
    table = enumerate_cosets(p, limits=EnumerationLimits(max_definitions=spent))
    assert table.num_cosets == 13824
    with pytest.raises(LimitExceeded) as exc:
        enumerate_cosets(p, limits=EnumerationLimits(max_definitions=spent - 1))
    assert exc.value.kind == "definitions"
