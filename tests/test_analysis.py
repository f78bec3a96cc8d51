import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdmorph import rules, svf
from gdmorph.analysis import (
    FormatError,
    FrequencyList,
    RangeError,
    TokenTotalError,
    count_suffix_pattern,
    coverage,
    cumulative_coverage_curve,
    ending_histogram,
    find_near_duplicates,
    hapax_report,
    load_frequency_list,
)
from gdmorph.orthography import FOLD_ACCENTS
from gdmorph.svf import parse_svf_line

DATA = Path(__file__).parent / "data"


def _freq(tmp_path, text, name="list.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_three_column_tsv(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\tagus\t10\n2\tcat\t5\n3\tglè\t3\n"))
    assert fl.rows == [(1, "agus", 10), (2, "cat", 5), (3, "glè", 3)]
    assert fl.total_tokens == 18
    assert fl.warnings == []


def test_frequency_list_length_counts_rows(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\tagus\t10\n2\tcat\t5\n3\tglè\t3\n"))
    assert len(fl) == len(fl.rows) == 3


def test_load_two_column_csv_assigns_ranks(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "agus,10\ncat,5\n"))
    assert fl.rows == [(1, "agus", 10), (2, "cat", 5)]


def test_load_skips_header_row(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "rank\tword\tcount\n1\tagus\t10\n"))
    assert fl.rows == [(1, "agus", 10)]


@pytest.mark.parametrize("header", ["rank lexeme count", "Rank,Lexeme,Count"])
def test_load_sniffs_the_delimiter_below_a_header(tmp_path, header):
    fl = load_frequency_list(_freq(tmp_path, f"{header}\n1\tagus\t10\n2\tcat\t5\n"))
    assert fl.rows == [(1, "agus", 10), (2, "cat", 5)]
    assert fl.warnings == []


@pytest.mark.parametrize(
    "above", ["# counts\n", "\n", "# counts\n\n"], ids=["comment", "blank", "both"]
)
def test_load_takes_the_header_below_comments_and_blank_lines(tmp_path, above):
    # the header is the first record, not the first line of the file
    text = f"{above}rank lexeme count\n1\tcat\t10\n2\tcù\t1\n"
    fl = load_frequency_list(_freq(tmp_path, text))
    assert fl.rows == [(1, "cat", 10), (2, "cù", 1)]
    assert fl.warnings == []


def test_load_takes_only_one_header(tmp_path):
    path = _freq(tmp_path, "# counts\nrank\nlexeme\n1\tcat\t10\n")
    fl = load_frequency_list(path)
    assert fl.rows == [(1, "cat", 10)]
    assert list(map(str, fl.warnings)) == [f"{path}: line 3: unparsable row 'lexeme'"]


def test_load_warns_on_bad_rows_and_order(tmp_path):
    fl = load_frequency_list(
        _freq(tmp_path, "1\tagus\t10\n2\tbroken\n3\tcat\t20\n")
    )
    assert len(fl.rows) == 2
    assert any(w.line == 2 for w in fl.warnings)
    assert any("exceeds" in w.message for w in fl.warnings)


def test_load_keeps_first_row_after_byte_order_mark(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "\ufeff1\tan\t500\n2\tcat\t5\n"))
    assert fl.rows == [(1, "an", 500), (2, "cat", 5)]
    assert fl.warnings == []


def test_load_leaves_out_a_row_with_a_negative_count(tmp_path):
    # a negative count would take tokens off the total; a zero count loads
    path = _freq(tmp_path, "1\tcat\t5\n2\tcù\t-3\n3\tbàta\t-4\n4\tglè\t0\n", name="neg.tsv")
    fl = load_frequency_list(path)
    assert fl.rows == [(1, "cat", 5), (4, "glè", 0)]
    assert fl.total_tokens == 5
    assert list(map(str, fl.warnings)) == [
        f"{path}: line 2: negative count -3",
        f"{path}: line 3: negative count -4",
    ]
    # counts that summed to 0 with the negative one now have a positive total
    path = _freq(tmp_path, "1\ta\t3\n2\tb\t-3\n")
    fl = load_frequency_list(path)
    assert list(map(str, fl.warnings)) == [f"{path}: line 2: negative count -3"]
    assert cumulative_coverage_curve(fl, 1) == [(1, 1.0)]


def test_load_empty_file_raises(tmp_path):
    with pytest.raises(FormatError):
        load_frequency_list(_freq(tmp_path, ""))


def test_load_warns_on_a_broken_first_row(tmp_path):
    # a first record with a number in it is data, not a header
    path = _freq(tmp_path, "# counts\n1\tcat\n2\tdog\t5\n")
    fl = load_frequency_list(path)
    assert fl.rows == [(2, "dog", 5)]
    assert list(map(str, fl.warnings)) == [f"{path}: line 2: unparsable row '1\\tcat'"]


_CELL_WORDS = st.text(alphabet="abcgilnorstuàòÀ", min_size=1, max_size=6)
_CELL_NUMBERS = st.integers(0, 10**6).map(str)
_FILLER = st.sampled_from(["", "   ", "\t", "# counts", "#1\tcat\t5", "  # rank,lexeme"])
# a record's cells: valid 2- and 3-column rows, word-only rows and broken
# rows come from the same draw, told apart by which cells are numbers
_RECORD = st.lists(st.one_of(_CELL_WORDS, _CELL_NUMBERS), min_size=1, max_size=4)


def _expected_row(cells: list[str], next_rank: int):
    if len(cells) == 3 and cells[0].isdigit() and cells[2].isdigit():
        return int(cells[0]), cells[1], int(cells[2])
    if len(cells) == 2 and cells[1].isdigit():
        return next_rank, cells[0], int(cells[1])
    return None


@settings(max_examples=300, deadline=None)
@given(
    delimiter=st.sampled_from(["\t", ","]),
    header=st.none() | st.lists(_CELL_WORDS, min_size=1, max_size=3),
    items=st.lists(st.one_of(_FILLER, _RECORD), max_size=12),
)
def test_every_record_is_a_row_or_a_warning_naming_its_line(
    tmp_path_factory, delimiter, header, items
):
    lines = ([] if header is None else [header]) + items
    text = "".join(
        (item if isinstance(item, str) else delimiter.join(item)) + "\n" for item in lines
    )
    path = tmp_path_factory.mktemp("freq") / "list.tsv"
    rows, unparsable, first = [], [], True
    for number, item in enumerate(lines, start=1):
        if isinstance(item, str):
            continue
        row = _expected_row(item, len(rows) + 1)
        if row is not None:
            rows.append(row)
        elif not (first and not any(cell.isdigit() for cell in item)):  # not a header
            unparsable.append(f"{path}: line {number}: unparsable row {delimiter.join(item)!r}")
        first = False
    path.write_text(text, encoding="utf-8")
    if not rows:
        with pytest.raises(FormatError):
            load_frequency_list(path)
        return
    fl = load_frequency_list(path)
    assert fl.rows == rows
    assert [str(w) for w in fl.warnings if w.message.startswith("unparsable row ")] == unparsable


def test_coverage_hand_computed_oracle(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t10\n2\tb\t5\n3\tc\t3\n4\td\t2\n"))
    report = coverage(fl, {"a", "c"})
    assert report.matched_types == 2 and report.total_types == 4
    assert report.type_coverage == 0.5
    assert report.matched_tokens == 13 and report.total_tokens == 20
    assert report.token_coverage == 0.65
    assert report.unmatched_top == [("b", 5), ("d", 2)]


def test_coverage_all_keys(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t10\n2\tb\t5\n"))
    report = coverage(fl, {"a", "b"})
    assert report.type_coverage == 1.0 and report.token_coverage == 1.0
    assert report.unmatched_top == []


def test_coverage_folding(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\tmór\t4\n2\tmor\t2\n"))
    assert coverage(fl, {"mòr"}).matched_types == 0
    assert coverage(fl, {"mòr"}, fold=FOLD_ACCENTS).matched_types == 2


def test_coverage_superset_monotonicity():
    fl = load_frequency_list(DATA / "freq50.tsv")
    entries, _ = svf.load_vocabulary_file(DATA / "coverage20.svf")
    ruleset = rules.default_rules()
    lemmas = {e.lemma for e in entries}
    allforms = set().union(*(set(rules.derive_forms(e, ruleset)[0]) for e in entries))
    lemma_report = coverage(fl, lemmas)
    allforms_report = coverage(fl, allforms)
    assert allforms_report.token_coverage >= lemma_report.token_coverage
    assert allforms_report.type_coverage >= lemma_report.type_coverage


def test_fixture_coverage_matches_frozen_oracle():
    expected = json.loads((DATA / "coverage_expected.json").read_text())
    fl = load_frequency_list(DATA / "freq50.tsv")
    entries, errors = svf.load_vocabulary_file(DATA / "coverage20.svf")
    assert not errors and len(entries) == 20
    ruleset = rules.default_rules()
    lemmas = {e.lemma for e in entries}
    allforms = set().union(*(set(rules.derive_forms(e, ruleset)[0]) for e in entries))

    assert fl.total_tokens == expected["total_tokens"]
    lemma_report = coverage(fl, lemmas)
    assert lemma_report.matched_types == expected["lemma_mode"]["matched_types"]
    assert lemma_report.matched_tokens == expected["lemma_mode"]["matched_tokens"]
    allforms_report = coverage(fl, allforms)
    assert allforms_report.matched_types == expected["allforms_mode"]["matched_types"]
    assert allforms_report.matched_tokens == expected["allforms_mode"]["matched_tokens"]

    # recompute with plain loops, independent of CoverageReport
    for keys, report in ((lemmas, lemma_report), (allforms, allforms_report)):
        types = tokens = 0
        for _, lexeme, count in fl.rows:
            if lexeme in keys:
                types += 1
                tokens += count
        assert (types, tokens) == (report.matched_types, report.matched_tokens)


def test_cumulative_curve_hand_computed(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t10\n2\tb\t5\n3\tc\t3\n4\td\t2\n"))
    assert cumulative_coverage_curve(fl, 2) == [(1, 0.5), (2, 0.75)]
    full = cumulative_coverage_curve(fl, 4)
    assert full[-1] == (4, 1.0)
    assert all(full[i][1] <= full[i + 1][1] for i in range(len(full) - 1))


@given(st.lists(st.integers(0, 10**15), min_size=1, max_size=40), st.data())
def test_cumulative_curve_equals_the_running_sum_loop(counts, data):
    assume(sum(counts) > 0)
    fl = FrequencyList([(rank, f"w{rank}", count) for rank, count in enumerate(counts, 1)])
    k = data.draw(st.integers(1, len(counts)))
    points = []
    running = 0
    for position in range(k):
        running += fl.rows[position][2]
        points.append((position + 1, running / fl.total_tokens))
    assert cumulative_coverage_curve(fl, k) == points


def test_cumulative_curve_range_errors(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t10\n"))
    with pytest.raises(RangeError):
        cumulative_coverage_curve(fl, 2)
    with pytest.raises(RangeError):
        cumulative_coverage_curve(fl, 0)


def test_cumulative_curve_needs_positive_token_total(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t0\n2\tb\t0\n"))
    with pytest.raises(TokenTotalError, match="positive total"):
        cumulative_coverage_curve(fl, 1)


@pytest.fixture(scope="module")
def stats_entries():
    entries, errors = svf.load_vocabulary_file(DATA / "stats12.svf")
    assert not errors and len(entries) == 12
    return entries


def test_ending_histogram_fixture(stats_entries):
    histogram = ending_histogram(stats_entries, "vn", suffix_len=3, min_growth=3)
    assert histogram.buckets == {"adh": 3, "chd": 1, "inn": 1}
    assert list(histogram.buckets) == ["adh", "chd", "inn"]  # count then alpha
    assert sum(histogram.buckets.values()) == 5


def test_ending_histogram_brute_force(stats_entries):
    histogram = ending_histogram(stats_entries, "vn", suffix_len=3, min_growth=3)
    brute = {}
    for entry in stats_entries:
        if entry.vn is None or not entry.vn.is_present:
            continue
        if len(entry.vn.text) - len(entry.lemma) >= 3:
            key = entry.vn.text[-3:]
            brute[key] = brute.get(key, 0) + 1
    assert histogram.buckets == brute
    assert sum(histogram.buckets.values()) == sum(brute.values())


def test_ending_histogram_excludes_short_growth():
    entry = parse_svf_line('VERB "òl" "òl"')
    histogram = ending_histogram([entry], "vn", suffix_len=3, min_growth=3)
    assert histogram.buckets == {}


def test_ending_histogram_two_verbs():
    entries = [
        parse_svf_line('VERB "pòs" "pòsadh"'),
        parse_svf_line('VERB "fan" "fantainn"'),
    ]
    histogram = ending_histogram(entries, "vn", suffix_len=3, min_growth=3)
    assert histogram.buckets == {"adh": 1, "inn": 1}


@pytest.mark.parametrize("count", [
    lambda entries: ending_histogram(entries, "pl"),
    lambda entries: count_suffix_pattern(entries, "pl", "an"),
], ids=["ending_histogram", "count_suffix_pattern"])
def test_an_unknown_part_selector_is_refused(count):
    # the selector is checked per entry, so one entry is needed
    with pytest.raises(ValueError, match="^unknown principal part selector: 'pl'$"):
        count([parse_svf_line('ADJ "mòr" "motha"')])


def test_ending_histogram_needs_a_suffix():
    with pytest.raises(ValueError, match="^suffix_len must be at least 1$"):
        ending_histogram([], "np", suffix_len=0)


def test_count_suffix_pattern_fixture(stats_entries):
    nouns = [e for e in stats_entries if e.pos == svf.NOUN]
    assert count_suffix_pattern(nouns, "np", "an", min_extra=2) == 4
    assert count_suffix_pattern(nouns, "np", "an", min_extra=2, exact=True) == 2


def test_count_suffix_pattern_brute_force(stats_entries):
    expected_ge = sum(
        1
        for e in stats_entries
        if e.np is not None
        and e.np.is_present
        and e.np.text.endswith("an")
        and len(e.np.text) - len(e.lemma) >= 2
    )
    assert count_suffix_pattern(stats_entries, "np", "an", min_extra=2) == expected_ge


def test_count_suffix_pattern_saoghal():
    entry = parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"')
    assert count_suffix_pattern([entry], "np", "an", min_extra=2) == 1


def test_near_duplicates_fixture():
    entries = [
        parse_svf_line('NOUN M "Dia" "diathan" "Dè"'),
        parse_svf_line('NOUN M "dia" "diathan" "dè"'),
        parse_svf_line('ADJ "mòr" "motha"'),
        parse_svf_line('ADJ "mór" "motha"'),
        parse_svf_line('NOUN M "cat" "cait" "cait"'),
    ]
    case_pairs, accent_pairs = find_near_duplicates(entries)
    assert [(a.lemma, b.lemma) for a, b in case_pairs] == [("Dia", "dia")]
    assert [(a.lemma, b.lemma) for a, b in accent_pairs] == [("mòr", "mór")]


def test_near_duplicates_categories_exclusive():
    entries = [
        parse_svf_line('ADJ "Mòr" "motha"'),
        parse_svf_line('ADJ "mór" "motha"'),  # differs in case AND accent
    ]
    case_pairs, accent_pairs = find_near_duplicates(entries)
    assert case_pairs == [] and accent_pairs == []


def test_near_duplicates_permutation_invariant():
    entries = [
        parse_svf_line('NOUN M "Dia" "diathan" "Dè"'),
        parse_svf_line('ADJ "mòr" "motha"'),
        parse_svf_line('NOUN M "dia" "diathan" "dè"'),
        parse_svf_line('ADJ "mór" "motha"'),
    ]
    def key(pairs):
        return {frozenset((a.lemma, b.lemma)) for a, b in pairs}
    case_a, accent_a = find_near_duplicates(entries)
    case_b, accent_b = find_near_duplicates(list(reversed(entries)))
    assert key(case_a) == key(case_b)
    assert key(accent_a) == key(accent_b)


def test_hapax_report(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t2\n2\tb\t1\n3\tc\t1\n"))
    assert hapax_report(fl) == (2, ["b", "c"])


def test_hapax_report_none(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t2\n"))
    assert hapax_report(fl) == (0, [])


def test_analytics_do_not_mutate_rows():
    fl = load_frequency_list(DATA / "freq50.tsv")
    snapshot = list(fl.rows)
    coverage(fl, {"saoghal"})
    cumulative_coverage_curve(fl, 10)
    hapax_report(fl)
    assert fl.rows == snapshot
