import json
from pathlib import Path

import pytest

from gdmorph import rules, svf
from gdmorph.analysis import (
    FormatError,
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


def test_load_warns_on_bad_rows_and_order(tmp_path):
    fl = load_frequency_list(
        _freq(tmp_path, "1\tagus\t10\n2\tbroken\n3\tcat\t20\n")
    )
    assert len(fl.rows) == 2
    assert any("line 2" in w for w in fl.warnings)
    assert any("exceeds" in w for w in fl.warnings)


def test_load_keeps_first_row_after_byte_order_mark(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "\ufeff1\tan\t500\n2\tcat\t5\n"))
    assert fl.rows == [(1, "an", 500), (2, "cat", 5)]
    assert fl.warnings == []


def test_load_empty_file_raises(tmp_path):
    with pytest.raises(FormatError):
        load_frequency_list(_freq(tmp_path, ""))


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
    allforms = set().union(*(rules.all_surface_forms(e, ruleset) for e in entries))
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
    allforms = set().union(*(rules.all_surface_forms(e, ruleset) for e in entries))

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


def test_cumulative_curve_range_errors(tmp_path):
    fl = load_frequency_list(_freq(tmp_path, "1\ta\t10\n"))
    with pytest.raises(RangeError):
        cumulative_coverage_curve(fl, 2)
    with pytest.raises(RangeError):
        cumulative_coverage_curve(fl, 0)


def test_cumulative_curve_needs_positive_token_total(tmp_path):
    for counts in ("0\n2\tb\t0", "3\n2\tb\t-3"):
        fl = load_frequency_list(_freq(tmp_path, f"1\ta\t{counts}\n"))
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
    assert histogram.total == 5


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
    assert histogram.total == sum(brute.values())


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
