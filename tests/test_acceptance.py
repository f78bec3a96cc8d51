"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its runtime; run with `pytest -s
tests/test_acceptance.py` to see them.  Criterion 7 needs the published
datasets (see README) and is skipped when they are not present.
"""

import itertools
import json
import os
import random
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from gdmorph import analysis, export, lexicon, orthography, rules, svf
from test_export import _parse_inserts_back
from test_svf import random_entry

DATA = Path(__file__).parent / "data"
ZENODO_DIR = Path(os.environ.get("GDMORPH_DATASET_DIR", DATA / "zenodo"))


@contextmanager
def criterion(number, name, budget_seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.3f}s)")


def test_criterion_1_saoghal_paradigm():
    with criterion(1, "saoghal paradigm fidelity", 1.0):
        ruleset = rules.default_rules()
        entry = svf.parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"')
        paradigm = rules.decline(entry, ruleset)
        assert paradigm.errors == {}
        assert paradigm.cells == {
            "NS": ["saoghal"],
            "NP": ["saoghalan"],
            "GS": ["saoghail"],
            "GP": ["shaoghalan"],
            "DS": ["saoghal"],
            "DP": ["saoghalan"],
            "VS": ["shaoghail"],
            "VP": ["shaoghalan"],
        }
        forms = set(rules.derive_forms(entry, ruleset)[0])
        assert forms == {
            "saoghal", "saoghail", "saoghalan",
            "shaoghal", "shaoghail", "shaoghalan",
        }
        assert len(forms) == 6


def test_criterion_2_ol_paradigm():
    with criterion(2, "òl paradigm fidelity", 1.0):
        ruleset = rules.default_rules()
        entry = svf.parse_svf_line('VERB "òl" "òl"')
        paradigm = rules.conjugate(entry, ruleset)
        assert paradigm.errors == {}
        assert paradigm.cells == {
            "VN": ["òl"],
            "PASTP": ["òlta"],
            "PAST_IND": ["dh'òl"],
            "PAST_DEP": ["dh'òl"],
            "FUT_IND": ["òlaidh"],
            "FUT_DEP": ["òl"],
            "RELFUT": ["dh'òlas"],
            "COND1S_IND": ["dh'òlainn"],
            "COND1P_IND": ["dh'òlamaid"],
            "COND23_IND": ["dh'òladh"],
            "COND1S_DEP": ["òlainn"],
            "COND1P_DEP": ["òlamaid"],
            "COND23_DEP": ["òladh"],
            "PAST_PASS": ["dh'òladh"],
            "FUT_PASS": ["òlar", "òltar"],
            "COND_PASS": ["dh'òltadh"],
            "RELFUT_PASS": ["dh'òlar"],
            "IMP_PASS": ["òlar", "òltar"],
            "IMP1S": ["òlam"],
            "IMP2S": ["òl"],
            "IMP3S": ["òladh"],
            "IMP1P": ["òlamaid"],
            "IMP2P": ["òlaibh"],
            "IMP3P": ["òladh"],
        }


def test_criterion_3_orthography_suite():
    with criterion(3, "orthography operations and properties", 1.0):
        assert orthography.lenite("cat") == "chat"
        assert orthography.lenite("tuit") == "thuit"
        assert orthography.lenite("saoghal") == "shaoghal"
        assert orthography.lenite("òl") == "òl"
        assert orthography.glottal_past_prefix("òl") == "dh'òl"
        assert orthography.strip_prothesis("n-iasg") == "iasg"
        assert orthography.strip_prothesis("t-saoghail") == "saoghail"
        assert orthography.slenderize("fear") == "fir"
        assert orthography.slenderize("saoghal") == "saoghail"

        rng = random.Random(0xACCE)
        letters = "bcdfgmpstlnraeiouàèìòù"
        for _ in range(1000):
            word = "".join(
                rng.choice(letters) for _ in range(rng.randint(1, 10))
            )
            once = orthography.lenite(word)
            assert orthography.lenite(once) == once

        alternations = [
            ("an", "ean"), ("aidh", "idh"), ("adh", "eadh"), ("ta", "te"),
            ("ar", "ear"), ("as", "eas"), ("amaid", "eamaid"), ("aibh", "ibh"),
        ]
        for _ in range(1000):
            broad = rng.random() < 0.5
            vowels = "aou" if broad else "ei"
            stem = ""
            for _ in range(rng.randint(1, 3)):
                stem += rng.choice("bcdfglmnprst") + rng.choice(vowels)
            if rng.random() < 0.5:
                stem += rng.choice("bcdfglmnprst")
            result = orthography.attach_suffix(
                stem, orthography.SuffixAlternation(*rng.choice(alternations))
            )
            assert orthography.satisfies_vowel_harmony(result), (stem, result)


def test_criterion_4_svf_round_trip_and_dnf():
    with criterion(4, "SVF round-trip and validator agreement", 5.0):
        rng = random.Random(451)
        for _ in range(10_000):
            entry = random_entry(rng)
            line = svf.serialize_entry(entry)
            assert svf.parse_svf_line(line) == entry
            assert svf.serialize_entry(svf.parse_svf_line(line)) == line

        def dnf(entry):
            noun_ok = (
                entry.gender is None and entry.np is None and entry.gs is None
            ) or entry.pos == "NOUN"
            return (
                noun_ok
                and (entry.vn is None or entry.pos == "VERB")
                and (entry.cp is None or entry.pos == "ADJ")
            )

        def mandatory(entry):
            needed = {"NOUN": ("gender", "np", "gs"), "VERB": ("vn",), "ADJ": ("cp",)}
            return all(getattr(entry, f) is not None for f in needed[entry.pos])

        filler = svf.part("facal")
        for pos in svf.PARTS_OF_SPEECH:
            for bits in itertools.product([False, True], repeat=5):
                entry = svf.Entry(
                    lemma="facal",
                    pos=pos,
                    gender="M" if bits[0] else None,
                    np=filler if bits[1] else None,
                    gs=filler if bits[2] else None,
                    vn=filler if bits[3] else None,
                    cp=filler if bits[4] else None,
                )
                clean = svf.validate(entry) == []
                assert clean == (dnf(entry) and mandatory(entry)), (pos, bits)


def test_criterion_5_coverage_oracle():
    with criterion(5, "coverage on vendored fixture", 1.0):
        expected = json.loads((DATA / "coverage_expected.json").read_text())
        freq = analysis.load_frequency_list(DATA / "freq50.tsv")
        entries, errors = svf.load_vocabulary_file(DATA / "coverage20.svf")
        assert not errors and len(entries) == 20
        ruleset = rules.default_rules()
        lemmas = {e.lemma for e in entries}
        allforms = set().union(
            *(set(rules.derive_forms(e, ruleset)[0]) for e in entries)
        )
        assert freq.total_tokens == expected["total_tokens"]
        assert len(freq) == expected["total_types"]

        lemma_report = analysis.coverage(freq, lemmas)
        assert lemma_report.matched_types == expected["lemma_mode"]["matched_types"]
        assert lemma_report.matched_tokens == expected["lemma_mode"]["matched_tokens"]

        allforms_report = analysis.coverage(freq, allforms)
        assert (
            allforms_report.matched_types
            == expected["allforms_mode"]["matched_types"]
        )
        assert (
            allforms_report.matched_tokens
            == expected["allforms_mode"]["matched_tokens"]
        )
        assert allforms_report.token_coverage >= lemma_report.token_coverage


def test_criterion_6_stats_oracles():
    with criterion(6, "suffix statistics and near-duplicates", 1.0):
        entries, errors = svf.load_vocabulary_file(DATA / "stats12.svf")
        assert not errors and len(entries) == 12

        # brute-force recomputation of both statistics
        brute_count = sum(
            1 for e in entries
            if e.np is not None and e.np.is_present
            and e.np.text.endswith("an")
            and len(e.np.text) - len(e.lemma) >= 2
        )
        assert analysis.count_suffix_pattern(entries, "np", "an", 2) == brute_count == 4
        assert analysis.count_suffix_pattern(entries, "np", "an", 2, exact=True) == 2

        histogram = analysis.ending_histogram(entries, "vn", 3, 3)
        brute_buckets = {}
        for e in entries:
            if e.vn is not None and e.vn.is_present:
                if len(e.vn.text) - len(e.lemma) >= 3:
                    brute_buckets[e.vn.text[-3:]] = (
                        brute_buckets.get(e.vn.text[-3:], 0) + 1
                    )
        assert histogram.buckets == brute_buckets
        assert sum(histogram.buckets.values()) == sum(brute_buckets.values())

        dups = [
            svf.parse_svf_line('NOUN M "Dia" "diathan" "Dè"'),
            svf.parse_svf_line('NOUN M "dia" "diathan" "dè"'),
            svf.parse_svf_line('ADJ "mòr" "motha"'),
            svf.parse_svf_line('ADJ "mór" "motha"'),
        ]
        case_pairs, accent_pairs = analysis.find_near_duplicates(dups)
        assert len(case_pairs) == 1 and len(accent_pairs) == 1
        assert {case_pairs[0][0].lemma, case_pairs[0][1].lemma} == {"Dia", "dia"}
        assert {accent_pairs[0][0].lemma, accent_pairs[0][1].lemma} == {"mòr", "mór"}


def _zenodo_paths():
    svf_path = os.environ.get("GDMORPH_ZENODO_SVF")
    freq_path = os.environ.get("GDMORPH_FREQ_LIST")
    if not svf_path and ZENODO_DIR.is_dir():
        candidates = sorted(ZENODO_DIR.glob("*.svf"))
        if candidates:
            svf_path = str(candidates[0])
    if not freq_path and ZENODO_DIR.is_dir():
        candidates = sorted(
            p for p in ZENODO_DIR.iterdir()
            if p.suffix in (".tsv", ".csv", ".txt")
        )
        if candidates:
            freq_path = str(candidates[0])
    return svf_path, freq_path


def test_criterion_7_published_dataset():
    svf_path, freq_path = _zenodo_paths()
    if not svf_path or not freq_path:
        pytest.skip("published dataset not present (see README)")
    with criterion(7, "published dataset statistics", 30.0):
        entries, _ = svf.load_vocabulary_file(svf_path)
        totals = {}
        for entry in entries:
            totals[entry.pos] = totals.get(entry.pos, 0) + 1
        assert totals == {"NOUN": 4956, "ADJ": 1025, "VERB": 534}
        assert sum(e.irregular for e in entries) == 24

        nouns = [e for e in entries if e.pos == "NOUN"]
        assert analysis.count_suffix_pattern(nouns, "np", "an", 2) == 2452
        assert analysis.count_suffix_pattern(nouns, "np", "an", 2, exact=True) == 1302

        histogram = analysis.ending_histogram(entries, "vn", 3, 3)
        assert histogram.buckets.get("adh") == 218
        assert totals["VERB"] == 534

        ruleset = rules.default_rules()
        vocabulary = lexicon.Vocabulary(entries)
        index = lexicon.build_all_forms(vocabulary, ruleset)
        assert len(vocabulary.lemma_set) == 6515
        assert index.distinct_form_count == 33132

        freq = analysis.load_frequency_list(freq_path)
        lemma_report = analysis.coverage(freq, vocabulary.lemma_set)
        assert lemma_report.matched_types == 2044
        allforms_report = analysis.coverage(freq, index.forms())
        assert allforms_report.matched_types == 4371

        curve = analysis.cumulative_coverage_curve(freq, 15)
        assert abs(curve[-1][1] - 0.35) <= 0.01


def test_criterion_8_sql_export():
    with criterion(8, "SQL export and round-trip", 1.0):
        ddl = export.emit_ddl()
        for conjunct in (
            "OR POS = 'NOUN'",
            "(VN IS NULL OR POS = 'VERB')",
            "(CP IS NULL OR POS = 'ADJ')",
        ):
            assert conjunct in ddl

        # independent syntax validation: sqlite executes the portable DDL
        connection = sqlite3.connect(":memory:")
        connection.executescript(export.emit_ddl(dialect=export.PORTABLE))

        entries, errors = svf.load_vocabulary_file(DATA / "coverage20.svf")
        assert not errors
        script = export.emit_inserts(entries)
        connection.executescript(script)
        count = connection.execute("SELECT COUNT(*) FROM Facal").fetchone()[0]
        assert count == len(entries)

        # text-level round trip restores every entry, markers included
        assert _parse_inserts_back(script) == entries
