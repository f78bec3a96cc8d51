import os
import subprocess
import sys
from pathlib import Path

import pytest

from gdmorph import lexicon, rules, svf
from gdmorph.lexicon import Vocabulary, build_all_forms, recognize
from gdmorph.orthography import EXACT, FOLD_ACCENTS, FOLD_ACCENTS_CASE, fold_key
from gdmorph.svf import parse_svf_line

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def ruleset():
    return rules.default_rules()


@pytest.fixture()
def entries():
    return [
        parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"'),
        parse_svf_line('VERB "òl" "òl"'),
        parse_svf_line('ADJ "mòr" "motha"'),
        parse_svf_line('ADJ "mór" "motha"'),  # accent variant, kept separate
    ]


def test_lookup_returns_principal_parts(entries):
    vocab = Vocabulary(entries)
    (found,) = vocab.lookup("saoghal")
    assert found.np.text == "saoghalan"


def test_lookup_fold_policies(entries):
    exact = Vocabulary(entries, fold_policy=EXACT)
    accents = Vocabulary(entries, fold_policy=FOLD_ACCENTS)
    case_too = Vocabulary(entries, fold_policy=FOLD_ACCENTS_CASE)
    assert [e.lemma for e in exact.lookup("mór")] == ["mór"]
    assert {e.lemma for e in accents.lookup("mór")} == {"mòr", "mór"}
    assert {e.lemma for e in accents.lookup("mor")} == {"mòr", "mór"}
    assert exact.lookup("Saoghal") == []
    assert [e.lemma for e in case_too.lookup("SAOGHAL")] == ["saoghal"]


def test_lookup_absent_word(entries):
    assert Vocabulary(entries).lookup("zzz") == []


def test_lookup_finds_every_indexed_lemma(entries):
    for policy in lexicon.FOLD_POLICIES:
        vocab = Vocabulary(entries, fold_policy=policy)
        for entry in entries:
            assert entry in vocab.lookup(entry.lemma)


def test_vocabulary_folds_no_lemma_before_the_first_lookup(entries, monkeypatch):
    calls = []

    def counting_fold_key(text, policy):
        calls.append(text)
        return fold_key(text, policy)

    monkeypatch.setattr(lexicon, "fold_key", counting_fold_key)
    vocab = Vocabulary(entries, fold_policy=FOLD_ACCENTS)
    assert calls == []
    assert [e.lemma for e in vocab.lookup("mor")] == ["mòr", "mór"]
    assert len(calls) == len(entries) + 1


def test_homographs_all_returned():
    pair = [
        parse_svf_line('NOUN M "bàrr" "barran" "barra"'),
        parse_svf_line('NOUN M "bàrr" "bàrran" "bàrra"'),
    ]
    vocab = Vocabulary(pair)
    assert vocab.lookup("bàrr") == pair


def test_build_all_forms_counts(entries, ruleset):
    vocab = Vocabulary(entries[:1])
    index = build_all_forms(vocab, ruleset)
    assert index.distinct_form_count == 6
    assert index.forms_per_pos == {"NOUN": 6}
    assert index.failures == []


def test_forms_per_pos_counts_shared_spellings_under_each_pos(ruleset):
    entries, errors = svf.load_vocabulary_file(DATA / "coverage20.svf")
    assert not errors
    entries += [
        parse_svf_line('NOUN M "mòr" "mòran" "mòir"'),
        parse_svf_line('ADJ "mòr" "motha"'),
    ]
    index = build_all_forms(Vocabulary(entries), ruleset)
    unions: dict[str, set[str]] = {}
    for entry in entries:
        unions.setdefault(entry.pos, set()).update(rules.all_surface_forms(entry, ruleset))
    assert "mòr" in unions["NOUN"] and "mòr" in unions["ADJ"]
    assert index.forms_per_pos == {pos: len(forms) for pos, forms in unions.items()}
    assert sum(index.forms_per_pos.values()) > index.distinct_form_count


def test_build_all_forms_empty_vocabulary(ruleset):
    index = build_all_forms(Vocabulary([]), ruleset)
    assert index.distinct_form_count == 0


def test_build_all_forms_collision_bound(ruleset):
    fixture = [
        parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"'),
        parse_svf_line('NOUN M "cat" "cait" "cait"'),
        parse_svf_line('VERB "òl" "òl"'),
    ]
    vocab = Vocabulary(fixture)
    index = build_all_forms(vocab, ruleset)
    per_entry = [rules.all_surface_forms(e, ruleset) for e in fixture]
    assert index.distinct_form_count <= sum(len(s) for s in per_entry)
    union = set().union(*per_entry)
    assert index.forms() == union


def test_build_all_forms_reports_failures(ruleset):
    vocab = Vocabulary([
        parse_svf_line('NOUN F "sgoil" "sgoiltean" ?'),
        parse_svf_line('VERB "rach" "dol" IRREG'),
    ])
    index = build_all_forms(vocab, ruleset)
    failed_codes = {(lemma, code) for lemma, code, _ in index.failures}
    assert ("sgoil", "GS") in failed_codes and ("sgoil", "VS") in failed_codes
    assert ("rach", "PAST_IND") in failed_codes
    # lemmas still recognizable even when cells failed
    assert "sgoil" in index.form_index and "rach" in index.form_index


def test_build_all_forms_deterministic(entries, ruleset):
    vocab = Vocabulary(entries)
    first = build_all_forms(vocab, ruleset)
    second = build_all_forms(vocab, ruleset)
    assert first.form_index == second.form_index
    assert list(first.form_index) == list(second.form_index)
    assert first.forms_per_pos == second.forms_per_pos


def test_recognize_many_valued(entries, ruleset):
    index = build_all_forms(Vocabulary(entries), ruleset)
    analyses = recognize(index, "shaoghalan")
    assert [(e.lemma, code) for e, code in analyses] == [
        ("saoghal", "GP"), ("saoghal", "VP"),
    ]


def test_recognize_lenited_allomorph(entries, ruleset):
    index = build_all_forms(Vocabulary(entries), ruleset)
    analyses = recognize(index, "shaoghal")
    assert [(e.lemma, code) for e, code in analyses] == [
        ("saoghal", "NS"), ("saoghal", "DS"),
    ]


def test_recognize_strips_prothesis(entries, ruleset):
    index = build_all_forms(Vocabulary(entries), ruleset)
    assert [(e.lemma, c) for e, c in recognize(index, "t-saoghail")] == [
        ("saoghal", "GS"),
    ]
    assert recognize(index, "dh'òl") != []  # already an indexed form


def test_recognize_folds_accents(entries, ruleset):
    index = build_all_forms(Vocabulary(entries, fold_policy=FOLD_ACCENTS), ruleset)
    assert recognize(index, "olaidh") != []
    assert recognize(index, "saoghalan") != []


def test_recognize_miss_is_empty(entries, ruleset):
    index = build_all_forms(Vocabulary(entries), ruleset)
    assert recognize(index, "zzz") == []


def test_recognize_every_indexed_form(ruleset):
    entries, errors = svf.load_vocabulary_file(DATA / "coverage20.svf")
    assert not errors
    vocab = Vocabulary(entries)
    index = build_all_forms(vocab, ruleset)
    for surface, producers in index.form_index.items():
        analyses = recognize(index, surface)
        assert analyses, surface
        for entry, code in analyses:
            if code == rules.LEMMA:
                assert surface in rules.all_surface_forms(entry, ruleset)
            else:
                derived = rules.derive_forms(entry, ruleset)[0]
                assert code in derived[surface] or surface == entry.lemma


@pytest.mark.parametrize("policy", [FOLD_ACCENTS, FOLD_ACCENTS_CASE])
def test_folded_lookup_after_exact_lookups(entries, ruleset, policy):
    index = build_all_forms(Vocabulary(entries, fold_policy=policy), ruleset)
    for word in ("saoghal", "shaoghalan", "òl", "mòr"):
        assert recognize(index, word)
    assert [(e.lemma, c) for e, c in recognize(index, "saoghàlan")] == [
        ("saoghal", "NP"), ("saoghal", "DP"),
    ]
    upper = recognize(index, "SAOGHALAN")
    assert (upper != []) == (policy == FOLD_ACCENTS_CASE)


def test_exact_index_miss_builds_no_folded_map(entries, ruleset):
    index = build_all_forms(Vocabulary(entries, fold_policy=EXACT), ruleset)
    assert recognize(index, "saoghàlan") == []
    assert recognize(index, "t-zzz") == []
    assert "_folded" not in vars(index)


def test_folded_map_waits_for_first_folded_lookup(entries, ruleset):
    index = build_all_forms(Vocabulary(entries, fold_policy=FOLD_ACCENTS), ruleset)
    assert "_folded" not in vars(index)
    recognize(index, "saoghalan")
    assert "_folded" not in vars(index)
    recognize(index, "saoghàlan")
    assert "saoghalan" in vars(index)["_folded"]


def test_homographs_share_one_analyses_set(ruleset):
    masculine = parse_svf_line('NOUN M "cas" "casan" "caise"')
    feminine = parse_svf_line('NOUN F "cas" "casan" "cois"')
    verb = parse_svf_line('VERB "cas" "casadh"')
    index = build_all_forms(Vocabulary([masculine, feminine, verb]), ruleset)
    assert {e for e, _ in index.form_index["cas"]} == {masculine, feminine, verb}
    assert {e for e, _ in index.form_index["casan"]} == {masculine, feminine}
    again = parse_svf_line('NOUN M "cas" "casan" "caise"')
    assert again == masculine and hash(again) == hash(masculine)
    assert masculine != feminine


_ORDER_PROBE = """
from gdmorph import rules
from gdmorph.lexicon import Vocabulary, build_all_forms, recognize
from gdmorph.svf import parse_svf_line, serialize_entry
lines = ['NOUN M "cas" "casan" "caise"', 'NOUN F "cas" "casan" "cois"',
         'NOUN F "cas" "casan" "caise"']
index = build_all_forms(Vocabulary(map(parse_svf_line, lines)), rules.default_rules())
for entry, code in recognize(index, "casan"):
    print(serialize_entry(entry), code)
"""


def test_recognize_order_ignores_hash_seed():
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _ORDER_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1, outputs
    (output,) = outputs
    assert output.splitlines() == [
        'NOUN F "cas" "casan" "caise" NP',
        'NOUN F "cas" "casan" "cois" NP',
        'NOUN M "cas" "casan" "caise" NP',
        'NOUN F "cas" "casan" "caise" DP',
        'NOUN F "cas" "casan" "cois" DP',
        'NOUN M "cas" "casan" "caise" DP',
    ]
