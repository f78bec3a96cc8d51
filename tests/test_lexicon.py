import os
import subprocess
import sys
import unicodedata
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmorph import lexicon, orthography, rules, svf
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
        unions.setdefault(entry.pos, set()).update(set(rules.derive_forms(entry, ruleset)[0]))
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
    per_entry = [set(rules.derive_forms(e, ruleset)[0]) for e in fixture]
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


@pytest.mark.parametrize("make", [lambda policy: Vocabulary([], policy), lexicon.AllFormsIndex])
def test_unknown_fold_policy_is_refused_when_made(make):
    # a bad policy found only at the first folded lookup would be a KeyError
    with pytest.raises(ValueError, match="unknown fold policy: 'bogus'"):
        make("bogus")


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
                assert surface in set(rules.derive_forms(entry, ruleset)[0])
            else:
                analyses = rules.derive_forms(entry, ruleset)[0][surface]
                assert all(named is entry for named, _ in analyses)
                assert code in [c for _, c in analyses] or surface == entry.lemma


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


# The set-based index and sort-per-call recognize that build_all_forms
# and recognize replaced, kept verbatim as the reference for their order.
class _SetIndex:
    def __init__(self, fold_policy: str = EXACT):
        self.fold_policy = fold_policy
        self.form_index: dict[str, set] = {}
        self.failures: list[tuple[str, str, str]] = []

    @cached_property
    def _folded(self) -> dict[str, set[str]]:
        """Folded key -> surfaces, built on the first folded lookup."""
        folded: dict[str, set[str]] = {}
        for surface in self.form_index:
            folded.setdefault(fold_key(surface, self.fold_policy), set()).add(surface)
        return folded


def _reference_forms(entry, ruleset):
    """Each surface of the entry with its form codes, read one code at a
    time through rules.inflect, plus the lenited allomorphs of a noun,
    and the failure of each code that cannot be derived; derive_forms is
    not called, so a fault in it cannot reach both sides of a test."""
    forms, failures = {}, []
    for code in rules.FORMS_BY_POS[entry.pos]:
        try:
            variants = rules.inflect(entry, code, ruleset)
        except orthography.MorphologyError as exc:
            failures.append((entry.lemma, code, str(exc)))
            continue
        for variant in variants:
            codes = forms.setdefault(variant, [])
            if code not in codes:
                codes.append(code)
    forms.setdefault(entry.lemma, [rules.LEMMA])
    if entry.pos == svf.NOUN:
        for surface, codes in list(forms.items()):
            lenited = orthography.lenite(surface)
            if lenited != surface and lenited not in forms:
                forms[lenited] = list(codes)
    return forms, failures


def _reference_build(vocabulary, ruleset):
    index = _SetIndex(fold_policy=vocabulary.fold_policy)
    form_index = index.form_index
    for entry in vocabulary:
        forms, failures = _reference_forms(entry, ruleset)
        index.failures += failures
        for surface, codes in forms.items():
            analyses = form_index.get(surface)
            if analyses is None:
                analyses = form_index[surface] = set()
            analyses.update([(entry, code) for code in codes])
    return index


def _reference_exact_or_folded(index, word):
    if word in index.form_index:
        # the index's own set, not a copy: callers only read it
        return index.form_index[word]
    hits = set()
    if index.fold_policy != EXACT:
        for surface in index._folded.get(fold_key(word, index.fold_policy), ()):
            hits |= index.form_index[surface]
    return hits


def _reference_recognize(index, word):
    query = orthography.canonical(word)
    hits = _reference_exact_or_folded(index, query)
    if not hits:
        stripped = orthography.strip_prothesis(query)
        if stripped != query:
            hits = _reference_exact_or_folded(index, stripped)
    if len(hits) < 2:
        return list(hits)
    return sorted(hits, key=_reference_analysis_order)


# (part of speech, form code) -> position in the paradigm
_RANK = {
    (pos, code): rank
    for pos, codes in rules.FORMS_BY_POS.items()
    for rank, code in enumerate(codes)
}


def _reference_analysis_order(analysis):
    entry, code = analysis
    # codes outside the paradigm (LEMMA) sort after every code in it
    rank = _RANK.get((entry.pos, code), len(_RANK))
    return (entry.lemma, entry.pos, rank, code, entry)


# grave vowels written acute, as older texts do
_ACUTE = str.maketrans("àèìòùÀÈÌÒÙ", "áéíóúÁÉÍÓÚ")

# plain, grave, acute and capital letters
_WORDS = st.text(alphabet="abcdgilmnorstuàòéÀS", min_size=1, max_size=7)


@st.composite
def _svf_lines(draw):
    """SVF lines over a few words and their plain and capital spellings,
    so that folding merges surfaces.  They always hold a noun lemma
    entered with both genders and as a verb, and one line given twice.
    An IRREG line gives its lemma the LEMMA code, which then meets the
    paradigm codes of a homograph."""
    pool = []
    for word in draw(st.lists(_WORDS, min_size=1, max_size=3)):
        pool += [word, orthography.normalize_accents(word, orthography.STRIP_ALL), word.upper()]
    texts = st.sampled_from(pool)
    parts = st.one_of(st.just("?"), st.just("-"), texts.map('"{}"'.format))
    lemma = draw(texts)
    lines = [
        f'NOUN M "{lemma}" {draw(parts)} {draw(parts)}',
        f'NOUN F "{lemma}" {draw(parts)} {draw(parts)}',
        f'VERB "{lemma}" {draw(parts)}',
    ]
    for _ in range(draw(st.integers(0, 5))):
        pos = draw(st.sampled_from(["NOUN M", "NOUN F", "VERB", "ADJ"]))
        count = 2 if pos.startswith("NOUN") else 1
        irregular = draw(st.sampled_from(["", "", " IRREG"]))
        lines.append(f'{pos} "{draw(texts)}" ' + " ".join(draw(parts) for _ in range(count)) + irregular)
    lines.append(draw(st.sampled_from(lines)))
    return draw(st.permutations(lines))


@settings(max_examples=200, deadline=None)
@given(_svf_lines(), st.sampled_from(lexicon.FOLD_POLICIES), st.lists(_WORDS, max_size=3))
def test_recognize_matches_the_set_based_reference(ruleset, lines, policy, others):
    vocabulary = Vocabulary(map(parse_svf_line, lines), fold_policy=policy)
    index = build_all_forms(vocabulary, ruleset)
    reference = _reference_build(vocabulary, ruleset)
    assert index.failures == reference.failures
    assert list(index.form_index) == list(reference.form_index)
    for surface in sorted(index.forms()) + others:
        stripped = orthography.normalize_accents(surface, orthography.STRIP_ALL)
        for word in [surface, stripped,
                     surface.upper(), "t-" + surface, "h-" + surface, "dh'" + surface,
                     unicodedata.normalize("NFD", surface), "dh’" + surface, "T-" + surface,
                     # each found, if at all, by the fold probe after the prefix goes
                     "t-" + stripped, "n-" + surface.upper(), "h-" + surface.translate(_ACUTE)]:
            analyses = recognize(index, word)
            assert analyses == _reference_recognize(reference, word), word
            assert len(set(analyses)) == len(analyses), word
            # a second query of a word that is not a surface reads what the
            # first one resolved
            assert recognize(index, word) == analyses, word


def test_appending_to_a_result_leaves_the_index_alone(entries, ruleset):
    index = build_all_forms(Vocabulary(entries), ruleset)
    for word in ("saoghal", "t-saoghal"):
        recognize(index, word)  # resolves t-saoghal, so the next call reads that
        first = recognize(index, word)
        first.append(first[0])
        assert recognize(index, word) == first[:-1], word


@pytest.mark.parametrize("policy", lexicon.FOLD_POLICIES)
def test_resolved_words_never_outnumber_the_surfaces(entries, ruleset, policy):
    vocabulary = Vocabulary(entries, fold_policy=policy)
    index = build_all_forms(vocabulary, ruleset)
    reference = _reference_build(vocabulary, ruleset)
    surfaces = len(index.form_index)
    for n in range(2 * surfaces):
        assert recognize(index, f"zz{n}") == []
        assert len(index._resolved) <= surfaces
    assert len(index._resolved) == surfaces
    assert set(index._resolved.values()) == {()}
    # a spelling met once the memo is full is still resolved, not remembered
    for word in ("t-saoghal", "SAOGHAL", "saoghàlan"):
        assert recognize(index, word) == _reference_recognize(reference, word), word
        assert word not in index._resolved
    assert len(index._resolved) == surfaces


def test_a_line_given_twice_gives_each_analysis_once(ruleset):
    line = 'NOUN M "saoghal" "saoghalan" "saoghail"'
    once = build_all_forms(Vocabulary([parse_svf_line(line)]), ruleset)
    twice = build_all_forms(Vocabulary([parse_svf_line(line), parse_svf_line(line)]), ruleset)
    assert twice.form_index == once.form_index
    assert [(e.lemma, c) for e, c in recognize(twice, "shaoghalan")] == [
        ("saoghal", "GP"), ("saoghal", "VP"),
    ]
