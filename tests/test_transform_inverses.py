"""The inverses declared beside each transform against the candidates
search that spelled them out.

`rules._TRANSFORMS` pairs each transform with what undoes it on folded
text, and `lexicon.candidates` closes the word under those inverses.
The search that named `SL`, `dh'` and the second-place `h` itself is
kept below as it was written, and the two must find the same entries
for every rule file, word and fold policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmorph import lexicon, orthography, rules, svf
from gdmorph.lexicon import FOLD_POLICIES, Vocabulary, build_all_forms, recognize
from gdmorph.orthography import fold_key
from gdmorph.rules import RuleSet
from gdmorph.svf import ADJ, GENDERS, NON_EXISTENT, NOUN, UNKNOWN, VERB, Entry, part


def candidates(vocabulary: Vocabulary, ruleset: RuleSet, word: str) -> Vocabulary:
    """The entries, in vocabulary order, that could have a surface form
    equal to the word, with or without its prothetic prefix, under the
    vocabulary's fold policy, which the returned vocabulary keeps.  An
    index built over it alone gives recognize the same analyses of the
    word as the whole vocabulary's.

    Every surface is the lemma or a principal part with a suffix
    alternant attached, then lenited or given the dh' prefix, or the
    lenited allomorph of such a form.  Only those prefix steps are
    undone here, on the folded word and again on each result.  A suffix
    only appends (a vowel doubled at the boundary is written once, so
    the part is still whole), and folding maps each character on its
    own, so the folded text of the part a surface came from is a prefix
    of one of the results.  SL/ has no such inverse: a rule set that
    uses it gives every entry.
    """
    policy = vocabulary.fold_policy
    if any(
        "SL" in derivation.transforms
        for rule in ruleset.rules
        for alternatives in rule.derivations.values()
        for derivation in alternatives
    ):
        return Vocabulary(vocabulary.entries, fold_policy=policy)
    query = orthography.canonical(word)
    stems: set[str] = set()
    todo = [fold_key(query, policy), fold_key(orthography.strip_prothesis(query), policy)]
    while todo:
        stem = todo.pop()
        if stem in stems:
            continue
        stems.add(stem)
        if stem.startswith("dh'"):
            todo.append(stem[3:])
        if stem[1:2] in ("h", "H"):
            todo.append(stem[:1] + stem[2:])
    prefixes = {stem[:end] for stem in stems for end in range(1, len(stem) + 1)}
    found = []
    for entry in vocabulary:
        texts = [entry.lemma]
        for name in svf.PART_FIELDS:
            value = getattr(entry, name)
            if value is not None and value.is_present:
                texts.append(value.text)
        if any(fold_key(text, policy) in prefixes for text in texts):
            found.append(entry)
    return Vocabulary(found, fold_policy=policy)


# capitals and a capital H, accents of both kinds, and h for spellings
# lenition could have made
LETTERS = "abcdfghilmnorstuàòéACDHÀS"
texts = st.text(alphabet=LETTERS, min_size=1, max_size=5)
CASES = [str, str, str.upper, str.capitalize, str.lower]
# the letter lenition writes second, and the layers a word may carry in
# front: the past-tense dh' and the prothetic t-, n-, h-
SECOND = ["", "", "h", "H"]
PREFIXES = ["", "", "dh'", "Dh'", "DH'", "dh’", "t-", "n-", "h-", "T-"]
SOURCES = {NOUN: ["NS", "NP", "GS"], VERB: ["LEMMA", "VN"], ADJ: ["LEMMA", "CP"]}
SUFFIXES = ["", "", '+"an|ean"', '+"aidh|idh"', '+"a|e"']


@st.composite
def vocabularies(draw):
    pool = draw(st.lists(texts, min_size=1, max_size=5))
    present = st.sampled_from(pool).map(part)
    parts = st.one_of(st.just(UNKNOWN), st.just(NON_EXISTENT), present, present)
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
        fields = {"lemma": draw(st.sampled_from(pool)), "pos": pos}
        if pos == NOUN:
            fields.update(gender=draw(st.sampled_from(GENDERS)), np=draw(parts), gs=draw(parts))
        elif pos == VERB:
            fields["vn"] = draw(parts)
        else:
            fields["cp"] = draw(parts)
        entries.append(Entry(**fields))
    return entries, pool


@st.composite
def spellings(draw, pool):
    """A text of the pool as it may meet a reader: recased, with a
    letter in second place, prefixes in front, accents stripped, and an
    ending after it; or any text at all."""
    text = draw(st.one_of(st.sampled_from(pool), texts))
    text = draw(st.sampled_from(CASES))(text)
    text = text[:1] + draw(st.sampled_from(SECOND)) + text[1:]
    text = "".join(draw(st.lists(st.sampled_from(PREFIXES), max_size=2))) + text
    if draw(st.booleans()):
        text = orthography.strip_accents(text)
    return text + draw(st.text(alphabet=LETTERS, max_size=3))


@st.composite
def rule_files(draw):
    """A rule for each part of speech, whose expressions take their
    transforms from a drawn subset of H/, DH/ and SL/, often empty."""
    allowed = draw(st.lists(st.sampled_from(["H/", "DH/", "SL/"]), unique=True))
    lines = []
    for pos in (NOUN, VERB, ADJ):
        lines.append(f"* {pos}")
        codes = draw(st.lists(st.sampled_from(rules.FORMS_BY_POS[pos]), min_size=1, max_size=3, unique=True))
        for code in codes:
            transforms = draw(st.lists(st.sampled_from(allowed), max_size=2)) if allowed else []
            source = draw(st.sampled_from(SOURCES[pos]))
            lines.append(f"{code}: {''.join(transforms)}{source}{draw(st.sampled_from(SUFFIXES))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_inverses_find_the_entries_the_spelled_out_search_found(data):
    entries, pool = data.draw(vocabularies())
    text = data.draw(rule_files())
    ruleset = rules.parse_rules(text)
    assert (ruleset.inverses is None) == ("SL/" in text)
    words = data.draw(st.lists(spellings(pool), min_size=1, max_size=6))
    for policy in FOLD_POLICIES:
        vocabulary = Vocabulary(entries, fold_policy=policy)
        for word in words:
            found = lexicon.candidates(vocabulary, ruleset, word)
            assert found.fold_policy == policy
            assert found.entries == candidates(vocabulary, ruleset, word).entries, (policy, word)


CAT = Entry("cat", NOUN, gender="M", np=part("cait"), gs=part("cait"))
OL = Entry("òl", VERB, vn=part("òl"))


def test_a_noun_lenited_by_no_rule_is_still_found():
    # the lenited allomorph comes from H with no H/ in any rule
    ruleset = rules.parse_rules("* NOUN\nNS: NS\n")
    vocabulary = Vocabulary([OL, CAT])
    found = lexicon.candidates(vocabulary, ruleset, "chat")
    assert found.entries == [CAT]
    assert recognize(build_all_forms(found, ruleset), "chat") == ((CAT, "NS"),)


def test_a_capital_h_in_second_place_is_undone():
    capital = Entry("CAT", NOUN, gender="M", np=part("CAIT"), gs=part("CAIT"))
    vocabulary = Vocabulary([OL, capital])
    assert lexicon.candidates(vocabulary, rules.default_rules(), "CHAT").entries == [capital]


def test_dh_is_undone_below_a_prothetic_prefix():
    # strip_prothesis takes off the t-; only DH's inverse takes the dh'
    ruleset = rules.default_rules()
    vocabulary = Vocabulary([CAT, OL])
    found = lexicon.candidates(vocabulary, ruleset, "t-dh'òl")
    assert found.entries == [OL]
    whole = build_all_forms(vocabulary, ruleset)
    assert recognize(build_all_forms(found, ruleset), "t-dh'òl") == recognize(whole, "t-dh'òl") != ()


@pytest.mark.parametrize("text, none", [
    ("* NOUN\nNS: NS\n", False),
    ("* NOUN\nGP: H/NP\n* VERB\nPAST_IND: DH/LEMMA\n", False),
    ("* NOUN\nGS: SL/NS\n", True),
    ("* VERB\nVN: VN\n* NOUN & M\nGP: H/SL/NP | NP\n", True),
])
def test_inverses_are_none_exactly_when_a_rule_uses_sl(text, none):
    inverses = rules.parse_rules(text).inverses
    assert (inverses is None) == none
    if not none:
        assert len(inverses) == 2  # H's and DH's, whether the rules use them or not
