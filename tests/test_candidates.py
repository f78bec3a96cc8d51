"""recognize over the candidate entries of a word against recognize over
the whole vocabulary's index.

`lexicon.candidates` undoes the rule steps on the folded word to find
the entries that could produce it.  An index built over those entries
alone must give recognize the same analyses, in the same order, as the
index over every entry: for every surface, with a prothetic prefix,
capitalised, without accents, and for words no entry produces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gdmorph import orthography, rules
from gdmorph.lexicon import FOLD_POLICIES, Vocabulary, build_all_forms, candidates, recognize
from gdmorph.svf import ADJ, GENDERS, NON_EXISTENT, NOUN, UNKNOWN, VERB, Entry, part

# h for spellings lenition could have made, accents and capitals for the
# fold policies, and often a final vowel that a suffix's first vowel
# merges with
LETTERS = "abcdfghilmnorstuàòéAÀBCS'"
words = st.tuples(
    st.text(alphabet=LETTERS, min_size=1, max_size=5),
    st.sampled_from(["", "", "a", "i", "u", "À"]),
).map("".join)
# suffix pairs whose alternants start with a vowel, one of them a single
# vowel (merged, it leaves nothing), and one with capitals
SUFFIXES = ["an|ean", "a|e", "aidh|idh", "ar|ear", "ta|te", "ibh|aibh", "udh|idh", "o|i", "Àn|Ean"]
TRANSFORMS = ["", "", "", "H/", "DH/", "H/DH/", "DH/H/"]
SOURCES = {NOUN: ["NS", "NP", "GS"], VERB: ["LEMMA", "VN"], ADJ: ["LEMMA", "CP"]}


@st.composite
def vocabularies(draw):
    pool = draw(st.lists(words, min_size=1, max_size=6))
    texts = st.sampled_from(pool)
    parts = st.one_of(st.just(UNKNOWN), st.just(NON_EXISTENT), texts.map(part), texts.map(part))
    entries = []
    for _ in range(draw(st.integers(1, 7))):
        pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
        fields = {"lemma": draw(texts), "pos": pos, "irregular": draw(st.integers(0, 4)) == 0}
        if pos == NOUN:
            fields.update(gender=draw(st.sampled_from(GENDERS)), np=draw(parts), gs=draw(parts))
        elif pos == VERB:
            fields["vn"] = draw(parts)
        else:
            fields["cp"] = draw(parts)
        entries.append(Entry(**fields))
    return entries, pool


def _expression(draw, pos: str, slenderize: bool) -> str:
    transforms = draw(st.sampled_from(TRANSFORMS))
    if slenderize and draw(st.booleans()):
        transforms = "SL/" + transforms
    text = transforms + draw(st.sampled_from(SOURCES[pos]))
    if draw(st.booleans()):
        text += '+"' + draw(st.sampled_from(SUFFIXES)) + '"'
    return text


@st.composite
def rule_files(draw, pool):
    """General rules for each part of speech, a LEMMA= special case
    first now and then, and SL/ in about one file in five."""
    slenderize = draw(st.integers(0, 4)) == 0
    blocks = []
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
        irregular = " & IRREG" if draw(st.booleans()) else ""
        # a LEMMA= value that is not a Gaelic word is a syntax error
        lemma = draw(st.sampled_from(pool).filter(orthography.is_gaelic_word))
        blocks.append((f'* {pos}{irregular} & LEMMA="{lemma}"', pos))
    for pos in (NOUN, VERB, ADJ):
        gender = " & " + draw(st.sampled_from(GENDERS)) if pos == NOUN and draw(st.booleans()) else ""
        blocks.append((f"* {pos}{gender}", pos))
    lines = []
    for header, pos in blocks:
        codes = draw(st.lists(st.sampled_from(rules.FORMS_BY_POS[pos]), min_size=1, max_size=4, unique=True))
        lines.append(header)
        for code in codes:
            alternatives = draw(st.lists(st.just(None), min_size=1, max_size=2))
            lines.append(f"{code}: " + " | ".join(_expression(draw, pos, slenderize) for _ in alternatives))
    return rules.parse_rules("\n".join(lines) + "\n")


def queries(index, others) -> list[str]:
    """Every surface of the index, as written and as it may meet text,
    and words that no entry need produce."""
    out = []
    for surface in sorted(index.forms()):
        out += [surface, surface[:1].upper() + surface[1:], surface.upper(),
                orthography.strip_accents(surface)]
        out += [prefix + surface for prefix in ("t-", "h-", "n-", "dh'", "T-")]
    return out + others


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_candidate_index_recognizes_as_the_whole_index(data):
    entries, pool = data.draw(vocabularies())
    ruleset = data.draw(rule_files(pool))
    policy = data.draw(st.sampled_from(FOLD_POLICIES))
    vocabulary = Vocabulary(entries, fold_policy=policy)
    whole = build_all_forms(vocabulary, ruleset)
    for word in queries(whole, data.draw(st.lists(words, max_size=4))):
        found = candidates(vocabulary, ruleset, word)
        small = build_all_forms(Vocabulary(found, fold_policy=policy), ruleset)
        assert recognize(small, word) == recognize(whole, word), word


def test_candidates_keep_vocabulary_order_and_leave_out_the_rest():
    ruleset = rules.default_rules()
    vocabulary = Vocabulary([
        Entry("òl", VERB, vn=part("òl")),
        Entry("saoghal", NOUN, gender="M", np=part("saoghalan"), gs=part("saoghail")),
        Entry("bile", NOUN, gender="F", np=part("bilean"), gs=part("bile")),
        Entry("ol", VERB, vn=part("ol")),
    ], fold_policy=orthography.FOLD_ACCENTS)
    lemmas = lambda word: [e.lemma for e in candidates(vocabulary, ruleset, word)]
    assert lemmas("dh'òlainn") == ["òl", "ol"]
    assert lemmas("t-shaoghalan") == ["saoghal"]
    assert lemmas("bhilean") == ["bile"]
    assert lemmas("cat") == []


def test_a_rule_set_using_sl_gives_every_entry():
    ruleset = rules.parse_rules("* NOUN\nGS: SL/NS\n")
    entries = [
        Entry("cat", NOUN, gender="M", np=part("cait"), gs=part("cait")),
        Entry("òl", VERB, vn=part("òl")),
    ]
    vocabulary = Vocabulary(entries)
    assert candidates(vocabulary, ruleset, "zzz").entries == entries
