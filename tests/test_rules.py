import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmorph import orthography, rules, svf
from gdmorph.rules import (
    IrregularUnsupportedError,
    MissingPrincipalPartError,
    NoRuleMatchesError,
    RuleSyntaxError,
    TransformOnEmptySourceError,
    UnknownFormCodeError,
    conjugate,
    decline,
    default_rules,
    derive_forms,
    inflect,
    parse_rules,
)
from gdmorph.svf import parse_svf_line


@pytest.fixture(scope="module")
def ruleset():
    return default_rules()


@pytest.fixture(scope="module")
def saoghal():
    return parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"')


@pytest.fixture(scope="module")
def ol():
    return parse_svf_line('VERB "òl" "òl"')


FEMININE_RULE = """
* NOUN & F
NS: NS; NP: NP; GS: GS; GP: H/NP
DS: NS; DP: NP; VS: H/GS; VP: H/NP
"""


def test_parse_feminine_noun_rule():
    ruleset = parse_rules(FEMININE_RULE)
    assert len(ruleset.rules) == 1
    rule = ruleset.rules[0]
    assert rule.pos == svf.NOUN and rule.gender == "F"
    assert len(rule.derivations) == 8
    (vs,) = rule.derivations["VS"]
    assert vs.transforms == ("H",) and vs.source == "GS"
    (ns,) = rule.derivations["NS"]
    assert ns.source == rules.LEMMA  # NS on the right names the lemma


def test_parse_verb_glottal_rule():
    ruleset = parse_rules('* VERB\nPAST_IND: DH/LEMMA\n')
    entry = parse_svf_line('VERB "òl" "òl"')
    assert inflect(entry, "PAST_IND", ruleset) == ["dh'òl"]


def test_parse_identity_derivation():
    ruleset = parse_rules("* NOUN & M\nNS: NS\n")
    entry = parse_svf_line('NOUN M "cat" "cait" "cait"')
    assert inflect(entry, "NS", ruleset) == ["cat"]


def test_parse_suffix_and_alternatives():
    ruleset = parse_rules('* VERB\nFUT_PASS: LEMMA+"ar|ear" | LEMMA+"tar|tear"\n')
    entry = parse_svf_line('VERB "òl" "òl"')
    assert inflect(entry, "FUT_PASS", ruleset) == ["òlar", "òltar"]


def test_parse_transform_over_suffixed_source():
    ruleset = parse_rules('* VERB\nRELFUT: DH/LEMMA+"as|eas"\n')
    entry = parse_svf_line('VERB "òl" "òl"')
    assert inflect(entry, "RELFUT", ruleset) == ["dh'òlas"]


def test_parse_comments_and_blank_lines():
    text = "# heading\n\n* ADJ  # adjectives\nCP: CP  # comparative\n"
    ruleset = parse_rules(text)
    assert list(ruleset.rules[0].derivations) == ["CP"]


def test_suffix_halves_are_canonical():
    # a decomposed grave and a curly apostrophe, as an editor may save them
    ruleset = parse_rules('* ADJ\nCP: LEMMA+"a\u0300n|ean\u2019"\n')
    assert ruleset.rules[0].derivations["CP"][0].suffix == ("àn", "ean'")


@pytest.mark.parametrize("half", ["an1", "\u0300an", "ak", " an", "-", "an\u00a0"])
def test_a_suffix_outside_the_alphabet_names_its_line(half):
    with pytest.raises(RuleSyntaxError, match=r"^line 3: suffix .* is not a Gaelic word$"):
        parse_rules(f'* ADJ\nPOS_ADJ: LEMMA\nCP: LEMMA+"{half}|ean"\n')
    with pytest.raises(RuleSyntaxError, match="^line 2: "):
        parse_rules(f'* ADJ\nCP: LEMMA+"an|{half}"\n')


@pytest.mark.parametrize(("text", "error"), [
    ("NS: NS\n", RuleSyntaxError),                  # derivation before *
    ("* CAT\nNS: NS\n", RuleSyntaxError),           # no part of speech
    ("* NOUN & M\nNS NS\n", RuleSyntaxError),       # missing colon
    ("* NOUN & M\nXX: NS\n", UnknownFormCodeError),
    ("* NOUN & M\nVN: LEMMA\n", UnknownFormCodeError),  # verb form on a noun
    ("* NOUN & M\nNS: NS; NS: GS\n", RuleSyntaxError),  # duplicate target
    ("* NOUN & M\nNS: H/\n", TransformOnEmptySourceError),
    ("* NOUN & M\nNS: Q/NS\n", RuleSyntaxError),    # unknown transform
    ("* NOUN & M\nNS: VN\n", RuleSyntaxError),      # source not on nouns
    ('* NOUN & M\nNP: LEMMA+"an"\n', RuleSyntaxError),  # not a broad|slender pair
    ('* NOUN & LEMMA=saoghal\nNS: NS\n', RuleSyntaxError),  # lemma not quoted
])
def test_parse_rejects(text, error):
    with pytest.raises(error):
        parse_rules(text)


@pytest.mark.parametrize("selector", [
    "NOUN & M & F",             # a second gender
    "VERB & M",                 # only nouns have a gender
    "ADJ & F",
    'NOUN & LEMMAX="cat"',      # a predicate that merely starts with LEMMA
    'NOUN & LEMMA="cat" & LEMMA="cait"',
    'NOUN & LEMMA=""',
    "VERB & IRREG",             # irregular entries see only LEMMA= rules
])
def test_parse_rejects_selectors_that_can_never_match(selector):
    with pytest.raises(RuleSyntaxError, match="line 2"):
        parse_rules(f"# special cases\n* {selector}\nNS: NS\n")


@pytest.mark.parametrize("value", ["cat1", 'a"b'])
def test_a_lemma_selector_must_name_a_gaelic_word(value):
    # no entry's lemma could ever equal it
    with pytest.raises(RuleSyntaxError) as raised:
        parse_rules(f'* NOUN & IRREG & LEMMA="{value}"\nNS: NS\n* NOUN\nNS: NS\n')
    assert str(raised.value) == f"line 1: LEMMA {value!r} is not a Gaelic word"


def test_load_rules_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "bom.grl"
    path.write_text("\ufeff* NOUN & M\nNS: NS\n", encoding="utf-8")
    (rule,) = rules.load_rules(path).rules
    assert rule.gender == "M"


def test_derivation_errors_share_one_base():
    for error in (
        rules.RuleError, RuleSyntaxError, NoRuleMatchesError,
        IrregularUnsupportedError, MissingPrincipalPartError,
        orthography.NoVowelError, orthography.NotSlenderizableError,
    ):
        assert issubclass(error, orthography.MorphologyError)
        assert issubclass(error, ValueError)


def test_error_messages_carry_line_numbers():
    with pytest.raises(RuleSyntaxError, match="line 3"):
        parse_rules("* NOUN & M\nNS: NS\nNP NP\n")


@pytest.mark.parametrize(("text", "message"), [
    ("* NOUN & VERB\nNS: NS\n", "line 1: duplicate part of speech"),
    ("* M\nNS: NS\n", "line 1: rule needs NOUN, VERB or ADJ"),
    ("* NOUN & M\nNP: NS+an|ean\n", "line 2: suffix for NP must be quoted"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(RuleSyntaxError) as raised:
        parse_rules(text)
    assert str(raised.value) == message


def test_a_trailing_semicolon_ends_a_derivation_line():
    (rule,) = parse_rules("* NOUN & M\nNS: NS; NP: NP;\n").rules
    assert list(rule.derivations) == ["NS", "NP"]


# every character that str.splitlines breaks at besides CR and LF
@pytest.mark.parametrize(
    "end", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
)
def test_only_cr_and_lf_end_a_rule_line(end):
    plain = parse_rules("# page break\n* NOUN\nNS: NS; NP: NP\n")
    marked = parse_rules(f"# page{end}break\n* NOUN\nNS: NS; NP: NP\n")
    assert marked.rules == plain.rules
    with pytest.raises(RuleSyntaxError) as raised:
        parse_rules(f"# page{end}break\n* NOUN\nNS: NS\nNP NP\n")
    assert raised.value.line == 4


# ---------------------------------------------------------------------------
# golden paradigms
# ---------------------------------------------------------------------------

SAOGHAL_GOLD = {
    "NS": ["saoghal"],
    "NP": ["saoghalan"],
    "GS": ["saoghail"],
    "GP": ["shaoghalan"],
    "DS": ["saoghal"],
    "DP": ["saoghalan"],
    "VS": ["shaoghail"],
    "VP": ["shaoghalan"],
}

OL_GOLD = {
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


def test_decline_saoghal_matches_gold(ruleset, saoghal):
    paradigm = decline(saoghal, ruleset)
    assert paradigm.errors == {}
    assert paradigm.cells == SAOGHAL_GOLD


def test_conjugate_ol_matches_gold(ruleset, ol):
    paradigm = conjugate(ol, ruleset)
    assert paradigm.errors == {}
    assert paradigm.cells == OL_GOLD
    assert set(paradigm.cells) == set(rules.VERB_FORMS)


def test_inflect_examples(ruleset, saoghal, ol):
    assert inflect(saoghal, "DP", ruleset) == ["saoghalan"]
    assert inflect(saoghal, "VS", ruleset) == ["shaoghail"]
    assert inflect(ol, "FUT_PASS", ruleset) == ["òlar", "òltar"]
    assert inflect(ol, "COND1P_IND", ruleset) == ["dh'òlamaid"]
    assert inflect(ol, "IMP2S", ruleset) == ["òl"]
    assert inflect(ol, "COND_PASS", ruleset) == ["dh'òltadh"]


def test_decline_bata(ruleset):
    entry = parse_svf_line('NOUN M "bàta" "bàtaichean" "bàta"')
    cells = decline(entry, ruleset).cells
    assert cells["NS"] == ["bàta"]
    assert cells["NP"] == ["bàtaichean"]
    assert cells["GS"] == ["bàta"]
    assert cells["GP"] == ["bhàtaichean"]
    assert cells["VS"] == ["bhàta"]


def test_decline_consonant_verbs(ruleset):
    cuir = parse_svf_line('VERB "cuir" "cur"')
    cells = conjugate(cuir, ruleset).cells
    assert cells["PAST_IND"] == ["chuir"]
    assert cells["FUT_IND"] == ["cuiridh"]
    assert cells["PASTP"] == ["cuirte"]
    assert cells["COND1S_IND"] == ["chuirinn"]
    fag = parse_svf_line('VERB "fàg" "fàgail"')
    assert conjugate(fag, ruleset).cells["PAST_IND"] == ["dh'fhàg"]


def test_decline_mass_noun_empty_plurals(ruleset):
    entry = parse_svf_line('NOUN M "airgead" - "airgid"')
    paradigm = decline(entry, ruleset)
    assert paradigm.errors == {}
    for code in ("NP", "GP", "DP", "VP"):
        assert paradigm.cells[code] == []
    assert paradigm.cells["NS"] == ["airgead"]


def test_inflect_unknown_part_raises(ruleset):
    entry = parse_svf_line('NOUN F "sgoil" "sgoiltean" ?')
    with pytest.raises(MissingPrincipalPartError):
        inflect(entry, "VS", ruleset)  # VS needs the genitive
    paradigm = decline(entry, ruleset)
    assert "VS" in paradigm.errors
    assert paradigm.cells["NP"] == ["sgoiltean"]


def test_inflect_rejects_wrong_pos_form(ruleset, ol):
    with pytest.raises(UnknownFormCodeError):
        inflect(ol, "GS", ruleset)


def test_inflect_no_rule_matches(saoghal):
    verb_only = parse_rules("* VERB\nVN: VN\n")
    with pytest.raises(NoRuleMatchesError):
        inflect(saoghal, "NS", verb_only)


def test_decline_requires_noun(ol, ruleset):
    with pytest.raises(ValueError):
        decline(ol, ruleset)


def test_conjugate_requires_verb(saoghal, ruleset):
    with pytest.raises(ValueError, match="^conjugate needs a verb, got NOUN$"):
        conjugate(saoghal, ruleset)


def test_inflect_an_entry_without_the_part(ruleset):
    entry = svf.Entry("cat", svf.NOUN, gender="M")
    with pytest.raises(MissingPrincipalPartError) as raised:
        inflect(entry, "NP", ruleset)
    assert str(raised.value) == "cat: entry has no NP part"


@pytest.mark.parametrize("line", ['NOUN M "cat" ? "cait"', '''VERB "'n" "'n"'''])
def test_a_failure_is_the_exception_that_says_why(ruleset, line):
    # kept without its traceback, so that no frame outlives the step
    entry = parse_svf_line(line)
    _, failures = rules._run(entry, ruleset.select(entry))
    paradigm = (decline if entry.pos == svf.NOUN else conjugate)(entry, ruleset)
    assert failures and list(failures) == list(paradigm.errors)
    for code, error in failures.items():
        assert isinstance(error, orthography.MorphologyError)
        assert error.__traceback__ is None
        with pytest.raises(type(error)) as raised:
            inflect(entry, code, ruleset)
        assert type(raised.value) is type(error)
        assert str(raised.value) == paradigm.errors[code]


# ---------------------------------------------------------------------------
# irregular entries
# ---------------------------------------------------------------------------

def test_irregular_entry_needs_special_rule(ruleset):
    rach = parse_svf_line('VERB "rach" "dol" IRREG')
    with pytest.raises(IrregularUnsupportedError):
        inflect(rach, "PAST_IND", ruleset)
    with pytest.raises(IrregularUnsupportedError):
        conjugate(rach, ruleset)


def test_irregular_noun_no_rule_covers_is_an_error(ruleset):
    # as conjugate does for a verb: one error for the entry, not one per cell
    entry = parse_svf_line('NOUN M "duine" "daoine" "duine" IRREG')
    message = "duine is irregular and no special-case rule covers it"
    with pytest.raises(IrregularUnsupportedError, match=f"^{message}$"):
        decline(entry, ruleset)
    with pytest.raises(IrregularUnsupportedError, match=f"^{message}$"):
        inflect(entry, "NP", ruleset)


def test_a_raised_failure_leaves_no_reference_cycle(ruleset):
    # its traceback holds the frames it passed through; were the failure
    # still held by one of them, it would wait for the cyclic collector
    cat = parse_svf_line('NOUN M "cat" ? "cait"')
    bean = parse_svf_line('NOUN F "bean" "mnathan" "mnà" IRREG')
    gc.collect()
    gc.disable()
    try:
        for call in (lambda: inflect(cat, "NP", ruleset), lambda: decline(bean, ruleset)):
            try:
                call()
            except orthography.MorphologyError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_uncovered_irregular_entry_fails_every_code_alike(ruleset):
    entry = parse_svf_line('VERB "rach" "dol" IRREG')
    _, failures = rules._run(entry, ruleset.select(entry))
    assert list(failures) == list(rules.VERB_FORMS)
    assert {(type(error), str(error)) for error in failures.values()} == {
        (IrregularUnsupportedError, "rach is irregular and no special-case rule covers it")
    }


def test_irregular_entry_with_lemma_rule():
    rach = parse_svf_line('VERB "rach" "dol" IRREG')
    text = '* VERB & IRREG & LEMMA="rach"\nPAST_IND: LEMMA\nVN: VN\n'
    special = parse_rules(text + "\n* VERB\nPAST_IND: DH/LEMMA\nVN: VN\n")
    assert inflect(rach, "VN", special) == ["dol"]
    # the special-case rule overrides the generic mutation
    assert inflect(rach, "PAST_IND", special) == ["rach"]
    with pytest.raises(IrregularUnsupportedError):
        inflect(rach, "FUT_IND", special)


def test_regular_entry_ignores_irregular_rules(ruleset):
    text = '* VERB & IRREG & LEMMA="òl"\nVN: LEMMA\n* VERB\nVN: VN\n'
    ruleset = parse_rules(text)
    regular = parse_svf_line('VERB "òl" "cur"')
    assert inflect(regular, "VN", ruleset) == ["cur"]


# ---------------------------------------------------------------------------
# rule ordering
# ---------------------------------------------------------------------------

def test_first_match_wins_on_overlap():
    specific_first = parse_rules("* NOUN & F\nVS: H/GS\n* NOUN\nVS: GS\n")
    general_first = parse_rules("* NOUN\nVS: GS\n* NOUN & F\nVS: H/GS\n")
    feminine = parse_svf_line('NOUN F "bròg" "brògan" "bròige"')
    masculine = parse_svf_line('NOUN M "cat" "cait" "cait"')
    assert inflect(feminine, "VS", specific_first) == ["bhròige"]
    assert inflect(feminine, "VS", general_first) == ["bròige"]
    # entries matched by only one rule are unaffected by the order
    assert inflect(masculine, "VS", specific_first) == ["cait"]
    assert inflect(masculine, "VS", general_first) == ["cait"]


def test_disjoint_rules_commute():
    forward = parse_rules("* NOUN & F\nNS: H/NS\n* NOUN & M\nNS: NS\n")
    backward = parse_rules("* NOUN & M\nNS: NS\n* NOUN & F\nNS: H/NS\n")
    entries = [
        parse_svf_line('NOUN F "bròg" "brògan" "bròige"'),
        parse_svf_line('NOUN M "cat" "cait" "cait"'),
    ]
    for entry in entries:
        assert inflect(entry, "NS", forward) == inflect(entry, "NS", backward)


def test_later_rule_fills_missing_targets():
    # first matching rule wins per form, not per entry
    ruleset = parse_rules("* NOUN & F\nNS: NS\n* NOUN\nGS: GS\n")
    feminine = parse_svf_line('NOUN F "bròg" "brògan" "bròige"')
    assert inflect(feminine, "NS", ruleset) == ["bròg"]
    assert inflect(feminine, "GS", ruleset) == ["bròige"]


# ---------------------------------------------------------------------------
# all-forms expansion
# ---------------------------------------------------------------------------

def test_all_surface_forms_saoghal(ruleset, saoghal):
    forms = set(derive_forms(saoghal, ruleset)[0])
    assert forms == {
        "saoghal", "saoghail", "saoghalan",
        "shaoghal", "shaoghail", "shaoghalan",
    }


def test_all_surface_forms_ol(ruleset, ol):
    forms = set(derive_forms(ol, ruleset)[0])
    assert "dh'òlas" in forms
    assert "òlaibh" in forms
    # 24 grammatical forms collapse onto far fewer distinct spellings
    assert len(forms) == 17


def test_many_to_many_relation(ruleset, saoghal):
    cells = decline(saoghal, ruleset).cells
    spelling_of = {code: cells[code][0] for code in cells}
    assert spelling_of["NS"] == spelling_of["DS"]  # one spelling, two forms
    distinct = {tuple(v) for v in cells.values()}
    assert len(distinct) < len(cells)
    assert len(set(derive_forms(saoghal, ruleset)[0])) == 6


def test_all_forms_include_lemma_even_without_identity_rule(saoghal):
    gs_only = parse_rules("* NOUN\nGS: GS\n")
    assert "saoghal" in set(derive_forms(saoghal, gs_only)[0])


def test_all_forms_singleton_when_everything_coincides(ruleset):
    entry = parse_svf_line('VERB "òl" "òl"')
    identity = parse_rules("* VERB\nVN: VN; IMP2S: LEMMA; FUT_DEP: LEMMA\n")
    assert set(derive_forms(entry, identity)[0]) == {"òl"}


def test_surface_forms_satisfy_vowel_harmony(ruleset, saoghal, ol):
    for entry in (saoghal, ol):
        for form in set(derive_forms(entry, ruleset)[0]):
            assert orthography.satisfies_vowel_harmony(form), form


def test_inflect_does_not_mutate_inputs(ruleset, saoghal):
    before_rules = [
        (rule[:4], dict(rule.derivations)) for rule in ruleset.rules
    ]
    inflect(saoghal, "VS", ruleset)
    after_rules = [
        (rule[:4], dict(rule.derivations)) for rule in ruleset.rules
    ]
    assert before_rules == after_rules


def test_adjective_paradigm(ruleset):
    entry = parse_svf_line('ADJ "mòr" "motha"')
    assert inflect(entry, "POS_ADJ", ruleset) == ["mòr"]
    assert inflect(entry, "CP", ruleset) == ["motha"]
    assert inflect(entry, "POS_LENITED", ruleset) == ["mhòr"]
    assert set(derive_forms(entry, ruleset)[0]) == {"mòr", "motha", "mhòr"}


def _reference_split_outside_quotes(text: str, separator: str) -> list[str]:
    # the character walk the compiled pattern replaced, kept verbatim
    parts = []
    current = []
    in_quotes = False
    for ch in text:
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
        elif ch == separator and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


@settings(max_examples=1000)
@given(st.text(alphabet='ab";| :+\n', max_size=16), st.sampled_from(";|"))
def test_split_outside_quotes_matches_the_character_walk(text, separator):
    # unclosed quotes included: a quote left open keeps every separator after it
    assert rules._split_outside_quotes(text, separator) == _reference_split_outside_quotes(
        text, separator
    )


def test_a_separator_inside_a_suffix_pair_does_not_split():
    assert rules._split_outside_quotes('NP: NS+"an|ean" | NS', "|") == ['NP: NS+"an|ean" ', " NS"]
    assert rules._split_outside_quotes('a;"b;c', ";") == ["a", '"b;c']
