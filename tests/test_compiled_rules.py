"""The compiled rule table against a plain first-match scan.

The reference below re-matches every rule for every form and evaluates
each derivation on its own; inflect and derive_forms must agree with it
on every form code, variants and errors alike.
"""

from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from gdmorph import orthography, rules, svf
from gdmorph.rules import (
    FORMS_BY_POS,
    IrregularUnsupportedError,
    NoRuleMatchesError,
    conjugate,
    decline,
    derive_forms,
    inflect,
    parse_rules,
)
from gdmorph.svf import ADJ, NON_EXISTENT, NOUN, UNKNOWN, VERB, Entry, part

BUNDLED_BLOCKS = [
    block.strip() + "\n"
    for block in resources.files("gdmorph").joinpath("data", "rules.grl")
    .read_text(encoding="utf-8").split("\n\n")
    if block.strip().startswith("*")
]
# "'n" has no vowel and "bàta" ends in one, so suffixes and SL/ fail on them
WORDS = ["cat", "bàta", "òl", "mòr", "rach", "sgoil", "'n"]
SOURCES = {NOUN: ["LEMMA", "NS", "NP", "GS"], VERB: ["LEMMA", "VN"], ADJ: ["LEMMA", "CP"]}
PARTS = {NOUN: ("np", "gs"), VERB: ("vn",), ADJ: ("cp",)}


def _reference_matches(rule: rules.Rule, entry: Entry) -> bool:
    return (
        rule.pos == entry.pos
        and rule.gender in (None, entry.gender)
        and rule.irregular in (None, entry.irregular)
        and rule.lemma_is in (None, entry.lemma)
    )


def reference_apply(entry: Entry, derivation: rules.Derivation) -> str | None:
    """One derivation evaluated on its own, as the evaluator did before
    the per-selection plan: the source part, the suffix, then the
    transforms right to left."""
    if derivation.source == "LEMMA":
        base = entry.lemma
    else:
        value = getattr(entry, derivation.source.lower())
        if value is None:
            raise rules.MissingPrincipalPartError(
                f"{entry.lemma}: entry has no {derivation.source} part"
            )
        if value.is_unknown:
            raise rules.MissingPrincipalPartError(
                f"{entry.lemma}: {derivation.source} is unknown"
            )
        if value.is_non_existent:
            return None
        base = value.text
    if derivation.suffix is not None:
        base = orthography.attach_suffix(base, derivation.suffix)
    for transform in reversed(derivation.transforms):
        base = {"H": orthography.lenite, "DH": orthography.glottal_past_prefix,
                "SL": orthography.slenderize}[transform](base)
    return base


def reference_inflect(entry: Entry, form: str, ruleset: rules.RuleSet) -> list[str]:
    candidates = [
        rule for rule in ruleset.rules
        if (rule.lemma_is is not None or not entry.irregular)
        and _reference_matches(rule, entry)
    ]
    if entry.irregular and not candidates:
        raise IrregularUnsupportedError(
            f"{entry.lemma} is irregular and no special-case rule covers it"
        )
    for rule in candidates:
        if form not in rule.derivations:
            continue
        variants = []
        for derivation in rule.derivations[form]:
            surface = reference_apply(entry, derivation)
            if surface is not None and surface not in variants:
                variants.append(surface)
        return variants
    if entry.irregular:
        raise IrregularUnsupportedError(
            f"{entry.lemma} is irregular and no special-case rule defines {form}"
        )
    raise NoRuleMatchesError(f"no rule defines {form} for {entry.lemma}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except orthography.MorphologyError as exc:
        return type(exc), str(exc)


def part_values(words=WORDS):
    return st.one_of(
        st.sampled_from(words).map(part), st.just(UNKNOWN), st.just(NON_EXISTENT)
    )


@st.composite
def entries(draw, words=WORDS):
    pos = draw(st.sampled_from(svf.PARTS_OF_SPEECH))
    parts = {name: draw(part_values(words)) for name in PARTS[pos]}
    return Entry(
        lemma=draw(st.sampled_from(words)),
        pos=pos,
        irregular=draw(st.booleans()),
        gender=draw(st.sampled_from(svf.GENDERS)) if pos == NOUN else None,
        **parts,
    )


@st.composite
def expressions(draw, pos):
    transforms = draw(st.lists(st.sampled_from(["H/", "DH/", "SL/"]), max_size=2))
    suffix = draw(st.sampled_from(["", '+"an|ean"', '+"aidh|idh"']))
    return "".join(transforms) + draw(st.sampled_from(SOURCES[pos])) + suffix


@st.composite
def special_cases(draw):
    pos = draw(st.sampled_from(svf.PARTS_OF_SPEECH))
    selector = [pos]
    if draw(st.booleans()):
        selector.append("IRREG")
    if pos == NOUN and draw(st.booleans()):
        selector.append(draw(st.sampled_from(svf.GENDERS)))
    selector.append(f'LEMMA="{draw(st.sampled_from(WORDS))}"')
    codes = draw(st.lists(st.sampled_from(FORMS_BY_POS[pos]), min_size=1, max_size=4, unique=True))
    body = "; ".join(
        f"{code}: " + " | ".join(draw(st.lists(expressions(pos), min_size=1, max_size=2)))
        for code in codes
    )
    return f"* {' & '.join(selector)}\n{body}\n"


rule_files = st.lists(special_cases(), max_size=4).flatmap(
    lambda specials: st.permutations(BUNDLED_BLOCKS + specials)
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(text=rule_files, entry_list=st.lists(entries(), min_size=1, max_size=6))
def test_compiled_table_agrees_with_first_match_scan(text, entry_list):
    ruleset = parse_rules(text)
    for entry in entry_list:
        expected_errors = {}
        expected_cells = {}
        for form in FORMS_BY_POS[entry.pos]:
            expected = _outcome(reference_inflect, entry, form, ruleset)
            assert _outcome(inflect, entry, form, ruleset) == expected, form
            if isinstance(expected, tuple):
                expected_errors[form] = expected[1]
            else:
                expected_cells[form] = expected
        forms, failures = derive_forms(entry, ruleset)
        assert failures == expected_errors
        _assert_paradigm_agrees(entry, ruleset, expected_cells, expected_errors)


def _assert_paradigm_agrees(entry, ruleset, expected_cells, expected_errors):
    """decline and conjugate give the per-form reference's cells and
    errors, both in paradigm order; an irregular verb that no rule
    covers raises instead, with the message each form's reference gave."""
    paradigm_of = {NOUN: decline, VERB: conjugate}.get(entry.pos)
    if paradigm_of is None:
        return
    uncovered = f"{entry.lemma} is irregular and no special-case rule covers it"
    if entry.pos == VERB and uncovered in expected_errors.values():
        assert set(expected_errors.values()) == {uncovered}
        expected = IrregularUnsupportedError, uncovered
    else:
        expected = list(expected_cells.items()), list(expected_errors.items())
    outcome = _outcome(paradigm_of, entry, ruleset)
    if isinstance(outcome, rules.Paradigm):
        outcome = list(outcome.cells.items()), list(outcome.errors.items())
    assert outcome == expected


def reference_derive_forms(entry: Entry, ruleset: rules.RuleSet):
    """derive_forms as it read the paradigm one form code at a time,
    each surface's codes in paradigm order."""
    forms, errors = {}, {}
    for code in FORMS_BY_POS[entry.pos]:
        outcome = _outcome(reference_inflect, entry, code, ruleset)
        if isinstance(outcome, tuple):
            errors[code] = outcome[1]
            continue
        for variant in outcome:
            codes = forms.setdefault(variant, [])
            if code not in codes:
                codes.append(code)
    if entry.lemma not in forms:
        forms[entry.lemma] = ["LEMMA"]
    if entry.pos == NOUN:
        for surface, codes in list(forms.items()):
            lenited = orthography.lenite(surface)
            if lenited != surface and lenited not in forms:
                forms[lenited] = list(codes)
    return forms, errors


# "chat" is the lenited "cat", so an allomorph can coincide with a form
LENITION_WORDS = WORDS + ["chat", "fear"]


@settings(max_examples=200, deadline=None)
@given(text=rule_files, entry_list=st.lists(entries(LENITION_WORDS), min_size=1, max_size=6))
def test_derive_forms_agrees_with_per_form_reference(text, entry_list):
    ruleset = parse_rules(text)
    for entry in entry_list:
        forms, errors = derive_forms(entry, ruleset)
        for analyses in forms.values():
            assert all(named is entry for named, _ in analyses)
        codes = {surface: [code for _, code in analyses] for surface, analyses in forms.items()}
        assert (codes, errors) == reference_derive_forms(entry, ruleset)


def test_allomorph_shares_its_base_forms_analyses():
    entry = Entry("cat", NOUN, gender="M", np=part("cait"), gs=part("cait"))
    forms, _ = derive_forms(entry, rules.default_rules())
    assert forms["cat"] == ((entry, "NS"), (entry, "DS"))
    assert forms["chat"] is forms["cat"]


def test_bundled_plans_share_steps():
    """README's figures: under the bundled rules a verb's plan has 18
    steps (11 suffixes and 7 DH/), a noun's has 3 lenitions (H/NP, H/GS
    and the lemma's allomorph)."""
    ruleset = rules.default_rules()
    verb = ruleset.select(Entry("òl", VERB, vn=part("òl")))
    assert len(verb.steps) == 18
    functions = [function for _, function, _ in verb.steps]
    assert functions.count(orthography.attach_suffix) == 11
    assert functions.count(orthography.glottal_past_prefix) == 7
    noun = ruleset.select(Entry("cat", NOUN, gender="M", np=part("cait"), gs=part("cait")))
    lenitions = [step for step in noun.steps if step[1] is orthography.lenite]
    assert len(lenitions) == 3
