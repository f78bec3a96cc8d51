import itertools
import random

import pytest

from gdmorph import svf
from gdmorph.svf import (
    ADJ,
    NON_EXISTENT,
    NOUN,
    UNKNOWN,
    VERB,
    ConstraintViolationError,
    Entry,
    SvfSyntaxError,
    parse_svf_line,
    part,
    serialize_entry,
    validate,
)

BATA_LINE = 'NOUN M "bàta" "bàtaichean" "bàta"'


def test_parse_noun_line():
    entry = parse_svf_line(BATA_LINE)
    assert entry == Entry(
        lemma="bàta",
        pos=NOUN,
        gender="M",
        np=part("bàtaichean"),
        gs=part("bàta"),
    )


def test_parse_verb_line():
    entry = parse_svf_line('VERB "òl" "òl"')
    assert entry == Entry(lemma="òl", pos=VERB, vn=part("òl"))


def test_parse_adjective_line():
    entry = parse_svf_line('ADJ "mòr" "motha"')
    assert entry == Entry(lemma="mòr", pos=ADJ, cp=part("motha"))


def test_parse_markers():
    entry = parse_svf_line('NOUN F "sgoil" ? ?')
    assert entry.np == UNKNOWN and entry.gs == UNKNOWN
    entry = parse_svf_line('NOUN M "airgead" - "airgid"')
    assert entry.np == NON_EXISTENT
    assert entry.gs == part("airgid")


def test_parse_markers_quoted_variant():
    # tolerated on input, canonicalized to bare markers on output
    entry = parse_svf_line('NOUN F "sgoil" "?" "-"')
    assert entry.np == UNKNOWN and entry.gs == NON_EXISTENT
    assert serialize_entry(entry) == 'NOUN F "sgoil" ? -'


def test_parse_markers_unquoted_only():
    # a quoted "?" is a word, and ? is not a Gaelic letter
    with pytest.raises(SvfSyntaxError):
        parse_svf_line('NOUN F "sgoil" "?" "sgoile"'.replace('"?"', '"??"'))


def test_parse_irreg_flag():
    entry = parse_svf_line('VERB "rach" "dol" IRREG')
    assert entry.irregular
    assert serialize_entry(entry).endswith(" IRREG")


def test_parse_gender_on_verb_is_constraint_violation():
    with pytest.raises(ConstraintViolationError):
        parse_svf_line('VERB M "òl" "òl"')


def test_parse_noun_without_gender_is_constraint_violation():
    with pytest.raises(ConstraintViolationError):
        parse_svf_line('NOUN "cat" "cait" "cait"')


@pytest.mark.parametrize("line", [
    "",
    "PRON \"e\"",
    'NOUN M "cat" "cait"',              # missing GS
    'NOUN M "cat" "cait" "cait" "x"',   # extra field
    'VERB "òl"',
    'VERB òl "òl"',                     # unquoted lemma
    'VERB "òl" "òl',                    # unterminated quote
    'VERB "òl""òl"',                    # missing separator
    'NOUN M "kat" "cait" "cait"',       # k is outside the alphabet
])
def test_parse_rejects_malformed(line):
    with pytest.raises(SvfSyntaxError):
        parse_svf_line(line)


# every tokenizer error, by the exact message it carries; a line with
# one fault each, so the message does not depend on the order of checks
@pytest.mark.parametrize("line, error, message", [
    ("", SvfSyntaxError, "empty record"),
    ('PRON "e"', SvfSyntaxError, "unknown part of speech: 'PRON'"),
    ('"NOUN" M "cat" ? ?', SvfSyntaxError, "unknown part of speech: 'NOUN'"),
    ("NOUN", ConstraintViolationError, "NOUN requires gender M or F, got ''"),
    ('NOUN "cat" "cait" "cait"', ConstraintViolationError,
     "NOUN requires gender M or F, got 'cat'"),
    ('NOUN "M" "cat" ? ?', ConstraintViolationError, "NOUN requires gender M or F, got 'M'"),
    ('VERB M "òl" "òl"', ConstraintViolationError, "gender is not allowed for VERB"),
    ('ADJ F "mòr" "motha"', ConstraintViolationError, "gender is not allowed for ADJ"),
    ('NOUN M "cat" "cait"', SvfSyntaxError, "NOUN record needs lemma, NP and GS, got 2 fields"),
    ('NOUN M "cat" ? ? ?', SvfSyntaxError, "NOUN record needs lemma, NP and GS, got 4 fields"),
    ("NOUN M IRREG", SvfSyntaxError, "NOUN record needs lemma, NP and GS, got 0 fields"),
    ('VERB "òl"', SvfSyntaxError, "VERB record needs lemma and VN, got 1 fields"),
    ('VERB "òl" "òl" IRREG IRREG', SvfSyntaxError, "VERB record needs lemma and VN, got 3 fields"),
    ("ADJ", SvfSyntaxError, "ADJ record needs lemma and CP, got 0 fields"),
    ('ADJ "mòr" ? ?', SvfSyntaxError, "ADJ record needs lemma and CP, got 3 fields"),
    ("NOUN M cat ? ?", SvfSyntaxError, "lemma must be a quoted word"),
    ('VERB òl "òl"', SvfSyntaxError, "lemma must be a quoted word"),
    ("ADJ mòr ?", SvfSyntaxError, "lemma must be a quoted word"),
    ('NOUN M "cat" cait ?', SvfSyntaxError, "expected quoted word, ? or - for NP, got 'cait'"),
    ('NOUN M "cat" ? cait', SvfSyntaxError, "expected quoted word, ? or - for GS, got 'cait'"),
    ('VERB "òl" òl', SvfSyntaxError, "expected quoted word, ? or - for VN, got 'òl'"),
    ('ADJ "mòr" IRREG IRREG', SvfSyntaxError, "expected quoted word, ? or - for CP, got 'IRREG'"),
    ('VERB "òl" "òl', SvfSyntaxError, "unterminated quote"),
    ('VERB "òl" x"y', SvfSyntaxError, "stray quote in token 'x\"y'"),
    ('VERB "òl""òl"', SvfSyntaxError, "missing space after quoted field"),
    ('NOUN M "kat" ? ?', SvfSyntaxError, "invalid characters in lemma: 'kat'"),
    ('NOUN M "cat" "kait" ?', SvfSyntaxError, "invalid characters in NP: 'kait'"),
    ('NOUN M "cat" ? "kait"', SvfSyntaxError, "invalid characters in GS: 'kait'"),
    ('VERB "òl" "kòl"', SvfSyntaxError, "invalid characters in VN: 'kòl'"),
    ('ADJ "mòr" "k"', SvfSyntaxError, "invalid characters in CP: 'k'"),
])
def test_parse_error_messages(line, error, message):
    with pytest.raises(error) as caught:
        parse_svf_line(line)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("line", ['NOUN M "kat" cait ?', 'VERB "kòl" òl', 'ADJ "kx" x'])
def test_parse_reports_the_first_bad_field(line):
    # every part of speech reads its lemma before its parts
    with pytest.raises(SvfSyntaxError, match="^invalid characters in lemma: "):
        parse_svf_line(line)


def test_parse_multiword_lemma():
    entry = parse_svf_line('VERB "cuir seachad" "cur seachad"')
    assert entry.lemma == "cuir seachad"


def test_parse_normalizes_composition():
    decomposed = 'NOUN M "bàta" "bàtaichean" "bàta"'
    assert parse_svf_line(decomposed).lemma == "bàta"


def test_serialize_bata_round_trip():
    entry = parse_svf_line(BATA_LINE)
    assert serialize_entry(entry) == BATA_LINE
    assert parse_svf_line(serialize_entry(entry)) == entry


def test_serialize_requires_mandatory_parts():
    with pytest.raises(ValueError):
        serialize_entry(Entry(lemma="cat", pos=NOUN, gender="M", np=part("cait")))


def test_serialize_refuses_an_unknown_part_of_speech():
    with pytest.raises(ValueError, match="^unknown part of speech: 'PRON'$"):
        serialize_entry(Entry(lemma="mi", pos="PRON"))


def test_each_part_of_speech_fields_are_one_run_of_entry_fields():
    # the readers and serialize_entry take them as one slice of an Entry
    for pos, fields in svf.FIELDS_BY_POS.items():
        start = Entry._fields.index(fields[0])
        assert Entry._fields[start : start + len(fields)] == fields, pos


def test_validate_clean_entry():
    assert validate(parse_svf_line(BATA_LINE)) == []


def test_validate_vn_on_adjective():
    entry = Entry(lemma="mòr", pos=ADJ, cp=part("motha"), vn=part("x"))
    violations = validate(entry)
    assert [v.field for v in violations] == ["vn"]
    assert violations[0].clause == "VN IS NULL OR POS = 'VERB'"


@pytest.mark.parametrize("entry, field, clause", [
    (Entry("mòr", ADJ, gender="M", cp=part("motha")), "gender",
     "(GR IS NULL AND NP IS NULL AND GS IS NULL) OR POS = 'NOUN'"),
    (Entry("òl", VERB, vn=part("òl"), gs=UNKNOWN), "gs",
     "(GR IS NULL AND NP IS NULL AND GS IS NULL) OR POS = 'NOUN'"),
    (Entry("cat", NOUN, gender="M", np=UNKNOWN, gs=UNKNOWN, vn=part("x")), "vn",
     "VN IS NULL OR POS = 'VERB'"),
    (Entry("òl", VERB, vn=part("òl"), cp=NON_EXISTENT), "cp", "CP IS NULL OR POS = 'ADJ'"),
    (Entry("cat", NOUN, gender="M", gs=UNKNOWN), "np", "mandatory for NOUN"),
    (Entry("òl", VERB), "vn", "mandatory for VERB"),
    (Entry("mòr", ADJ), "cp", "mandatory for ADJ"),
])
def test_validate_clause_text(entry, field, clause):
    assert validate(entry) == [svf.Violation(field, clause)]


def test_validate_reports_forbidden_fields_before_missing_ones():
    entry = Entry("cat", ADJ, gender="F", vn=UNKNOWN)
    assert [str(v) for v in validate(entry)] == [
        "gender: (GR IS NULL AND NP IS NULL AND GS IS NULL) OR POS = 'NOUN'",
        "vn: VN IS NULL OR POS = 'VERB'",
        "cp: mandatory for ADJ",
    ]


def test_validate_noun_missing_gender():
    entry = Entry(lemma="cat", pos=NOUN, np=part("cait"), gs=part("cait"))
    assert [v.field for v in validate(entry)] == ["gender"]


def _dnf_holds(entry):
    # direct transcription of the integrity formula over NULL-ness
    noun_ok = (
        entry.gender is None and entry.np is None and entry.gs is None
    ) or entry.pos == NOUN
    verb_ok = entry.vn is None or entry.pos == VERB
    adj_ok = entry.cp is None or entry.pos == ADJ
    return noun_ok and verb_ok and adj_ok


def _mandatory_ok(entry):
    if entry.pos == NOUN:
        return entry.gender is not None and entry.np is not None and entry.gs is not None
    if entry.pos == VERB:
        return entry.vn is not None
    return entry.cp is not None


def test_validate_agrees_with_brute_force_dnf():
    # exhaustive: 3 POS x presence/absence of all five optional fields
    for pos in svf.PARTS_OF_SPEECH:
        for bits in itertools.product([False, True], repeat=5):
            has_gender, has_np, has_gs, has_vn, has_cp = bits
            entry = Entry(
                lemma="facal",
                pos=pos,
                gender="M" if has_gender else None,
                np=part("x") if has_np else None,
                gs=part("x") if has_gs else None,
                vn=part("x") if has_vn else None,
                cp=part("x") if has_cp else None,
            )
            violations = validate(entry)
            expected_clean = _dnf_holds(entry) and _mandatory_ok(entry)
            assert (violations == []) == expected_clean, (pos, bits, violations)
            if not _dnf_holds(entry):
                assert violations  # every formula breach is reported


def test_validate_treats_markers_as_present():
    entry = Entry(lemma="sgoil", pos=NOUN, gender="F", np=UNKNOWN, gs=NON_EXISTENT)
    assert validate(entry) == []


def test_loader_reports_positioned_errors(tmp_path):
    path = tmp_path / "mixed.svf"
    path.write_text(
        "# comment\n"
        '\n'
        'NOUN M "cat" "cait" "cait"\n'
        'VERB M "òl" "òl"\n'
        'ADJ "mòr" "motha"\n',
        encoding="utf-8",
    )
    entries, errors = svf.load_vocabulary_file(path)
    assert [e.lemma for e in entries] == ["cat", "mòr"]
    assert len(errors) == 1
    assert errors[0].line == 4
    assert isinstance(errors[0], ConstraintViolationError)


def test_loader_errors_hold_no_traceback(tmp_path):
    # a traceback would hold the loader's frame, and through it the
    # error list, in a reference cycle
    path = tmp_path / "bad.svf"
    path.write_text('VERB M "òl" "òl"\nADJ "kx" "kx"\n', encoding="utf-8")
    _, errors = svf.load_vocabulary_file(path)
    assert [(error.line, error.__traceback__) for error in errors] == [(1, None), (2, None)]


def test_loader_empty_file(tmp_path):
    path = tmp_path / "empty.svf"
    path.write_text("", encoding="utf-8")
    assert svf.load_vocabulary_file(path) == ([], [])


def test_loader_keeps_duplicate_lemmas(tmp_path):
    path = tmp_path / "dup.svf"
    path.write_text('ADJ "mòr" "motha"\nADJ "mòr" "motha"\n', encoding="utf-8")
    entries, errors = svf.load_vocabulary_file(path)
    assert len(entries) == 2 and not errors


def test_loader_line_count_conservation(tmp_path):
    lines = [
        "# header",
        'NOUN M "cat" "cait" "cait"',
        "",
        "broken line",
        'VERB "òl" "òl"',
        "   ",
        "# tail",
    ]
    path = tmp_path / "counts.svf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    entries, errors = svf.load_vocabulary_file(path)
    skipped = sum(1 for l in lines if not l.strip() or l.strip().startswith("#"))
    assert len(entries) + len(errors) + skipped == len(lines)


# ---------------------------------------------------------------------------
# randomized round-trip: serialize and parse are mutual inverses
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghilmnoprstuàèìòùáéíóú"


def _random_gaelic_word(rng):
    length = rng.randint(1, 12)
    chars = [rng.choice(_LETTERS) for _ in range(length)]
    if rng.random() < 0.15:
        chars[0] = chars[0].upper()
    word = "".join(chars)
    if length > 3 and rng.random() < 0.1:
        cut = rng.randint(1, length - 2)
        joiner = rng.choice("-' ")
        word = word[:cut] + joiner + word[cut + 1:]
    return word


def _random_part(rng):
    roll = rng.random()
    if roll < 0.7:
        return part(_random_gaelic_word(rng))
    return UNKNOWN if roll < 0.85 else NON_EXISTENT


def random_entry(rng):
    pos = rng.choice(svf.PARTS_OF_SPEECH)
    irregular = rng.random() < 0.05
    lemma = _random_gaelic_word(rng)
    if pos == NOUN:
        return Entry(
            lemma=lemma, pos=pos, irregular=irregular,
            gender=rng.choice(svf.GENDERS),
            np=_random_part(rng), gs=_random_part(rng),
        )
    if pos == VERB:
        return Entry(lemma=lemma, pos=pos, irregular=irregular, vn=_random_part(rng))
    return Entry(lemma=lemma, pos=pos, irregular=irregular, cp=_random_part(rng))


def test_round_trip_random_entries():
    rng = random.Random(18)
    for _ in range(10_000):
        entry = random_entry(rng)
        line = serialize_entry(entry)
        again = parse_svf_line(line)
        assert again == entry, line
        assert serialize_entry(again) == line
        assert validate(entry) == []


def test_loader_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "bom.svf"
    path.write_text('\ufeffNOUN M "cat" "cait" "cait"\nADJ "mòr" "motha"\n', encoding="utf-8")
    entries, errors = svf.load_vocabulary_file(path)
    assert [e.lemma for e in entries] == ["cat", "mòr"] and errors == []
