"""Properties of the orthography primitives and the parsers on generated
input.

`is_gaelic_word` and the SVF tokenizer are checked against the
per-character definitions they replaced, kept here as references.  The
vocabulary loader's one-pattern path is checked against parse_svf_line,
the tokenizer path, which reads every line, and its read loop against
that function applied line by line.  A rule file with one bad line
inserted must name that line and the file.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdmorph import orthography, rules, svf
from gdmorph.svf import (
    ADJ,
    GENDERS,
    NON_EXISTENT,
    NOUN,
    UNKNOWN,
    VERB,
    Entry,
    PartValue,
    SvfError,
    parse_svf_line,
    part,
    serialize_entry,
)

LETTERS = "abcdefghilmnoprstu"
ACCENTED = "àèìòùáéíóú"
GAELIC = LETTERS + LETTERS.upper() + ACCENTED + ACCENTED.upper()
# whitespace, curly apostrophe, non-Gaelic letters and their case traps
OTHER = " \t\n ’kxyzKQİıßẞ́"

_REFERENCE_LETTERS = set(LETTERS) | set(ACCENTED)
_REFERENCE_CHARS = _REFERENCE_LETTERS | {c.upper() for c in _REFERENCE_LETTERS} | {"'", "-", " "}


def reference_is_gaelic_word(text: str) -> bool:
    if not text or text != text.strip():
        return False
    if not any(c.lower() in _REFERENCE_LETTERS for c in text):
        return False
    return all(c in _REFERENCE_CHARS for c in text)


@given(st.text(alphabet=GAELIC + "'-" + OTHER, max_size=12))
def test_is_gaelic_word_matches_reference(text):
    assert orthography.is_gaelic_word(text) == reference_is_gaelic_word(text)


words = st.text(alphabet=GAELIC + "'- ", min_size=1, max_size=10).filter(
    orthography.is_gaelic_word
)
parts = st.one_of(st.just(UNKNOWN), st.just(NON_EXISTENT), words.map(part))


@st.composite
def entries(draw):
    pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
    fields = {"lemma": draw(words), "pos": pos, "irregular": draw(st.booleans())}
    if pos == NOUN:
        fields.update(gender=draw(st.sampled_from(GENDERS)), np=draw(parts), gs=draw(parts))
    elif pos == VERB:
        fields["vn"] = draw(parts)
    else:
        fields["cp"] = draw(parts)
    return Entry(**fields)


@given(entries())
def test_serialize_then_parse_round_trips(entry):
    assert parse_svf_line(serialize_entry(entry)) == entry


@given(entries())
def test_entry_hashes_and_compares_as_its_plain_tuple(entry):
    plain = tuple(entry)
    assert hash(entry) == hash(plain)
    assert len({entry, plain}) == 1 and plain in {entry}


@given(st.text(alphabet=GAELIC + "'- ", max_size=10))
def test_lenite_is_idempotent(word):
    once = orthography.lenite(word)
    assert orthography.lenite(once) == once


# SVF lines: records in the canonical layout and every way to leave it
# (extra or missing spaces, tabs, quoted markers, IRREG anywhere, stray
# or unbalanced quotes, letters outside the alphabet, decomposed accents,
# curly apostrophes)
svf_words = st.text(alphabet=GAELIC + "'- " + OTHER + '"' + "\u0300?", max_size=8)
svf_tokens = st.one_of(
    svf_words.map(lambda word: f'"{word}"'),
    svf_words,
    st.sampled_from(
        ["NOUN", "VERB", "ADJ", "PRON", "M", "F", "IRREG", "?", "-", '"?"', '"-"', '"']
    ),
)
separators = st.sampled_from([" ", " ", " ", " ", "  ", "", "\t"])
svf_fields = st.one_of(
    st.one_of(words, svf_words).map(lambda word: f'"{word}"'),
    st.sampled_from(["?", "-", '"?"', '"-"']),
)
PART_COUNTS = {NOUN: 2, VERB: 1, ADJ: 1}


@st.composite
def record_lines(draw):
    shape = draw(st.sampled_from(["entry", "record", "tokens"]))
    if shape == "entry":  # a valid record
        tokens = serialize_entry(draw(entries())).split(" ")
    elif shape == "record":  # the record layout over any words and markers
        pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
        tokens = [pos, draw(st.sampled_from(GENDERS))] if pos == NOUN else [pos]
        tokens.append('"' + draw(st.one_of(words, svf_words)) + '"')
        # now and then one part too few or too many
        count = PART_COUNTS[pos] + draw(st.sampled_from([0, 0, 0, -1, 1]))
        tokens += [draw(svf_fields) for _ in range(count)]
        if draw(st.booleans()):
            tokens.append("IRREG")
    else:
        pos = draw(st.sampled_from(["NOUN", "VERB", "ADJ", "PRON"]))
        tokens = [pos, *draw(st.lists(st.one_of(svf_fields, svf_tokens), max_size=5))]
    if draw(st.booleans()):
        gaps = st.just(" ")
    elif draw(st.booleans()):
        gaps = st.sampled_from([" ", "  ", "   "])
    else:
        gaps = separators
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(gaps) + token
    edge = st.sampled_from(["", "", "", " "])
    return draw(edge) + line + draw(edge)


def reference_tokenize(line: str) -> list[tuple[bool, str]]:
    """The per-character scanner the tokenizer's pattern replaced."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        if line[i] == " ":
            i += 1
            continue
        if line[i] == '"':
            close = line.find('"', i + 1)
            if close < 0:
                raise svf.SvfSyntaxError("unterminated quote")
            tokens.append((True, line[i + 1 : close]))
            i = close + 1
            if i < n and line[i] != " ":
                raise svf.SvfSyntaxError("missing space after quoted field")
        else:
            end = i
            while end < n and line[end] != " ":
                end += 1
            word = line[i:end]
            if '"' in word:
                raise svf.SvfSyntaxError(f"stray quote in token {word!r}")
            tokens.append((False, word))
            i = end
    return tokens


def _tokens_or_error(tokenize, line):
    try:
        return tokenize(line)
    except SvfError as exc:
        return type(exc), str(exc)


@settings(max_examples=500)
@given(st.one_of(record_lines(), st.text(alphabet=' "\tabcò', max_size=16)))
def test_tokenizer_matches_reference_scanner(line):
    assert _tokens_or_error(svf._tokenize, line) == _tokens_or_error(reference_tokenize, line)


@pytest.fixture(scope="module")
def vocab_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "vocab.svf"


def _load(path, text: str):
    """load_vocabulary_file on the text, each error as (line, type,
    message); each error also carries its line and the path."""
    path.write_bytes(text.encode("utf-8"))
    entries, errors = svf.load_vocabulary_file(path)
    for entry in entries:
        assert type(entry) is Entry
        parts = (getattr(entry, field) for field in svf.PART_FIELDS)
        assert all(value is None or type(value) is PartValue for value in parts)
    for error in errors:
        assert error.path == path
    return entries, [(error.line, type(error), error.message) for error in errors]


def reference_load(lines: list[str]):
    """parse_svf_line on each stripped line that is neither blank nor a comment."""
    entries, errors = [], []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                entries.append(parse_svf_line(line))
            except SvfError as exc:
                errors.append((number, type(exc), str(exc)))
    return entries, errors


# a line of a file: no line break inside it
one_line = record_lines().filter(lambda line: "\n" not in line and "\r" not in line)


@settings(max_examples=500)
@given(one_line)
def test_svf_pattern_path_agrees_with_tokenizer(vocab_path, line):
    assert _load(vocab_path, line) == reference_load([line])


comment_or_blank_lines = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t "]),
    st.tuples(
        st.sampled_from(["", " ", "\t"]), st.text(alphabet=GAELIC + ' "#?-\t', max_size=10)
    ).map(lambda pair: pair[0] + "#" + pair[1]),
)


@settings(max_examples=300)
@given(
    st.lists(st.one_of(one_line, comment_or_blank_lines), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
    st.booleans(),
)
def test_loader_equals_parse_svf_line_line_by_line(vocab_path, lines, newline, bom, final_newline):
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if final_newline else "")
    assert _load(vocab_path, text) == reference_load(lines)


rule_fragments = st.sampled_from([
    "* ", "*", "NOUN", "VERB", "ADJ", "M", "F", "IRREG", " & ", "&",
    'LEMMA="cat"', 'LEMMA=""', "LEMMAX=", "\n", "\n", "; ", ";", ":", " | ", "|",
    "NS", "NP", "GS", "GP", "VN", "CP", "PASTP", "POS_LENITED", "XX", "LEMMA",
    "H/", "DH/", "SL/", "/", '+"an|ean"', '+"a|"', "+", '"', "#", " ",
])


@given(st.lists(rule_fragments, max_size=24).map("".join))
def test_parse_rules_raises_only_rule_errors(text):
    try:
        rules.parse_rules(text)
    except rules.RuleError:
        pass


BUNDLED_LINES = Path(rules.BUNDLED_RULES).read_text(encoding="utf-8").splitlines()

# a line that fails wherever it stands, even before the first "*" line
bad_rule_lines = st.one_of(
    # a bad selector
    st.sampled_from(["NOUN & M & F", "VERB & M", "ADJ & IRREG", "CAT", "NOUN &"]).map("* ".__add__),
    # a bad second ";" chunk
    st.tuples(
        st.sampled_from(["NS: NS", "VN: VN", "CP: LEMMA"]),
        st.sampled_from(["NP NP", "GS: Q/GS", 'NP: LEMMA+"an"', ": NS"]),
    ).map("; ".join),
    # a bad "|" alternative
    st.tuples(
        st.sampled_from(["NS: NS", "VN: VN", "CP: LEMMA"]),
        st.sampled_from(["H/", "Q/LEMMA", "XX", 'LEMMA+"a1|e"', ""]),
    ).map(" | ".join),
    # an unknown form code
    st.sampled_from(["XX", "NSS", "PAST", "GEN"]).map("{}: LEMMA".format),
)


@pytest.fixture(scope="module")
def rule_path(tmp_path_factory):
    return tmp_path_factory.mktemp("rules") / "edited.grl"


@settings(max_examples=200)
@given(st.integers(1, len(BUNDLED_LINES) + 1), bad_rule_lines)
def test_a_bad_rule_line_is_named_by_its_file_and_line(rule_path, k, bad):
    lines = [*BUNDLED_LINES[: k - 1], bad, *BUNDLED_LINES[k - 1 :]]
    rule_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(rules.RuleSyntaxError) as raised:
        rules.load_rules(rule_path)
    exc = raised.value
    assert (exc.line, exc.path) == (k, rule_path)
    assert str(exc) == f"{rule_path}: line {k}: {exc.message}"


BUNDLED_SUFFIXES = sorted({
    derivation.suffix
    for rule in rules.default_rules().rules
    for alternatives in rule.derivations.values()
    for derivation in alternatives
    if derivation.suffix is not None
}, key=str)


@given(
    st.text(alphabet=GAELIC + "'-", min_size=1, max_size=12),
    st.sampled_from(BUNDLED_SUFFIXES),
)
def test_regular_suffix_keeps_vowel_harmony(stem, suffix):
    assume(any(orthography.is_vowel(ch) for ch in stem))
    assume(orthography.satisfies_vowel_harmony(stem))
    assert orthography.satisfies_vowel_harmony(orthography.attach_suffix(stem, suffix))
