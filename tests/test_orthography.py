import random
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdmorph
from gdmorph import orthography as orth
from gdmorph.orthography import (
    BROAD,
    SLENDER,
    SuffixAlternation,
    attach_suffix,
    glottal_past_prefix,
    last_vowel_class,
    lenite,
    satisfies_vowel_harmony,
    slenderize,
    strip_accents,
    strip_prothesis,
)

LENITE_GOLD = {
    "cat": "chat",          # mo cat -> mo chat
    "saoghal": "shaoghal",
    "tuit": "thuit",
    "bròg": "bhròg",
    "fear": "fhear",
    "Màiri": "Mhàiri",      # capital preserved, h lowercase
    "òl": "òl",             # vowel initial
    "iasg": "iasg",
    "là": "là",             # l, n, r never lenite
    "nead": "nead",
    "rùm": "rùm",
    "chat": "chat",         # already lenited
    "sheòl": "sheòl",
    "sgoil": "sgoil",       # immune s clusters
    "smuain": "smuain",
    "spòrs": "spòrs",
    "stòr": "stòr",
    "slat": "shlat",        # s + l/n/r lenites
    "snàmh": "shnàmh",
    "sròn": "shròn",
    "seòl": "sheòl",
    "hata": "hata",
}


@pytest.mark.parametrize(("word", "expected"), LENITE_GOLD.items())
def test_lenite(word, expected):
    assert lenite(word) == expected


GLOTTAL_GOLD = {
    "òl": "dh'òl",
    "òladh": "dh'òladh",
    "ith": "dh'ith",
    "fàg": "dh'fhàg",       # f + vowel gets both mutations
    "fàgadh": "dh'fhàgadh",
    "freagair": "fhreagair",  # f + consonant just lenites
    "tuit": "thuit",
    "cuir": "chuir",
    "leum": "leum",         # unlenitable initial, no prefix
    "": "",                 # nothing to mutate
}


@pytest.mark.parametrize(("word", "expected"), GLOTTAL_GOLD.items())
def test_glottal_past_prefix(word, expected):
    assert glottal_past_prefix(word) == expected


STRIP_GOLD = {
    "n-iasg": "iasg",
    "t-saoghail": "saoghail",
    "h-uile": "uile",
    "dh'òl": "òl",
    "dh’òl": "òl",     # curly apostrophe accepted
    "iasg": "iasg",
    "taigh": "taigh",       # leading t without hyphen is not prothesis
}


@pytest.mark.parametrize(("word", "expected"), STRIP_GOLD.items())
def test_strip_prothesis(word, expected):
    assert strip_prothesis(word) == expected


def test_strip_prothesis_one_layer_only():
    assert strip_prothesis("dh'fhàg") == "fhàg"


SLENDERIZE_GOLD = {
    "fear": "fir",
    "saoghal": "saoghail",
    "balach": "balaich",
    "òr": "òir",
    "fir": "fir",           # already slender
    "saoghail": "saoghail",
    "dòrus": "dòruis",
}


@pytest.mark.parametrize(("word", "expected"), SLENDERIZE_GOLD.items())
def test_slenderize(word, expected):
    assert slenderize(word) == expected


@pytest.mark.parametrize("word", ["bàta", "brd", "ceum", "ceòl", "leth"])
def test_slenderize_rejects(word):
    # vowel-final, vowel-free, and mixed-class groups have no defined outcome
    with pytest.raises(orth.NotSlenderizableError):
        slenderize(word)


def test_last_vowel_class():
    assert last_vowel_class("saoghal") == BROAD
    assert last_vowel_class("fir") == SLENDER
    assert last_vowel_class("òl") == BROAD
    assert last_vowel_class("bile") == SLENDER
    with pytest.raises(orth.NoVowelError):
        last_vowel_class("b")


def test_a_vowel_is_one_character():
    for text in ["", "ou", "ai", "Ea", "àa"]:
        assert not orth.is_vowel(text)
        with pytest.raises(orth.NoVowelError):
            orth.vowel_class(text)
    # every BMP character, against the definition by lower case
    for code in range(0x10000):
        ch = chr(code)
        vowel = len(ch) == 1 and ch.lower() in orth.VOWELS
        assert orth.is_vowel(ch) == vowel, ch
        if vowel:
            expected = BROAD if ch.lower() in orth.BROAD_VOWELS else SLENDER
            assert orth.vowel_class(ch) == expected, ch
        else:
            with pytest.raises(orth.NoVowelError):
                orth.vowel_class(ch)


ATTACH_GOLD = [
    ("saoghal", ("an", "ean"), "saoghalan"),
    ("òl", ("aidh", "idh"), "òlaidh"),
    ("bile", ("an", "ean"), "bilean"),  # boundary vowel written once
    ("cuir", ("aidh", "idh"), "cuiridh"),
    ("òl", ("ta", "te"), "òlta"),
    ("cuir", ("ta", "te"), "cuirte"),
]


@pytest.mark.parametrize(("stem", "pair", "expected"), ATTACH_GOLD)
def test_attach_suffix(stem, pair, expected):
    assert attach_suffix(stem, SuffixAlternation(*pair)) == expected


@pytest.mark.parametrize("pair", [("", "ean"), ("an", "")])
def test_suffix_alternation_needs_both_alternants(pair):
    with pytest.raises(ValueError):
        SuffixAlternation(*pair)


def test_normalize_accents_strip_matches_decomposition_oracle():
    # independent oracle: NFD-decompose and drop combining marks
    for word in ["céilidh", "mòr", "Gàidhlig", "ÒL", "taigh"]:
        oracle = "".join(
            ch for ch in unicodedata.normalize("NFD", word)
            if not unicodedata.combining(ch)
        )
        assert strip_accents(word) == oracle
    assert strip_accents("céilidh") == "ceilidh"


def test_canonical_composes_and_fixes_apostrophes():
    decomposed = "mòr"  # o + combining grave
    assert orth.canonical(decomposed) == "mòr"
    assert orth.canonical("dh’òl") == "dh'òl"


def test_is_gaelic_word():
    assert orth.is_gaelic_word("saoghal")
    assert orth.is_gaelic_word("dh'òl")
    assert orth.is_gaelic_word("ban-righ")
    assert orth.is_gaelic_word("cur seachad")
    assert not orth.is_gaelic_word("")
    assert not orth.is_gaelic_word("  x")
    assert not orth.is_gaelic_word("kite")  # k is not a Gaelic letter
    assert not orth.is_gaelic_word("---")


def _random_word(rng):
    letters = "bcdfgmpstlnraeiouàèìòùáéíóú"
    length = rng.randint(1, 10)
    word = "".join(rng.choice(letters) for _ in range(length))
    return word.capitalize() if rng.random() < 0.2 else word


def test_lenite_idempotent_and_minimal():
    rng = random.Random(20260810)
    for _ in range(1000):
        word = _random_word(rng)
        once = lenite(word)
        assert lenite(once) == once, word
        # change is exactly one inserted lowercase h after the initial
        assert len(once) - len(word) in (0, 1)
        if once != word:
            assert once == word[0] + "h" + word[1:]


def test_prothesis_strip_inverts_attachment():
    for word in ["iasg", "saoghail", "uile", "òl", "Alba"]:
        for prefix in ["t-", "n-", "h-"]:
            assert strip_prothesis(prefix + word) == word
        assert strip_prothesis("dh'" + word) == word


_ALTERNATIONS = [
    ("an", "ean"), ("aidh", "idh"), ("adh", "eadh"), ("ta", "te"),
    ("ar", "ear"), ("tar", "tear"), ("as", "eas"), ("ainn", "inn"),
    ("amaid", "eamaid"), ("am", "eam"), ("aibh", "ibh"), ("tadh", "teadh"),
]


def _harmonic_stem(rng):
    # single-class vowels guarantee the stem itself satisfies harmony
    broad = rng.random() < 0.5
    vowels = "aouàòù" if broad else "eièì"
    consonants = "bcdfglmnprst"
    pieces = [rng.choice(consonants)]
    for _ in range(rng.randint(1, 3)):
        pieces.append(rng.choice(vowels))
        pieces.append(rng.choice(consonants))
    if rng.random() < 0.5:
        pieces.pop()  # sometimes vowel-final
    return "".join(pieces)


def test_attach_suffix_keeps_vowel_harmony():
    rng = random.Random(97)
    checked = 0
    for _ in range(1000):
        stem = _harmonic_stem(rng)
        result = attach_suffix(stem, SuffixAlternation(*rng.choice(_ALTERNATIONS)))
        assert satisfies_vowel_harmony(result), (stem, result)
        checked += 1
    assert checked == 1000


def test_satisfies_vowel_harmony_spots_violations():
    assert satisfies_vowel_harmony("saoghalan")
    assert satisfies_vowel_harmony("dh'òlamaid")
    assert satisfies_vowel_harmony("cuirte")
    assert not satisfies_vowel_harmony("saoghel")
    assert not satisfies_vowel_harmony("cuirta")


def test_fold_and_strip_preserve_length():
    for word in ["mór", "céilidh", "Gàidhlig", "cat"]:
        assert len(strip_accents(word)) == len(word)
        for policy in (orth.FOLD_ACCENTS, orth.FOLD_ACCENTS_CASE):
            folded = orth.fold_key(word, policy)
            assert len(folded) == len(word)
            # folding is idempotent
            assert orth.fold_key(folded, policy) == folded


def test_slenderize_result_ends_slender():
    rng = random.Random(3)
    produced = 0
    for _ in range(500):
        word = _harmonic_stem(rng)
        try:
            result = slenderize(word)
        except orth.NotSlenderizableError:
            continue
        start, end = orth._final_vowel_group(result)
        group = strip_accents(result[start:end])
        assert group.endswith("i") or group == "i"
        produced += 1
    assert produced > 50


# ASCII letters of both cases, grave and acute vowels of both cases, a
# decomposed accent, both apostrophes, a hyphen and a non-Gaelic letter
_MIXED = st.text(alphabet="abghloSTàòÀÒáéÉ\u0300’'-ß", max_size=12)


@given(_MIXED)
def test_canonical_is_nfc_with_straight_apostrophes(text):
    assert orth.canonical(text) == unicodedata.normalize("NFC", text).replace("’", "'")


@given(_MIXED, st.sampled_from([orth.EXACT, orth.FOLD_ACCENTS, orth.FOLD_ACCENTS_CASE]))
def test_fold_key_matches_translate_reference(word, policy):
    reference = {
        orth.EXACT: word,
        orth.FOLD_ACCENTS: word.translate(orth._STRIP_ACCENTS),
        orth.FOLD_ACCENTS_CASE: word.translate(orth._STRIP_ACCENTS).casefold(),
    }[policy]
    assert orth.fold_key(word, policy) == reference


# every accented vowel, plain letters, other Latin-1 letters, and
# characters above U+00FF that leave the text out of Latin-1
_LATIN1_AND_BEYOND = st.text(
    alphabet="àèìòùáéíóúÀÈÌÒÙÁÉÍÓÚ" + "aeoTh-'" + "ßÿñÇ" + "’\u0300Ŵ", max_size=12
)


@given(_LATIN1_AND_BEYOND, st.sampled_from([orth.EXACT, orth.FOLD_ACCENTS, orth.FOLD_ACCENTS_CASE]))
def test_accent_strip_matches_translate_on_and_off_latin1(text, policy):
    stripped = text.translate(orth._STRIP_ACCENTS)
    assert strip_accents(text) == stripped
    reference = {
        orth.EXACT: text,
        orth.FOLD_ACCENTS: stripped,
        orth.FOLD_ACCENTS_CASE: stripped.casefold(),
    }[policy]
    assert orth.fold_key(text, policy) == reference


_ACUTE_TO_GRAVE = str.maketrans("áéíóúÁÉÍÓÚ", "àèìòùÀÈÌÒÙ")


@given(_LATIN1_AND_BEYOND, st.sampled_from([orth.FOLD_ACCENTS, orth.FOLD_ACCENTS_CASE]))
def test_an_accent_fold_ignores_which_accent_a_vowel_bears(word, policy):
    # so rewriting a query's acutes as graves, or stripping its accents,
    # before an accent-folding lookup finds nothing the lookup does not
    key = orth.fold_key(word, policy)
    assert orth.fold_key(word.translate(_ACUTE_TO_GRAVE), policy) == key
    assert orth.fold_key(strip_accents(word), policy) == key


def test_an_unknown_fold_policy_is_a_value_error():
    with pytest.raises(ValueError, match="unknown fold policy: 'accent'"):
        orth.fold_key("mòr", "accent")


# The index walks the compiled patterns replaced, kept verbatim as the
# references they are checked against.
def _reference_letter_segments(word: str) -> list[str]:
    segments = []
    current = []
    for ch in word:
        if ch.lower() in orth._GAELIC_LETTERS:
            current.append(ch)
        elif current:
            segments.append("".join(current))
            current = []
    if current:
        segments.append("".join(current))
    return segments


def _reference_satisfies_vowel_harmony(word: str) -> bool:
    for segment in _reference_letter_segments(word):
        previous = None
        index = 0
        while index < len(segment):
            if orth.is_vowel(segment[index]):
                if previous is not None and orth.vowel_class(segment[index]) != previous:
                    return False
                while index < len(segment) and orth.is_vowel(segment[index]):
                    index += 1
                previous = orth.vowel_class(segment[index - 1])
            else:
                index += 1
    return True


def _reference_final_vowel_group(word: str) -> tuple[int, int]:
    end = len(word) - 1
    while end >= 0 and not orth.is_vowel(word[end]):
        end -= 1
    if end < 0:
        raise orth.NotSlenderizableError(f"no vowel in {word!r}")
    if end == len(word) - 1:
        raise orth.NotSlenderizableError(f"{word!r} ends in a vowel")
    start = end
    while start >= 0 and orth.is_vowel(word[start]):
        start -= 1
    return start + 1, end + 1


def _outcome(function, word):
    try:
        return function(word)
    except orth.MorphologyError as exc:
        return type(exc), str(exc)


# the alphabet in both cases with all accents, the word-internal marks,
# space, newline, digits, letters outside the alphabet and two code
# points whose lower case is or contains a Gaelic letter (İ -> i̇, K -> k)
_SCANNED = st.text(
    alphabet="abcdefghilmnoprstuAEIOUBCSàèìòùáéíóúÀÈÌÒÙÁÉÍÓÚ'- \n0123kxyzİK",
    max_size=16,
)


@settings(max_examples=1000)
@given(_SCANNED)
def test_vowel_harmony_matches_the_index_walk(word):
    assert satisfies_vowel_harmony(word) == _reference_satisfies_vowel_harmony(word)


@settings(max_examples=1000)
@given(_SCANNED)
def test_final_vowel_group_matches_the_index_walk(word):
    assert _outcome(orth._final_vowel_group, word) == _outcome(_reference_final_vowel_group, word)


def test_pattern_classes_hold_exactly_what_the_predicates_accept():
    # the letter and vowel runs are character classes of these strings
    characters = [chr(point) for point in range(sys.maxunicode + 1)]
    letters = {ch for ch in characters if ch.lower() in orth._GAELIC_LETTERS}
    vowels = {ch for ch in characters if orth.is_vowel(ch)}
    assert letters == set(orth._LETTER_CLASS)
    assert vowels == set(orth.VOWELS + orth.VOWELS.upper())


# The prefix loop the compiled prothesis pattern replaced, kept verbatim
# as the reference it is checked against.
def _reference_strip_prothesis(word: str) -> str:
    lowered = word.lower()
    for prefix in ("t-", "n-", "h-"):
        if lowered.startswith(prefix):
            return word[2:]
    if lowered.startswith("dh'") or lowered.startswith("dh’"):
        return word[3:]
    return word


# the alphabet in both cases, the prefix marks and two code points whose
# lower case is or contains a Latin letter (U+0130 -> i̇, U+212A -> k)
_PROTHETIC = st.text(
    alphabet="abcdefghilmnoprstuABCDEFGHILMNOPRSTUàòÀÒ-'’\u0130\u212a",
    max_size=8,
)


@settings(max_examples=2000)
@given(_PROTHETIC)
def test_strip_prothesis_matches_the_prefix_loop(word):
    assert strip_prothesis(word) == _reference_strip_prothesis(word)


# each rest completes a prefix after a first character whose lower case
# is a prefix letter, or the start of a prefix
@pytest.mark.parametrize("rest", ["", "-x", "h'x", "h’x", "'x", "’x"])
def test_strip_prothesis_matches_the_prefix_loop_on_every_first_character(rest):
    words = [chr(point) + rest for point in range(sys.maxunicode + 1)]
    differ = [word for word in words if strip_prothesis(word) != _reference_strip_prothesis(word)]
    assert differ == []


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_read_text_names_the_first_line_that_is_not_utf8(tmp_path, newline):
    path = tmp_path / "latin1.txt"
    lines = [b"\xef\xbb\xbfok", "càt".encode(), b"c\xe0t", b"\xff"]
    path.write_bytes(newline.join(lines[:2]) + newline)
    assert orth.read_text(path) == "ok\ncàt\n"
    path.write_bytes(newline.join(lines))
    with pytest.raises(orth.InputError) as raised:
        orth.read_text(path)
    assert (raised.value.path, raised.value.line) == (path, 3)
    assert str(raised.value) == f"{path}: line 3: not UTF-8 (invalid continuation byte)"


def test_the_package_exports_both_error_classes():
    assert gdmorph.InputError is orth.InputError
    assert gdmorph.MorphologyError is orth.MorphologyError
