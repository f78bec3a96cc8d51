import random
import unicodedata

import pytest

from gdmorph import orthography as orth
from gdmorph.orthography import (
    BROAD,
    SLENDER,
    SuffixAlternation,
    attach_suffix,
    glottal_past_prefix,
    last_vowel_class,
    lenite,
    normalize_accents,
    satisfies_vowel_harmony,
    slenderize,
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


def test_normalize_accents_fold():
    assert normalize_accents("mór") == "mòr"
    assert normalize_accents("cat") == "cat"
    assert normalize_accents("Ólc") == "Òlc"


def test_normalize_accents_strip_matches_decomposition_oracle():
    # independent oracle: NFD-decompose and drop combining marks
    for word in ["céilidh", "mòr", "Gàidhlig", "ÒL", "taigh"]:
        oracle = "".join(
            ch for ch in unicodedata.normalize("NFD", word)
            if not unicodedata.combining(ch)
        )
        assert normalize_accents(word, orth.STRIP_ALL) == oracle
    assert normalize_accents("céilidh", orth.STRIP_ALL) == "ceilidh"


def test_normalize_accents_none_is_identity():
    assert normalize_accents("céilidh", orth.NO_FOLD) == "céilidh"


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
        assert len(normalize_accents(word)) == len(word)
        assert len(normalize_accents(word, orth.STRIP_ALL)) == len(word)
        # folding is idempotent
        folded = normalize_accents(word)
        assert normalize_accents(folded) == folded


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
        group = normalize_accents(result[start:end], orth.STRIP_ALL)
        assert group.endswith("i") or group == "i"
        produced += 1
    assert produced > 50
