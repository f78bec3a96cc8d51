"""Orthographic primitives for Scottish Gaelic.

Gaelic is written with 18 Roman letters (no j, k, q, v, w, x, y, z) plus
grave-accented long vowels; older texts also use acute accents on o and e
(and by extension the other vowels), dropped in the 1981 spelling reform.
Vowels divide into broad (a, o, u) and slender (e, i) classes, and the
spelling rule "broad to broad, slender to slender" requires the vowels on
either side of a consonant group to share a class.

All functions here are pure and operate on canonically composed (NFC)
strings, so byte equality equals textual equality.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple

BROAD = "broad"
SLENDER = "slender"

# accent folding policies
FOLD_ACUTE_TO_GRAVE = "fold"
STRIP_ALL = "strip"
NO_FOLD = "none"

# lemma-key folding policies for lookup and matching
EXACT = "exact"
FOLD_ACCENTS = "accents"
FOLD_ACCENTS_CASE = "accents-case"

_PLAIN_VOWELS = "aeiou"
_GRAVE_VOWELS = "àèìòù"
_ACUTE_VOWELS = "áéíóú"

VOWELS = _PLAIN_VOWELS + _GRAVE_VOWELS + _ACUTE_VOWELS
BROAD_VOWELS = "aouàòùáóú"
SLENDER_VOWELS = "eièìéí"

# consonants that admit lenition (l, n, r and vowels never take a written h)
_LENITABLE = set("bcdfgmpst")

_ACUTE_TO_GRAVE = str.maketrans(
    _ACUTE_VOWELS + _ACUTE_VOWELS.upper(),
    _GRAVE_VOWELS + _GRAVE_VOWELS.upper(),
)
_STRIP_ACCENTS = str.maketrans(
    _GRAVE_VOWELS + _ACUTE_VOWELS + _GRAVE_VOWELS.upper() + _ACUTE_VOWELS.upper(),
    _PLAIN_VOWELS * 2 + _PLAIN_VOWELS.upper() * 2,
)

_GAELIC_LETTERS = set("abcdefghilmnoprstu") | set(_GRAVE_VOWELS) | set(_ACUTE_VOWELS)
_LETTER_CLASS = "".join(sorted(_GAELIC_LETTERS | {c.upper() for c in _GAELIC_LETTERS}))

# a Gaelic word: letters of both cases, apostrophe, hyphen and internal
# spaces, with at least one letter and no space at either end
WORD_PATTERN = "(?=[' -]*[{L}])[{L}'-](?:[{L}' -]*[{L}'-])?".format(L=_LETTER_CLASS)
_WORD = re.compile(WORD_PATTERN)

_PROTHETIC_PREFIXES = ("t-", "n-", "h-")


class MorphologyError(ValueError):
    """A form that cannot be derived: the base of orthography and rule
    errors, so one except clause catches every derivation failure."""


class NoVowelError(MorphologyError):
    """Raised when an operation needs a vowel and the word has none."""


class NotSlenderizableError(MorphologyError):
    """Raised when a word's final vowel group has no defined slender form."""


class SuffixAlternation(NamedTuple("SuffixAlternation", [("broad", str), ("slender", str)])):
    """A harmony-alternating ending, e.g. the plural pair ("an", "ean")."""

    __slots__ = ()

    def __new__(cls, broad: str, slender: str):
        if not broad or not slender:
            raise ValueError("both suffix alternants must be non-empty")
        return super().__new__(cls, broad, slender)


def canonical(text: str) -> str:
    """NFC-compose text and normalize curly apostrophes to U+0027."""
    return unicodedata.normalize("NFC", text).replace("’", "'")


def is_gaelic_word(text: str) -> bool:
    """True if text is a well-formed Gaelic word: non-empty, only the 18
    letters (accented vowels included), apostrophe, hyphen or internal
    space, with no leading or trailing whitespace."""
    return _WORD.fullmatch(text) is not None


def is_vowel(ch: str) -> bool:
    return ch.lower() in VOWELS


def vowel_class(ch: str) -> str:
    lower = ch.lower()
    if lower in BROAD_VOWELS:
        return BROAD
    if lower in SLENDER_VOWELS:
        return SLENDER
    raise NoVowelError(f"not a vowel: {ch!r}")


def normalize_accents(word: str, mode: str = FOLD_ACUTE_TO_GRAVE) -> str:
    """Fold acute accents to grave, strip all accents, or leave unchanged.

    Length, case and all non-vowel characters are preserved.
    """
    if mode == FOLD_ACUTE_TO_GRAVE:
        return word.translate(_ACUTE_TO_GRAVE)
    if mode == STRIP_ALL:
        return word.translate(_STRIP_ACCENTS)
    if mode == NO_FOLD:
        return word
    raise ValueError(f"unknown accent mode: {mode!r}")


def fold_key(word: str, policy: str = EXACT) -> str:
    """Fold a word to its lookup key under the given policy."""
    if policy == EXACT:
        return word
    if policy == FOLD_ACCENTS:
        return word.translate(_STRIP_ACCENTS)
    if policy == FOLD_ACCENTS_CASE:
        return word.translate(_STRIP_ACCENTS).casefold()
    raise ValueError(f"unknown fold policy: {policy!r}")


def last_vowel_class(word: str) -> str:
    """Class (broad/slender) of the rightmost vowel in the word."""
    for ch in reversed(word):
        if is_vowel(ch):
            return vowel_class(ch)
    raise NoVowelError(f"no vowel in {word!r}")


def lenite(word: str) -> str:
    """Insert h after a lenitable initial consonant: cat -> chat.

    Words beginning with a vowel or with l, n, r are unchanged, as are
    words already carrying the h (so the operation is idempotent).
    Initial s lenites only before a vowel or l, n, r; the clusters
    sg, sm, sp, st are immune.  An initial capital stays capital and the
    inserted h is lowercase (Màiri -> Mhàiri).
    """
    if not word:
        return word
    initial = word[0].lower()
    if initial not in _LENITABLE:
        return word
    rest = word[1:]
    if rest[:1].lower() == "h":
        return word
    if initial == "s":
        follower = rest[:1].lower()
        if not follower or (follower not in "lnr" and not is_vowel(follower)):
            return word
    return word[0] + "h" + rest


def glottal_past_prefix(word: str) -> str:
    """Past/conditional mutation: dh' before vowels and lenited f-vowel
    words (òl -> dh'òl, fàg -> dh'fhàg), plain lenition otherwise."""
    if not word:
        return word
    if is_vowel(word[0]):
        return "dh'" + word
    if word[0].lower() == "f" and len(word) > 1 and is_vowel(word[1]):
        return "dh'" + lenite(word)
    return lenite(word)


def strip_prothesis(word: str) -> str:
    """Remove one layer of prothetic t-, n-, h- or dh' from the front."""
    lowered = word.lower()
    for prefix in _PROTHETIC_PREFIXES:
        if lowered.startswith(prefix):
            return word[2:]
    if lowered.startswith("dh'") or lowered.startswith("dh’"):
        return word[3:]
    return word


def _final_vowel_group(word: str) -> tuple[int, int]:
    """Indices [start, end) of the last vowel group, which must be
    followed by at least one consonant."""
    end = len(word) - 1
    while end >= 0 and not is_vowel(word[end]):
        end -= 1
    if end < 0:
        raise NotSlenderizableError(f"no vowel in {word!r}")
    if end == len(word) - 1:
        raise NotSlenderizableError(f"{word!r} ends in a vowel")
    start = end
    while start >= 0 and is_vowel(word[start]):
        start -= 1
    return start + 1, end + 1


def slenderize(word: str) -> str:
    """Slenderize the final vowel group: fear -> fir, saoghal -> saoghail.

    ea becomes i; a group of broad vowels gains i as its last vowel; a
    group already ending in i is left alone.  Other groups (eu, eo, io
    and the like) have no single written outcome and raise
    NotSlenderizableError rather than guessing.
    """
    start, end = _final_vowel_group(word)
    group = word[start:end]
    last_plain = normalize_accents(group[-1], STRIP_ALL).lower()
    if last_plain == "i":
        return word
    if normalize_accents(group, STRIP_ALL).lower() == "ea":
        return word[:start] + "i" + word[end:]
    if all(ch.lower() in BROAD_VOWELS for ch in group):
        return word[:end] + "i" + word[end:]
    raise NotSlenderizableError(
        f"no slender form defined for final vowel group {group!r}"
    )


def attach_suffix(stem: str, alternation: SuffixAlternation) -> str:
    """Append the harmony-matching alternant to the stem.

    The broad alternant is chosen when the stem's last vowel is broad,
    the slender one otherwise.  A vowel doubled at the boundary is
    written once (bile + ean -> bilean).
    """
    chosen = (
        alternation.broad
        if last_vowel_class(stem) == BROAD
        else alternation.slender
    )
    if stem and chosen and is_vowel(chosen[0]) and stem[-1] == chosen[0]:
        return stem + chosen[1:]
    return stem + chosen


def satisfies_vowel_harmony(word: str) -> bool:
    """Check the broad-to-broad, slender-to-slender spelling rule.

    For every consonant group with a vowel on both sides (within one
    hyphen/apostrophe-free segment), the flanking vowels must share a
    vowel class.
    """
    for segment in _letter_segments(word):
        previous = None
        index = 0
        while index < len(segment):
            if is_vowel(segment[index]):
                if previous is not None and vowel_class(segment[index]) != previous:
                    return False
                while index < len(segment) and is_vowel(segment[index]):
                    index += 1
                previous = vowel_class(segment[index - 1])
            else:
                index += 1
    return True


def _letter_segments(word: str) -> list[str]:
    segments = []
    current = []
    for ch in word:
        if ch.lower() in _GAELIC_LETTERS:
            current.append(ch)
        elif current:
            segments.append("".join(current))
            current = []
    if current:
        segments.append("".join(current))
    return segments
