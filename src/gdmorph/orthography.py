"""Orthographic primitives for Scottish Gaelic.

Gaelic is written with 18 Roman letters (no j, k, q, v, w, x, y, z) plus
grave-accented long vowels; older texts also use acute accents on o and e
(and by extension the other vowels), dropped in the 1981 spelling reform.
Vowels divide into broad (a, o, u) and slender (e, i) classes, and the
spelling rule "broad to broad, slender to slender" requires the vowels on
either side of a consonant group to share a class.

All functions here but read_text are pure and operate on canonically
composed (NFC) strings, so byte equality equals textual equality.
"""

from __future__ import annotations

import codecs
import re
import unicodedata
from typing import NamedTuple

BROAD = "broad"
SLENDER = "slender"

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

# each vowel, one character in either case -> its class
_VOWEL_CLASSES = {
    vowel: cls
    for vowels, cls in ((BROAD_VOWELS, BROAD), (SLENDER_VOWELS, SLENDER))
    for vowel in vowels + vowels.upper()
}

# consonants that admit lenition (l, n, r and vowels never take a written h)
_LENITABLE = set("bcdfgmpst")

_STRIP_ACCENTS = str.maketrans(
    _GRAVE_VOWELS + _ACUTE_VOWELS + _GRAVE_VOWELS.upper() + _ACUTE_VOWELS.upper(),
    _PLAIN_VOWELS * 2 + _PLAIN_VOWELS.upper() * 2,
)
# the same map over Latin-1 bytes, which hold every accented vowel
_STRIP_ACCENTS_LATIN1 = bytes(_STRIP_ACCENTS.get(byte, byte) for byte in range(256))

_GAELIC_LETTERS = set("abcdefghilmnoprstu") | set(_GRAVE_VOWELS) | set(_ACUTE_VOWELS)
_LETTER_CLASS = "".join(sorted(_GAELIC_LETTERS | {c.upper() for c in _GAELIC_LETTERS}))

# a Gaelic word: letters of both cases, apostrophe, hyphen and internal
# spaces, with at least one letter and no space at either end
WORD_PATTERN = "(?=[' -]*[{L}])[{L}'-](?:[{L}' -]*[{L}'-])?".format(L=_LETTER_CLASS)
_WORD = re.compile(WORD_PATTERN)

# runs of letters and of vowels, and the last vowel run with the non-vowels
# after it up to the very end (\Z, as $ also matches before a final "\n")
_VOWEL_CLASS = VOWELS + VOWELS.upper()
_LETTER_RUN = re.compile(f"[{_LETTER_CLASS}]+")
_VOWEL_RUN = re.compile(f"[{_VOWEL_CLASS}]+")
_FINAL_VOWEL_GROUP = re.compile(f"([{_VOWEL_CLASS}]+)[^{_VOWEL_CLASS}]*\\Z")

# one layer of prothetic t-, n-, h- or dh', each letter in either case
_PROTHESIS = re.compile("[tTnNhH]-|[dD][hH]['’]")


class MorphologyError(ValueError):
    """A form that cannot be derived: the base of orthography and rule
    errors, so one except clause catches every derivation failure."""


class InputError(ValueError):
    """An input the program cannot use: a file it cannot read or parse,
    or an argument it cannot act on.  The path and line, where known,
    are kept apart from the message; str() is "path: line N: message",
    leaving out each part that is None."""

    def __init__(self, message: str, path=None, line: int | None = None):
        super().__init__(message)
        self.message = message
        self.path = path
        self.line = line

    def __str__(self) -> str:
        line = None if self.line is None else f"line {self.line}"
        return ": ".join(str(part) for part in (self.path, line, self.message) if part is not None)


def read_text(path) -> str:
    """A file's text as open(path, encoding="utf-8-sig") reads it.  A file
    that cannot be read raises InputError, and so does one that is not
    UTF-8, naming its first line that is not."""
    try:
        with open(path, "rb") as handle:
            data = handle.read().removeprefix(codecs.BOM_UTF8)
        text = data.decode()
    except OSError as exc:
        raise InputError(f"cannot read ({exc.strerror})", path) from None
    except UnicodeDecodeError as exc:
        # the bad byte, never a line end, closes the last line counted
        line = len(data[: exc.start + 1].splitlines())
        raise InputError(f"not UTF-8 ({exc.reason})", path, line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    if text.isascii():  # NFC leaves ASCII as it is, and ’ is not ASCII
        return text
    return unicodedata.normalize("NFC", text).replace("’", "'")


def is_gaelic_word(text: str) -> bool:
    """True if text is a well-formed Gaelic word: non-empty, only the 18
    letters (accented vowels included), apostrophe, hyphen or internal
    space, with no leading or trailing whitespace."""
    return _WORD.fullmatch(text) is not None


def is_vowel(ch: str) -> bool:
    """True if ch is one character, a vowel of either case."""
    return ch in _VOWEL_CLASSES


def vowel_class(ch: str) -> str:
    """BROAD or SLENDER for a one-character vowel; NoVowelError for any
    other text, the empty string and longer text included."""
    cls = _VOWEL_CLASSES.get(ch)
    if cls is None:
        raise NoVowelError(f"not a vowel: {ch!r}")
    return cls


def strip_accents(text: str) -> str:
    """Text with every accented vowel, grave or acute, made plain.
    Length, case and all other characters are kept."""
    if text.isascii():  # _STRIP_ACCENTS maps only non-ASCII vowels
        return text
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        return text.translate(_STRIP_ACCENTS)
    return data.translate(_STRIP_ACCENTS_LATIN1).decode("latin-1")


# fold policy -> the function that folds a word to its key
FOLDS = {
    EXACT: lambda word: word,
    FOLD_ACCENTS: strip_accents,
    FOLD_ACCENTS_CASE: lambda word: strip_accents(word).casefold(),
}


def fold_function(policy: str):
    """The function that folds a word to its lookup key under the given
    policy: FOLDS[policy], or a ValueError for a policy not in FOLDS."""
    fold = FOLDS.get(policy)
    if fold is None:
        raise ValueError(f"unknown fold policy: {policy!r}")
    return fold


def fold_key(word: str, policy: str = EXACT) -> str:
    """Fold a word to its lookup key under the given policy."""
    return fold_function(policy)(word)


def last_vowel_class(word: str) -> str:
    """Class (broad/slender) of the rightmost vowel in the word."""
    for ch in reversed(word):
        cls = _VOWEL_CLASSES.get(ch)
        if cls is not None:
            return cls
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
    match = _PROTHESIS.match(word)
    return word if match is None else word[match.end():]


def _final_vowel_group(word: str) -> tuple[int, int]:
    """Indices [start, end) of the last vowel group, which must be
    followed by at least one consonant."""
    match = _FINAL_VOWEL_GROUP.search(word)
    if match is None:
        raise NotSlenderizableError(f"no vowel in {word!r}")
    if match.end(1) == len(word):
        raise NotSlenderizableError(f"{word!r} ends in a vowel")
    return match.span(1)


def slenderize(word: str) -> str:
    """Slenderize the final vowel group: fear -> fir, saoghal -> saoghail.

    ea becomes i; a group of broad vowels gains i as its last vowel; a
    group already ending in i is left alone.  Other groups (eu, eo, io
    and the like) have no single written outcome and raise
    NotSlenderizableError rather than guessing.
    """
    start, end = _final_vowel_group(word)
    group = word[start:end]
    last_plain = strip_accents(group[-1]).lower()
    if last_plain == "i":
        return word
    if strip_accents(group).lower() == "ea":
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
    for segment in _LETTER_RUN.findall(word):
        groups = _VOWEL_RUN.findall(segment)
        for left, right in zip(groups, groups[1:]):
            if vowel_class(left[-1]) != vowel_class(right[0]):
                return False
    return True
