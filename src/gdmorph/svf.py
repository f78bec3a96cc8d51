"""The standardized vocabulary format (SVF): one principal-parts record
per line.

    NOUN M "bàta" "bàtaichean" "bàta"
    NOUN F "uinneag" "uinneagan" "uinneige"
    VERB "òl" "òl"
    ADJ "mòr" "motha"

A noun line carries gender, lemma, nominative plural and genitive
singular; a verb line carries lemma and verbal noun; an adjective line
carries lemma and comparative.  A principal part that could not be
sourced is written as an unquoted "?" (unknown); a part that does not
exist (mass nouns with no plural, say) is written as "-".  A trailing
IRREG token flags a wholly irregular word.  Lines starting with "#" and
blank lines are ignored.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import orthography

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
PARTS_OF_SPEECH = (NOUN, VERB, ADJ)

GENDERS = ("M", "F")

_PRESENT = "present"
_UNKNOWN = "unknown"
_NON_EXISTENT = "nonexistent"


class SvfError(ValueError):
    """Base class for vocabulary file errors."""


class SvfSyntaxError(SvfError):
    """Malformed tokens, quotes, or characters outside the alphabet."""


class ConstraintViolationError(SvfError):
    """Fields present or missing in a way the part of speech forbids."""


class PartValue(NamedTuple):
    """A principal part: a word, unknown ("?"), or non-existent ("-")."""

    state: str
    text: str | None = None

    @property
    def is_present(self) -> bool:
        return self.state == _PRESENT

    @property
    def is_unknown(self) -> bool:
        return self.state == _UNKNOWN

    @property
    def is_non_existent(self) -> bool:
        return self.state == _NON_EXISTENT

    def __str__(self) -> str:
        if self.is_present:
            return self.text or ""
        return "?" if self.is_unknown else "-"


UNKNOWN = PartValue(_UNKNOWN)
NON_EXISTENT = PartValue(_NON_EXISTENT)


def part(text: str) -> PartValue:
    """A present principal part holding the given word."""
    return PartValue(_PRESENT, text)


class Entry(NamedTuple):
    """One headword with its principal parts.

    np/gs are set only on nouns, vn only on verbs, cp only on
    adjectives; gender only on nouns.  A set field may still hold the
    unknown or non-existent marker.
    """

    lemma: str
    pos: str
    irregular: bool = False
    gender: str | None = None
    np: PartValue | None = None
    gs: PartValue | None = None
    vn: PartValue | None = None
    cp: PartValue | None = None

    def __lt__(self, other: Entry) -> bool:
        """Order by SVF record, the last tie-break between homographs."""
        return serialize_entry(self) < serialize_entry(other)


# the Entry fields that hold principal parts
PART_FIELDS = Entry._fields[4:]


class Violation(NamedTuple):
    """One failed integrity clause, naming the offending field."""

    field: str
    clause: str

    def __str__(self) -> str:
        return f"{self.field}: {self.clause}"


_NOUN_CLAUSE = "(GR IS NULL AND NP IS NULL AND GS IS NULL) OR POS = 'NOUN'"
_VERB_CLAUSE = "VN IS NULL OR POS = 'VERB'"
_ADJ_CLAUSE = "CP IS NULL OR POS = 'ADJ'"


def validate(entry: Entry) -> list[Violation]:
    """Check the semantic-integrity constraint on principal parts.

    Empty result means: no field is set that the part of speech forbids,
    and every part the part of speech requires is set (possibly to an
    unknown/non-existent marker).
    """
    violations = []
    if entry.pos != NOUN:
        for field in ("gender", "np", "gs"):
            if getattr(entry, field) is not None:
                violations.append(Violation(field, _NOUN_CLAUSE))
    if entry.vn is not None and entry.pos != VERB:
        violations.append(Violation("vn", _VERB_CLAUSE))
    if entry.cp is not None and entry.pos != ADJ:
        violations.append(Violation("cp", _ADJ_CLAUSE))
    mandatory = {NOUN: ("gender", "np", "gs"), VERB: ("vn",), ADJ: ("cp",)}
    for field in mandatory.get(entry.pos, ()):
        if getattr(entry, field) is None:
            violations.append(Violation(field, f"mandatory for {entry.pos}"))
    return violations


# a quoted field, a quote that opens no field, or a bare word; the
# spaces between tokens are what no alternative matches
_TOKEN = re.compile(r'"([^"]*)"|(")|([^ ]+)')


def _tokenize(line: str) -> list[tuple[bool, str]]:
    """Split a record into (quoted, text) tokens."""
    tokens = []
    for match in _TOKEN.finditer(line):
        quoted, unterminated, word = match.groups()
        if quoted is not None:
            if line[match.end() : match.end() + 1] not in ("", " "):
                raise SvfSyntaxError("missing space after quoted field")
            tokens.append((True, quoted))
        elif unterminated is not None:
            raise SvfSyntaxError("unterminated quote")
        elif '"' in word:
            raise SvfSyntaxError(f"stray quote in token {word!r}")
        else:
            tokens.append((False, word))
    return tokens


def _word(text: str, field: str) -> str:
    # tokens are cut from a canonical line at spaces and quotes, which
    # compose with nothing, so a token is canonical already
    if not orthography.is_gaelic_word(text):
        raise SvfSyntaxError(f"invalid characters in {field}: {text!r}")
    return text


def _part_token(token: tuple[bool, str], field: str) -> PartValue:
    quoted, text = token
    # markers are canonically unquoted but tolerated inside quotes
    if text == "?":
        return UNKNOWN
    if text == "-":
        return NON_EXISTENT
    if quoted:
        return part(_word(text, field))
    raise SvfSyntaxError(f"expected quoted word, ? or - for {field}, got {text!r}")


# a record as serialize_entry writes it: single spaces, quoted Gaelic
# words, bare markers; group order: gender, VERB|ADJ, lemma, part,
# part, IRREG
_RECORD = re.compile(
    rf'(?:NOUN ([MF])|(VERB|ADJ)) "({orthography.WORD_PATTERN})"'
    rf' ("{orthography.WORD_PATTERN}"|[?-])(?: ("{orthography.WORD_PATTERN}"|[?-]))?( IRREG)?'
)
_MARKERS = {"?": UNKNOWN, "-": NON_EXISTENT}


def _record_part(token: str) -> PartValue:
    """A part token the pattern matched: a marker or a quoted word."""
    return _MARKERS[token] if token in _MARKERS else part(token[1:-1])


def parse_svf_line(line: str) -> Entry:
    """Parse one non-blank, non-comment record into an Entry.

    A record in the canonical layout whose words are all in the
    alphabet is read by one pattern match.  Such a line holds no
    character that NFC composition or apostrophe folding would change,
    so it needs neither.  Every other line goes through the tokenizer,
    which accepts the same records and raises every error.
    """
    match = _RECORD.fullmatch(line)
    if match is not None:
        gender, pos, lemma, first, second, irregular = match.groups()
        if (gender is None) == (second is None):
            value = _record_part(first)
            irregular = irregular is not None
            if gender is not None:
                return Entry(lemma, NOUN, irregular, gender, value, _record_part(second))
            if pos == VERB:
                return Entry(lemma, VERB, irregular, vn=value)
            return Entry(lemma, ADJ, irregular, cp=value)
    return _parse_tokens(line)


def _parse_tokens(line: str) -> Entry:
    """Parse a record token by token, checking each field in turn."""
    tokens = _tokenize(orthography.canonical(line.rstrip("\n")))
    if not tokens:
        raise SvfSyntaxError("empty record")
    quoted, pos = tokens[0]
    if quoted or pos not in PARTS_OF_SPEECH:
        raise SvfSyntaxError(f"unknown part of speech: {pos!r}")
    rest = tokens[1:]

    irregular = False
    if rest and rest[-1] == (False, "IRREG"):
        irregular = True
        rest = rest[:-1]

    if pos == NOUN:
        if not rest or rest[0][0] or rest[0][1] not in GENDERS:
            got = "" if not rest else rest[0][1]
            raise ConstraintViolationError(
                f"NOUN requires gender M or F, got {got!r}"
            )
        gender = rest[0][1]
        fields = rest[1:]
        if len(fields) != 3:
            raise SvfSyntaxError(
                f"NOUN record needs lemma, NP and GS, got {len(fields)} fields"
            )
        if not fields[0][0]:
            raise SvfSyntaxError("lemma must be a quoted word")
        return Entry(
            lemma=_word(fields[0][1], "lemma"),
            pos=NOUN,
            irregular=irregular,
            gender=gender,
            np=_part_token(fields[1], "NP"),
            gs=_part_token(fields[2], "GS"),
        )

    # VERB and ADJ records: lemma plus one part
    if rest and not rest[0][0] and rest[0][1] in GENDERS:
        raise ConstraintViolationError(f"gender is not allowed for {pos}")
    part_name = "VN" if pos == VERB else "CP"
    if len(rest) != 2:
        raise SvfSyntaxError(
            f"{pos} record needs lemma and {part_name}, got {len(rest)} fields"
        )
    if not rest[0][0]:
        raise SvfSyntaxError("lemma must be a quoted word")
    value = _part_token(rest[1], part_name)
    lemma = _word(rest[0][1], "lemma")
    if pos == VERB:
        return Entry(lemma=lemma, pos=VERB, irregular=irregular, vn=value)
    return Entry(lemma=lemma, pos=ADJ, irregular=irregular, cp=value)


def _part_text(value: PartValue) -> str:
    return f'"{value}"' if value.is_present else str(value)


def serialize_entry(entry: Entry) -> str:
    """Emit the canonical one-line record; inverse of parse_svf_line."""
    if entry.pos == NOUN:
        if entry.gender is None or entry.np is None or entry.gs is None:
            raise ValueError("noun entry is missing gender, NP or GS")
        tokens = [
            NOUN,
            entry.gender,
            f'"{entry.lemma}"',
            _part_text(entry.np),
            _part_text(entry.gs),
        ]
    elif entry.pos == VERB:
        if entry.vn is None:
            raise ValueError("verb entry is missing VN")
        tokens = [VERB, f'"{entry.lemma}"', _part_text(entry.vn)]
    elif entry.pos == ADJ:
        if entry.cp is None:
            raise ValueError("adjective entry is missing CP")
        tokens = [ADJ, f'"{entry.lemma}"', _part_text(entry.cp)]
    else:
        raise ValueError(f"unknown part of speech: {entry.pos!r}")
    if entry.irregular:
        tokens.append("IRREG")
    return " ".join(tokens)


def load_vocabulary_file(path) -> tuple[list[Entry], list[tuple[int, SvfError]]]:
    """Parse a vocabulary file line by line.

    Blank lines, "#" comments and a leading byte-order mark are
    skipped.  A bad line never aborts the load; it is returned as a
    (line number, error) pair instead.
    """
    entries = []
    errors = []
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entries.append(parse_svf_line(line))
            except SvfError as exc:
                # without its traceback, which holds this frame and so
                # makes a reference cycle through `errors`
                errors.append((number, exc.with_traceback(None)))
    return entries, errors
