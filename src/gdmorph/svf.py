"""The standardized vocabulary format (SVF): one principal-parts record
per line.

    NOUN M "bàta" "bàtaichean" "bàta"
    NOUN F "uinneag" "uinneagan" "uinneige"
    VERB "òl" "òl"
    ADJ "mòr" "motha"

After its part of speech, a line carries the fields FIELDS_BY_POS lists
for it, the lemma after any gender: NP is the nominative plural, GS the
genitive singular, VN the verbal noun and CP the comparative.  A part
that could not be sourced is written as an unquoted "?" (unknown); a
part that does not exist (mass nouns with no plural, say) is written as
"-".  A trailing IRREG token flags a wholly irregular word.  Lines
starting with "#" and blank lines are ignored.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import orthography

NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"

# the Entry fields each part of speech carries, in record and Entry
# order: the one place that says so, as the Facal table's CHECK does
FIELDS_BY_POS = {NOUN: ("gender", "np", "gs"), VERB: ("vn",), ADJ: ("cp",)}
PARTS_OF_SPEECH = tuple(FIELDS_BY_POS)

GENDERS = ("M", "F")

# the states of a PartValue; a part that holds a word is PRESENT
PRESENT = "present"
_UNKNOWN = "unknown"
_NON_EXISTENT = "nonexistent"


class SvfError(orthography.InputError):
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
        return self.state == PRESENT

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
    return PartValue(PRESENT, text)


class Entry(NamedTuple):
    """One headword with its principal parts.

    Of gender and the part fields, only those FIELDS_BY_POS lists for
    the part of speech are set.  A set part may still hold the unknown
    or non-existent marker.
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

# each part of speech's fields as one run of an Entry's fields, and the
# Nones that fill an Entry's other fields before and after that run
_SPANS = {
    pos: slice(Entry._fields.index(fields[0]), Entry._fields.index(fields[-1]) + 1)
    for pos, fields in FIELDS_BY_POS.items()
}
_PADDING = {
    pos: ((None,) * (span.start - 3), (None,) * (len(Entry._fields) - span.stop))
    for pos, span in _SPANS.items()
}


class Violation(NamedTuple):
    """One failed integrity clause, naming the offending field."""

    field: str
    clause: str

    def __str__(self) -> str:
        return f"{self.field}: {self.clause}"


def _clause(pos: str, fields: tuple[str, ...]) -> str:
    """The CHECK conjunct that keeps a part of speech's fields to it."""
    columns = ("GR" if field == "gender" else field.upper() for field in fields)
    nulls = " AND ".join(column + " IS NULL" for column in columns)
    return f"({nulls}) OR POS = '{pos}'" if len(fields) > 1 else f"{nulls} OR POS = '{pos}'"


_CLAUSES = {pos: _clause(pos, fields) for pos, fields in FIELDS_BY_POS.items()}


def validate(entry: Entry) -> list[Violation]:
    """Check the semantic-integrity constraint on principal parts.

    Empty result means: every field FIELDS_BY_POS lists for the part of
    speech is set, and no other is.  A marker counts as set, though the
    SQL export writes it as NULL.
    """
    forbidden = [
        Violation(field, _CLAUSES[pos])
        for pos, fields in FIELDS_BY_POS.items() if pos != entry.pos
        for field in fields if getattr(entry, field) is not None
    ]
    return forbidden + [
        Violation(field, f"mandatory for {entry.pos}")
        for field in FIELDS_BY_POS.get(entry.pos, ()) if getattr(entry, field) is None
    ]


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


_MARKERS = {"?": UNKNOWN, "-": NON_EXISTENT}


def _part_token(token: tuple[bool, str], field: str) -> PartValue:
    quoted, text = token
    # markers are canonically unquoted but tolerated inside quotes
    if text in _MARKERS:
        return _MARKERS[text]
    if quoted:
        return part(_word(text, field))
    raise SvfSyntaxError(f"expected quoted word, ? or - for {field}, got {text!r}")


def parse_svf_line(line: str) -> Entry:
    """Parse one non-blank, non-comment record into an Entry, token by
    token, checking each field in turn; every error is raised here."""
    tokens = _tokenize(orthography.canonical(line.rstrip("\n")))
    if not tokens:
        raise SvfSyntaxError("empty record")
    quoted, pos = tokens[0]
    if quoted or pos not in PARTS_OF_SPEECH:
        raise SvfSyntaxError(f"unknown part of speech: {pos!r}")
    irregular = tokens[-1] == (False, "IRREG")  # never the first token, a part of speech
    rest = tokens[1:-1] if irregular else tokens[1:]

    fields = FIELDS_BY_POS[pos]
    values = []  # the gender, if any, then the parts
    if fields[0] == "gender":
        quoted, gender = rest[0] if rest else (False, "")
        if quoted or gender not in GENDERS:
            raise ConstraintViolationError(f"{pos} requires gender M or F, got {gender!r}")
        values, rest, fields = [gender], rest[1:], fields[1:]
    elif rest and not rest[0][0] and rest[0][1] in GENDERS:
        raise ConstraintViolationError(f"gender is not allowed for {pos}")
    if len(rest) != len(fields) + 1:
        names = ["lemma", *(field.upper() for field in fields)]
        raise SvfSyntaxError(
            f"{pos} record needs {', '.join(names[:-1])} and {names[-1]}, got {len(rest)} fields"
        )
    if not rest[0][0]:
        raise SvfSyntaxError("lemma must be a quoted word")
    lemma = _word(rest[0][1], "lemma")
    values += [_part_token(token, field.upper()) for token, field in zip(rest[1:], fields)]
    before, after = _PADDING[pos]
    return Entry(lemma, pos, irregular, *before, *values, *after)


def serialize_entry(entry: Entry) -> str:
    """Emit the canonical one-line record; inverse of parse_svf_line."""
    fields = FIELDS_BY_POS.get(entry.pos)
    if fields is None:
        raise ValueError(f"unknown part of speech: {entry.pos!r}")
    values = entry[_SPANS[entry.pos]]
    if None in values:
        raise ValueError(f"{entry.pos} entry is missing one of {', '.join(fields)}")
    lead = int(fields[0] == "gender")  # a gender goes bare before the lemma
    tokens = [entry.pos, *values[:lead], f'"{entry.lemma}"']
    tokens += [f'"{v.text}"' if v.state == PRESENT else str(v) for v in values[lead:]]
    if entry.irregular:
        tokens.append("IRREG")
    return " ".join(tokens)


# a record as serialize_entry writes it: single spaces, quoted Gaelic
# words, bare markers, and a second part exactly when a gender opens
# the record; groups: gender, VERB|ADJ, lemma, then a word or a marker
# for each part, IRREG
_PART = rf'(?:"({orthography.WORD_PATTERN})"|([?-]))'
_RECORD = re.compile(
    rf'(?:NOUN ([MF])|(VERB|ADJ)) "({orthography.WORD_PATTERN})" {_PART}(?(1) {_PART})( IRREG)?'
)


@orthography._collector_paused
def load_vocabulary_file(path) -> tuple[list[Entry], list[SvfError]]:
    """Parse a vocabulary file line by line.

    Blank lines, "#" comments and a leading byte-order mark are
    skipped.  A bad line never aborts the load; its SvfError, carrying
    the path and line, is returned instead, in file order.  A file that
    cannot be read or is not UTF-8 raises InputError.

    A line that holds a record in the canonical layout, its words all
    in the alphabet, is read by one pattern match, and its parts and
    Entry are made from the groups by tuple.__new__, as namedtuple's
    own _make makes them.  Such a line holds no character that NFC
    composition or apostrophe folding would change, so it needs
    neither.  Any other line, a record padded with spaces or tabs among
    them, is stripped; unless blank or a comment, it goes to
    parse_svf_line, which accepts the same records and raises every
    error.
    """
    lines = orthography.read_text(path).split("\n")
    entries = []
    errors = []
    record, new, markers = _RECORD.fullmatch, tuple.__new__, _MARKERS
    noun_after = _PADDING[NOUN][1]
    for number, line in enumerate(lines, start=1):
        match = record(line)
        if match is None:
            line = line.strip()
            if not line or line[0] == "#":
                continue
            try:
                entries.append(parse_svf_line(line))
            except SvfError as exc:
                exc.path, exc.line = path, number
                # without its traceback, which holds this frame and so
                # makes a reference cycle through `errors`
                errors.append(exc.with_traceback(None))
            continue
        gender, pos, lemma, word, marker, second_word, second_marker, irregular = match.groups()
        value = markers[marker] if word is None else new(PartValue, (PRESENT, word))
        irregular = irregular is not None
        if gender is None:
            before, after = _PADDING[pos]
            entries.append(new(Entry, (lemma, pos, irregular, *before, value, *after)))
        else:
            second = (
                markers[second_marker] if second_word is None
                else new(PartValue, (PRESENT, second_word))
            )
            entries.append(new(Entry, (lemma, NOUN, irregular, gender, value, second, *noun_after)))
    return entries, errors
