"""Emitters: SQL scripts for the principal-parts table and readable
paradigm tables.

The Facal table mirrors the vocabulary format column for column, with a
CHECK constraint enforcing that each part of speech carries only its
own principal parts.  Two dialects are emitted: the classic
ENUM/AUTO_INCREMENT form, and a portable form (plain types plus CHECK
constraints) that SQLite and friends accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rules
from .svf import ADJ, NOUN, VERB, Entry, PartValue

ASCII = "ascii"
DELIMITED = "delimited"

MYSQL = "mysql"
PORTABLE = "portable"

CHECK_CONSTRAINT = (
    "CHECK (\n"
    "  ((GR IS NULL AND\n"
    "    NP IS NULL AND\n"
    "    GS IS NULL)\n"
    "        OR POS = 'NOUN' ) AND\n"
    "  (VN IS NULL OR POS = 'VERB') AND\n"
    "  (CP IS NULL OR POS = 'ADJ')\n"
    "  )"
)


class LayoutMismatchError(ValueError):
    """Paradigm cells passed to a layout of a different part of speech."""


def emit_ddl(dialect: str = MYSQL) -> str:
    """CREATE TABLE statement for the principal-parts table Facal."""
    if dialect == MYSQL:
        columns = [
            "ID INT PRIMARY KEY AUTO_INCREMENT",
            "Lemma VARCHAR(35) NOT NULL",
            "IRREG BOOL DEFAULT FALSE",
            "POS ENUM ('NOUN', 'VERB', 'ADJ') NOT NULL",
            "GR ENUM ('M', 'F')",
            "NP VARCHAR(35)",
            "GS VARCHAR(35)",
            "CP VARCHAR(35)",
            "VN VARCHAR(35)",
        ]
    elif dialect == PORTABLE:
        columns = [
            "ID INTEGER PRIMARY KEY",
            "Lemma VARCHAR(35) NOT NULL",
            "IRREG BOOL DEFAULT FALSE",
            "POS VARCHAR(4) NOT NULL CHECK (POS IN ('NOUN', 'VERB', 'ADJ'))",
            "GR VARCHAR(1) CHECK (GR IN ('M', 'F'))",
            "NP VARCHAR(35)",
            "GS VARCHAR(35)",
            "CP VARCHAR(35)",
            "VN VARCHAR(35)",
        ]
    else:
        raise ValueError(f"unknown dialect: {dialect!r}")
    body = ",\n".join("    " + column for column in columns)
    constraint = "\n".join("    " + line for line in CHECK_CONSTRAINT.splitlines())
    return f"CREATE TABLE Facal(\n{body},\n{constraint}\n);\n"


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _sql_part(value: PartValue | None) -> str:
    if value is None or not value.is_present:
        return "NULL"
    return _sql_string(value.text)


_INSERT_COLUMNS = "Lemma, IRREG, POS, GR, NP, GS, CP, VN"


def emit_inserts(entries) -> str:
    """One INSERT per entry, executable against either DDL dialect.

    Unknown and non-existent parts both become NULL; the non-existent
    ones are additionally noted in a trailing comment so the distinction
    survives in the script.  Values over the 35-character column width
    are flagged with a warning comment.
    """
    lines = ["-- Facal principal-parts data"]
    for entry in entries:
        overlong = [
            name
            for name, text in _texts(entry)
            if text is not None and len(text) > 35
        ]
        if overlong:
            lines.append(
                f"-- warning: value longer than 35 characters in {', '.join(overlong)}"
            )
        values = ", ".join(
            [
                _sql_string(entry.lemma),
                "TRUE" if entry.irregular else "FALSE",
                _sql_string(entry.pos),
                _sql_string(entry.gender) if entry.gender else "NULL",
                _sql_part(entry.np),
                _sql_part(entry.gs),
                _sql_part(entry.cp),
                _sql_part(entry.vn),
            ]
        )
        note = ""
        missing = [
            name.upper()
            for name in ("np", "gs", "cp", "vn")
            if getattr(entry, name) is not None and getattr(entry, name).is_non_existent
        ]
        if missing:
            note = f" -- non-existent: {', '.join(missing)}"
        lines.append(
            f"INSERT INTO Facal ({_INSERT_COLUMNS}) VALUES ({values});{note}"
        )
    return "\n".join(lines) + "\n"


def _texts(entry: Entry):
    yield "Lemma", entry.lemma
    for name in ("np", "gs", "cp", "vn"):
        value = getattr(entry, name)
        yield name.upper(), value.text if value is not None and value.is_present else None


@dataclass
class TableRenderSpec:
    """Column headers plus rows of equal width, ready to render."""

    columns: list[str]
    rows: list[list[str]]
    style: str = ASCII

    def render(self) -> str:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise LayoutMismatchError("row width differs from column count")
        if self.style == DELIMITED:
            lines = ["\t".join(self.columns)]
            lines += ["\t".join(row) for row in self.rows]
            return "\n".join(lines) + "\n"
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "|" + "|".join(
            f" {self.columns[i]:<{widths[i]}} " for i in range(len(self.columns))
        ) + "|"
        border = "+" + "-" * (len(header) - 2) + "+"
        lines = [header, border]
        for row in self.rows:
            lines.append(
                "|" + "|".join(
                    f" {row[i]:<{widths[i]}} " for i in range(len(self.columns))
                ) + "|"
            )
        lines.append(border)
        return "\n".join(lines) + "\n"


NOUN_TABLE = "noun"
VERB_TABLE = "verb"
ADJ_ROW = "adjective"

_NOUN_ROWS = (
    ("nom.", "NS", "NP"),
    ("gen.", "GS", "GP"),
    ("dat.", "DS", "DP"),
    ("voc.", "VS", "VP"),
)

_VERB_ROWS = (
    ("stem", "IMP2S", None, None),
    ("verbal noun", "VN", None, None),
    ("past participle", "PASTP", None, None),
    ("past", "PAST_IND", "PAST_PASS", "PAST_DEP"),
    ("future", "FUT_IND", "FUT_PASS", "FUT_DEP"),
    ("conditional 1sg", "COND1S_IND", "COND_PASS", "COND1S_DEP"),
    ("conditional 1pl", "COND1P_IND", "COND_PASS", "COND1P_DEP"),
    ("conditional 2nd/3rd", "COND23_IND", "COND_PASS", "COND23_DEP"),
    ("relative future", "RELFUT", "RELFUT_PASS", None),
    ("imperative 1sg", "IMP1S", "IMP_PASS", None),
    ("imperative 2sg", "IMP2S", "IMP_PASS", None),
    ("imperative 3sg", "IMP3S", "IMP_PASS", None),
    ("imperative 1pl", "IMP1P", "IMP_PASS", None),
    ("imperative 2pl", "IMP2P", "IMP_PASS", None),
    ("imperative 3pl", "IMP3P", "IMP_PASS", None),
)

# layout -> (part of speech, column headers, rows of (label or None, *form codes))
_LAYOUTS = {
    NOUN_TABLE: (NOUN, ["case", "singular", "plural"], _NOUN_ROWS),
    VERB_TABLE: (VERB, ["form", "independent", "passive", "dependent"], _VERB_ROWS),
    ADJ_ROW: (ADJ, ["positive", "comparative", "lenited"],
              ((None, "POS_ADJ", "CP", "POS_LENITED"),)),
}

MISSING_CELL = "—"


def _cell(cells: dict[str, list[str]], code: str | None) -> str:
    if code is None:
        return MISSING_CELL
    variants = cells.get(code)
    if not variants:
        return MISSING_CELL
    return " ".join(variants)


def render_paradigm(
    title: str,
    cells: dict[str, list[str]],
    layout: str,
    style: str = ASCII,
) -> str:
    """Readable paradigm table; multi-variant cells join with a space,
    missing cells show an em dash."""
    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout: {layout!r}")
    pos, columns, rows = _LAYOUTS[layout]
    allowed = set(rules.FORMS_BY_POS[pos])
    stray = set(cells) - allowed
    if stray:
        raise LayoutMismatchError(
            f"form codes {sorted(stray)} do not belong to a {pos} table"
        )
    spec = TableRenderSpec(
        columns=columns,
        rows=[
            ([] if label is None else [label]) + [_cell(cells, code) for code in codes]
            for label, *codes in rows
        ],
        style=style,
    )
    table = spec.render()
    if title:
        return f"{title}\n{table}"
    return table
