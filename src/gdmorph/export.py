"""Emitters: SQL scripts for the principal-parts table and readable
paradigm tables.

The Facal table mirrors the vocabulary format column for column, with a
CHECK constraint enforcing that each part of speech carries only its
own principal parts.  Two dialects are emitted: the classic
ENUM/AUTO_INCREMENT form, and a portable form (plain types plus CHECK
constraints) that SQLite and friends accept.
"""

from __future__ import annotations

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
    """Paradigm cells holding a form code that the layout does not show."""


# per dialect: the ID, POS and GR columns, the only ones whose types differ
_DIALECT_COLUMNS = {
    MYSQL: (
        "ID INT PRIMARY KEY AUTO_INCREMENT",
        "POS ENUM ('NOUN', 'VERB', 'ADJ') NOT NULL",
        "GR ENUM ('M', 'F')",
    ),
    PORTABLE: (
        "ID INTEGER PRIMARY KEY",
        "POS VARCHAR(4) NOT NULL CHECK (POS IN ('NOUN', 'VERB', 'ADJ'))",
        "GR VARCHAR(1) CHECK (GR IN ('M', 'F'))",
    ),
}

_PART_COLUMNS = ("NP", "GS", "CP", "VN")


def emit_ddl(dialect: str = MYSQL) -> str:
    """CREATE TABLE statement for the principal-parts table Facal."""
    if dialect not in _DIALECT_COLUMNS:
        raise ValueError(f"unknown dialect: {dialect!r}")
    id_column, pos_column, gender_column = _DIALECT_COLUMNS[dialect]
    columns = [
        id_column,
        "Lemma VARCHAR(35) NOT NULL",
        "IRREG BOOL DEFAULT FALSE",
        pos_column,
        gender_column,
        *(f"{column} VARCHAR(35)" for column in _PART_COLUMNS),
    ]
    body = ",\n".join("    " + column for column in columns)
    constraint = "\n".join("    " + line for line in CHECK_CONSTRAINT.splitlines())
    return f"CREATE TABLE Facal(\n{body},\n{constraint}\n);\n"


def _sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


_INSERT_COLUMNS = ", ".join(("Lemma", "IRREG", "POS", "GR") + _PART_COLUMNS)


def emit_inserts(entries) -> str:
    """One INSERT per entry, executable against either DDL dialect.

    Unknown and non-existent parts both become NULL, the latter noted in
    a trailing comment so the distinction survives in the script.  So a
    marker in a field the part of speech forbids passes the CHECK, and
    only svf.validate reports it.  Values over the 35-character column
    width are flagged with a warning comment.
    """
    lines = ["-- Facal principal-parts data"]
    for entry in entries:
        values = [
            _sql_string(entry.lemma),
            "TRUE" if entry.irregular else "FALSE",
            _sql_string(entry.pos),
            _sql_string(entry.gender) if entry.gender else "NULL",
        ]
        overlong = ["Lemma"] if len(entry.lemma) > 35 else []
        missing = []
        for column in _PART_COLUMNS:
            value = getattr(entry, column.lower())
            if value is not None and value.is_present:
                values.append(_sql_string(value.text))
                if len(value.text) > 35:
                    overlong.append(column)
            else:
                values.append("NULL")
                if value is not None and value.is_non_existent:
                    missing.append(column)
        if overlong:
            lines.append(
                f"-- warning: value longer than 35 characters in {', '.join(overlong)}"
            )
        note = f" -- non-existent: {', '.join(missing)}" if missing else ""
        lines.append(
            f"INSERT INTO Facal ({_INSERT_COLUMNS}) VALUES ({', '.join(values)});{note}"
        )
    return "\n".join(lines) + "\n"


def render_table(columns: list[str], rows: list[list[str]], framed: bool = False) -> str:
    """Column headers and rows between bars, under a rule of dashes and
    closed by one; a column whose rows all hold digits is right-aligned.
    framed adds a rule on top and joins each rule at the bars with "+"."""
    for row in rows:
        if len(row) != len(columns):
            raise LayoutMismatchError("row width differs from column count")
    widths = [max(map(len, column)) for column in zip(columns, *rows)]
    right = [all(cell.isdigit() for cell in column[1:]) for column in zip(columns, *rows)]

    def line(cells: list[str]) -> str:
        padded = (cell.rjust(width) if digits else cell.ljust(width)
                  for cell, width, digits in zip(cells, widths, right))
        return "|" + "|".join(f" {cell} " for cell in padded) + "|"

    joint = "+" if framed else "-"
    rule = "+" + joint.join("-" * (width + 2) for width in widths) + "+"
    lines = [line(columns), rule, *map(line, rows), rule]
    if framed:
        lines.insert(0, rule)
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

# layout -> (column headers, rows of (label or None, *form codes))
_LAYOUTS = {
    NOUN_TABLE: (["case", "singular", "plural"], _NOUN_ROWS),
    VERB_TABLE: (["form", "independent", "passive", "dependent"], _VERB_ROWS),
    ADJ_ROW: (["positive", "comparative", "lenited"],
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
    missing cells show an em dash.  Raises LayoutMismatchError when the
    cells hold a form code that no row of the layout shows."""
    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout: {layout!r}")
    columns, rows = _LAYOUTS[layout]
    stray = set(cells).difference(*(codes for _, *codes in rows))
    if stray:
        raise LayoutMismatchError(f"form codes {sorted(stray)} are not in the {layout} layout")
    body = [
        ([] if label is None else [label]) + [_cell(cells, code) for code in codes]
        for label, *codes in rows
    ]
    if style == DELIMITED:
        table = "".join("\t".join(row) + "\n" for row in [columns, *body])
    else:
        table = render_table(columns, body)
    if title:
        return f"{title}\n{table}"
    return table
