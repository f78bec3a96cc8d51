import re
import sqlite3
from contextlib import closing
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdmorph import analysis, export, orthography, rules, svf
from gdmorph.export import (
    ASCII,
    DELIMITED,
    LayoutMismatchError,
    emit_ddl,
    emit_inserts,
    render_paradigm,
    render_table,
)
from gdmorph.svf import (
    ADJ,
    NOUN,
    NON_EXISTENT,
    UNKNOWN,
    VERB,
    Entry,
    parse_svf_line,
    part,
    validate,
)

CONJUNCTS = [
    "(GR IS NULL AND",
    "(VN IS NULL OR POS = 'VERB')",
    "(CP IS NULL OR POS = 'ADJ')",
]


def test_ddl_contains_check_conjuncts():
    ddl = emit_ddl()
    assert "CHECK" in ddl
    for conjunct in CONJUNCTS:
        assert conjunct in ddl
    assert "OR POS = 'NOUN'" in ddl


def test_ddl_declares_nine_columns():
    ddl = emit_ddl()
    names = [
        n for n in re.findall(r"^\s{4}(\w+)\s", ddl, flags=re.MULTILINE)
        if n != "CHECK"
    ]
    assert names == ["ID", "Lemma", "IRREG", "POS", "GR", "NP", "GS", "CP", "VN"]


def test_ddl_mysql_dialect_markers():
    ddl = emit_ddl()
    assert "AUTO_INCREMENT" in ddl
    assert "ENUM ('NOUN', 'VERB', 'ADJ')" in ddl


_CHECK_LINES = (
    "    CHECK (\n"
    "      ((GR IS NULL AND\n"
    "        NP IS NULL AND\n"
    "        GS IS NULL)\n"
    "            OR POS = 'NOUN' ) AND\n"
    "      (VN IS NULL OR POS = 'VERB') AND\n"
    "      (CP IS NULL OR POS = 'ADJ')\n"
    "      )\n"
    ");\n"
)
_PART_LINES = (
    "    NP VARCHAR(35),\n"
    "    GS VARCHAR(35),\n"
    "    CP VARCHAR(35),\n"
    "    VN VARCHAR(35),\n"
)


@pytest.mark.parametrize("dialect, expected", [
    (export.MYSQL, (
        "CREATE TABLE Facal(\n"
        "    ID INT PRIMARY KEY AUTO_INCREMENT,\n"
        "    Lemma VARCHAR(35) NOT NULL,\n"
        "    IRREG BOOL DEFAULT FALSE,\n"
        "    POS ENUM ('NOUN', 'VERB', 'ADJ') NOT NULL,\n"
        "    GR ENUM ('M', 'F'),\n"
        + _PART_LINES + _CHECK_LINES
    )),
    (export.PORTABLE, (
        "CREATE TABLE Facal(\n"
        "    ID INTEGER PRIMARY KEY,\n"
        "    Lemma VARCHAR(35) NOT NULL,\n"
        "    IRREG BOOL DEFAULT FALSE,\n"
        "    POS VARCHAR(4) NOT NULL CHECK (POS IN ('NOUN', 'VERB', 'ADJ')),\n"
        "    GR VARCHAR(1) CHECK (GR IN ('M', 'F')),\n"
        + _PART_LINES + _CHECK_LINES
    )),
])
def test_ddl_byte_for_byte(dialect, expected):
    assert emit_ddl(dialect) == expected


def test_portable_ddl_parses_in_sqlite():
    connection = sqlite3.connect(":memory:")
    connection.executescript(emit_ddl(dialect=export.PORTABLE))
    columns = connection.execute("PRAGMA table_info(Facal)").fetchall()
    assert [c[1] for c in columns] == [
        "ID", "Lemma", "IRREG", "POS", "GR", "NP", "GS", "CP", "VN",
    ]


def test_portable_check_constraint_enforced():
    connection = sqlite3.connect(":memory:")
    connection.executescript(emit_ddl(dialect=export.PORTABLE))
    with pytest.raises(sqlite3.IntegrityError):
        connection.execute(
            "INSERT INTO Facal (Lemma, POS, VN) VALUES ('cat', 'NOUN', 'x')"
        )


_FIELD_VALUES = st.sampled_from([None, part("facal"), UNKNOWN, NON_EXISTENT])


@given(
    pos=st.sampled_from(svf.PARTS_OF_SPEECH),
    gender=st.sampled_from([None, *svf.GENDERS]),
    parts=st.fixed_dictionaries({field: _FIELD_VALUES for field in svf.PART_FIELDS}),
)
def test_check_constraint_rejects_what_validate_forbids_unless_a_marker(pos, gender, parts):
    """The INSERT fails exactly when validate reports a forbidden field
    holding a gender or a word: a marker goes in as NULL, which the
    CHECK allows, so only validate sees it where it does not belong."""
    entry = Entry(lemma="facal", pos=pos, gender=gender, **parts)
    forbidden = [v.field for v in validate(entry) if v.field not in svf.FIELDS_BY_POS[pos]]
    expected = any(field == "gender" or getattr(entry, field).is_present for field in forbidden)
    with closing(sqlite3.connect(":memory:")) as connection:
        connection.executescript(emit_ddl(dialect=export.PORTABLE))
        try:
            connection.executescript(emit_inserts([entry]))
            raised = False
        except sqlite3.IntegrityError:
            raised = True
    assert raised == expected


@pytest.fixture()
def sample_entries():
    return [
        parse_svf_line('NOUN M "bàta" "bàtaichean" "bàta"'),
        parse_svf_line('NOUN M "airgead" - "airgid"'),
        parse_svf_line('NOUN F "sgoil" "sgoiltean" ?'),
        parse_svf_line('VERB "rach" "dol" IRREG'),
        parse_svf_line("ADJ \"a'bhos\" \"motha\""),  # apostrophe escaping
    ]


def test_inserts_execute_and_read_back(sample_entries):
    connection = sqlite3.connect(":memory:")
    connection.executescript(emit_ddl(dialect=export.PORTABLE))
    connection.executescript(emit_inserts(sample_entries))
    rows = connection.execute(
        "SELECT Lemma, IRREG, POS, GR, NP, GS, CP, VN FROM Facal ORDER BY ID"
    ).fetchall()
    assert rows[0] == ("bàta", 0, "NOUN", "M", "bàtaichean", "bàta", None, None)
    assert rows[1][4] is None  # non-existent plural exported as NULL
    assert rows[3] == ("rach", 1, "VERB", None, None, None, None, "dol")
    assert rows[4][0] == "a'bhos"


def test_insert_values_escaped(sample_entries):
    script = emit_inserts(sample_entries)
    assert "'a''bhos'" in script


def test_insert_marks_non_existent(sample_entries):
    script = emit_inserts(sample_entries)
    line = next(l for l in script.splitlines() if "'airgead'" in l)
    assert "non-existent: NP" in line
    unknown_line = next(l for l in script.splitlines() if "'sgoil'" in l)
    assert "non-existent" not in unknown_line


def test_insert_empty_list_header_only():
    script = emit_inserts([])
    lines = [l for l in script.splitlines() if l]
    assert lines == ["-- Facal principal-parts data"]


def test_insert_warns_on_overlong_values():
    lemma = "fad" + "a" * 40
    entry = Entry(lemma=lemma, pos="ADJ", cp=part("motha"))
    script = emit_inserts([entry])
    assert "warning" in script and "Lemma" in script


def test_insert_warning_names_each_overlong_part():
    long = "b" + "a" * 35
    entry = Entry(lemma="bàta", pos=NOUN, gender="M", np=part(long), gs=part(long))
    script = emit_inserts([entry])
    assert "\n-- warning: value longer than 35 characters in NP, GS\n" in script


def test_emit_ddl_refuses_an_unknown_dialect():
    with pytest.raises(ValueError, match="^unknown dialect: 'oracle'$"):
        emit_ddl("oracle")


def test_render_paradigm_refuses_an_unknown_layout():
    with pytest.raises(ValueError, match="^unknown layout: 'table'$"):
        render_paradigm("bàta", {}, "table")


def _parse_inserts_back(script):
    """Text-level inverse of emit_inserts, comments included."""
    pattern = re.compile(r"VALUES \((.*)\);(?: -- non-existent: (.*))?$")
    entries = []
    for line in script.splitlines():
        match = pattern.search(line)
        if not match:
            continue
        raw, missing = match.groups()
        texts = re.findall(r"'((?:[^']|'')*)'|(NULL|TRUE|FALSE)", raw)
        values = [t[0].replace("''", "'") if t[0] else t[1] for t in texts]
        lemma, irreg, pos, gr, np, gs, cp, vn = values
        non_existent = set((missing or "").replace(" ", "").split(","))
        def decode(token, name):
            if token != "NULL":
                return part(token)
            if name in non_existent:
                return NON_EXISTENT
            return UNKNOWN
        entries.append(Entry(
            lemma=lemma,
            pos=pos,
            irregular=irreg == "TRUE",
            gender=None if gr == "NULL" else gr,
            np=decode(np, "NP") if pos == "NOUN" else None,
            gs=decode(gs, "GS") if pos == "NOUN" else None,
            cp=decode(cp, "CP") if pos == "ADJ" else None,
            vn=decode(vn, "VN") if pos == "VERB" else None,
        ))
    return entries


def test_insert_round_trip(sample_entries):
    assert _parse_inserts_back(emit_inserts(sample_entries)) == sample_entries


def test_render_noun_table():
    entry = parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"')
    cells = rules.decline(entry, rules.default_rules()).cells
    table = render_paradigm("saoghal", cells, export.NOUN_TABLE)
    rows = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in table.splitlines()
        if line.startswith("|")
    ]
    assert rows[0] == ["case", "singular", "plural"]
    assert rows[1] == ["nom.", "saoghal", "saoghalan"]
    assert rows[2] == ["gen.", "saoghail", "shaoghalan"]
    assert rows[3] == ["dat.", "saoghal", "saoghalan"]
    assert rows[4] == ["voc.", "shaoghail", "shaoghalan"]
    borders = [line for line in table.splitlines() if set(line) == {"+", "-"}]
    assert len(borders) == 2
    widths = {len(line) for line in table.splitlines()[1:] if line}
    assert len(widths) == 1  # every row padded to the same width


def test_render_verb_table_variants_joined():
    entry = parse_svf_line('VERB "òl" "òl"')
    cells = rules.conjugate(entry, rules.default_rules()).cells
    table = render_paradigm("òl", cells, export.VERB_TABLE)
    future = next(l for l in table.splitlines() if "future" in l and "relative" not in l)
    assert "òlaidh" in future and "òlar òltar" in future and future.endswith("| òl        |")


def test_render_missing_cells_dashed():
    entry = parse_svf_line('NOUN M "airgead" - "airgid"')
    cells = rules.decline(entry, rules.default_rules()).cells
    table = render_paradigm("airgead", cells, export.NOUN_TABLE)
    nom = next(l for l in table.splitlines() if "nom." in l)
    assert export.MISSING_CELL in nom


def test_render_adjective_row():
    entry = parse_svf_line('ADJ "mòr" "motha"')
    cells = {
        code: rules.inflect(entry, code, rules.default_rules())
        for code in rules.ADJ_FORMS
    }
    table = render_paradigm("mòr", cells, export.ADJ_ROW)
    assert "mhòr" in table and "motha" in table


def test_render_layout_mismatch():
    with pytest.raises(LayoutMismatchError):
        render_paradigm("x", {"VN": ["òl"]}, export.NOUN_TABLE)


@pytest.mark.parametrize(
    "layout, pos, stray",
    [(export.NOUN_TABLE, NOUN, "VN"), (export.VERB_TABLE, VERB, "NS"), (export.ADJ_ROW, ADJ, "NS")],
)
def test_a_layout_accepts_exactly_the_codes_of_its_part_of_speech(layout, pos, stray):
    # render_paradigm accepts the codes that a layout's rows show
    _, rows = export._LAYOUTS[layout]
    shown = {code for _, *codes in rows for code in codes if code is not None}
    assert shown == set(rules.FORMS_BY_POS[pos])
    with pytest.raises(LayoutMismatchError, match=rf"\['{stray}'\] are not in the {layout} layout"):
        render_paradigm("x", {stray: ["òl"]}, layout)


def test_render_delimited_style():
    entry = parse_svf_line('NOUN M "saoghal" "saoghalan" "saoghail"')
    cells = rules.decline(entry, rules.default_rules()).cells
    text = render_paradigm("", cells, export.NOUN_TABLE, style=export.DELIMITED)
    lines = text.splitlines()
    assert lines[0] == "case\tsingular\tplural"
    assert lines[1] == "nom.\tsaoghal\tsaoghalan"


def test_table_spec_rejects_ragged_rows():
    with pytest.raises(LayoutMismatchError):
        render_table(["a", "b"], [["1"]])


# The two table printers that render_table replaced, kept as references:
# the CLI's bordered table (stats vn-endings) and the paradigm table.


def reference_bordered(headers: list[str], rows: list[list[str]], right: set[int]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells):
        out = []
        for i, cell in enumerate(cells):
            pad = cell.rjust(widths[i]) if i in right else cell.ljust(widths[i])
            out.append(f" {pad} ")
        return "|" + "|".join(out) + "|"
    border = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [border, fmt(headers), border]
    lines += [fmt(row) for row in rows]
    lines.append(border)
    return "\n".join(lines) + "\n"


@dataclass
class ReferenceTableRenderSpec:
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


# cells up to 24 characters wide, so a cell can be wider than its header
table_words = st.text(alphabet="abcdeghilmnorstuàèìòùAÒ'- ", min_size=1, max_size=24).filter(
    orthography.is_gaelic_word
)
digit_strings = st.text(alphabet="0123456789", min_size=1, max_size=24)


@st.composite
def tables(draw, column_kinds):
    """Headers and zero or more rows; each column draws its cells from
    one of the kinds."""
    columns = draw(st.lists(table_words, min_size=1, max_size=4))
    kinds = [draw(st.sampled_from(column_kinds)) for _ in columns]
    rows = draw(st.lists(st.tuples(*kinds).map(list), max_size=6))
    return columns, rows


@given(tables([table_words, digit_strings, table_words | digit_strings]))
def test_framed_table_matches_the_bordered_reference(table):
    columns, rows = table
    right = {i for i in range(len(columns)) if all(row[i].isdigit() for row in rows)}
    assert render_table(columns, rows, framed=True) == reference_bordered(columns, rows, right)


@given(tables([table_words]))
def test_table_matches_the_paradigm_reference_on_words(table):
    columns, rows = table
    assert render_table(columns, rows) == ReferenceTableRenderSpec(columns, rows).render()


# endings that do and do not count, in both cases and with an accent:
# SQL LIKE would fold the ASCII case of "AN" or "ADH", substr does not
SUFFIXES = ["", "n", "an", "ean", "tan", "AN", "EAN", "àn", "adh", "ADH", "eadh", "achadh", "aidh"]
lemmas = st.text(alphabet="abcdeghilnorstuàòAÒ'", min_size=1, max_size=6).filter(
    orthography.is_gaelic_word
)


MARKERS = [UNKNOWN, NON_EXISTENT]


def grown(lemma):
    """The lemma plus one of the suffixes, or an unknown or non-existent part."""
    return st.sampled_from(MARKERS + SUFFIXES).map(
        lambda suffix: suffix if suffix in MARKERS else part(lemma + suffix)
    )


@st.composite
def vocabularies(draw):
    entries = []
    for lemma in draw(st.lists(lemmas, min_size=1, max_size=25)):
        pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
        irregular = draw(st.booleans())
        if pos == NOUN:
            gender = draw(st.sampled_from("MF"))
            np, gs = draw(grown(lemma)), draw(grown(lemma))
            entries.append(Entry(lemma, NOUN, irregular, gender, np, gs))
        elif pos == VERB:
            entries.append(Entry(lemma, VERB, irregular, vn=draw(grown(lemma))))
        else:
            entries.append(Entry(lemma, ADJ, irregular, cp=draw(grown(lemma))))
    return entries


@given(vocabularies())
def test_pattern_statistics_match_sql_over_the_export(entries):
    """stats plural-an and vn-endings count what a query over the
    exported table counts."""
    with closing(sqlite3.connect(":memory:")) as connection:
        connection.executescript(emit_ddl(dialect=export.PORTABLE))
        connection.executescript(emit_inserts(entries))
        counts = [
            connection.execute(
                "SELECT COUNT(*) FROM Facal WHERE POS = 'NOUN' AND substr(NP, -2) = 'an'"
                f" AND length(NP) - length(Lemma) {growth}"
            ).fetchone()[0]
            for growth in (">= 2", "= 2")
        ]
        endings = connection.execute(
            "SELECT substr(VN, -3) AS e, COUNT(*) AS n FROM Facal"
            " WHERE length(VN) - length(Lemma) >= 3 GROUP BY e ORDER BY n DESC, e"
        ).fetchall()
    nouns = [e for e in entries if e.pos == NOUN]
    assert counts == [
        analysis.count_suffix_pattern(nouns, "np", "an", min_extra=2, exact=exact)
        for exact in (False, True)
    ]
    histogram = analysis.ending_histogram(entries, "vn", suffix_len=3, min_growth=3)
    assert list(histogram.buckets.items()) == endings
