import argparse
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from gdmorph import lexicon, rules
from gdmorph.cli import build_parser, main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

VOCAB = str(DATA / "coverage20.svf")
FREQ = str(DATA / "freq50.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean_fixture(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "validate")
    assert code == 0
    assert "violations" in out and "0" in out.splitlines()[0]
    assert "nouns" in out and "12" in out


def test_validate_reports_bad_lines(capsys, tmp_path):
    path = tmp_path / "bad.svf"
    path.write_text('VERB M "òl" "òl"\nADJ "mòr" "motha"\n', encoding="utf-8")
    code, out, _ = run(capsys, "--vocab", str(path), "validate")
    assert code == 2
    assert "line 1" in out and "gender" in out


def test_validate_missing_file(capsys, tmp_path):
    missing = tmp_path / "missing.svf"
    code, out, err = run(capsys, "--vocab", str(missing), "validate")
    assert (code, out) == (2, "")
    assert err == f"{missing}: cannot read (No such file or directory)\n"


def test_validate_needs_vocab(capsys):
    code, out, err = run(capsys, "validate")
    assert (code, out) == (2, "")
    assert err == "this command needs --vocab\n"


def test_validate_counts_unknown_parts(capsys, tmp_path):
    path = tmp_path / "v.svf"
    path.write_text('NOUN F "sgoil" "sgoiltean" ?\n', encoding="utf-8")
    code, out, _ = run(capsys, "--vocab", str(path), "--format", "tsv", "validate")
    assert code == 0
    assert "gs unknown/non-existent\t1/0" in out
    assert "nouns with unknown part\t1 (100.0%)" in out


def test_inflect(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "inflect", "saoghal", "DP")
    assert code == 0 and out.strip() == "saoghalan"


def test_inflect_identity(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "inflect", "saoghal", "NS")
    assert code == 0 and out.strip() == "saoghal"


def test_inflect_variants_space_joined(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "inflect", "òl", "FUT_PASS")
    assert code == 0 and out.strip() == "òlar òltar"


def test_inflect_not_found(capsys):
    code, _, err = run(capsys, "--vocab", VOCAB, "inflect", "zzz", "NS")
    assert code == 1 and "not found" in err


def test_inflect_wrong_form(capsys):
    code, _, err = run(capsys, "--vocab", VOCAB, "inflect", "saoghal", "VN")
    assert code == 1


def test_decline_renders_table(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "decline", "saoghal")
    assert code == 0
    assert "| nom. | saoghal" in out
    assert "shaoghalan" in out


def test_decline_reports_each_cell_it_cannot_derive(capsys, tmp_path):
    path = tmp_path / "unknown.svf"
    path.write_text('NOUN M "cat" ? "cait"\n', encoding="utf-8")
    code, out, err = run(capsys, "--vocab", str(path), "decline", "cat")
    assert code == 0
    assert "| nom. | cat      | —      |" in out
    assert err == "".join(f"{form}: cat: NP is unknown\n" for form in ("DP", "GP", "NP", "VP"))


def test_decline_not_a_noun(capsys):
    code, _, err = run(capsys, "--vocab", VOCAB, "decline", "òl")
    assert code == 1 and "no noun entry" in err


def test_conjugate_not_a_verb(capsys):
    code, _, err = run(capsys, "--vocab", VOCAB, "conjugate", "saoghal")
    assert code == 1 and "no verb entry for saoghal" in err


def test_conjugate_renders_table(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "conjugate", "òl")
    assert code == 0
    assert "òlar òltar" in out and "dh'òlamaid" in out


def test_conjugate_irregular_rejected(capsys, tmp_path):
    path = tmp_path / "irr.svf"
    path.write_text('VERB "rach" "dol" IRREG\n', encoding="utf-8")
    code, _, err = run(capsys, "--vocab", str(path), "conjugate", "rach")
    assert code == 1 and "irregular" in err


def test_decline_irregular_rejected_once(capsys, tmp_path):
    path = tmp_path / "irr.svf"
    path.write_text('NOUN F "bean" "mnathan" "mnà" IRREG\n', encoding="utf-8")
    code, out, err = run(capsys, "--vocab", str(path), "decline", "bean")
    assert code == 1 and out == ""
    assert err == "bean is irregular and no special-case rule covers it\n"


def test_expand_to_file(capsys, tmp_path):
    out_path = tmp_path / "forms.txt"
    code, out, _ = run(capsys, "--vocab", VOCAB, "expand", "-o", str(out_path))
    assert code == 0
    forms = out_path.read_text(encoding="utf-8").splitlines()
    assert forms == sorted(forms)
    assert "shaoghail" in forms and "dh'òl" in forms
    assert f"{len(forms)} forms" in out


def test_expand_to_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "--vocab", VOCAB, "expand", "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"{out_path}: cannot write (")


def test_expand_saoghal_only(capsys, tmp_path):
    vocab = tmp_path / "one.svf"
    vocab.write_text('NOUN M "saoghal" "saoghalan" "saoghail"\n', encoding="utf-8")
    out_path = tmp_path / "forms.txt"
    code, _, _ = run(capsys, "--vocab", str(vocab), "expand", "-o", str(out_path))
    assert code == 0
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 6


def test_expand_empty_vocab(capsys, tmp_path):
    vocab = tmp_path / "empty.svf"
    vocab.write_text("# nothing\n", encoding="utf-8")
    out_path = tmp_path / "forms.txt"
    code, _, _ = run(capsys, "--vocab", str(vocab), "expand", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == ""


def test_recognize(capsys):
    code, out, _ = run(capsys, "--vocab", VOCAB, "recognize", "t-saoghail")
    assert code == 0
    assert "saoghal\tNOUN\tGS" in out


def test_recognize_miss(capsys):
    code, _, err = run(capsys, "--vocab", VOCAB, "recognize", "zzz")
    assert code == 1


def test_every_expanded_form_is_recognized_as_by_the_whole_index(capsys, tmp_path):
    # recognize builds its index over candidate entries only; expand
    # derives surfaces without analyses
    ruleset = rules.default_rules()
    for vocab_path in sorted(DATA.glob("*.svf")):
        out_path = tmp_path / f"{vocab_path.stem}.txt"
        code, _, _ = run(capsys, "--vocab", str(vocab_path), "expand", "-o", str(out_path))
        assert code == 0
        forms = out_path.read_text(encoding="utf-8").splitlines()
        assert forms
        vocab, _ = lexicon.Vocabulary.from_svf_file(vocab_path, fold_policy="accents")
        index = lexicon.build_all_forms(vocab, ruleset)
        assert forms == sorted(index.forms())
        for form in forms:
            code, out, _ = run(capsys, "--vocab", str(vocab_path), "recognize", form)
            expected = "".join(
                f"{entry.lemma}\t{entry.pos}\t{form_code}\n"
                for entry, form_code in lexicon.recognize(index, form)
            )
            assert (code, out) == (0, expected), form


def test_coverage_lemmas(capsys):
    code, out, _ = run(
        capsys, "--vocab", VOCAB, "--fold", "exact", "--format", "tsv",
        "coverage", FREQ, "--mode", "lemmas",
    )
    assert code == 0
    values = dict(line.split("\t") for line in out.strip().splitlines())
    assert values["matched_types"] == "12"
    assert values["matched_tokens"] == "285"


def test_coverage_allforms_dominates(capsys):
    _, lemmas_out, _ = run(
        capsys, "--vocab", VOCAB, "--fold", "exact", "--format", "tsv",
        "coverage", FREQ, "--mode", "lemmas",
    )
    code, allforms_out, _ = run(
        capsys, "--vocab", VOCAB, "--fold", "exact", "--format", "tsv",
        "coverage", FREQ, "--mode", "allforms",
    )
    assert code == 0
    lemmas = dict(line.split("\t") for line in lemmas_out.strip().splitlines())
    allforms = dict(line.split("\t") for line in allforms_out.strip().splitlines())
    assert float(allforms["token_coverage"]) >= float(lemmas["token_coverage"])


def test_stats_plural_an(capsys):
    code, out, _ = run(
        capsys, "--vocab", str(DATA / "stats12.svf"), "--format", "tsv",
        "stats", "plural-an",
    )
    assert code == 0
    values = dict(line.split("\t") for line in out.strip().splitlines())
    assert values["plural_in_an"] == "4" and values["short_suffix"] == "2"


def test_stats_vn_endings_table(capsys):
    code, out, _ = run(capsys, "--vocab", str(DATA / "stats12.svf"), "stats", "vn-endings")
    assert code == 0
    assert "| Ending | Freq |" in out
    assert "| adh    |    3 |" in out


def test_stats_vn_endings_tsv(capsys):
    code, out, _ = run(
        capsys, "--vocab", str(DATA / "stats12.svf"), "--format", "tsv", "stats", "vn-endings"
    )
    assert code == 0
    assert out == "adh\t3\nchd\t1\ninn\t1\n"


def test_stats_dedup(capsys, tmp_path):
    path = tmp_path / "dups.svf"
    path.write_text(
        'NOUN M "Dia" "diathan" "Dè"\n'
        'NOUN M "dia" "diathan" "dè"\n'
        'ADJ "mòr" "motha"\n'
        'ADJ "mór" "motha"\n',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "--vocab", str(path), "stats", "dedup")
    assert code == 0
    assert "case pairs\t1" in out and "accent pairs\t1" in out
    assert "case\tDia\tdia" in out


def test_stats_hapax(capsys):
    code, out, _ = run(capsys, "stats", "hapax", "--freq", FREQ)
    assert code == 0
    assert out.splitlines()[0] == "hapax\t3"


def test_stats_zipf(capsys):
    code, out, _ = run(capsys, "stats", "zipf", "--freq", FREQ, "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("1\t")


def test_stats_zipf_out_of_range(capsys):
    code, _, err = run(capsys, "stats", "zipf", "--freq", FREQ, "--k", "999")
    assert code == 2 and "outside" in err


def test_stats_zipf_zero_token_total_exits_2(capsys, tmp_path):
    path = tmp_path / "zero.tsv"
    path.write_text("1\tcat\t0\n2\tcù\t0\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", "zipf", "--freq", str(path), "--k", "1")
    assert code == 2 and out == ""
    assert "token counts sum to 0" in err


def test_frequency_list_without_a_parsable_row_exits_2(capsys, tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text("a b\nc d\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", "hapax", "--freq", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}: no parsable rows\n"


def test_broken_first_row_of_a_frequency_list_is_warned_about(capsys, tmp_path):
    path = tmp_path / "broken.tsv"
    path.write_text("1\tcat\n2\tdog\t5\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", "hapax", "--freq", str(path))
    assert (code, out) == (0, "hapax\t0\n")
    assert err == f"{path}: line 1: unparsable row '1\\tcat'\n"


def test_stats_needs_freq(capsys):
    code, _, err = run(capsys, "stats", "zipf")
    assert code == 2 and "--freq" in err


def test_export_ddl_stdout(capsys):
    code, out, _ = run(capsys, "export", "ddl")
    assert code == 0 and out.startswith("CREATE TABLE Facal(")


def test_export_inserts_runs_in_sqlite(capsys, tmp_path):
    ddl_path = tmp_path / "schema.sql"
    data_path = tmp_path / "data.sql"
    assert run(capsys, "export", "ddl", "--dialect", "portable",
               "-o", str(ddl_path))[0] == 0
    assert run(capsys, "--vocab", VOCAB, "export", "inserts",
               "-o", str(data_path))[0] == 0
    connection = sqlite3.connect(":memory:")
    connection.executescript(ddl_path.read_text(encoding="utf-8"))
    connection.executescript(data_path.read_text(encoding="utf-8"))
    count = connection.execute("SELECT COUNT(*) FROM Facal").fetchone()[0]
    assert count == 20


def test_fold_option_controls_lookup(capsys, tmp_path):
    path = tmp_path / "v.svf"
    path.write_text('ADJ "mòr" "motha"\n', encoding="utf-8")
    code, out, _ = run(capsys, "--vocab", str(path), "inflect", "mor", "CP")
    assert code == 0 and out.strip() == "motha"  # default folds accents
    code, _, err = run(
        capsys, "--vocab", str(path), "--fold", "exact", "inflect", "mor", "CP"
    )
    assert code == 1


def test_fold_decides_whether_an_acute_spelling_is_found(capsys, tmp_path):
    # --fold sets the key both lemma and query are looked up under: a
    # pre-reform acute spelling meets every entry that differs from it
    # only by accents, or under exact none at all
    path = tmp_path / "v.svf"
    path.write_text('ADJ "mòr" "motha"\nADJ "mor" "morsa"\n', encoding="utf-8")

    def inflect(*options):
        return run(capsys, "--vocab", str(path), *options, "inflect", "mór", "CP")

    for options in [(), ("--fold", "accents"), ("--fold", "accents-case")]:
        code, out, _ = inflect(*options)
        assert code == 0 and out.split() == ["motha", "morsa"]
    code, _, err = inflect("--fold", "exact")
    assert code == 1 and "not found: mór" in err


def test_rules_env_override(capsys, tmp_path, monkeypatch):
    custom = tmp_path / "custom.grl"
    custom.write_text("* NOUN & M\nNS: H/NS\n", encoding="utf-8")
    monkeypatch.setenv("GDMORPH_RULES", str(custom))
    code, out, _ = run(capsys, "--vocab", VOCAB, "inflect", "saoghal", "NS")
    assert code == 0 and out.strip() == "shaoghal"


def test_empty_rules_flag_exits_2_and_empty_env_is_unset(capsys, monkeypatch):
    monkeypatch.delenv("GDMORPH_RULES", raising=False)
    code, out, err = run(capsys, "--vocab", VOCAB, "--rules", "", "inflect", "saoghal", "DP")
    assert (code, out, err) == (2, "", "--rules names no file\n")
    monkeypatch.setenv("GDMORPH_RULES", "")
    code, out, _ = run(capsys, "--vocab", VOCAB, "inflect", "saoghal", "DP")
    assert (code, out) == (0, "saoghalan\n")


def test_rules_flag_beats_default(capsys, tmp_path):
    custom = tmp_path / "custom.grl"
    custom.write_text("* NOUN & M\nNS: SL/NS\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--vocab", VOCAB, "--rules", str(custom),
        "inflect", "saoghal", "NS",
    )
    assert code == 0 and out.strip() == "saoghail"


def test_tsv_decline_is_machine_readable(capsys):
    code, out, _ = run(
        capsys, "--vocab", VOCAB, "--format", "tsv", "decline", "saoghal"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "case\tsingular\tplural"
    assert lines[2] == "nom.\tsaoghal\tsaoghalan"


def test_inflect_underivable_form_exits_1(capsys, tmp_path):
    vocab = tmp_path / "n.svf"
    vocab.write_text("VERB \"'n\" \"'n\"\n", encoding="utf-8")
    code, out, err = run(capsys, "--vocab", str(vocab), "inflect", "'n", "FUT_IND")
    assert (code, out) == (1, "")
    assert err == "no vowel in \"'n\"\n"


def test_inflect_unslenderizable_form_exits_1(capsys, tmp_path):
    vocab = tmp_path / "b.svf"
    vocab.write_text('NOUN M "bàta" "bàtaichean" "bàta"\n', encoding="utf-8")
    custom = tmp_path / "sl.grl"
    custom.write_text("* NOUN\nGS: SL/LEMMA\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--vocab", str(vocab), "--rules", str(custom), "inflect", "bàta", "GS"
    )
    assert (code, out) == (1, "")
    assert err == "'bàta' ends in a vowel\n"


def test_bad_selector_in_rule_file_exits_2(capsys, tmp_path):
    custom = tmp_path / "bad.grl"
    custom.write_text("* VERB & M\nVN: VN\n", encoding="utf-8")
    code, _, err = run(capsys, "--vocab", VOCAB, "--rules", str(custom), "inflect", "òl", "VN")
    assert code == 2 and f"{custom}: line 1" in err


def test_every_surface_expand_writes_is_recognized(capsys, tmp_path):
    vocab = tmp_path / "mor.svf"
    vocab.write_text('ADJ "mor" ?\n', encoding="utf-8")
    # a decomposed grave and a curly apostrophe in the suffixes
    custom = tmp_path / "noncanonical.grl"
    custom.write_text('* ADJ\nCP: LEMMA+"a\u0300n|ean"; POS_ADJ: LEMMA+"an\u2019|ean"\n', encoding="utf-8")
    code, out, _ = run(capsys, "--vocab", str(vocab), "--rules", str(custom), "expand")
    assert code == 0 and out.splitlines() == ["mor", "moran'", "moràn"]
    for surface in out.splitlines():
        code, out, err = run(capsys, "--vocab", str(vocab), "--rules", str(custom), "recognize", surface)
        assert (code, err) == (0, ""), surface
        assert out.startswith("mor\tADJ\t"), surface


def test_suffix_outside_the_alphabet_exits_2_naming_its_line(capsys, tmp_path):
    custom = tmp_path / "digit.grl"
    custom.write_text('* ADJ\nPOS_ADJ: LEMMA\nCP: LEMMA+"an1|ean"\n', encoding="utf-8")
    code, out, err = run(capsys, "--vocab", VOCAB, "--rules", str(custom), "expand")
    assert (code, out) == (2, "")
    assert err == f"{custom}: line 3: suffix 'an1' is not a Gaelic word\n"


@pytest.mark.parametrize("value", ["cat1", 'a"b'])
def test_lemma_outside_the_alphabet_exits_2_naming_its_line(capsys, tmp_path, value):
    custom = tmp_path / "lemma.grl"
    custom.write_text(f'* NOUN & IRREG & LEMMA="{value}"\nNS: NS\n* NOUN\nNS: NS\n', encoding="utf-8")
    code, out, err = run(capsys, "--vocab", VOCAB, "--rules", str(custom), "expand")
    assert (code, out) == (2, "")
    assert err == f"{custom}: line 1: LEMMA {value!r} is not a Gaelic word\n"


@pytest.mark.parametrize("given", ["--rules", "env", "bundled"])
def test_rule_file_syntax_error_names_the_file_it_came_from(capsys, tmp_path, monkeypatch, given):
    custom = tmp_path / f"{given}.grl"
    custom.write_text("* NOUN\nNS: NS\n* VERB & M\nVN: VN\n", encoding="utf-8")
    monkeypatch.delenv("GDMORPH_RULES", raising=False)
    options = []
    if given == "--rules":
        options = ["--rules", str(custom)]
    elif given == "env":
        monkeypatch.setenv("GDMORPH_RULES", str(custom))
    else:
        monkeypatch.setattr(rules, "BUNDLED_RULES", str(custom))
    code, out, err = run(capsys, "--vocab", VOCAB, *options, "decline", "saoghal")
    assert (code, out) == (2, "")
    assert err == f"{custom}: line 3: only nouns have a gender, not VERB\n"


def test_export_inserts_refuses_a_vocabulary_with_a_bad_line(capsys, tmp_path):
    vocab = tmp_path / "bad.svf"
    vocab.write_text('VERB "òl" "òl"\nVERB M "ith" "ithe"\n', encoding="utf-8")
    out_path = tmp_path / "inserts.sql"
    code, out, err = run(capsys, "--vocab", str(vocab), "export", "inserts", "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err == (
        f"{vocab}: line 2: gender is not allowed for VERB\n"
        f"{vocab}: vocabulary has syntax errors; fix before exporting\n"
    )
    assert not out_path.exists()


# a Latin-1 "à" or "ù" is one byte that no UTF-8 sequence starts with
def test_non_utf8_vocabulary_exits_2_naming_file_and_line(capsys, tmp_path):
    vocab = tmp_path / "latin1.svf"
    vocab.write_bytes(b'VERB "\xc3\xb2l" "\xc3\xb2l"\nNOUN M "c\xe0t" ? ?\n')
    code, out, err = run(capsys, "--vocab", str(vocab), "validate")
    assert (code, out) == (2, "")
    assert err.startswith(f"{vocab}: line 2: not UTF-8")


def test_non_utf8_rule_file_exits_2_naming_file_and_line(capsys, tmp_path):
    custom = tmp_path / "latin1.grl"
    custom.write_bytes(b"* VERB\nVN: VN # c\xf9\n")
    code, out, err = run(capsys, "--vocab", VOCAB, "--rules", str(custom), "conjugate", "òl")
    assert (code, out) == (2, "")
    assert err.startswith(f"{custom}: line 2: not UTF-8")


def test_non_utf8_bundled_rule_file_exits_2_naming_it_and_line(capsys, tmp_path, monkeypatch):
    bundled = tmp_path / "rules.grl"
    bundled.write_bytes(b"\xff")
    monkeypatch.setattr(rules, "BUNDLED_RULES", str(bundled))
    code, out, err = run(capsys, "--vocab", VOCAB, "inflect", "saoghal", "DP")
    assert (code, out) == (2, "")
    assert err == f"{bundled}: line 1: not UTF-8 (invalid start byte)\n"


def test_bundled_rule_file_with_byte_order_mark_loads(capsys, tmp_path, monkeypatch):
    """The bundled file is read like any --rules file, so a byte-order
    mark before its first "*" line is ignored."""
    bundled = tmp_path / "rules.grl"
    bundled.write_bytes(b"\xef\xbb\xbf" + Path(rules.BUNDLED_RULES).read_bytes())
    monkeypatch.setattr(rules, "BUNDLED_RULES", str(bundled))
    code, out, err = run(capsys, "--vocab", str(DATA / "stats12.svf"), "conjugate", "pòs")
    assert (code, err) == (0, "")
    assert "pòsadh" in out


def test_non_utf8_frequency_list_exits_2_naming_file_and_line(capsys, tmp_path):
    freq = tmp_path / "latin1.tsv"
    freq.write_bytes(b"1\tcat\t10\n2\tc\xf9\t3\n")
    code, out, err = run(capsys, "stats", "hapax", "--freq", str(freq))
    assert (code, out) == (2, "")
    assert err.startswith(f"{freq}: line 2: not UTF-8")


def test_dropped_frequency_row_is_reported_on_stderr(capsys, tmp_path):
    freq = tmp_path / "f.tsv"
    freq.write_text("1\tcat\t10\n2\tcù\tx\n3\tbàta\t5\n", encoding="utf-8")
    code, out, err = run(capsys, "--vocab", VOCAB, "--format", "tsv", "coverage", str(freq))
    assert code == 0
    assert "total_types\t2\n" in out
    assert err == f"{freq}: line 2: unparsable row '2\\tcù\\tx'\n"


def test_ordering_warnings_name_their_line(capsys, tmp_path):
    freq = tmp_path / "f.tsv"
    freq.write_text("1\tcat\t10\n3\tcù\t12\n2\tbàta\t5\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", "hapax", "--freq", str(freq))
    assert (code, out) == (0, "hapax\t0\n")
    assert err == (
        f"{freq}: line 2: count 12 at rank 3 exceeds the previous rank\n"
        f"{freq}: line 3: rank 2 out of order after rank 3\n"
    )


BAD_LINE = 'NOUN M "cù" "coin" "coin" extra'
GOOD_LINES = ['NOUN M "saoghal" "saoghalan" "saoghail"', 'VERB "òl" "òl"', 'ADJ "mòr" "motha"']


@pytest.mark.parametrize("command", [
    ["expand"],
    ["recognize", "shaoghal"],
    ["recognize", "coin"],
    ["coverage", FREQ],
    ["coverage", FREQ, "--mode", "allforms"],
    ["inflect", "òl", "VN"],
    ["decline", "saoghal"],
    ["conjugate", "òl"],
    ["stats", "plural-an"],
    ["stats", "vn-endings"],
    ["stats", "dedup"],
])
def test_bad_vocabulary_line_is_warned_about_and_output_unchanged(capsys, tmp_path, command):
    clean, bad = tmp_path / "clean.svf", tmp_path / "bad.svf"
    clean.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
    bad.write_text("\n".join([GOOD_LINES[0], BAD_LINE, *GOOD_LINES[1:]]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "--vocab", str(clean), *command)
    bad_code, bad_out, bad_err = run(capsys, "--vocab", str(bad), *command)
    assert (bad_code, bad_out) == (code, out)
    assert bad_err == f"{bad}: line 2: NOUN record needs lemma, NP and GS, got 4 fields\n" + err


HELP = {("-h", "--help"): (None, argparse.SUPPRESS)}
# per parser: {option strings: (choices, default)}, [(positional, choices)]
OPTION_SURFACE = {
    "gdmorph": (
        {
            **HELP,
            ("--vocab",): (None, None),
            ("--rules",): (None, None),
            ("--fold",): (["exact", "accents", "accents-case"], "accents"),
            ("--format",): (["table", "tsv"], "table"),
        },
        [("command", ["validate", "inflect", "decline", "conjugate", "expand",
                      "recognize", "coverage", "stats", "export"])],
    ),
    "validate": (HELP, []),
    "inflect": (HELP, [("lemma", None), ("form", None)]),
    "decline": (HELP, [("lemma", None)]),
    "conjugate": (HELP, [("lemma", None)]),
    "expand": ({**HELP, ("-o", "--out"): (None, None)}, []),
    "recognize": (HELP, [("word", None)]),
    "coverage": ({**HELP, ("--mode",): (["lemmas", "allforms"], "lemmas")}, [("freq", None)]),
    "stats": (
        {**HELP, ("--freq",): (None, None), ("--k",): (None, 15)},
        [("which", ["plural-an", "vn-endings", "dedup", "hapax", "zipf"])],
    ),
    "export": (
        {**HELP, ("-o", "--out"): (None, None), ("--dialect",): (["mysql", "portable"], "mysql")},
        [("kind", ["ddl", "inserts"])],
    ),
}


def _surface(parser):
    options, positionals = {}, []
    for action in parser._actions:
        choices = None if action.choices is None else list(action.choices)
        if action.option_strings:
            options[tuple(action.option_strings)] = (choices, action.default)
        else:
            positionals.append((action.dest, choices))
    return options, positionals


def test_option_surface_is_pinned():
    parser = build_parser()
    found = {"gdmorph": _surface(parser)}
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        found[name] = _surface(sub)
    assert found == OPTION_SURFACE


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Every CLI call imports gdmorph.cli; dataclasses, importlib.resources
    and the inspect module either pulls in cost each call start-up time.
    -S keeps site packages (and their .pth imports) out of the picture."""
    unwanted = ["dataclasses", "importlib.resources", "inspect"]
    check = (
        "import gdmorph.cli, sys; "
        f"sys.exit(sorted(set({unwanted!r}) & set(sys.modules)) or None)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", check], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


# every part of speech, IRREG, both markers in every part field, a noun
# with two unknown parts, and one bad line
_VALIDATE_MIX = """\
# a comment, skipped
NOUN M "cat" "cait" "cait"
NOUN F "sgoil" ? -
NOUN M "bàta" - ?
NOUN M "ceann" ? ?
NOUN F "bròg" "brògan" "bròige" IRREG
VERB "òl" "òl"
VERB "fàg" ?
VERB "bi" - IRREG
ADJ "mòr" "motha"
ADJ "beag" ?
ADJ "math" - IRREG
VERB M "ith" "ithe"
"""

_VALIDATE_MIX_TABLE = """\
line 13: gender is not allowed for VERB
violations               1
nouns                    5
verbs                    3
adjs                     3
irregular                3
np unknown/non-existent  2/1
gs unknown/non-existent  2/1
vn unknown/non-existent  1/1
cp unknown/non-existent  1/1
nouns with unknown part  3 (60.0%)
"""


_VALIDATE_MIX_TSV = """\
line 13: gender is not allowed for VERB
violations\t1
nouns\t5
verbs\t3
adjs\t3
irregular\t3
np unknown/non-existent\t2/1
gs unknown/non-existent\t2/1
vn unknown/non-existent\t1/1
cp unknown/non-existent\t1/1
nouns with unknown part\t3 (60.0%)
"""


@pytest.mark.parametrize(
    "fmt, expected", [("table", _VALIDATE_MIX_TABLE), ("tsv", _VALIDATE_MIX_TSV)]
)
def test_validate_prints_the_whole_summary(capsys, tmp_path, fmt, expected):
    path = tmp_path / "mix.svf"
    path.write_text(_VALIDATE_MIX, encoding="utf-8")
    # the bad line is named by its file, then the line
    assert run(capsys, "--vocab", str(path), "--format", fmt, "validate") == (2, f"{path}: {expected}", "")


def test_validate_without_nouns_leaves_out_the_noun_line(capsys, tmp_path):
    path = tmp_path / "verbs.svf"
    path.write_text('VERB "òl" "òl"\nVERB "fàg" ?\n', encoding="utf-8")
    code, out, _ = run(capsys, "--vocab", str(path), "--format", "tsv", "validate")
    assert code == 0
    assert out.splitlines() == [
        "violations\t0",
        "nouns\t0",
        "verbs\t2",
        "adjs\t0",
        "irregular\t0",
        "np unknown/non-existent\t0/0",
        "gs unknown/non-existent\t0/0",
        "vn unknown/non-existent\t1/0",
        "cp unknown/non-existent\t0/0",
    ]


def test_recognize_lists_analyses_in_forms_by_pos_order(capsys):
    # rules.FORMS_BY_POS order, not conjugate's rows, which put IMP2S first
    code, out, _ = run(capsys, "--vocab", VOCAB, "recognize", "òl")
    assert code == 0
    assert out == "òl\tVERB\tVN\nòl\tVERB\tFUT_DEP\nòl\tVERB\tIMP2S\n"
    codes = [line.split("\t")[2] for line in out.splitlines()]
    assert codes == [form for form in rules.FORMS_BY_POS["VERB"] if form in codes]


@pytest.mark.parametrize("command", [["expand"], ["decline", "cat"]])
def test_stdout_closed_by_its_reader_exits_2_without_a_traceback(command):
    """gdmorph expand | head: the reader may close the pipe before the
    output is written; that is an I/O error, reported by exit 2 alone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "gdmorph", "--vocab", VOCAB, *command],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
