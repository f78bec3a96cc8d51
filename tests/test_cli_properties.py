"""main() on generated vocabulary, rule and frequency files: every run
ends in exit code 0, 1 or 2, and no exception escapes it."""

import contextlib
import io
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdmorph.cli import main

WORDS = ["cat", "bàta", "òl", "mòr", "rach", "sgoil", "'n", "Dia", "dia", "pòs", "cù"]
BUNDLED_BLOCKS = [
    block.strip() + "\n"
    for block in resources.files("gdmorph").joinpath("data", "rules.grl")
    .read_text(encoding="utf-8").split("\n\n")
    if block.strip().startswith("*")
]
FREQ = "<freq>"  # replaced by the generated frequency list's path

words = st.sampled_from(WORDS)
parts = st.one_of(words.map(lambda word: f'"{word}"'), st.sampled_from(["?", "-", '"?"']))
irreg = st.sampled_from(["", " IRREG"])
vocab_lines = st.one_of(
    st.builds(
        lambda gender, lemma, np, gs, flag: f'NOUN {gender} "{lemma}" {np} {gs}{flag}',
        st.sampled_from("MF"), words, parts, parts, irreg,
    ),
    st.builds(lambda lemma, vn, flag: f'VERB "{lemma}" {vn}{flag}', words, parts, irreg),
    st.builds(lambda lemma, cp, flag: f'ADJ "{lemma}" {cp}{flag}', words, parts, irreg),
    st.sampled_from(["# comment", "", 'NOUN "cat" ? ?', 'PRON "e"', 'ADJ "kx" "kx"', 'VERB "òl']),
)
special_cases = st.builds(
    lambda pos, lemma, body: f'* {pos} & IRREG & LEMMA="{lemma}"\n{body}\n',
    st.sampled_from(["NOUN", "VERB", "ADJ"]),
    words,
    st.sampled_from(["NS: NS", "VN: VN; FUT_IND: SL/LEMMA", "CP: H/CP", "GP: SL/NP+\"an|ean\""]),
)
rule_files = st.one_of(
    st.none(),  # the bundled rules
    st.lists(special_cases, max_size=2).flatmap(
        lambda specials: st.permutations(BUNDLED_BLOCKS + specials)
    ).map("\n".join),
    st.sampled_from(["* NOUN & M & F\nNS: NS\n", "NS: NS\n", "* VERB\nVN: H/\n", ""]),
)
freq_rows = st.lists(
    st.tuples(st.sampled_from(WORDS + ["agus"]), st.sampled_from([0, 0, 1, 3, -1])),
    min_size=1,
    max_size=4,
)
commands = st.one_of(
    st.just(["validate"]),
    st.builds(
        lambda word, form: ["inflect", word, form],
        words, st.sampled_from(["NS", "GP", "VS", "FUT_IND", "PAST_IND", "CP", "XX", "vn"]),
    ),
    st.builds(lambda word: ["decline", word], words),
    st.builds(lambda word: ["conjugate", word], words),
    st.just(["expand"]),
    st.builds(lambda word: ["recognize", word], st.sampled_from(WORDS + ["t-òl", "chat", "x"])),
    st.builds(lambda mode: ["coverage", FREQ, "--mode", mode], st.sampled_from(["lemmas", "allforms"])),
    st.builds(
        lambda which, k: ["stats", which, "--freq", FREQ, "--k", str(k)],
        st.sampled_from(["plural-an", "vn-endings", "dedup", "hapax", "zipf"]),
        st.integers(0, 5),
    ),
    st.builds(lambda kind: ["export", kind], st.sampled_from(["ddl", "inserts"])),
)
options = st.builds(
    lambda fold, fmt: ["--fold", fold, "--format", fmt],
    st.sampled_from(["exact", "accents", "accents-case"]),
    st.sampled_from(["table", "tsv"]),
)


@settings(max_examples=100, deadline=None)
@given(
    vocab=st.lists(vocab_lines, max_size=8),
    rule_text=rule_files,
    rows=freq_rows,
    command=commands,
    global_options=options,
)
# a frequency list whose counts sum to zero
@example(
    vocab=['NOUN M "cat" "cait" "cait"'],
    rule_text=None,
    rows=[("cat", 0), ("cù", 0)],
    command=["stats", "zipf", "--freq", FREQ, "--k", "1"],
    global_options=[],
)
def test_main_exits_0_1_or_2(vocab, rule_text, rows, command, global_options):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "vocab.svf").write_text("\n".join(vocab) + "\n", encoding="utf-8")
        freq = directory / "freq.tsv"
        freq.write_text(
            "".join(f"{rank}\t{word}\t{count}\n" for rank, (word, count) in enumerate(rows, 1)),
            encoding="utf-8",
        )
        argv = ["--vocab", str(directory / "vocab.svf"), *global_options]
        if rule_text is not None:
            (directory / "rules.grl").write_text(rule_text, encoding="utf-8")
            argv += ["--rules", str(directory / "rules.grl")]
        argv += [str(freq) if arg == FREQ else arg for arg in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
