"""Command-line front end: gdmorph <command> over a vocabulary file.

Every error and warning about an input has one shape, "path: line N:
message", leaving out the path or the line where there is none.

Exit codes: 0 success, 1 domain error (word not found, unsupported
irregular, underivable form: a MorphologyError), 2 input error (a file
or an argument the program cannot use: an InputError) or stdout closed
by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from operator import attrgetter

from . import analysis, export, lexicon, orthography, rules, svf
from .orthography import InputError, MorphologyError

ENV_RULES = "GDMORPH_RULES"


def _read_vocab(args):
    """The vocabulary and the SvfError of each bad line."""
    if not args.vocab:
        raise InputError("this command needs --vocab")
    return lexicon.Vocabulary.from_svf_file(args.vocab, fold_policy=args.fold)


def _load_vocab(args) -> lexicon.Vocabulary:
    """The vocabulary, each bad line warned about on stderr, as a
    frequency list's are; the command goes on without it."""
    vocab, errors = _read_vocab(args)
    for error in errors:
        print(error, file=sys.stderr)
    return vocab


def _load_rules(args) -> rules.RuleSet:
    """The --rules file, else $GDMORPH_RULES, else the bundled rules;
    an empty --rules is an error, an empty $GDMORPH_RULES is unset."""
    if args.rules == "":
        raise InputError("--rules names no file")
    return rules.load_rules(args.rules or os.environ.get(ENV_RULES) or rules.BUNDLED_RULES)


def _write_out(path: str | None, text: str) -> None:
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write ({exc.strerror})", path) from None


def _report(args, pairs: list[tuple[str, str]]) -> None:
    if args.format == "tsv":
        for key, value in pairs:
            print(f"{key}\t{value}")
        return
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def cmd_validate(args) -> int:
    vocab, errors = _read_vocab(args)
    for error in errors:
        print(error)
    by_pos = Counter(entry.pos for entry in vocab)
    parts = {name: Counter(map(attrgetter(name), vocab)) for name in svf.PART_FIELDS}
    pairs = [("violations", str(len(errors)))]
    pairs += [(pos.lower() + "s", str(by_pos[pos])) for pos in svf.PARTS_OF_SPEECH]
    pairs.append(("irregular", str(sum(entry.irregular for entry in vocab))))
    for name in svf.PART_FIELDS:
        counts = f"{parts[name][svf.UNKNOWN]}/{parts[name][svf.NON_EXISTENT]}"
        pairs.append((f"{name} unknown/non-existent", counts))
    if by_pos[svf.NOUN]:
        part_values = attrgetter(*svf.PART_FIELDS)
        incomplete = sum(
            svf.UNKNOWN in part_values(entry) for entry in vocab if entry.pos == svf.NOUN
        )
        share = 100.0 * incomplete / by_pos[svf.NOUN]
        pairs.append(("nouns with unknown part", f"{incomplete} ({share:.1f}%)"))
    _report(args, pairs)
    return 0 if not errors else 2


def _entries_for(vocab: lexicon.Vocabulary, lemma: str):
    found = vocab.lookup(lemma)
    if not found:
        raise MorphologyError(f"not found: {lemma}")
    return found


def cmd_inflect(args) -> int:
    vocab = _load_vocab(args)
    ruleset = _load_rules(args)
    form = args.form.upper()
    found = _entries_for(vocab, args.lemma)
    entries = [e for e in found if form in rules.FORMS_BY_POS.get(e.pos, ())]
    if not entries:
        raise MorphologyError(f"{form} is not a valid form for {args.lemma}")
    for entry in entries:
        variants = rules.inflect(entry, form, ruleset)
        print(" ".join(variants) if variants else export.MISSING_CELL)
    return 0


def _paradigms(args, pos: str, paradigm_of, layout: str) -> int:
    vocab = _load_vocab(args)
    ruleset = _load_rules(args)
    entries = [e for e in _entries_for(vocab, args.lemma) if e.pos == pos]
    if not entries:
        raise MorphologyError(f"no {pos.lower()} entry for {args.lemma}")
    style = export.DELIMITED if args.format == "tsv" else export.ASCII
    for entry in entries:
        paradigm = paradigm_of(entry, ruleset)
        print(export.render_paradigm(entry.lemma, paradigm.cells, layout, style=style), end="")
        for code, error in sorted(paradigm.errors.items()):
            print(f"{code}: {error}", file=sys.stderr)
    return 0


def cmd_expand(args) -> int:
    vocab = _load_vocab(args)
    ruleset = _load_rules(args)
    forms = sorted(lexicon.surface_forms(vocab, ruleset))
    text = "".join(form + "\n" for form in forms)
    _write_out(args.out, text)
    if args.out and args.out != "-":
        print(f"{len(forms)} forms from {len(vocab)} entries")
    return 0


def cmd_recognize(args) -> int:
    vocab = _load_vocab(args)
    ruleset = _load_rules(args)
    # the word's candidate entries give it the analyses the whole vocabulary would
    index = lexicon.build_all_forms(lexicon.candidates(vocab, ruleset, args.word), ruleset)
    analyses = lexicon.recognize(index, args.word)
    if not analyses:
        raise MorphologyError(f"unrecognized: {args.word}")
    for entry, code in analyses:
        print(f"{entry.lemma}\t{entry.pos}\t{code}")
    return 0


def _load_freq(path: str | None) -> analysis.FrequencyList:
    if path is None:
        raise InputError("stats {hapax,zipf} needs --freq")
    freq = analysis.load_frequency_list(path)
    for warning in freq.warnings:
        print(warning, file=sys.stderr)
    return freq


def cmd_coverage(args) -> int:
    vocab = _load_vocab(args)
    freq = _load_freq(args.freq)
    if args.mode == "lemmas":
        keys = vocab.lemma_set
    else:
        keys = lexicon.surface_forms(vocab, _load_rules(args))
    report = analysis.coverage(freq, keys, fold=args.fold)
    unmatched = ", ".join(f"{lex} ({count})" for lex, count in report.unmatched_top)
    _report(args, [
        ("mode", args.mode),
        ("matched_types", str(report.matched_types)),
        ("total_types", str(report.total_types)),
        ("type_coverage", f"{report.type_coverage:.4f}"),
        ("matched_tokens", str(report.matched_tokens)),
        ("total_tokens", str(report.total_tokens)),
        ("token_coverage", f"{report.token_coverage:.4f}"),
        ("top_unmatched", unmatched),
    ])
    return 0


def cmd_stats(args) -> int:
    if args.which == "plural-an":
        vocab = _load_vocab(args)
        nouns = [e for e in vocab if e.pos == svf.NOUN]
        broad = analysis.count_suffix_pattern(nouns, "np", "an", min_extra=2)
        short = analysis.count_suffix_pattern(nouns, "np", "an", min_extra=2, exact=True)
        _report(args, [
            ("nouns", str(len(nouns))),
            ("plural_in_an", str(broad)),
            ("short_suffix", str(short)),
        ])
        return 0
    if args.which == "vn-endings":
        vocab = _load_vocab(args)
        histogram = analysis.ending_histogram(
            vocab.entries, "vn", suffix_len=3, min_growth=3
        )
        if args.format == "tsv":
            for ending, count in histogram.buckets.items():
                print(f"{ending}\t{count}")
        else:
            rows = [[e, str(c)] for e, c in histogram.buckets.items()]
            print(export.render_table(["Ending", "Freq"], rows, framed=True), end="")
        return 0
    if args.which == "dedup":
        vocab = _load_vocab(args)
        case_pairs, accent_pairs = analysis.find_near_duplicates(vocab.entries)
        print(f"case pairs\t{len(case_pairs)}")
        for a, b in case_pairs:
            print(f"case\t{a.lemma}\t{b.lemma}")
        print(f"accent pairs\t{len(accent_pairs)}")
        for a, b in accent_pairs:
            print(f"accent\t{a.lemma}\t{b.lemma}")
        return 0
    if args.which == "hapax":
        freq = _load_freq(args.freq)
        count, lexemes = analysis.hapax_report(freq)
        print(f"hapax\t{count}")
        for lexeme in lexemes:
            print(lexeme)
        return 0
    # zipf
    freq = _load_freq(args.freq)
    for rank, ratio in analysis.cumulative_coverage_curve(freq, args.k):
        print(f"{rank}\t{ratio:.4f}")
    return 0


def cmd_export(args) -> int:
    if args.kind == "ddl":
        _write_out(args.out, export.emit_ddl(dialect=args.dialect))
        return 0
    vocab, errors = _read_vocab(args)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        raise InputError("vocabulary has syntax errors; fix before exporting", args.vocab)
    _write_out(args.out, export.emit_inserts(vocab.entries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdmorph",
        description="Rule-based morphology tools for Scottish Gaelic",
    )
    parser.add_argument("--vocab", help="vocabulary file (SVF)")
    parser.add_argument("--rules", help=f"rule file (default: bundled, or ${ENV_RULES})")
    parser.add_argument(
        "--fold",
        choices=list(lexicon.FOLD_POLICIES),
        default=orthography.FOLD_ACCENTS,
        help="lemma matching policy",
    )
    parser.add_argument("--format", choices=["table", "tsv"], default="table")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("validate", help="check a vocabulary file")

    sub = commands.add_parser("inflect", help="one grammatical form of a word")
    sub.add_argument("lemma")
    sub.add_argument("form")

    sub = commands.add_parser("decline", help="full noun paradigm")
    sub.add_argument("lemma")

    sub = commands.add_parser("conjugate", help="full verb paradigm")
    sub.add_argument("lemma")

    sub = commands.add_parser("expand", help="write all derivable surface forms")
    sub.add_argument("-o", "--out", help="output file (default stdout)")

    sub = commands.add_parser("recognize", help="analyses of a surface form")
    sub.add_argument("word")

    sub = commands.add_parser("coverage", help="frequency list coverage")
    sub.add_argument("freq", help="frequency list file")
    sub.add_argument("--mode", choices=["lemmas", "allforms"], default="lemmas")

    sub = commands.add_parser("stats", help="pattern statistics")
    sub.add_argument(
        "which", choices=["plural-an", "vn-endings", "dedup", "hapax", "zipf"]
    )
    sub.add_argument("--freq", help="frequency list (hapax, zipf)")
    sub.add_argument("--k", type=int, default=15, help="ranks for zipf curve")

    sub = commands.add_parser("export", help="SQL scripts")
    sub.add_argument("kind", choices=["ddl", "inserts"])
    sub.add_argument("-o", "--out", help="output file (default stdout)")
    sub.add_argument("--dialect", choices=[export.MYSQL, export.PORTABLE],
                     default=export.MYSQL)

    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "inflect": cmd_inflect,
    "decline": lambda args: _paradigms(args, svf.NOUN, rules.decline, export.NOUN_TABLE),
    "conjugate": lambda args: _paradigms(args, svf.VERB, rules.conjugate, export.VERB_TABLE),
    "expand": cmd_expand,
    "recognize": cmd_recognize,
    "coverage": cmd_coverage,
    "stats": cmd_stats,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # InputError first: a rule file's RuleSyntaxError is a MorphologyError too
    try:
        return _COMMANDS[args.command](args)
    except InputError as error:
        print(error, file=sys.stderr)
        return 2
    except MorphologyError as error:
        print(error, file=sys.stderr)
        return 1


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader of stdout went away (gdmorph expand | head): an I/O
        # error; stdout goes to devnull so that the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    run()
