"""Command-line front end: gdmorph <command> over a vocabulary file.

Exit codes: 0 success, 1 domain error (word not found, unsupported
irregular, underivable form), 2 I/O or syntax error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import analysis, export, lexicon, orthography, rules, svf

ENV_RULES = "GDMORPH_RULES"

_ACCENT_MODES = (orthography.FOLD_ACUTE_TO_GRAVE, orthography.STRIP_ALL, orthography.NO_FOLD)


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _not_utf8(path: str) -> str:
    """Name the file and its first line that is not UTF-8; read only
    after a load has failed to decode it."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"{path}: line {number}: not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8"


def _read(kind: str, load, path):
    """load(path); a file that cannot be read or decoded exits 2."""
    try:
        return load(path)
    except OSError as exc:
        raise _Fail(2, f"cannot read {kind}: {exc}")
    except UnicodeDecodeError:
        raise _Fail(2, f"cannot read {kind}: {_not_utf8(path)}")


def _load_vocab(args):
    if not args.vocab:
        raise _Fail(2, "this command needs --vocab")
    load = partial(lexicon.Vocabulary.from_svf_file, fold_policy=args.fold)
    return _read("vocabulary", load, args.vocab)


def _load_rules(args) -> rules.RuleSet:
    path = args.rules or os.environ.get(ENV_RULES) or rules.BUNDLED_RULES
    try:
        return _read("rules", rules.load_rules, path)
    except rules.RuleError as exc:
        raise _Fail(2, f"bad rule file: {exc}")


def _query_word(args, word: str) -> str:
    return orthography.normalize_accents(orthography.canonical(word), args.accent_mode)


def _write_out(path: str | None, text: str) -> None:
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Fail(2, f"cannot write {path}: {exc}")


def _report(args, pairs: list[tuple[str, str]]) -> None:
    if args.format == "tsv":
        for key, value in pairs:
            print(f"{key}\t{value}")
        return
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def cmd_validate(args) -> int:
    vocab, errors = _load_vocab(args)
    for number, error in errors:
        print(f"line {number}: {error}")
    totals: dict[str, int] = {}
    irregular = 0
    unknown: dict[str, int] = {}
    non_existent: dict[str, int] = {}
    nouns_incomplete = 0
    for entry in vocab:
        totals[entry.pos] = totals.get(entry.pos, 0) + 1
        irregular += entry.irregular
        incomplete = False
        for name in svf.PART_FIELDS:
            value = getattr(entry, name)
            if value is None:
                continue
            if value.is_unknown:
                unknown[name] = unknown.get(name, 0) + 1
                incomplete = True
            elif value.is_non_existent:
                non_existent[name] = non_existent.get(name, 0) + 1
        if entry.pos == svf.NOUN and incomplete:
            nouns_incomplete += 1
    pairs = [("violations", str(len(errors)))]
    for pos in svf.PARTS_OF_SPEECH:
        pairs.append((pos.lower() + "s", str(totals.get(pos, 0))))
    pairs.append(("irregular", str(irregular)))
    for name in svf.PART_FIELDS:
        pairs.append((
            f"{name} unknown/non-existent",
            f"{unknown.get(name, 0)}/{non_existent.get(name, 0)}",
        ))
    noun_total = totals.get(svf.NOUN, 0)
    if noun_total:
        share = 100.0 * nouns_incomplete / noun_total
        pairs.append((
            "nouns with unknown part",
            f"{nouns_incomplete} ({share:.1f}%)",
        ))
    _report(args, pairs)
    return 0 if not errors else 2


def _entries_for(args, vocab: lexicon.Vocabulary, lemma: str):
    found = vocab.lookup(_query_word(args, lemma))
    if not found:
        raise _Fail(1, f"not found: {lemma}")
    return found


def cmd_inflect(args) -> int:
    vocab, _ = _load_vocab(args)
    ruleset = _load_rules(args)
    form = args.form.upper()
    entries = _entries_for(args, vocab, args.lemma)
    printed = False
    for entry in entries:
        if form not in rules.FORMS_BY_POS.get(entry.pos, ()):
            continue
        variants = rules.inflect(entry, form, ruleset)
        print(" ".join(variants) if variants else export.MISSING_CELL)
        printed = True
    if not printed:
        raise _Fail(1, f"{form} is not a valid form for {args.lemma}")
    return 0


def _paradigms(args, pos: str, paradigm_of, layout: str) -> int:
    vocab, _ = _load_vocab(args)
    ruleset = _load_rules(args)
    entries = [e for e in _entries_for(args, vocab, args.lemma) if e.pos == pos]
    if not entries:
        raise _Fail(1, f"no {pos.lower()} entry for {args.lemma}")
    style = export.DELIMITED if args.format == "tsv" else export.ASCII
    for entry in entries:
        paradigm = paradigm_of(entry, ruleset)
        print(export.render_paradigm(entry.lemma, paradigm.cells, layout, style=style), end="")
        for code, message in sorted(paradigm.errors.items()):
            print(f"{code}: {message}", file=sys.stderr)
    return 0


def cmd_expand(args) -> int:
    vocab, _ = _load_vocab(args)
    ruleset = _load_rules(args)
    forms = sorted(lexicon.surface_forms(vocab, ruleset))
    text = "".join(form + "\n" for form in forms)
    _write_out(args.out, text)
    if args.out and args.out != "-":
        print(f"{len(forms)} forms from {len(vocab)} entries")
    return 0


def cmd_recognize(args) -> int:
    vocab, _ = _load_vocab(args)
    ruleset = _load_rules(args)
    word = _query_word(args, args.word)
    # the word's candidate entries give it the analyses the whole vocabulary would
    entries = lexicon.candidates(vocab, ruleset, word)
    index = lexicon.build_all_forms(lexicon.Vocabulary(entries, fold_policy=args.fold), ruleset)
    analyses = lexicon.recognize(index, word)
    if not analyses:
        raise _Fail(1, f"unrecognized: {args.word}")
    for entry, code in analyses:
        print(f"{entry.lemma}\t{entry.pos}\t{code}")
    return 0


def _load_freq(path: str | None) -> analysis.FrequencyList:
    if path is None:
        raise _Fail(2, "stats {hapax,zipf} needs --freq")
    try:
        freq = _read("frequency list", analysis.load_frequency_list, path)
    except analysis.FormatError as exc:
        raise _Fail(2, str(exc))
    for warning in freq.warnings:
        print(f"{path}: {warning}", file=sys.stderr)
    return freq


def cmd_coverage(args) -> int:
    vocab, _ = _load_vocab(args)
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
        vocab, _ = _load_vocab(args)
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
        vocab, _ = _load_vocab(args)
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
        vocab, _ = _load_vocab(args)
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
    try:
        points = analysis.cumulative_coverage_curve(freq, args.k)
    except (analysis.RangeError, analysis.TokenTotalError) as exc:
        raise _Fail(2, str(exc))
    for rank, ratio in points:
        print(f"{rank}\t{ratio:.4f}")
    return 0


def cmd_export(args) -> int:
    if args.kind == "ddl":
        _write_out(args.out, export.emit_ddl(dialect=args.dialect))
        return 0
    vocab, errors = _load_vocab(args)
    if errors:
        for number, error in errors:
            print(f"line {number}: {error}", file=sys.stderr)
        raise _Fail(2, "vocabulary has syntax errors; fix before exporting")
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
    parser.add_argument(
        "--accent-mode",
        choices=list(_ACCENT_MODES),
        default="none",
        help="accent normalization applied to query words",
    )
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
    try:
        return _COMMANDS[args.command](args)
    except _Fail as failure:
        print(str(failure), file=sys.stderr)
        return failure.code
    except orthography.MorphologyError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
