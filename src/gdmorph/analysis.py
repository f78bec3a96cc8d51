"""Corpus analytics over vocabularies and ranked word lists.

Covers the recognition experiments: loading a lexeme frequency list,
measuring how much of it a lemma set or an all-forms set can match,
cumulative (Zipf-style) text coverage, suffix pattern counts, ending
histograms, and near-duplicate detection between entries that differ
only by case or by an accent.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import accumulate, combinations
from typing import NamedTuple

from . import orthography
from .orthography import EXACT, InputError, fold_function
from .svf import PART_FIELDS, Entry


class FormatError(InputError):
    """Frequency list file with no parsable rows; its warnings, each an
    InputError naming its line as a FrequencyList's, say why."""

    warnings: Sequence[InputError] = ()


class RangeError(InputError):
    """A requested rank beyond the end of the list."""


class TokenTotalError(InputError):
    """A frequency list whose counts do not add up to a positive total."""


class FrequencyList:
    """Ranked (rank, lexeme, count) rows from a corpus word list, and
    the warnings its file gave, each an InputError naming its line."""

    def __init__(self, rows: list[tuple[int, str, int]], warnings: Sequence[InputError] = ()):
        self.rows = rows
        self.warnings = list(warnings)

    @property
    def total_tokens(self) -> int:
        return sum(count for _, _, count in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def load_frequency_list(path) -> FrequencyList:
    """Load a delimited rank/lexeme/count list (UTF-8, BOM or not).

    Accepts three-column rank,lexeme,count rows or two-column
    lexeme,count rows (ranks assigned by position).  The delimiter is
    tab or comma, sniffed from the first data line.  The first line that
    is not blank or a comment is a header row, and skipped, when none of
    its cells parses as an integer.  Other malformed rows and rows with
    a negative count are left out.  Each of them, each rank out of order
    and each count above the previous row's is returned as a warning, an
    InputError that carries the path and line, not raised.  A list left
    with no row raises FormatError, which carries those warnings.
    Lexemes are kept as found, dirty or not.
    """
    rows: list[tuple[int, str, int]] = []
    warnings: list[InputError] = []
    delimiter = None
    lines = enumerate(map(str.strip, orthography.read_text(path).split("\n")), start=1)
    records = ((number, line) for number, line in lines if line and not line.startswith("#"))
    for index, (number, line) in enumerate(records):
        if delimiter is None:
            delimiter = "\t" if "\t" in line else ","
        cells = [cell.strip() for cell in line.split(delimiter)]
        parsed = _parse_row(cells, len(rows) + 1)
        if parsed is None:
            if not rows:
                delimiter = None  # no data line has fixed it yet
            if index or any(map(_is_int, cells)):  # a header has no number
                warnings.append(InputError(f"unparsable row {line!r}", path, number))
            continue
        rank, _, count = parsed
        if count < 0:
            warnings.append(InputError(f"negative count {count}", path, number))
            continue
        if rows:
            last_rank, _, last_count = rows[-1]
            if rank <= last_rank:
                message = f"rank {rank} out of order after rank {last_rank}"
                warnings.append(InputError(message, path, number))
            if count > last_count:
                message = f"count {count} at rank {rank} exceeds the previous rank"
                warnings.append(InputError(message, path, number))
        rows.append(parsed)
    if not rows:
        refusal = FormatError("no parsable rows", path)
        refusal.warnings = warnings
        raise refusal
    return FrequencyList(rows=rows, warnings=warnings)


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _parse_row(cells: list[str], next_rank: int) -> tuple[int, str, int] | None:
    try:
        if len(cells) == 3:
            return int(cells[0]), orthography.canonical(cells[1]), int(cells[2])
        if len(cells) == 2:
            return next_rank, orthography.canonical(cells[0]), int(cells[1])
    except ValueError:
        return None
    return None


class CoverageReport(NamedTuple):
    """How much of a frequency list a key set accounts for."""

    matched_types: int
    total_types: int
    matched_tokens: int
    total_tokens: int
    unmatched_top: list[tuple[str, int]]

    @property
    def type_coverage(self) -> float:
        return self.matched_types / self.total_types if self.total_types else 0.0

    @property
    def token_coverage(self) -> float:
        return self.matched_tokens / self.total_tokens if self.total_tokens else 0.0


def coverage(freq: FrequencyList, lexicon_keys: set[str], fold: str = EXACT) -> CoverageReport:
    """Match each listed lexeme against the key set under folding.

    Pass a vocabulary's lemma set for lemma-only coverage, or an
    all-forms index's key set to count inflected matches as well.  The
    report keeps the ten most frequent lexemes left unmatched.
    """
    fold_word = fold_function(fold)
    folded_keys = {fold_word(key) for key in lexicon_keys}
    matched_types = 0
    matched_tokens = 0
    unmatched: list[tuple[str, int]] = []
    for _, lexeme, count in freq.rows:
        if fold_word(lexeme) in folded_keys:
            matched_types += 1
            matched_tokens += count
        else:
            unmatched.append((lexeme, count))
    unmatched.sort(key=lambda pair: -pair[1])
    return CoverageReport(
        matched_types=matched_types,
        total_types=len(freq.rows),
        matched_tokens=matched_tokens,
        total_tokens=freq.total_tokens,
        unmatched_top=unmatched[:10],
    )


def cumulative_coverage_curve(
    freq: FrequencyList, k: int
) -> list[tuple[int, float]]:
    """Cumulative token share of the first k ranks: the Zipf picture."""
    if k < 1 or k > len(freq.rows):
        raise RangeError(f"k={k} outside 1..{len(freq.rows)}")
    total = freq.total_tokens
    if total <= 0:
        raise TokenTotalError(f"token counts sum to {total}; shares need a positive total")
    counts = (count for _, _, count in freq.rows[:k])
    return [(rank, running / total) for rank, running in enumerate(accumulate(counts), 1)]


def _grown_parts(entries, part_field: str):
    """(text, growth) for each entry whose part_field part holds a word,
    growth being the word's length less the lemma's.  An unknown
    part_field raises ValueError at the first step, entries or none."""
    if part_field not in PART_FIELDS:
        raise ValueError(f"unknown principal part selector: {part_field!r}")
    for entry in entries:
        value = getattr(entry, part_field)
        if value is not None and value.is_present:
            yield value.text, len(value.text) - len(entry.lemma)


class EndingHistogram(NamedTuple):
    """Counts of final letter sequences over a filtered set of parts."""

    buckets: dict[str, int]


def ending_histogram(
    entries, part_field: str, suffix_len: int = 3, min_growth: int = 3
) -> EndingHistogram:
    """Bucket the last suffix_len characters of the selected part.

    Only entries whose part is present and at least min_growth
    characters longer than the lemma are counted, which keeps bare stems
    and suppletive short forms out of the ending picture.  Buckets come
    back sorted by count (descending), then alphabetically.
    """
    if suffix_len < 1:
        raise ValueError("suffix_len must be at least 1")
    counts = Counter(
        text[-suffix_len:]
        for text, growth in _grown_parts(entries, part_field)
        if growth >= min_growth
    )
    return EndingHistogram(dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))))


def count_suffix_pattern(
    entries,
    part_field: str,
    pattern: str,
    min_extra: int = 0,
    exact: bool = False,
) -> int:
    """Count entries whose selected part ends with the pattern and has
    grown from the lemma by at least (or, with exact, by precisely)
    min_extra characters."""
    return sum(
        text.endswith(pattern)
        for text, growth in _grown_parts(entries, part_field)
        if (growth == min_extra if exact else growth >= min_extra)
    )


def find_near_duplicates(
    entries,
) -> tuple[list[tuple[Entry, Entry]], list[tuple[Entry, Entry]]]:
    """Pairs of entries whose lemmas differ only by case, and pairs
    that differ only by an accent.

    Case pairs: equal after case folding but not before.  Accent pairs:
    equal after accent stripping but not before, and not already a case
    pair (a pair differing in both case and accents is neither).  Each
    unordered pair is reported once: groups in the order of their first
    entry, and pairs within a group in input order.
    """
    by_casefold: dict[str, list[Entry]] = {}
    by_stripped: dict[str, list[Entry]] = {}
    for entry in entries:
        by_casefold.setdefault(entry.lemma.casefold(), []).append(entry)
        by_stripped.setdefault(orthography.strip_accents(entry.lemma), []).append(entry)
    case_pairs = [
        (a, b) for group in by_casefold.values() for a, b in combinations(group, 2)
        if a.lemma != b.lemma
    ]
    accent_pairs = [
        (a, b) for group in by_stripped.values() for a, b in combinations(group, 2)
        if a.lemma != b.lemma and a.lemma.casefold() != b.lemma.casefold()
    ]
    return case_pairs, accent_pairs


def hapax_report(freq: FrequencyList) -> tuple[int, list[str]]:
    """Lexemes occurring exactly once in the list."""
    singles = [lexeme for _, lexeme, count in freq.rows if count == 1]
    return len(singles), singles
