"""Corpus analytics over vocabularies and ranked word lists.

Covers the recognition experiments: loading a lexeme frequency list,
measuring how much of it a lemma set or an all-forms set can match,
cumulative (Zipf-style) text coverage, suffix pattern counts, ending
histograms, and near-duplicate detection between entries that differ
only by case or by an accent.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from typing import NamedTuple

from . import orthography
from .orthography import EXACT, fold_key
from .svf import PART_FIELDS, Entry


class FormatError(ValueError):
    """Frequency list file with no parsable rows."""


class RangeError(ValueError):
    """A requested rank beyond the end of the list."""


class TokenTotalError(ValueError):
    """A frequency list whose counts do not add up to a positive total."""


class FrequencyList:
    """Ranked (rank, lexeme, count) rows from a corpus word list."""

    def __init__(self, rows: list[tuple[int, str, int]], warnings: Sequence[str] = ()):
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
    tab or comma, sniffed from the first data line.  An optional header
    row is skipped; malformed rows, ranks out of order and counts above
    the previous row's are reported as warnings that name their line,
    not as errors.  Lexemes are kept as found, dirty or not.
    """
    rows: list[tuple[int, str, int]] = []
    warnings: list[str] = []
    delimiter = None
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").strip()
            if not line or line.startswith("#"):
                continue
            if delimiter is None:
                delimiter = "\t" if "\t" in line else ","
            cells = [cell.strip() for cell in line.split(delimiter)]
            parsed = _parse_row(cells, len(rows) + 1)
            if parsed is None:
                if number == 1:
                    continue  # header row
                warnings.append(f"line {number}: unparsable row {line!r}")
                continue
            if rows:
                rank, _, count = parsed
                last_rank, _, last_count = rows[-1]
                if rank <= last_rank:
                    warnings.append(
                        f"line {number}: rank {rank} out of order after rank {last_rank}"
                    )
                if count > last_count:
                    warnings.append(
                        f"line {number}: count {count} at rank {rank} exceeds the previous rank"
                    )
            rows.append(parsed)
    if not rows:
        raise FormatError(f"no parsable rows in {path}")
    return FrequencyList(rows=rows, warnings=warnings)


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
    folded_keys = {fold_key(key, fold) for key in lexicon_keys}
    matched_types = 0
    matched_tokens = 0
    unmatched: list[tuple[str, int]] = []
    for _, lexeme, count in freq.rows:
        if fold_key(lexeme, fold) in folded_keys:
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
    points = []
    running = 0
    for position in range(k):
        running += freq.rows[position][2]
        points.append((position + 1, running / total))
    return points


def _selected_part(entry: Entry, part_field: str):
    if part_field not in PART_FIELDS:
        raise ValueError(f"unknown principal part selector: {part_field!r}")
    return getattr(entry, part_field)


class EndingHistogram(NamedTuple):
    """Counts of final letter sequences over a filtered set of parts."""

    buckets: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.buckets.values())


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
    counts: dict[str, int] = {}
    for entry in entries:
        value = _selected_part(entry, part_field)
        if value is None or not value.is_present:
            continue
        if len(value.text) - len(entry.lemma) < min_growth:
            continue
        ending = value.text[-suffix_len:]
        counts[ending] = counts.get(ending, 0) + 1
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
    total = 0
    for entry in entries:
        value = _selected_part(entry, part_field)
        if value is None or not value.is_present:
            continue
        growth = len(value.text) - len(entry.lemma)
        if exact and growth != min_extra:
            continue
        if not exact and growth < min_extra:
            continue
        if value.text.endswith(pattern):
            total += 1
    return total


def find_near_duplicates(
    entries,
) -> tuple[list[tuple[Entry, Entry]], list[tuple[Entry, Entry]]]:
    """Pairs of entries whose lemmas differ only by case, and pairs
    that differ only by an accent.

    Case pairs: equal after case folding but not before.  Accent pairs:
    equal after accent stripping but not before, and not already a case
    pair (a pair differing in both case and accents is neither).  Each
    unordered pair is reported once, in input order.
    """
    ordered = list(entries)
    by_casefold: dict[str, list[int]] = {}
    by_stripped: dict[str, list[int]] = {}
    for position, entry in enumerate(ordered):
        by_casefold.setdefault(entry.lemma.casefold(), []).append(position)
        stripped = orthography.normalize_accents(entry.lemma, orthography.STRIP_ALL)
        by_stripped.setdefault(stripped, []).append(position)

    case_pairs = []
    accent_pairs = []
    for group in by_casefold.values():
        for i, j in combinations(group, 2):
            if ordered[i].lemma != ordered[j].lemma:
                case_pairs.append((ordered[i], ordered[j]))
    for group in by_stripped.values():
        for i, j in combinations(group, 2):
            a, b = ordered[i].lemma, ordered[j].lemma
            if a != b and a.casefold() != b.casefold():
                accent_pairs.append((ordered[i], ordered[j]))
    return case_pairs, accent_pairs


def hapax_report(freq: FrequencyList) -> tuple[int, list[str]]:
    """Lexemes occurring exactly once in the list."""
    singles = [lexeme for _, lexeme, count in freq.rows if count == 1]
    return len(singles), singles
