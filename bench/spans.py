"""Spans recorded from outside gdmorph, by wrapping module attributes.

Each span keeps its name, start, end (perf_counter nanoseconds), the
index of the span that was open when it started, and a small tuple of
counts taken from the call's arguments and result.  gdmorph's modules
call each other through module attributes (lexicon calls
rules.derive_forms, rules calls its global inflect), so replacing the
attribute traces internal calls as well as the benchmark's own.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, counts]
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = clock()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """One span a line: index, parent, name, start, end, counts."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                extra = ",".join(map(str, counts)) if counts else ""
                out.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{extra}\n")


def read_spans(path) -> list[list]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            _, parent, name, start, end, extra = line.rstrip("\n").split("\t")
            counts = tuple(float(x) for x in extra.split(",")) if extra else None
            spans.append([name, int(start), int(end), int(parent), counts])
    return spans


def _targets():
    """(owner, attribute, span name, counts from (args, result))."""
    from gdmorph import analysis, export, lexicon, rules, svf

    return [
        (svf, "load_vocabulary_file", "svf.load",
         lambda a, r: (len(r[0]) + len(r[1]), len(r[1]))),
        (lexicon.Vocabulary, "__init__", "lexicon.vocabulary", None),
        (rules, "parse_rules", "rules.parse", None),
        (rules, "derive_forms", "rules.derive",
         lambda a, r: (len(rules.FORMS_BY_POS.get(a[0].pos, ())), len(r[1]))),
        (rules, "inflect", "rules.inflect", None),
        (lexicon, "build_all_forms", "lexicon.build",
         lambda a, r: (r.distinct_form_count, len(r.failures))),
        (lexicon, "recognize", "lexicon.recognize", lambda a, r: (len(r), int(bool(r)))),
        (analysis, "load_frequency_list", "analysis.load_freq", lambda a, r: (len(r),)),
        (analysis, "coverage", "analysis.coverage", lambda a, r: (r.total_types,)),
        (analysis, "count_suffix_pattern", "analysis.stats", None),
        (analysis, "ending_histogram", "analysis.stats", None),
        (analysis, "find_near_duplicates", "analysis.stats", None),
        (analysis, "hapax_report", "analysis.stats", None),
        (analysis, "cumulative_coverage_curve", "analysis.stats", None),
        (export, "emit_inserts", "export.emit_inserts", None),
        (export, "render_paradigm", "export.render_paradigm", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Replace each target attribute with a tracing wrapper, then restore."""
    saved = []
    try:
        for owner, attr, name, counts in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTotals:
    """Per span name: calls, busy and self nanoseconds, summed counts."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, list[float]] = {}

    def add(self, spans: list[list]) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, counts) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy_ns[name] = self.busy_ns.get(name, 0) + end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + end - start - child_ns[i]
            if counts:
                total = self.counts.setdefault(name, [0.0] * len(counts))
                for j, value in enumerate(counts):
                    total[j] += value

    def per_call_s(self, name: str, ns: dict | None = None) -> float:
        """Mean seconds per call, of busy time or of the given ns totals."""
        calls = self.calls.get(name, 0)
        return (ns or self.busy_ns).get(name, 0) / calls / 1e9 if calls else 0.0

    def count(self, name: str, j: int) -> float:
        return self.counts.get(name, [0.0] * (j + 1))[j]


def covered_ns(spans: list[list]) -> int:
    """Time covered by spans: the sum of every span's self time."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
