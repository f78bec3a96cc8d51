"""Searchable vocabulary and the all-forms recognition index.

A Vocabulary indexes entries by lemma under a folding policy (exact,
accent-insensitive, or accent- and case-insensitive), since real texts
mix mòr, mór and mor.  An AllFormsIndex expands every entry to its full
set of surface forms so that inflected words in running text can be
traced back to their lemma and grammatical form.  To answer one word,
an index over the word's candidate entries is enough.
"""

from __future__ import annotations

from functools import cached_property

from . import orthography, rules, svf
from .orthography import EXACT, FOLD_ACCENTS, FOLD_ACCENTS_CASE, fold_key
from .rules import RuleSet
from .svf import Entry

FOLD_POLICIES = (EXACT, FOLD_ACCENTS, FOLD_ACCENTS_CASE)


class Vocabulary:
    """An ordered collection of entries indexed by folded lemma."""

    def __init__(self, entries, fold_policy: str = EXACT):
        if fold_policy not in FOLD_POLICIES:
            raise ValueError(f"unknown fold policy: {fold_policy!r}")
        self.entries: list[Entry] = list(entries)
        self.fold_policy = fold_policy

    @cached_property
    def _index(self) -> dict[str, list[Entry]]:
        """Folded lemma -> entries, built on the first lookup."""
        index: dict[str, list[Entry]] = {}
        for entry in self.entries:
            key = fold_key(entry.lemma, self.fold_policy)
            index.setdefault(key, []).append(entry)
        return index

    @classmethod
    def from_svf_file(cls, path, fold_policy: str = EXACT):
        """Load a vocabulary file; returns (vocabulary, line errors)."""
        entries, errors = svf.load_vocabulary_file(path)
        return cls(entries, fold_policy=fold_policy), errors

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def lookup(self, word: str) -> list[Entry]:
        """All entries whose lemma equals the word under the policy."""
        key = fold_key(orthography.canonical(word), self.fold_policy)
        return list(self._index.get(key, []))

    @property
    def lemma_set(self) -> set[str]:
        return {entry.lemma for entry in self.entries}


class AllFormsIndex:
    """Surface form -> {(entry, form code)} over a whole vocabulary."""

    def __init__(self, fold_policy: str = EXACT):
        self.fold_policy = fold_policy
        self.form_index: dict[str, set[tuple[Entry, str]]] = {}
        self.failures: list[tuple[str, str, str]] = []

    @cached_property
    def _folded(self) -> dict[str, set[str]]:
        """Folded key -> surfaces, built on the first folded lookup."""
        folded: dict[str, set[str]] = {}
        for surface in self.form_index:
            folded.setdefault(fold_key(surface, self.fold_policy), set()).add(surface)
        return folded

    @property
    def forms_per_pos(self) -> dict[str, int]:
        """Distinct surface forms per part of speech; a spelling shared
        by two parts of speech counts under both."""
        counts: dict[str, int] = {}
        for analyses in self.form_index.values():
            for pos in {entry.pos for entry, _ in analyses}:
                counts[pos] = counts.get(pos, 0) + 1
        return counts

    @property
    def distinct_form_count(self) -> int:
        return len(self.form_index)

    def forms(self) -> set[str]:
        return set(self.form_index)


def build_all_forms(vocabulary: Vocabulary, ruleset: RuleSet) -> AllFormsIndex:
    """Expand every entry to its surface forms and index them.

    Expansion is best effort; forms that cannot be derived (unknown
    principal parts, uncovered irregulars) are recorded as failures
    rather than aborting the build.
    """
    index = AllFormsIndex(fold_policy=vocabulary.fold_policy)
    form_index = index.form_index
    for entry in vocabulary:
        forms, failures = rules.derive_forms(entry, ruleset)
        for code, message in failures.items():
            index.failures.append((entry.lemma, code, message))
        for surface, codes in forms.items():
            analyses = form_index.get(surface)
            if analyses is None:
                analyses = form_index[surface] = set()
            analyses.update([(entry, code) for code in codes])
    return index


def surface_forms(vocabulary: Vocabulary, ruleset: RuleSet) -> set[str]:
    """Every surface form of the vocabulary: the spellings that
    build_all_forms indexes, without their analyses."""
    forms: set[str] = set()
    for entry in vocabulary:
        forms.update(rules.derive_forms(entry, ruleset)[0])
    return forms


def candidates(vocabulary: Vocabulary, ruleset: RuleSet, word: str) -> list[Entry]:
    """The entries, in vocabulary order, that could have a surface form
    equal to the word, with or without its prothetic prefix, under the
    vocabulary's fold policy.  An index built over them alone gives
    recognize the same analyses of the word as the whole vocabulary's.

    Every surface is the lemma or a principal part with a suffix
    alternant attached, then lenited or given the dh' prefix, or the
    lenited allomorph of such a form.  Only those prefix steps are
    undone here, on the folded word and again on each result.  A suffix
    only appends (a vowel doubled at the boundary is written once, so
    the part is still whole), and folding maps each character on its
    own, so the folded text of the part a surface came from is a prefix
    of one of the results.  SL/ has no such inverse: a rule set that
    uses it gives every entry.
    """
    if any(
        "SL" in derivation.transforms
        for rule in ruleset.rules
        for alternatives in rule.derivations.values()
        for derivation in alternatives
    ):
        return list(vocabulary.entries)
    policy = vocabulary.fold_policy
    query = orthography.canonical(word)
    stems: set[str] = set()
    todo = [fold_key(query, policy), fold_key(orthography.strip_prothesis(query), policy)]
    while todo:
        stem = todo.pop()
        if stem in stems:
            continue
        stems.add(stem)
        if stem.startswith("dh'"):
            todo.append(stem[3:])
        if stem[1:2] in ("h", "H"):
            todo.append(stem[:1] + stem[2:])
    prefixes = {stem[:end] for stem in stems for end in range(1, len(stem) + 1)}
    found = []
    for entry in vocabulary:
        texts = [entry.lemma]
        for name in svf.PART_FIELDS:
            value = getattr(entry, name)
            if value is not None and value.is_present:
                texts.append(value.text)
        if any(fold_key(text, policy) in prefixes for text in texts):
            found.append(entry)
    return found


def _exact_or_folded(index: AllFormsIndex, word: str) -> set[tuple[Entry, str]]:
    if word in index.form_index:
        # the index's own set, not a copy: callers only read it
        return index.form_index[word]
    hits: set[tuple[Entry, str]] = set()
    if index.fold_policy != EXACT:
        for surface in index._folded.get(fold_key(word, index.fold_policy), ()):
            hits |= index.form_index[surface]
    return hits


def recognize(index: AllFormsIndex, word: str) -> list[tuple[Entry, str]]:
    """All (entry, form code) analyses of a word found in text.

    Tries the word as written, then with prothetic t-/n-/h-/dh'
    stripped, folding accents according to the index policy.  The result
    is naturally many-valued: one spelling can realize several forms.
    """
    query = orthography.canonical(word)
    hits = _exact_or_folded(index, query)
    if not hits:
        stripped = orthography.strip_prothesis(query)
        if stripped != query:
            hits = _exact_or_folded(index, stripped)
    if len(hits) < 2:
        return list(hits)
    return sorted(hits, key=_analysis_order)


# (part of speech, form code) -> position in the paradigm
_RANK = {
    (pos, code): rank
    for pos, codes in rules.FORMS_BY_POS.items()
    for rank, code in enumerate(codes)
}


def _analysis_order(analysis: tuple[Entry, str]) -> tuple:
    """Lemma, part of speech, paradigm order, code, then the SVF record,
    so homographs come out in one order whatever the string hash seed."""
    entry, code = analysis
    # codes outside the paradigm (LEMMA) sort after every code in it
    rank = _RANK.get((entry.pos, code), len(_RANK))
    return (entry.lemma, entry.pos, rank, code, entry)
