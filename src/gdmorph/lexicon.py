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
from .orthography import EXACT
from .rules import RuleSet
from .svf import Entry

FOLD_POLICIES = tuple(orthography.FOLDS)


class Vocabulary:
    """An ordered collection of entries indexed by folded lemma."""

    def __init__(self, entries, fold_policy: str = EXACT):
        self._fold = orthography.fold_function(fold_policy)
        self.entries: list[Entry] = list(entries)
        self.fold_policy = fold_policy

    @cached_property
    def _index(self) -> dict[str, list[Entry]]:
        """Folded lemma -> entries, built on the first lookup."""
        index: dict[str, list[Entry]] = {}
        for entry in self.entries:
            index.setdefault(self._fold(entry.lemma), []).append(entry)
        return index

    @classmethod
    def from_svf_file(cls, path, fold_policy: str = EXACT):
        """Load a vocabulary file; returns (vocabulary, line SvfErrors)."""
        entries, errors = svf.load_vocabulary_file(path)
        return cls(entries, fold_policy=fold_policy), errors

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def lookup(self, word: str) -> list[Entry]:
        """All entries whose lemma equals the word under the policy."""
        key = self._fold(orthography.canonical(word))
        return list(self._index.get(key, []))

    @property
    def lemma_set(self) -> set[str]:
        return {entry.lemma for entry in self.entries}


class AllFormsIndex:
    """Surface form -> its (entry, form code) analyses in recognize
    order, over a whole vocabulary.  Every key is canonical text
    (orthography.canonical leaves it unchanged), so recognize can probe
    with a word as written before canonicalizing it.

    An index is read-only once built: the folded spellings and the
    resolved words that recognize fills in as it is used are never
    brought up to date with a later change to form_index."""

    def __init__(self, fold_policy: str = EXACT):
        self._fold = orthography.fold_function(fold_policy)
        self.fold_policy = fold_policy
        self.form_index: dict[str, rules.Analyses] = {}
        self.failures: list[tuple[str, str, str]] = []
        # a word as written that is not a surface -> what recognize found
        # for it, () for a miss; never more entries than form_index has
        self._resolved: dict[str, rules.Analyses] = {}

    @cached_property
    def _folded(self) -> dict[str, rules.Analyses]:
        """Folded key -> the analyses of all its spellings, merged in
        recognize order, built on the first folded lookup.  A key with
        one spelling shares that spelling's analyses."""
        folded: dict[str, rules.Analyses] = {}
        for surface, analyses in self.form_index.items():
            key = self._fold(surface)
            known = folded.get(key)
            folded[key] = analyses if known is None else _merge(known, analyses)
        return folded

    @property
    def distinct_form_count(self) -> int:
        return len(self.form_index)

    def forms(self) -> set[str]:
        return set(self.form_index)


@orthography._collector_paused
def build_all_forms(vocabulary: Vocabulary, ruleset: RuleSet) -> AllFormsIndex:
    """Expand every entry to its surface forms and index them.

    Expansion is best effort; forms that cannot be derived (unknown
    principal parts, uncovered irregulars) are recorded as failures
    rather than aborting the build.  derive_forms gives each surface's
    analyses in paradigm order, stored as they come; homographs are
    merged here, once, so recognize only reads them.
    """
    index = AllFormsIndex(fold_policy=vocabulary.fold_policy)
    form_index = index.form_index
    for entry in vocabulary:
        forms, failures = rules.derive_forms(entry, ruleset)
        for code, error in failures.items():
            index.failures.append((entry.lemma, code, str(error)))
        for surface, analyses in forms.items():
            known = form_index.get(surface)
            # a homograph, or the same record given twice
            form_index[surface] = analyses if known is None else _merge(known, analyses)
    return index


def surface_forms(vocabulary: Vocabulary, ruleset: RuleSet) -> set[str]:
    """Every surface form of the vocabulary: the spellings that
    build_all_forms indexes, without their analyses."""
    forms: set[str] = set()
    for entry in vocabulary:
        forms.update(rules.derive_forms(entry, ruleset)[0])
    return forms


def candidates(vocabulary: Vocabulary, ruleset: RuleSet, word: str) -> Vocabulary:
    """The entries, in vocabulary order, that could have a surface form
    equal to the word, with or without its prothetic prefix, under the
    vocabulary's fold policy, which the returned vocabulary keeps.  An
    index built over it alone gives recognize the same analyses of the
    word as the whole vocabulary's.

    Every surface is the lemma or a principal part with a suffix
    alternant attached, then transformed, or the lenited allomorph of
    such a form.  The folded word is closed under the inverses of the
    transforms (ruleset.inverses, declared beside rules._TRANSFORMS).
    A suffix only appends (a vowel doubled at the boundary is written
    once, so the part is still whole), and folding maps each character
    on its own, so the folded text of the part a surface came from is a
    prefix of one of the results.  A rule set using a transform with no
    inverse gives every entry.
    """
    policy = vocabulary.fold_policy
    if ruleset.inverses is None:
        return Vocabulary(vocabulary.entries, fold_policy=policy)
    fold = vocabulary._fold
    query = orthography.canonical(word)
    stems: set[str] = set()
    todo = [fold(query), fold(orthography.strip_prothesis(query))]
    while todo:
        stem = todo.pop()
        if stem not in stems:
            stems.add(stem)
            todo += [inverse(stem) for inverse in ruleset.inverses]
    prefixes = {stem[:end] for stem in stems for end in range(1, len(stem) + 1)}
    found = []
    for entry in vocabulary:
        texts = [entry.lemma]
        for name in svf.PART_FIELDS:
            value = getattr(entry, name)
            if value is not None and value.is_present:
                texts.append(value.text)
        if any(fold(text) in prefixes for text in texts):
            found.append(entry)
    return Vocabulary(found, fold_policy=policy)


def recognize(index: AllFormsIndex, word: str) -> rules.Analyses:
    """All (entry, form code) analyses of a word found in text.

    Tries the word as written, then its canonical spelling, then that
    spelling with accents folded according to the index policy, and
    last the same with prothetic t-/n-/h-/dh' stripped.  The first
    probe gives the answers of the second only because every surface of
    the index is canonical (orthography.canonical leaves it unchanged),
    as the SVF loader and the rule parser guarantee; an Entry built by
    hand must hold canonical text too.  A word that misses as written
    is resolved once per index, and later calls read what was found, so
    the index must not change once built.  The result is naturally
    many-valued: one spelling can realize several forms.  It is the
    tuple the index stores, immutable and shared by every call that
    finds it, () when there is no analysis.
    """
    hits = index.form_index.get(word)
    if hits is None:
        resolved = index._resolved
        hits = resolved.get(word)
        if hits is None:
            hits = _resolve(index, word)
            if len(resolved) < len(index.form_index):
                resolved[word] = hits
    return hits


def _resolve(index: AllFormsIndex, word: str) -> rules.Analyses:
    """The analyses recognize gives a word that is not a surface as
    written, () when there are none."""
    query = orthography.canonical(word)
    # the word as written has just missed
    hits = index.form_index.get(query) if query != word else None
    fold = None if index.fold_policy == EXACT else index._fold
    if hits is None and fold is not None:
        hits = index._folded.get(fold(query))
    if not hits:
        stripped = orthography.strip_prothesis(query)
        if stripped is query:
            return ()
        hits = index.form_index.get(stripped)
        if hits is None and fold is not None:
            hits = index._folded.get(fold(stripped))
    return hits or ()


# part of speech -> form code -> position in the paradigm, LEMMA last
_RANKS = {
    pos: {code: rank for rank, code in enumerate((*codes, rules.LEMMA))}
    for pos, codes in rules.FORMS_BY_POS.items()
}


def _analysis_order(analysis: tuple[Entry, str]) -> tuple:
    """Lemma, part of speech, paradigm order, code, then the SVF record,
    so homographs come out in one order whatever the string hash seed."""
    entry, code = analysis
    ranks = _RANKS.get(entry.pos, {})
    rank = ranks.get(code, len(ranks))
    return (entry.lemma, entry.pos, rank, code, entry)


def _merge(known, analyses) -> rules.Analyses:
    """Both collections of analyses as one tuple in recognize order."""
    return tuple(sorted(dict.fromkeys((*known, *analyses)), key=_analysis_order))
