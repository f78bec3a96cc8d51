"""Declarative inflection rules and their evaluator.

A rule file is a small knowledge base mapping grammatical forms to
transformed principal parts, so linguists can adjust the morphology
without touching code:

    # feminine nouns
    * NOUN & F
    NS: NS; NP: NP; GS: GS; GP: H/NP
    DS: NS; DP: NP; VS: H/GS; VP: H/NP

The "*" line selects entries (part of speech, optionally gender, IRREG,
or LEMMA="word" for special cases).  Each TARGET: expression pair
defines one grammatical form.  An expression names a principal part
(LEMMA, NS, NP, GS, VN, CP), optionally suffixed with a harmony pair
(LEMMA+"aidh|idh") and wrapped in transforms applied right to left:
H/ lenites, DH/ applies the past-tense dh' prefix, SL/ slenderizes.
Alternative surface forms for one target are separated by "|" between
expressions.  Rules are tried in file order and the first rule that
matches the entry and defines the requested form wins, so more specific
rules belong first.

A RuleSet is compiled, not re-matched for every form: the rules that
match one selector key (part of speech, gender, IRREG, and the lemma
when a LEMMA= rule names it) are resolved once into a plan (the
distinct principal parts read, the distinct steps, and the steps of
each form code), and every entry with that key runs it once.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import NamedTuple

from . import orthography, svf
from .orthography import MorphologyError, SuffixAlternation
from .svf import ADJ, NOUN, VERB, Entry

NOUN_FORMS = ("NS", "NP", "GS", "GP", "DS", "DP", "VS", "VP")
VERB_FORMS = (
    "VN",
    "PASTP",
    "PAST_IND",
    "PAST_DEP",
    "FUT_IND",
    "FUT_DEP",
    "RELFUT",
    "COND1S_IND",
    "COND1P_IND",
    "COND23_IND",
    "COND1S_DEP",
    "COND1P_DEP",
    "COND23_DEP",
    "PAST_PASS",
    "FUT_PASS",
    "COND_PASS",
    "RELFUT_PASS",
    "IMP_PASS",
    "IMP1S",
    "IMP2S",
    "IMP3S",
    "IMP1P",
    "IMP2P",
    "IMP3P",
)
ADJ_FORMS = ("POS_ADJ", "CP", "POS_LENITED")

FORMS_BY_POS = {NOUN: NOUN_FORMS, VERB: VERB_FORMS, ADJ: ADJ_FORMS}

LEMMA = "LEMMA"
_SOURCES_BY_POS = {
    NOUN: (LEMMA, "NP", "GS"),
    VERB: (LEMMA, "VN"),
    ADJ: (LEMMA, "CP"),
}

_TRANSFORMS = {
    "H": orthography.lenite,
    "DH": orthography.glottal_past_prefix,
    "SL": orthography.slenderize,
}

BUNDLED_RULES = os.path.join(os.path.dirname(__file__), "data", "rules.grl")


class RuleError(MorphologyError):
    """Base class for rule parsing and evaluation errors."""


class RuleSyntaxError(RuleError):
    """Malformed rule file (reported with a line number)."""


class UnknownFormCodeError(RuleError):
    """A form code that does not exist or is invalid for the entry."""


class TransformOnEmptySourceError(RuleSyntaxError):
    """A transform prefix with nothing to apply it to, e.g. "H/"."""


class NoRuleMatchesError(RuleError):
    """No rule in the set defines the requested form for the entry."""


class MissingPrincipalPartError(RuleError):
    """The derivation needs a principal part recorded as unknown."""


class IrregularUnsupportedError(RuleError):
    """Irregular entries inflect only through LEMMA= special-case rules."""


class Derivation(NamedTuple):
    """One way to realize a form: transforms over a (suffixed) source."""

    source: str
    suffix: SuffixAlternation | None = None
    transforms: tuple[str, ...] = ()


class Selection(NamedTuple):
    """The compiled rules for one selector key: a plan that each entry
    with the key runs once.

    The plan's values are numbered: first each distinct principal part
    it reads (sources), then one per step, a step applying one suffix or
    transform to an earlier value.  forms maps each form code to the
    values of its alternatives, from the first matching rule that
    defines it.  For a noun, allomorphs pairs the lemma and each such
    value with the value of its lenited allomorph, leaving out values
    that H/ gave (lenition is idempotent).  matched tells whether any
    rule matched at all.
    """

    matched: bool
    sources: tuple[str, ...]
    steps: tuple[tuple[int, Callable, SuffixAlternation | None], ...]
    forms: dict[str, tuple[int, ...]]
    allomorphs: tuple[tuple[int, int], ...]


class Matcher(NamedTuple):
    """Entry selector; every field that is set must match the entry."""

    pos: str
    gender: str | None = None
    irregular: bool | None = None
    lemma_is: str | None = None

    def matches(self, entry: Entry) -> bool:
        if entry.pos != self.pos:
            return False
        if self.gender is not None and entry.gender != self.gender:
            return False
        if self.irregular is not None and entry.irregular != self.irregular:
            return False
        if self.lemma_is is not None and entry.lemma != self.lemma_is:
            return False
        return True


class Rule(NamedTuple):
    matcher: Matcher
    derivations: dict[str, tuple[Derivation, ...]]


class RuleSet:
    """Ordered rules; first match wins, so specific rules come first.

    The rules are read as fixed once the set is made.  An entry's
    selector key is what a Matcher can test of it: part of speech,
    gender, IRREG, and the lemma only when some LEMMA= rule names it.
    Entries that share a key agree on every predicate, so the first one
    looked up is matched against the rules for all of them.
    """

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        self._named = frozenset(
            rule.matcher.lemma_is for rule in rules if rule.matcher.lemma_is
        )
        self._table: dict[tuple, Selection] = {}

    def select(self, entry: Entry) -> Selection:
        """The compiled rules for the entry's selector key."""
        lemma = entry.lemma if entry.lemma in self._named else None
        key = (entry.pos, entry.gender, entry.irregular, lemma)
        selection = self._table.get(key)
        if selection is None:
            selection = self._table[key] = _compile(self.rules, entry)
        return selection


def _compile(rules: list[Rule], entry: Entry) -> Selection:
    # irregular entries inflect only through LEMMA= special cases
    derivations: dict[str, tuple[Derivation, ...]] = {}
    matched = False
    for rule in rules:
        if entry.irregular and rule.matcher.lemma_is is None:
            continue
        if rule.matcher.matches(entry):
            matched = True
            for code, alternatives in rule.derivations.items():
                derivations.setdefault(code, alternatives)
    return _plan(entry.pos, matched, derivations)


def _plan(pos: str, matched: bool, derivations: dict) -> Selection:
    """Number the values the derivations need, each distinct one once,
    sources first, then steps in the order they are first needed."""
    codes = [code for code in FORMS_BY_POS.get(pos, ()) if code in derivations]
    sources = {LEMMA: 0}  # a noun's lemma has an allomorph even if no rule reads it
    for code in codes:
        for derivation in derivations[code]:
            sources.setdefault(derivation.source, len(sources))
    steps: dict[tuple, int] = {}

    def step(value: int, function: Callable, suffix=None) -> int:
        return steps.setdefault((value, function, suffix), len(sources) + len(steps))

    forms = {}
    for code in codes:
        ends = []
        for derivation in derivations[code]:
            value = sources[derivation.source]
            if derivation.suffix is not None:
                value = step(value, orthography.attach_suffix, derivation.suffix)
            for name in reversed(derivation.transforms):
                value = step(value, _TRANSFORMS[name])
            ends.append(value)
        forms[code] = tuple(ends)

    allomorphs = ()
    if pos == NOUN:
        lenited = {value for (_, function, _), value in steps.items() if function is orthography.lenite}
        # the lemma first, then each value that some form code ends in
        values = dict.fromkeys([sources[LEMMA], *(v for ends in forms.values() for v in ends)])
        allomorphs = tuple(
            (value, step(value, orthography.lenite)) for value in values if value not in lenited
        )
    # the allomorphs add steps, so the step tuple is taken last
    return Selection(matched, tuple(sources), tuple(steps), forms, allomorphs)


def _strip_comment(line: str) -> str:
    # "#" cannot occur inside a Gaelic word or a suffix pair, so a plain
    # cut at the first "#" is safe even within quotes
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_matcher(text: str, number: int) -> Matcher:
    pos = None
    gender = None
    irregular = None
    lemma_is = None
    for raw in text.split("&"):
        pred = raw.strip()
        if not pred:
            raise RuleSyntaxError(f"line {number}: empty predicate")
        upper = pred.upper()
        if upper in svf.PARTS_OF_SPEECH:
            if pos is not None:
                raise RuleSyntaxError(f"line {number}: duplicate part of speech")
            pos = upper
        elif upper in svf.GENDERS:
            if gender is not None:
                raise RuleSyntaxError(f"line {number}: more than one gender")
            gender = upper
        elif upper == "IRREG":
            irregular = True
        elif upper.partition("=")[0].strip() == "LEMMA":
            if lemma_is is not None:
                raise RuleSyntaxError(f"line {number}: more than one LEMMA")
            value = pred.partition("=")[2].strip()
            if not (len(value) > 2 and value[0] == '"' and value[-1] == '"'):
                raise RuleSyntaxError(f'line {number}: LEMMA needs a quoted word')
            lemma_is = orthography.canonical(value[1:-1])
        else:
            raise RuleSyntaxError(f"line {number}: unknown predicate {pred!r}")
    if pos is None:
        raise RuleSyntaxError(f"line {number}: rule needs NOUN, VERB or ADJ")
    if gender is not None and pos != NOUN:
        raise RuleSyntaxError(f"line {number}: only nouns have a gender, not {pos}")
    if irregular and lemma_is is None:
        raise RuleSyntaxError(
            f'line {number}: IRREG needs LEMMA="word"; irregular entries '
            "take only special-case rules"
        )
    return Matcher(pos=pos, gender=gender, irregular=irregular, lemma_is=lemma_is)


def _split_outside_quotes(text: str, separator: str) -> list[str]:
    parts = []
    current = []
    in_quotes = False
    for ch in text:
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
        elif ch == separator and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_expression(text: str, target: str, pos: str, number: int) -> Derivation:
    expr = text.strip()
    if not expr:
        raise RuleSyntaxError(f"line {number}: empty expression for {target}")

    suffix = None
    head, plus, quoted = expr.partition("+")
    if plus:
        pair = quoted.strip()
        if not (len(pair) >= 2 and pair[0] == '"' and pair[-1] == '"'):
            raise RuleSyntaxError(
                f"line {number}: suffix for {target} must be quoted"
            )
        halves = pair[1:-1].split("|")
        if len(halves) != 2 or not halves[0] or not halves[1]:
            raise RuleSyntaxError(
                f'line {number}: suffix must be a "broad|slender" pair'
            )
        suffix = SuffixAlternation(halves[0], halves[1])
        expr = head.strip()

    pieces = [p.strip() for p in expr.split("/")]
    transforms = tuple(p.upper() for p in pieces[:-1])
    source = pieces[-1].upper()
    if not source:
        raise TransformOnEmptySourceError(
            f"line {number}: transform with no source in {text.strip()!r}"
        )
    for transform in transforms:
        if transform not in _TRANSFORMS:
            raise RuleSyntaxError(f"line {number}: unknown transform {transform!r}")
    if source == "NS" and pos == NOUN:
        source = LEMMA
    if source not in _SOURCES_BY_POS[pos]:
        raise RuleSyntaxError(
            f"line {number}: source {source!r} is not available for {pos}"
        )
    return Derivation(source=source, suffix=suffix, transforms=transforms)


def parse_rules(text: str) -> RuleSet:
    """Parse a rule file; raises RuleSyntaxError with a line number."""
    rules: list[Rule] = []
    current: Rule | None = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("*"):
            current = Rule(matcher=_parse_matcher(line[1:], number), derivations={})
            rules.append(current)
            continue
        if current is None:
            raise RuleSyntaxError(f"line {number}: derivation before any * line")
        for chunk in _split_outside_quotes(line, ";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            target_text, colon, expr_text = chunk.partition(":")
            if not colon:
                raise RuleSyntaxError(f"line {number}: expected TARGET: expression")
            target = target_text.strip().upper()
            pos = current.matcher.pos
            if target not in FORMS_BY_POS[pos]:
                if any(target in forms for forms in FORMS_BY_POS.values()):
                    raise UnknownFormCodeError(
                        f"line {number}: {target} is not a {pos} form"
                    )
                raise UnknownFormCodeError(f"line {number}: unknown form {target!r}")
            if target in current.derivations:
                raise RuleSyntaxError(
                    f"line {number}: duplicate target {target} in one rule"
                )
            alternatives = tuple(
                _parse_expression(alt, target, pos, number)
                for alt in _split_outside_quotes(expr_text, "|")
            )
            current.derivations[target] = alternatives
    return RuleSet(rules)


def load_rules(path) -> RuleSet:
    with open(path, encoding="utf-8-sig") as handle:
        return parse_rules(handle.read())


def default_rules() -> RuleSet:
    """The rule set shipped with the package."""
    return load_rules(BUNDLED_RULES)


# a derivation failure: (exception type, message); the exception itself
# is not kept, so no traceback outlives the step that raised it
Failure = tuple[type, str]


def _resolve(entry: Entry, source: str) -> str | None | Failure:
    """Principal-part text; None when the part is marked non-existent."""
    if source == LEMMA:
        return entry.lemma
    value = getattr(entry, source.lower(), None)
    if value is None:
        return MissingPrincipalPartError, f"{entry.lemma}: entry has no {source} part"
    if value.is_present:
        return value.text
    if value.is_unknown:
        return MissingPrincipalPartError, f"{entry.lemma}: {source} is unknown"
    return None


def _run(entry: Entry, selection: Selection) -> tuple[list, bool]:
    """Every value of the entry's plan, each computed once, and whether
    any of them is a failure."""
    values = []
    failed = False
    for source in selection.sources:
        value = _resolve(entry, source)
        failed = failed or value.__class__ is tuple
        values.append(value)
    for value, step, suffix in selection.steps:
        base = values[value]
        if base is not None and base.__class__ is not tuple:
            try:
                base = step(base) if suffix is None else step(base, suffix)
            except MorphologyError as exc:
                base = exc.__class__, str(exc)
                failed = True
        values.append(base)
    return values, failed


def _failures(
    entry: Entry, selection: Selection, values: list, forms: tuple[str, ...]
) -> dict[str, Failure]:
    """The failure of each form code that cannot be derived: the first
    failed value among its alternatives, or no rule defining it."""
    failures = {}
    for form in forms:
        ends = selection.forms.get(form)
        if ends is None:
            if not entry.irregular:
                failures[form] = NoRuleMatchesError, f"no rule defines {form} for {entry.lemma}"
            else:
                rule = f"defines {form}" if selection.matched else "covers it"
                failures[form] = (
                    IrregularUnsupportedError,
                    f"{entry.lemma} is irregular and no special-case rule {rule}",
                )
            continue
        for end in ends:
            if values[end].__class__ is tuple:
                failures[form] = values[end]
                break
    return failures


class Paradigm(NamedTuple):
    """Per-form results of declining or conjugating one entry."""

    cells: dict[str, list[str]]
    errors: dict[str, str]


def _paradigm(
    entry: Entry, ruleset: RuleSet, forms: tuple[str, ...]
) -> tuple[Paradigm, dict[str, Failure]]:
    """The variants of each form code that can be derived, and the
    failure of each one that cannot."""
    selection = ruleset.select(entry)
    values, _ = _run(entry, selection)
    failures = _failures(entry, selection, values, forms)
    paradigm = Paradigm(cells={}, errors={form: text for form, (_, text) in failures.items()})
    for form in forms:
        if form not in failures:
            variants = (values[end] for end in selection.forms[form])
            paradigm.cells[form] = list(dict.fromkeys(v for v in variants if v is not None))
    return paradigm, failures


def inflect(entry: Entry, form: str, ruleset: RuleSet) -> list[str]:
    """Surface forms for one grammatical form of the entry.

    A list, because a cell may hold alternative realizations; empty when
    the source principal part is marked non-existent.
    """
    if form not in FORMS_BY_POS.get(entry.pos, ()):
        raise UnknownFormCodeError(f"{form} is not a {entry.pos} form")
    paradigm, failures = _paradigm(entry, ruleset, (form,))
    if failures:
        error, message = failures[form]
        raise error(message)
    return paradigm.cells[form]


def decline(entry: Entry, ruleset: RuleSet) -> Paradigm:
    """All eight noun case/number cells; failures reported per cell."""
    if entry.pos != NOUN:
        raise ValueError(f"decline needs a noun, got {entry.pos}")
    return _paradigm(entry, ruleset, NOUN_FORMS)[0]


def conjugate(entry: Entry, ruleset: RuleSet) -> Paradigm:
    """Every verb form cell; failures reported per cell."""
    if entry.pos != VERB:
        raise ValueError(f"conjugate needs a verb, got {entry.pos}")
    if entry.irregular and not ruleset.select(entry).matched:
        raise IrregularUnsupportedError(
            f"{entry.lemma} is irregular and no special-case rule covers it"
        )
    return _paradigm(entry, ruleset, VERB_FORMS)[0]


def derive_forms(
    entry: Entry, ruleset: RuleSet
) -> tuple[dict[str, set[str]], dict[str, str]]:
    """Every producible surface form, mapped to the form codes it
    realizes, plus the per-code errors for forms that could not be
    derived.

    Best effort: the lemma is always included.  For nouns, the lenited
    allomorph of each form is added too (mo chat, mo shaoghal), tagged
    with the codes of the form it varies, unless that spelling is
    already a form in its own right.
    """
    selection = ruleset.select(entry)
    values, failed = _run(entry, selection)
    pos_forms = FORMS_BY_POS.get(entry.pos, ())
    failures = {}
    if failed or len(selection.forms) < len(pos_forms):
        failures = _failures(entry, selection, values, pos_forms)
    forms: dict[str, set[str]] = {}
    for code, ends in selection.forms.items():
        if code in failures:
            continue
        for end in ends:
            surface = values[end]
            if surface is not None:
                known = forms.get(surface)
                if known is None:
                    forms[surface] = {code}
                else:
                    known.add(code)
    if entry.lemma not in forms:
        forms[entry.lemma] = {LEMMA}
    for end, lenited in selection.allomorphs:
        surface, lenited = values[end], values[lenited]
        # a failed or non-existent value is no form, and has no allomorph
        if surface in forms and lenited != surface and lenited not in forms:
            forms[lenited] = set(forms[surface])
    return forms, {code: message for code, (_, message) in failures.items()}


def all_surface_forms(entry: Entry, ruleset: RuleSet) -> set[str]:
    """The distinct spellings under which the entry can appear in text."""
    return set(derive_forms(entry, ruleset)[0])
