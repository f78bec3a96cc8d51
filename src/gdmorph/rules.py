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
import re
from collections.abc import Callable
from typing import NamedTuple

from . import orthography, svf
from .orthography import InputError, MorphologyError, SuffixAlternation
from .svf import ADJ, NOUN, PRESENT, UNKNOWN, VERB, Entry

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
    pos: (LEMMA, *(field.upper() for field in fields if field in svf.PART_FIELDS))
    for pos, fields in svf.FIELDS_BY_POS.items()
}
# each source's position among an Entry's fields, where _run reads it
_FIELD_OF_SOURCE = {
    name.upper(): Entry._fields.index(name) for name in ("lemma", *svf.PART_FIELDS)
}

# each transform with its inverse on folded text, which undoes what the
# transform writes at the front of a word, for lexicon.candidates; DH's
# lenition is H's to undo, and SL, which changes a word inside, has none
_TRANSFORMS = {
    "H": (orthography.lenite, lambda text: text[:1] + text[2:] if text[1:2] in ("h", "H") else text),
    "DH": (orthography.glottal_past_prefix, lambda text: text[3:] if text.startswith("dh'") else text),
    "SL": (orthography.slenderize, None),
}

BUNDLED_RULES = os.path.join(os.path.dirname(__file__), "data", "rules.grl")


class RuleError(MorphologyError):
    """Base class for rule parsing and evaluation errors."""


class RuleSyntaxError(RuleError, InputError):
    """Malformed rule file; .line, and .path once loaded, say where."""


class UnknownFormCodeError(RuleSyntaxError):
    """A form code that does not exist or is invalid for the part of speech."""


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
    it reads (sources, each with its position among an Entry's fields),
    then one per step, a step applying one suffix or transform to an
    earlier value.  forms maps each form code, in paradigm order, to the
    values of its alternatives, from the first matching rule that
    defines it.  For a noun, allomorphs pairs the lemma and each such
    value with the value of its lenited allomorph, leaving out values
    that H/ gave (lenition is idempotent).  matched tells whether any
    rule matched at all.
    """

    matched: bool
    sources: tuple[tuple[str, int], ...]
    steps: tuple[tuple[int, Callable, SuffixAlternation | None], ...]
    forms: dict[str, tuple[int, ...]]
    allomorphs: tuple[tuple[int, int], ...]


class Rule(NamedTuple):
    """One "*" block: its selector, then the derivations of each form
    code it defines.  A selector field that is None matches any entry;
    every other field must equal the entry's."""

    pos: str
    gender: str | None
    irregular: bool | None
    lemma_is: str | None
    derivations: dict[str, tuple[Derivation, ...]]


class RuleSet:
    """Ordered rules; first match wins, so specific rules come first.

    The rules are read as fixed once the set is made.  An entry's
    selector key is what a rule's selector can test of it: part of
    speech, gender, IRREG, and the lemma only when some LEMMA= rule
    names it.  The key itself is matched against the rules, so every
    entry with it runs one plan.
    """

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        self._named = frozenset(rule.lemma_is for rule in rules if rule.lemma_is)
        self._table: dict[tuple, Selection] = {}
        # every inverse, as a noun's lenited allomorph needs no H/ in any
        # rule; None when a transform that the rules use has none
        used = {name for rule in rules for alternatives in rule.derivations.values()
                for derivation in alternatives for name in derivation.transforms}
        inverses = [inverse for name, (_, inverse) in _TRANSFORMS.items() if inverse or name in used]
        self.inverses = None if None in inverses else tuple(inverses)

    def select(self, entry: Entry) -> Selection:
        """The compiled rules for the entry's selector key."""
        lemma = entry.lemma if entry.lemma in self._named else None
        key = (entry.pos, entry.gender, entry.irregular, lemma)
        selection = self._table.get(key)
        if selection is None:
            selection = self._table[key] = _compile(self.rules, key)
        return selection


def _compile(rules: list[Rule], key: tuple) -> Selection:
    pos, _, irregular, _ = key
    derivations: dict[str, tuple[Derivation, ...]] = {}
    matched = False
    for rule in rules:
        # irregular entries inflect only through LEMMA= special cases
        if irregular and rule.lemma_is is None:
            continue
        if all(want is None or want == have for want, have in zip(rule[:4], key)):
            matched = True
            for code, alternatives in rule.derivations.items():
                derivations.setdefault(code, alternatives)
    return _plan(pos, matched, derivations)


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
                value = step(value, _TRANSFORMS[name][0])
            ends.append(value)
        forms[code] = tuple(ends)

    allomorphs = ()
    if pos == NOUN:
        lenite, _ = _TRANSFORMS["H"]
        lenited = {value for (_, function, _), value in steps.items() if function is lenite}
        # the lemma first, then each value that some form code ends in
        values = dict.fromkeys([sources[LEMMA], *(v for ends in forms.values() for v in ends)])
        allomorphs = tuple(
            (value, step(value, lenite)) for value in values if value not in lenited
        )
    # the allomorphs add steps, so the step tuple is taken last
    fields = tuple((source, _FIELD_OF_SOURCE[source]) for source in sources)
    return Selection(matched, fields, tuple(steps), forms, allomorphs)


def _strip_comment(line: str) -> str:
    # "#" cannot occur inside a Gaelic word or a suffix pair, so a plain
    # cut at the first "#" is safe even within quotes
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_matcher(text: str) -> Rule:
    pos = None
    gender = None
    irregular = None
    lemma_is = None
    for raw in text.split("&"):
        pred = raw.strip()
        if not pred:
            raise RuleSyntaxError("empty predicate")
        upper = pred.upper()
        if upper in svf.PARTS_OF_SPEECH:
            if pos is not None:
                raise RuleSyntaxError("duplicate part of speech")
            pos = upper
        elif upper in svf.GENDERS:
            if gender is not None:
                raise RuleSyntaxError("more than one gender")
            gender = upper
        elif upper == "IRREG":
            irregular = True
        elif upper.partition("=")[0].strip() == "LEMMA":
            if lemma_is is not None:
                raise RuleSyntaxError("more than one LEMMA")
            value = pred.partition("=")[2].strip()
            if not (len(value) > 2 and value[0] == '"' and value[-1] == '"'):
                raise RuleSyntaxError('LEMMA needs a quoted word')
            lemma_is = orthography.canonical(value[1:-1])
            if not orthography.is_gaelic_word(lemma_is):
                raise RuleSyntaxError(f"LEMMA {lemma_is!r} is not a Gaelic word")
        else:
            raise RuleSyntaxError(f"unknown predicate {pred!r}")
    if pos is None:
        raise RuleSyntaxError("rule needs NOUN, VERB or ADJ")
    if gender is not None and "gender" not in svf.FIELDS_BY_POS[pos]:
        raise RuleSyntaxError(f"only nouns have a gender, not {pos}")
    if irregular and lemma_is is None:
        raise RuleSyntaxError(
            'IRREG needs LEMMA="word"; irregular entries take only special-case rules'
        )
    return Rule(pos, gender, irregular, lemma_is, derivations={})


# a quoted stretch, to the end of the text if the quote is not closed,
# or a separator; finditer skips the separators inside quotes
_QUOTED_OR_SEPARATOR = {sep: re.compile(f'"[^"]*"?|{re.escape(sep)}') for sep in ";|"}


def _split_outside_quotes(text: str, separator: str) -> list[str]:
    parts, start = [], 0
    for match in _QUOTED_OR_SEPARATOR[separator].finditer(text):
        if match.group() == separator:
            parts.append(text[start : match.start()])
            start = match.end()
    return parts + [text[start:]]


def _parse_expression(text: str, target: str, pos: str) -> Derivation:
    expr = text.strip()
    if not expr:
        raise RuleSyntaxError(f"empty expression for {target}")

    suffix = None
    head, plus, quoted = expr.partition("+")
    if plus:
        pair = quoted.strip()
        if not (len(pair) >= 2 and pair[0] == '"' and pair[-1] == '"'):
            raise RuleSyntaxError(f"suffix for {target} must be quoted")
        halves = [orthography.canonical(half) for half in pair[1:-1].split("|")]
        if len(halves) != 2 or not halves[0] or not halves[1]:
            raise RuleSyntaxError('suffix must be a "broad|slender" pair')
        for half in halves:
            # a surface must be canonical Gaelic text for recognize to find it
            if not orthography.is_gaelic_word(half):
                raise RuleSyntaxError(f"suffix {half!r} is not a Gaelic word")
        suffix = SuffixAlternation(halves[0], halves[1])
        expr = head.strip()

    pieces = [p.strip() for p in expr.split("/")]
    transforms = tuple(p.upper() for p in pieces[:-1])
    source = pieces[-1].upper()
    if not source:
        raise TransformOnEmptySourceError(f"transform with no source in {text.strip()!r}")
    for transform in transforms:
        if transform not in _TRANSFORMS:
            raise RuleSyntaxError(f"unknown transform {transform!r}")
    if source == "NS" and pos == NOUN:
        source = LEMMA
    if source not in _SOURCES_BY_POS[pos]:
        raise RuleSyntaxError(f"source {source!r} is not available for {pos}")
    return Derivation(source=source, suffix=suffix, transforms=transforms)


def parse_rules(text: str) -> RuleSet:
    """Parse a rule file's text.  A RuleSyntaxError raised for a line
    carries its number as .line, so its str() begins "line N: ".  Lines
    end at CRLF, CR or LF only, as orthography.read_text reads them: a
    form feed or U+2028 in a comment ends no line."""
    rules: list[Rule] = []
    current: Rule | None = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    try:
        for number, raw in enumerate(lines, start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            if line.startswith("*"):
                current = _parse_matcher(line[1:])
                rules.append(current)
                continue
            if current is None:
                raise RuleSyntaxError("derivation before any * line")
            for chunk in _split_outside_quotes(line, ";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                target_text, colon, expr_text = chunk.partition(":")
                if not colon:
                    raise RuleSyntaxError("expected TARGET: expression")
                target = target_text.strip().upper()
                pos = current.pos
                if target not in FORMS_BY_POS[pos]:
                    if any(target in forms for forms in FORMS_BY_POS.values()):
                        raise UnknownFormCodeError(f"{target} is not a {pos} form")
                    raise UnknownFormCodeError(f"unknown form {target!r}")
                if target in current.derivations:
                    raise RuleSyntaxError(f"duplicate target {target} in one rule")
                alternatives = tuple(
                    _parse_expression(alt, target, pos)
                    for alt in _split_outside_quotes(expr_text, "|")
                )
                current.derivations[target] = alternatives
    except RuleSyntaxError as exc:
        exc.line = number
        raise
    return RuleSet(rules)


def load_rules(path) -> RuleSet:
    """Parse a rule file; a RuleSyntaxError carries its path too, and a
    file that cannot be read or is not UTF-8 raises InputError."""
    try:
        return parse_rules(orthography.read_text(path))
    except RuleSyntaxError as exc:
        exc.path = path
        raise


def default_rules() -> RuleSet:
    """The rule set shipped with the package."""
    return load_rules(BUNDLED_RULES)


def _run(entry: Entry, selection: Selection) -> tuple[list, dict[str, MorphologyError]]:
    """Every value of the entry's plan, each computed once, and the
    failure of each form code that cannot be derived, in paradigm order:
    the first failed value among its alternatives, or no rule defining
    it.  A source's value is the lemma or a part's text, None when the
    part is marked non-existent; a failed value is the MorphologyError
    that says why, kept without its traceback, which would hold frames."""
    values = []
    failed = False
    for source, field in selection.sources:
        value = entry[field]
        if value is None:
            value = MissingPrincipalPartError(f"{entry.lemma}: entry has no {source} part")
            failed = True
        elif value.__class__ is not str:
            state, text = value
            if state == PRESENT:
                value = text
            elif state == UNKNOWN.state:
                value = MissingPrincipalPartError(f"{entry.lemma}: {source} is unknown")
                failed = True
            else:
                value = None
        values.append(value)
    for value, step, suffix in selection.steps:
        base = values[value]
        if base.__class__ is str:
            try:
                base = step(base) if suffix is None else step(base, suffix)
            except MorphologyError as exc:
                base = exc.with_traceback(None)
                failed = True
        values.append(base)
    failures = {}
    codes = FORMS_BY_POS.get(entry.pos, ())
    if not failed and len(selection.forms) == len(codes):
        return values, failures
    for form in codes:
        ends = selection.forms.get(form)
        if ends is None:
            if not entry.irregular:
                failures[form] = NoRuleMatchesError(f"no rule defines {form} for {entry.lemma}")
            else:
                rule = f"defines {form}" if selection.matched else "covers it"
                failures[form] = IrregularUnsupportedError(
                    f"{entry.lemma} is irregular and no special-case rule {rule}"
                )
            continue
        for end in ends:
            if isinstance(values[end], MorphologyError):
                failures[form] = values[end]
                break
    return values, failures


class Paradigm(NamedTuple):
    """Per-form results of declining or conjugating one entry: each
    derivable code's variants, and each other code's MorphologyError."""

    cells: dict[str, list[str]]
    errors: dict[str, MorphologyError]


def _paradigm(entry: Entry, ruleset: RuleSet) -> Paradigm:
    """The entry's paradigm.  An irregular entry that no rule matches
    raises, since none of its codes can be derived."""
    selection = ruleset.select(entry)
    values, failures = _run(entry, selection)
    if entry.irregular and not selection.matched:
        # every code failed alike, as no special-case rule covers the
        # entry; each failure is its own object, so none stays held here
        raise failures.popitem()[1]
    paradigm = Paradigm(cells={}, errors=failures)
    for form, ends in selection.forms.items():
        if form not in failures:
            variants = (values[end] for end in ends)
            paradigm.cells[form] = list(dict.fromkeys(v for v in variants if v is not None))
    return paradigm


def inflect(entry: Entry, form: str, ruleset: RuleSet) -> list[str]:
    """Surface forms for one grammatical form of the entry.

    A list, because a cell may hold alternative realizations; empty when
    the source principal part is marked non-existent.
    """
    if form not in FORMS_BY_POS.get(entry.pos, ()):
        raise UnknownFormCodeError(f"{form} is not a {entry.pos} form")
    paradigm = _paradigm(entry, ruleset)
    if form in paradigm.errors:
        try:
            raise paradigm.errors[form]
        finally:
            del paradigm  # its traceback holds this frame: no cycle
    return paradigm.cells[form]


def decline(entry: Entry, ruleset: RuleSet) -> Paradigm:
    """All eight noun case/number cells; failures reported per cell,
    except an irregular noun that no rule covers, which raises."""
    if entry.pos != NOUN:
        raise ValueError(f"decline needs a noun, got {entry.pos}")
    return _paradigm(entry, ruleset)


def conjugate(entry: Entry, ruleset: RuleSet) -> Paradigm:
    """Every verb form cell; failures reported per cell, except an
    irregular verb that no rule covers, which raises."""
    if entry.pos != VERB:
        raise ValueError(f"conjugate needs a verb, got {entry.pos}")
    return _paradigm(entry, ruleset)


Analyses = tuple[tuple[Entry, str], ...]


def derive_forms(
    entry: Entry, ruleset: RuleSet
) -> tuple[dict[str, Analyses], dict[str, MorphologyError]]:
    """Every producible surface form, mapped to its (entry, form code)
    analyses in paradigm order, as lexicon.AllFormsIndex stores them,
    plus the MorphologyError of each code that could not be derived,
    as _run recorded it.

    Best effort: the lemma is always included, as LEMMA when no code
    gives it.  For nouns, the lenited allomorph of each form is added
    too (mo chat, mo shaoghal), sharing the analyses of the form it
    varies, unless that spelling is already a form in its own right.
    """
    selection = ruleset.select(entry)
    values, failures = _run(entry, selection)
    forms: dict[str, Analyses] = {}
    for code, ends in selection.forms.items():
        if code in failures:
            continue
        analysis = (entry, code)
        for end in ends:
            surface = values[end]
            if surface is not None:
                known = forms.get(surface)
                if known is None:
                    forms[surface] = (analysis,)
                elif known[-1] is not analysis:
                    # a second code on the same surface grows its tuple
                    forms[surface] = (*known, analysis)
    if entry.lemma not in forms:
        forms[entry.lemma] = ((entry, LEMMA),)
    for end, lenited in selection.allomorphs:
        surface, lenited = values[end], values[lenited]
        # a failed or non-existent value is no form, and has no allomorph
        if surface in forms and lenited != surface and lenited not in forms:
            forms[lenited] = forms[surface]
    return forms, failures
