"""Properties of the orthography and SVF primitives on generated input.

`is_gaelic_word` is checked against the per-character definition it
replaced, kept here as the reference.
"""

from hypothesis import given
from hypothesis import strategies as st

from gdmorph import orthography
from gdmorph.svf import (
    ADJ,
    GENDERS,
    NON_EXISTENT,
    NOUN,
    UNKNOWN,
    VERB,
    Entry,
    parse_svf_line,
    part,
    serialize_entry,
)

LETTERS = "abcdefghilmnoprstu"
ACCENTED = "àèìòùáéíóú"
GAELIC = LETTERS + LETTERS.upper() + ACCENTED + ACCENTED.upper()
# whitespace, curly apostrophe, non-Gaelic letters and their case traps
OTHER = " \t\n ’kxyzKQİıßẞ́"

_REFERENCE_LETTERS = set(LETTERS) | set(ACCENTED)
_REFERENCE_CHARS = _REFERENCE_LETTERS | {c.upper() for c in _REFERENCE_LETTERS} | {"'", "-", " "}


def reference_is_gaelic_word(text: str) -> bool:
    if not text or text != text.strip():
        return False
    if not any(c.lower() in _REFERENCE_LETTERS for c in text):
        return False
    return all(c in _REFERENCE_CHARS for c in text)


@given(st.text(alphabet=GAELIC + "'-" + OTHER, max_size=12))
def test_is_gaelic_word_matches_reference(text):
    assert orthography.is_gaelic_word(text) == reference_is_gaelic_word(text)


words = st.text(alphabet=GAELIC + "'- ", min_size=1, max_size=10).filter(
    orthography.is_gaelic_word
)
parts = st.one_of(st.just(UNKNOWN), st.just(NON_EXISTENT), words.map(part))


@st.composite
def entries(draw):
    pos = draw(st.sampled_from([NOUN, VERB, ADJ]))
    fields = {"lemma": draw(words), "pos": pos, "irregular": draw(st.booleans())}
    if pos == NOUN:
        fields.update(gender=draw(st.sampled_from(GENDERS)), np=draw(parts), gs=draw(parts))
    elif pos == VERB:
        fields["vn"] = draw(parts)
    else:
        fields["cp"] = draw(parts)
    return Entry(**fields)


@given(entries())
def test_serialize_then_parse_round_trips(entry):
    assert parse_svf_line(serialize_entry(entry)) == entry


@given(st.text(alphabet=GAELIC + "'- ", max_size=10))
def test_lenite_is_idempotent(word):
    once = orthography.lenite(word)
    assert orthography.lenite(once) == once
