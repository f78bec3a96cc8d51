"""Seeded synthetic inputs with the shape of the published gdmorph dataset.

The published vocabulary has 4,956 nouns, 534 verbs and 1,025
adjectives, 24 of them IRREG, and expands to about 33k distinct forms.
Its nouns form the nominative plural in -an about half the time
(2,452; 1,302 by a bare -an) and about 40% of its verbal nouns end in
-adh.  `write_inputs` writes files of that shape from a seed, without
importing gdmorph, so the program under test receives only the files:

    vocab-<k>.svf / rules-<k>.grl   K edit-loop variants (k = 0 is the base)
    freq.tsv                        Zipf-ranked frequency list
    stream.txt                      running text, one 1,000-token document a line
    session.json                    the cli-session command mix
"""

from __future__ import annotations

import json
import random
import unicodedata
from bisect import bisect
from itertools import accumulate
from pathlib import Path

NOUNS, VERBS, ADJS = 4956, 534, 1025
IRREG_BY_POS = {"NOUN": 10, "VERB": 10, "ADJ": 4}
VARIANTS = 4
EDITED_SHARE = 0.01
DOCS, DOC_TOKENS = 300, 1000
FREQ_ROWS = 15000

# Shares of running-text token spellings (the rest are index forms as
# written) and the Zipf exponent of the stream.  These are assumptions,
# not measured on Gaelic text: no corpus sample is in the repository.
# The traced run reports which recognize path the tokens take, so a
# recognition-side gain can be weighed against them; calibrate them once
# a sample of real text is committed.
PROTHETIC, ACUTE, UNACCENTED, CAPITALISED, OOV = 0.06, 0.03, 0.04, 0.06, 0.05
ZIPF_EXPONENT = 1.05

# the rule file a linguist starts from: the same rules gdmorph bundles
BASE_RULES = """\
* NOUN & F
NS: NS; NP: NP; GS: GS; GP: H/NP
DS: NS; DP: NP; VS: H/GS; VP: H/NP

* NOUN & M
NS: NS; NP: NP; GS: GS; GP: H/NP
DS: NS; DP: NP; VS: H/GS; VP: H/NP

* VERB
VN: VN
PASTP: LEMMA+"ta|te"
PAST_IND: DH/LEMMA; PAST_DEP: DH/LEMMA; PAST_PASS: DH/LEMMA+"adh|eadh"
FUT_IND: LEMMA+"aidh|idh"; FUT_DEP: LEMMA
FUT_PASS: LEMMA+"ar|ear" | LEMMA+"tar|tear"
RELFUT: DH/LEMMA+"as|eas"; RELFUT_PASS: DH/LEMMA+"ar|ear"
COND1S_IND: DH/LEMMA+"ainn|inn"; COND1S_DEP: LEMMA+"ainn|inn"
COND1P_IND: DH/LEMMA+"amaid|eamaid"; COND1P_DEP: LEMMA+"amaid|eamaid"
COND23_IND: DH/LEMMA+"adh|eadh"; COND23_DEP: LEMMA+"adh|eadh"
COND_PASS: DH/LEMMA+"tadh|teadh"
IMP1S: LEMMA+"am|eam"; IMP2S: LEMMA; IMP3S: LEMMA+"adh|eadh"
IMP1P: LEMMA+"amaid|eamaid"; IMP2P: LEMMA+"aibh|ibh"; IMP3P: LEMMA+"adh|eadh"
IMP_PASS: LEMMA+"ar|ear" | LEMMA+"tar|tear"

* ADJ
POS_ADJ: LEMMA; CP: CP; POS_LENITED: H/LEMMA
"""

_SPECIAL_CASES = {
    "NOUN": "NS: NS; NP: NP; GS: GS; GP: NP; DS: NS; DP: NP",
    "VERB": 'VN: VN; IMP2S: LEMMA; PAST_IND: DH/LEMMA; FUT_IND: LEMMA+"idh|idh"',
    "ADJ": "POS_ADJ: LEMMA; CP: CP",
}

_ONSETS = (
    ["b", "c", "d", "f", "g", "m", "p", "s", "t"] * 3
    + ["l", "n", "r"] * 2
    + ["br", "cl", "cr", "dr", "fl", "fr", "gl", "gr", "tr"]
    + ["sg", "sm", "sp", "st"]
    + [""] * 6
)
_NUCLEI = (
    ["a", "o", "u", "ai", "ea", "ao", "ua", "oi", "ui", "i", "e", "io", "ia", "eu"] * 3
    + ["à", "ò", "ù", "è", "ì", "ài", "òi", "eà", "ìo"]
)
_CODAS = ["ch", "ll", "nn", "rr", "r", "l", "n", "s", "g", "d", "t", "m",
          "bh", "mh", "dh", "gh", "rt", "rd", "st", "c"]
_MEDIALS = ["b", "c", "d", "g", "l", "m", "n", "r", "s", "t", "ch", "dh", "gh",
            "bh", "mh", "ll", "nn", "rr", "rs", "rt"]
_OOV_LETTERS = "abcdefghiklmnoprstuvwyz"

_BROAD = set("aouàòùáóú")
_VOWELS = set("aeiouàèìòùáéíóú")
_LENITABLE = set("bcdfgmpt")
_GRAVE_TO_ACUTE = str.maketrans("àèìòù", "áéíóú")
_GRAVE_TO_PLAIN = str.maketrans("àèìòù", "aeiou")


def _word(rng: random.Random) -> str:
    text = rng.choice(_ONSETS) + rng.choice(_NUCLEI)
    if rng.random() < 0.55:
        text += rng.choice(_MEDIALS) + rng.choice(_NUCLEI)
    if rng.random() < 0.85:
        text += rng.choice(_CODAS)
    return text


def _broad(word: str) -> bool:
    for ch in reversed(word):
        if ch in _VOWELS:
            return ch in _BROAD
    return True


def _slender_insert(word: str) -> str:
    """saoghal -> saoghail: an i after the last broad vowel before a
    final consonant group; the word plus e when it ends in a vowel."""
    end = len(word)
    while end > 0 and word[end - 1] not in _VOWELS:
        end -= 1
    if end == 0 or end == len(word):
        return word + "e"
    if word[end - 1] in _BROAD:
        return word[:end] + "i" + word[end:]
    return word + "e"


def _lenite(word: str) -> str:
    head, rest = word[:1].lower(), word[1:]
    if rest[:1] == "h":
        return word
    if head in _LENITABLE or (head == "s" and rest[:1] in _VOWELS | set("lnr")):
        return word[0] + "h" + rest
    return word


def _noun_parts(rng: random.Random, lemma: str) -> tuple[str, str]:
    broad = _broad(lemma)
    roll = rng.random()
    if roll < 0.263:
        np = f'"{lemma}an"'
    elif roll < 0.495:
        ending = rng.choice(["tan", "aichean", "annan", "ichean"] if broad else ["ean", "tean", "ichean"])
        np = f'"{lemma}{ending}"'
    elif roll < 0.565:
        np = "?"
    elif roll < 0.615:
        np = "-"
    else:
        np = f'"{rng.choice([_slender_insert(lemma), lemma + "a", lemma + "e", lemma + "eachd"])}"'
    roll = rng.random()
    if roll < 0.60:
        gs = f'"{_slender_insert(lemma)}"'
    elif roll < 0.80:
        gs = f'"{lemma}{"a" if broad else "e"}"'
    elif roll < 0.92:
        gs = f'"{lemma}"'
    elif roll < 0.98:
        gs = "?"
    else:
        gs = "-"
    return np, gs


def _verb_noun(rng: random.Random, lemma: str) -> str:
    roll = rng.random()
    if roll < 0.45:
        return f'"{lemma}{"adh" if _broad(lemma) else "eadh"}"'
    if roll < 0.73:
        return f'"{lemma}{rng.choice(["ail", "tainn", "sinn", "inn"])}"'
    if roll < 0.93:
        return f'"{lemma}"'
    if roll < 0.97:
        return "?"
    return f'"{lemma}t"'


def _comparative(rng: random.Random, lemma: str) -> str:
    roll = rng.random()
    if roll < 0.40:
        return f'"{lemma}e"'
    if roll < 0.75:
        return f'"{_slender_insert(lemma)}e"'
    if roll < 0.85:
        return f'"{lemma}a"'
    if roll < 0.90:
        return f'"{lemma}"'
    return "?"


def _lemmas(rng: random.Random, count: int) -> list[str]:
    """Distinct lemmas, about 2% capitalised and with a few case and
    accent near-duplicate pairs, as dictionaries have."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = _word(rng)
        if rng.random() < 0.02:
            word = word.capitalize()
        if len(word) < 2 or word in seen:
            continue
        seen.add(word)
        out.append(word)
        if len(out) < count and rng.random() < 0.004:
            twin = word.swapcase()[0] + word[1:] if rng.random() < 0.5 else word.translate(_GRAVE_TO_PLAIN)
            if twin not in seen:
                seen.add(twin)
                out.append(twin)
    return out


def vocabulary_lines(seed: int) -> list[str]:
    """The base vocabulary: one SVF record per entry, in a seeded order."""
    rng = random.Random(f"vocab-{seed}")
    lemmas = _lemmas(rng, NOUNS + VERBS + ADJS)
    rng.shuffle(lemmas)
    nouns, verbs, adjs = lemmas[:NOUNS], lemmas[NOUNS:NOUNS + VERBS], lemmas[NOUNS + VERBS:]
    irregular = {
        lemma
        for pos, words in (("NOUN", nouns), ("VERB", verbs), ("ADJ", adjs))
        for lemma in rng.sample(words, IRREG_BY_POS[pos])
    }
    records = []
    for lemma in nouns:
        np, gs = _noun_parts(rng, lemma)
        records.append(f'NOUN {"M" if rng.random() < 0.55 else "F"} "{lemma}" {np} {gs}')
    records += [f'VERB "{lemma}" {_verb_noun(rng, lemma)}' for lemma in verbs]
    records += [f'ADJ "{lemma}" {_comparative(rng, lemma)}' for lemma in adjs]
    for i, record in enumerate(records):
        if _lemma_of(record) in irregular:
            records[i] = record + " IRREG"
    rng.shuffle(records)
    return records


def _lemma_of(record: str) -> str:
    return record.split('"')[1]


def _pos_of(record: str) -> str:
    return record.split(" ", 1)[0]


def _edit(rng: random.Random, record: str) -> str:
    """Re-draw the non-lemma parts of one record, as a linguist's fix."""
    pos, lemma = _pos_of(record), _lemma_of(record)
    tail = " IRREG" if record.endswith(" IRREG") else ""
    if pos == "NOUN":
        np, gs = _noun_parts(rng, lemma)
        return f'NOUN {record.split(" ")[1]} "{lemma}" {np} {gs}{tail}'
    if pos == "VERB":
        return f'VERB "{lemma}" {_verb_noun(rng, lemma)}{tail}'
    return f'ADJ "{lemma}" {_comparative(rng, lemma)}{tail}'


def _special_case(record: str) -> str:
    pos = _pos_of(record)
    return f'* {pos} & IRREG & LEMMA="{_lemma_of(record)}"\n{_SPECIAL_CASES[pos]}\n'


def _blocks(text: str) -> list[str]:
    return [block.strip() + "\n" for block in text.split("\n\n") if block.strip()]


def variant(seed: int, k: int, base: list[str]) -> tuple[list[str], str]:
    """Edit-loop variant k: (vocabulary lines, rule file text).

    Variant 0 is the base vocabulary with special cases for half of the
    IRREG entries.  The others edit about 1% of the vocabulary lines,
    cover a different subset of IRREG entries and reorder the rules.
    """
    rng = random.Random(f"variant-{seed}-{k}")
    irregular = sorted((r for r in base if r.endswith(" IRREG")), key=_lemma_of)
    lines = list(base)
    if k == 0:
        covered = irregular[::2]
    else:
        for i in rng.sample(range(len(lines)), round(EDITED_SHARE * len(lines))):
            lines[i] = _edit(rng, lines[i])
        covered = rng.sample(irregular, rng.randint(len(irregular) // 3, len(irregular)))
    blocks = _blocks(BASE_RULES)
    if k:
        rng.shuffle(blocks)
    specials = [_special_case(r) for r in covered]
    return lines, "\n".join(specials + blocks)


def surface_pool(records: list[str]) -> list[str]:
    """Words a text written with this vocabulary would contain: lemmas,
    principal parts, their lenited forms and common verb endings."""
    pool: set[str] = set()
    for record in records:
        pos = _pos_of(record)
        parts = record.split('"')[1::2]
        lemma = parts[0]
        pool.update(parts)
        if pos == "NOUN":
            pool.update(_lenite(part) for part in parts)
        elif pos == "VERB":
            broad = _broad(lemma)
            pool.update(lemma + ending for ending in (("aidh", "adh", "ar", "ainn") if broad else ("idh", "eadh", "ear", "inn")))
            pool.add("dh'" + lemma if lemma[0] in _VOWELS else _lenite(lemma))
        else:
            pool.add(_lenite(lemma))
    return sorted(pool)


def _oov(rng: random.Random) -> str:
    return "".join(rng.choice(_OOV_LETTERS) for _ in range(rng.randint(4, 9))) + rng.choice("kwyz")


def _spelling(rng: random.Random, word: str) -> str:
    roll = rng.random()
    if roll < PROTHETIC:
        return rng.choice(["t-", "h-", "n-", "dh'"]) + word
    roll -= PROTHETIC
    if roll < ACUTE:
        acute = word.translate(_GRAVE_TO_ACUTE)
        if acute == word:
            for plain, marked in zip("aeiou", "áéíóú"):
                if plain in word:
                    return word.replace(plain, marked, 1)
        return acute
    roll -= ACUTE
    if roll < UNACCENTED:
        return word.translate(_GRAVE_TO_PLAIN)
    roll -= UNACCENTED
    if roll < CAPITALISED:
        return word[:1].upper() + word[1:]
    roll -= CAPITALISED
    if roll < OOV:
        return _oov(rng)
    return word


def stream_documents(seed: int, pool: list[str]) -> list[list[str]]:
    """Running text: tokens drawn Zipf-wise from the surface pool."""
    rng = random.Random(f"stream-{seed}")
    ranked = list(pool)
    rng.shuffle(ranked)
    cumulative = list(accumulate(1.0 / (rank + 2) ** ZIPF_EXPONENT for rank in range(len(ranked))))
    total = cumulative[-1]
    docs = []
    for _ in range(DOCS):
        docs.append([
            unicodedata.normalize("NFC", _spelling(rng, ranked[bisect(cumulative, rng.random() * total)]))
            for _ in range(DOC_TOKENS)
        ])
    return docs


def frequency_rows(seed: int, pool: list[str]) -> list[tuple[int, str, int]]:
    """A ranked word list: Zipf counts, about 30% of types outside the pool."""
    rng = random.Random(f"freq-{seed}")
    ranked = list(pool)
    rng.shuffle(ranked)
    seen: set[str] = set()
    rows = []
    words = iter(ranked)
    while len(rows) < FREQ_ROWS:
        word = _oov(rng) if rng.random() < 0.3 else next(words)
        if word in seen:
            continue
        seen.add(word)
        rows.append((len(rows) + 1, word, max(1, round(10000 / (len(rows) + 1)))))
    return rows


def session(seed: int, records: list[str]) -> list[dict]:
    """The cli-session command mix: one call of each command."""
    rng = random.Random(f"session-{seed}")
    regular = [r for r in records if not r.endswith(" IRREG")]
    nouns = [_lemma_of(r) for r in regular if _pos_of(r) == "NOUN" and r.split('"')[2] == " "]
    verbs = [_lemma_of(r) for r in regular if _pos_of(r) == "VERB"]
    vowel_nouns = [n for n in nouns if n[0] in _VOWELS]
    common = ["--vocab", "vocab-0.svf", "--rules", "rules-0.grl"]
    mix = [
        ("validate", ["validate"]),
        ("inflect", ["inflect", rng.choice(nouns), "DP"]),
        ("decline", ["decline", rng.choice(nouns)]),
        ("conjugate", ["conjugate", rng.choice(verbs)]),
        ("recognize", ["recognize", "t-" + rng.choice(vowel_nouns)]),
        ("coverage.lemmas", ["coverage", "freq.tsv", "--mode", "lemmas"]),
        ("coverage.allforms", ["coverage", "freq.tsv", "--mode", "allforms"]),
        ("expand", ["expand", "-o", "allforms.txt"]),
        ("stats.plural-an", ["stats", "plural-an"]),
        ("stats.vn-endings", ["stats", "vn-endings"]),
        ("stats.dedup", ["stats", "dedup"]),
        ("stats.hapax", ["stats", "hapax", "--freq", "freq.tsv"]),
        ("stats.zipf", ["stats", "zipf", "--freq", "freq.tsv", "--k", "15"]),
        ("export.inserts", ["export", "inserts"]),
    ]
    return [{"name": name, "argv": common + argv} for name, argv in mix]


def write_inputs(seed: int, out: Path) -> None:
    """Write every input file for the seed into the directory out."""
    out.mkdir(parents=True, exist_ok=True)
    base = vocabulary_lines(seed)
    for k in range(VARIANTS):
        lines, rules_text = variant(seed, k, base)
        (out / f"vocab-{k}.svf").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / f"rules-{k}.grl").write_text(rules_text, encoding="utf-8")
    pool = surface_pool(base)
    rows = frequency_rows(seed, pool)
    (out / "freq.tsv").write_text(
        "rank\tlexeme\tcount\n" + "".join(f"{r}\t{w}\t{c}\n" for r, w, c in rows),
        encoding="utf-8",
    )
    docs = stream_documents(seed, pool)
    (out / "stream.txt").write_text("".join(" ".join(doc) + "\n" for doc in docs), encoding="utf-8")
    (out / "session.json").write_text(json.dumps(session(seed, base), ensure_ascii=False, indent=1), encoding="utf-8")
