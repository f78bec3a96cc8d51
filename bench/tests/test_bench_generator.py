import json
from collections import Counter

import pytest

import generate
from gdmorph import analysis, svf


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed3")
    generate.write_inputs(3, out)
    return out


def test_same_seed_same_files(inputs, tmp_path):
    generate.write_inputs(3, tmp_path)
    for path in inputs.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_other_seed_other_vocabulary():
    assert generate.vocabulary_lines(3) != generate.vocabulary_lines(4)


def test_vocabulary_has_the_published_shape(inputs):
    entries, errors = svf.load_vocabulary_file(inputs / "vocab-0.svf")
    assert errors == []
    assert Counter(e.pos for e in entries) == {"NOUN": 4956, "VERB": 534, "ADJ": 1025}
    assert sum(e.irregular for e in entries) == 24
    assert len({e.lemma for e in entries}) == 6515
    nouns = [e for e in entries if e.pos == "NOUN"]
    assert abs(analysis.count_suffix_pattern(nouns, "np", "an", 2) - 2452) < 150
    assert abs(analysis.count_suffix_pattern(nouns, "np", "an", 2, exact=True) - 1302) < 100
    assert abs(analysis.ending_histogram(entries, "vn", 3, 3).buckets["adh"] - 218) < 40
    parts = [p for e in entries for p in (e.np, e.gs, e.vn, e.cp) if p is not None]
    assert sum(p.is_unknown for p in parts) > 200
    assert sum(p.is_non_existent for p in parts) > 200


def test_variants_edit_about_one_percent(inputs):
    base = (inputs / "vocab-0.svf").read_text(encoding="utf-8").splitlines()
    for k in range(1, generate.VARIANTS):
        lines = (inputs / f"vocab-{k}.svf").read_text(encoding="utf-8").splitlines()
        changed = sum(a != b for a, b in zip(base, lines))
        assert len(lines) == len(base) and 0 < changed <= 0.01 * len(base) + 1
        assert (inputs / f"rules-{k}.grl").read_text(encoding="utf-8").count("LEMMA=") > 0


def test_stream_frequency_list_and_session(inputs):
    docs = (inputs / "stream.txt").read_text(encoding="utf-8").splitlines()
    assert len(docs) == generate.DOCS
    assert all(len(doc.split()) == generate.DOC_TOKENS for doc in docs)
    rows = (inputs / "freq.tsv").read_text(encoding="utf-8").splitlines()[1:]
    counts = [int(row.split("\t")[2]) for row in rows]
    assert len(rows) == generate.FREQ_ROWS and counts == sorted(counts, reverse=True)
    names = [c["name"] for c in json.loads((inputs / "session.json").read_text(encoding="utf-8"))]
    assert len(names) == len(set(names)) == 14
