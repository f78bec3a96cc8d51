import pytest

import generate
import spans
import workloads
from gdmorph import lexicon


@pytest.fixture(scope="module")
def default_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    generate.write_inputs(workloads.DEFAULT_SEED, out)
    return out


def test_checker_against_golden_and_first_output():
    golden = workloads.Checker({"a": "1"})
    assert golden.check(("a", "1")) and not golden.check(("a", "2"))
    assert not golden.check(("unknown", "1"))
    consistent = workloads.Checker(None)
    assert consistent.check(("a", "x")) and consistent.check(("a", "x"))
    assert not consistent.check(("a", "y"), ("b", "z"))
    consistent.expect("c", "w")
    assert not consistent.check(("c", "v")) and consistent.check(("c", "w"))
    assert (golden.attempted, golden.failed) == (3, 2)
    assert (consistent.attempted, consistent.failed) == (5, 2)


def test_golden_digest_matches_and_corruption_fails(default_inputs, monkeypatch):
    checker = workloads.Checker(workloads.load_golden(workloads.DEFAULT_SEED))
    rebuild = workloads.Rebuild(default_inputs, checker)
    rebuild.op(0)
    assert (checker.attempted, checker.failed) == (1, 0)

    build = lexicon.build_all_forms

    def corrupted(vocabulary, ruleset):
        index = build(vocabulary, ruleset)
        index.form_index.pop(min(index.form_index))
        return index

    monkeypatch.setattr(lexicon, "build_all_forms", corrupted)
    rebuild.op(0)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_index_digest_covers_analyses_and_failures(default_inputs):
    index = workloads.Workload(default_inputs, workloads.Checker(None)).build(0)
    good = workloads.digest(workloads.index_text(index))
    surface = min(index.form_index)
    entry, code = min(index.form_index[surface], key=lambda analysis: analysis[1])
    index.form_index[surface] = {(entry, code + "X")}
    assert workloads.digest(workloads.index_text(index)) != good
    index = workloads.Workload(default_inputs, workloads.Checker(None)).build(0)
    index.failures.pop()
    assert workloads.digest(workloads.index_text(index)) != good


def test_recognize_paths_add_up(default_inputs):
    shares = workloads.recognize_paths(workloads.Rebuild(default_inputs, workloads.Checker(None)))
    assert sorted(shares) == ["exact", "folded", "miss", "prothesis"]
    assert all(share > 0 for share in shares.values())
    assert abs(sum(shares.values()) - 1) < 1e-9


def test_self_time_subtracts_direct_children():
    totals = spans.LayerTotals()
    totals.add([
        ["outer", 0, 100, -1, None],
        ["inner", 10, 40, 0, (2,)],
        ["inner", 50, 60, 0, (3,)],
        ["leaf", 12, 20, 1, None],
    ])
    assert totals.self_ns == {"outer": 60, "inner": 32, "leaf": 8}
    assert totals.calls["inner"] == 2 and totals.count("inner", 0) == 5
    assert spans.covered_ns([["a", 0, 5, -1, None], ["b", 1, 2, 0, None], ["c", 7, 9, -1, None]]) == 7
