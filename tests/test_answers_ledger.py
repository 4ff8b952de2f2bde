"""Every start of the benchmark's fit cells keeps its outcome, iteration count
and final log-likelihood, every bench cell its digest, and the reference sweep
its six BICs, selected cell and flagged units, as the checked-in
answers_ledger.json records them (see answers_ledger.py for what is run and how
to rewrite the file)."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answers_ledger import ACCEPTANCE_PATH, LOGLIK_RTOL, PATH, build, dumps, entries, reconcile, \
    versions


@pytest.fixture(scope="module")
def ledger():
    return json.loads(PATH.read_text())


def test_answers_match_the_ledger(ledger):
    got = build()
    env = f"(ledger written with {ledger['numpy']}, {ledger['blas']}; running {versions()})"
    assert reconcile(entries(ledger), entries(got))[0] == [], env


def test_ledger_counts_the_bench_cells(ledger):
    # 290 starts: 282 converged, none at max_iter, 8 degenerate, 8,086
    # iterations in the chains that ran to the end
    starts = [s for cells in ledger["starts"].values() for cell in cells.values() for s in cell]
    assert len(starts) == 290
    assert [sum(s[0] == o for s in starts) for o in ("converged", "max_iter", "degenerate")] \
        == [282, 0, 8]
    assert sum(s[1] for s in starts if s[2] is not None) == 8086
    ref = ledger["reference_sweep"]
    assert (ref["selected"], ref["bad_units"]) == ("cmvn:G=2", [6, 27])
    # one digest per bench cell
    assert sorted(ledger["digests"]) == sorted(
        f"{key} {cell}" for key, cells in ledger["starts"].items() for cell in cells)


def test_moved_names_each_changed_entry(ledger):
    got = copy.deepcopy(ledger)
    cell, want = got["starts"]["fit-ref@1"]["cmvn:G=2"], ledger["starts"]["fit-ref@1"]["cmvn:G=2"]
    cell[0][1] += 1
    cell[1][2] *= 1 + 1e-10
    cell[2][2] *= 1 + 1e-14                       # within 1e-12: not a move
    got["reference_sweep"]["bad_units"] = [6]
    digest = ledger["digests"]["fit-large@5 cmvn:G=2"]
    got["digests"]["fit-large@5 cmvn:G=2"] = "0" * 64
    lines, merged = reconcile(entries(ledger), entries(got))
    assert lines == [
        f"starts fit-ref@1 cmvn:G=2[0]: {cell[0]}, ledger {want[0]}",
        f"starts fit-ref@1 cmvn:G=2[1]: {cell[1]}, ledger {want[1]}",
        "reference_sweep bad_units: [6], ledger [6, 27]",
        f"digests fit-large@5 cmvn:G=2: {'0' * 64}, ledger {digest}",
    ]
    assert merged["starts"]["fit-ref@1"]["cmvn:G=2"][:3] == [cell[0], cell[1], want[2]]


def test_acceptance_moved_names_each_changed_entry():
    want = json.loads(ACCEPTANCE_PATH.read_text())
    assert reconcile(want, copy.deepcopy(want)) == ([], want)
    got = copy.deepcopy(want)
    row = got["criterion_4"]["seed 1"]["c=4"]
    row["cmvn_bic"] *= 1 + 1e-14                  # within 1e-12: not a move
    row["mvn_bic"] *= 1 + 1e-10
    row["cmvn_start"] += 1
    row["cmvn_bad_units"] = []
    del got["criterion_6"]["seed 3"]
    want_row = want["criterion_4"]["seed 1"]["c=4"]
    lines, merged = reconcile(entries(want), entries(got))
    assert lines == [
        f"criterion_4 seed 1 c=4 mvn_bic: {row['mvn_bic']}, ledger {want_row['mvn_bic']}",
        f"criterion_4 seed 1 c=4 cmvn_start: {row['cmvn_start']}, ledger {want_row['cmvn_start']}",
        f"criterion_4 seed 1 c=4 cmvn_bad_units: [], ledger {want_row['cmvn_bad_units']}",
        f"criterion_6 seed 3: absent, ledger {want['criterion_6']['seed 3']}",
    ]
    assert merged["criterion_4"]["seed 1"]["c=4"] == {**row, "cmvn_bic": want_row["cmvn_bic"]}
    assert list(merged["criterion_6"]) == list(got["criterion_6"])


def test_a_start_added_or_dropped_is_one_entry():
    want = {"cell": [["converged", 9, -1.5], ["degenerate", 3, None]]}
    got = {"cell": [["converged", 9, -1.5]]}
    assert reconcile(want, got) == (["cell[1]: absent, ledger ['degenerate', 3, None]"], got)
    assert reconcile(got, want) == (["cell[1]: ['degenerate', 3, None], ledger absent"], want)


# Hand-made ledgers: dicts and lists of entries, down to plain values and
# lists of them.  Floats are normal and at most 1e6 in size, so a relative
# step of 1e-13 stays within LOGLIK_RTOL and adding 1 leaves it.
_scalars = st.one_of(st.none(), st.integers(-5, 300), st.text(max_size=4),
                     st.floats(-1e6, 1e6, allow_subnormal=False))
_ledgers = st.recursive(
    st.one_of(_scalars, st.lists(_scalars, max_size=3)),
    lambda tree: st.one_of(st.dictionaries(st.text(max_size=3), tree, min_size=1, max_size=3),
                           st.lists(tree, min_size=1, max_size=3)),
    max_leaves=12)


def _edited(tree, draw, moves):
    """tree with each plain value kept, shifted within LOGLIK_RTOL or (if
    moves) moved to another value, as draw picks."""
    if isinstance(tree, dict):
        return {k: _edited(v, draw, moves) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_edited(v, draw, moves) for v in tree]
    edit = draw(st.sampled_from(["keep", "shift", "move"][:2 + moves]))
    if edit == "shift" and isinstance(tree, float):
        return tree * (1 + draw(st.floats(-0.1, 0.1)) * LOGLIK_RTOL)
    if edit != "move":
        return tree
    return 0 if tree is None else tree + ("x" if isinstance(tree, str) else 1)


@settings(max_examples=200, deadline=None)
@given(_ledgers, st.data())
def test_a_shift_within_the_tolerance_moves_nothing(want, data):
    got = _edited(want, data.draw, moves=False)
    lines, merged = reconcile(want, got)
    assert lines == []
    assert dumps(merged) == dumps(want)


@settings(max_examples=200, deadline=None)
@given(_ledgers, st.data())
def test_the_merge_rewrites_one_line_per_moved_entry(want, data):
    got = _edited(want, data.draw, moves=True)
    lines, merged = reconcile(want, got)
    old, new = dumps(want).splitlines(), dumps(merged).splitlines()
    assert len(new) == len(old)
    assert sum(a != b for a, b in zip(old, new)) == len(lines)
    assert reconcile(merged, got) == ([], merged)
