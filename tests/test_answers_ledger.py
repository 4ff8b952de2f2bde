"""Every start of the benchmark's fit cells keeps its outcome, iteration count
and final log-likelihood, every bench cell its digest, and the reference sweep
its six BICs, selected cell and flagged units, as the checked-in
answers_ledger.json records them (see answers_ledger.py for what is run and how
to rewrite the file)."""

import copy
import json

import pytest

from answers_ledger import ACCEPTANCE_PATH, CRITERIA, PATH, acceptance_moved, build, moved, \
    versions


@pytest.fixture(scope="module")
def ledger():
    return json.loads(PATH.read_text())


def test_answers_match_the_ledger(ledger):
    got = build()
    env = f"(ledger written with {ledger['numpy']}, {ledger['blas']}; running {versions()})"
    assert moved(ledger, got) == [], env


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
    cell[2][2] *= 1 + 1e-14
    got["reference_sweep"]["bad_units"] = [6]
    digest = ledger["digests"]["fit-large@5 cmvn:G=2"]
    got["digests"]["fit-large@5 cmvn:G=2"] = "0" * 64
    assert moved(ledger, got) == [
        f"fit-ref@1 cmvn:G=2 start 0: {cell[0]}, ledger {want[0]}",
        f"fit-ref@1 cmvn:G=2 start 1: {cell[1]}, ledger {want[1]}",
        f"fit-large@5 cmvn:G=2: digest {'0' * 64}, ledger {digest}",
        "reference sweep bad_units: [6], ledger [6, 27]",
    ]


def test_acceptance_moved_names_each_changed_entry():
    want = json.loads(ACCEPTANCE_PATH.read_text())
    assert acceptance_moved(want, copy.deepcopy(want)) == []
    got = copy.deepcopy(want)
    row = got["criterion_4"]["seed 1"]["c=4"]
    row["cmvn_bic"] *= 1 + 1e-14                  # within 1e-12: not a move
    row["mvn_bic"] *= 1 + 1e-10
    row["cmvn_start"] += 1
    row["cmvn_bad_units"] = []
    del got["criterion_6"]["seed 3"]
    want_row = want["criterion_4"]["seed 1"]["c=4"]
    assert acceptance_moved({c: want[c] for c in CRITERIA}, {c: got[c] for c in CRITERIA}) == [
        f"criterion_4 seed 1 c=4 mvn_bic: {row['mvn_bic']}, ledger {want_row['mvn_bic']}",
        f"criterion_4 seed 1 c=4 cmvn_start: {row['cmvn_start']}, ledger {want_row['cmvn_start']}",
        f"criterion_4 seed 1 c=4 cmvn_bad_units: [], ledger {want_row['cmvn_bad_units']}",
        f"criterion_6 seed 3: None, ledger {want['criterion_6']['seed 3']}",
    ]
