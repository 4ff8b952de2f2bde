"""Every start of the benchmark's fit cells keeps its outcome, iteration count
and final log-likelihood, every bench cell its digest, and the reference sweep
its six BICs, selected cell and flagged units, as the checked-in
answers_ledger.json records them (see answers_ledger.py for what is run and how
to rewrite the file)."""

import copy
import json

import pytest

from answers_ledger import PATH, build, versions

# Fixed before measuring.  Changes that only reorder roundoff have moved a
# final log-likelihood by at most 6.4e-16 relative; a chain that takes one
# step more or less moves it by about the stopping tolerance, 1e-8.
LOGLIK_RTOL = 1e-12


def _close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= LOGLIK_RTOL * abs(b)


def moved(want, got):
    """One line per entry of got that differs from the ledger want:
    outcomes, iteration counts, the cells' digests, the selected cell and its
    flagged units exactly, log-likelihoods and BICs within LOGLIK_RTOL."""
    out = []
    for key in sorted(set(want["starts"]) | set(got["starts"])):
        w_cells, g_cells = want["starts"].get(key, {}), got["starts"].get(key, {})
        for cell in sorted(set(w_cells) | set(g_cells)):
            w, g = w_cells.get(cell, []), g_cells.get(cell, [])
            if len(w) != len(g):
                out.append(f"{key} {cell}: {len(g)} starts, ledger {len(w)}")
            for s, (ws, gs) in enumerate(zip(w, g)):
                if ws[:2] != gs[:2] or not _close(gs[2], ws[2]):
                    out.append(f"{key} {cell} start {s}: {gs}, ledger {ws}")
    w, g = want["digests"], got["digests"]
    for cell in sorted(set(w) | set(g)):
        if g.get(cell) != w.get(cell):
            out.append(f"{cell}: digest {g.get(cell)}, ledger {w.get(cell)}")
    w, g = want["reference_sweep"], got["reference_sweep"]
    for cell in sorted(set(w["bic"]) | set(g["bic"])):
        got_bic, want_bic = g["bic"].get(cell), w["bic"].get(cell)
        if not _close(got_bic, want_bic):
            out.append(f"reference sweep {cell}: BIC {got_bic}, ledger {want_bic}")
    for name in ("selected", "bad_units"):
        if g[name] != w[name]:
            out.append(f"reference sweep {name}: {g[name]}, ledger {w[name]}")
    return out


@pytest.fixture(scope="module")
def ledger():
    return json.loads(PATH.read_text())


def test_answers_match_the_ledger(ledger):
    got = build()
    env = f"(ledger written with {ledger['numpy']}, {ledger['blas']}; running {versions()})"
    assert moved(ledger, got) == [], env


def test_ledger_counts_the_bench_cells(ledger):
    # 290 starts: 282 converged, 2 max_iter, 6 degenerate, 10,136 iterations
    # in the chains that ran to the end
    starts = [s for cells in ledger["starts"].values() for cell in cells.values() for s in cell]
    assert len(starts) == 290
    assert [sum(s[0] == o for s in starts) for o in ("converged", "max_iter", "degenerate")] \
        == [282, 2, 6]
    assert sum(s[1] for s in starts if s[2] is not None) == 10136
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
