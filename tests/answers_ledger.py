"""The answers ledger: what every start of the benchmark's fit cells did, and
what the reference sweep selected.

``build()`` runs every start of fit-ref, fit-large and the six sweep-noise
cells at the benchmark input seeds ``SEEDS``, with the inputs
``bench/workloads.make_inputs`` draws and the calls its ``run_op`` makes,
and records for each start its outcome, iteration count and final
log-likelihood.  Building the inputs with the benchmark's own code ties
the ledger to the cells the benchmark times.  It then runs the reference
sweep ({mvn, cmvn} x G = 1..3, 20 starts, seed 0) on fit-ref's data before
its change of coordinates (n = 150, data seed 7, unit 6 shifted by 10) and
records its six BICs, the selected cell and the units that cell flags.

The starts' log-likelihoods are held to 1e-12 relative, which a change
that only reorders a sum can pass, so the ledger also holds one SHA-256
digest per bench cell at ``SEEDS``, over every start's outcome, iteration
count and trace, theta', z and v bytes (for a failed start, the bytes of
the z, v, etas and psi_inv its failing cycle was given), from the runs that
give the starts.  The digests read the same with one OpenBLAS thread and
with the default two on a 2-core host.

``acceptance()`` records what acceptance criteria 4, 5 and 6 compute, from
the runs their tests in ``tests/test_acceptance.py`` make: per seed (and
shift) of the two studies, the CMVN and MVN selected G and BIC and the
selected CMVN fit's winning start and flagged units, with ARI and MCR on the
good units for the uniform-noise study; per recovery seed, the winning start,
``m_err`` and ``kron_err``.

One rule judges both ledgers: ``reconcile()``, which the ledger and
criterion tests, ``--moved`` and the writer all call.  It walks dicts by key
and lists of lists or dicts by item; anything else, such as a start's
[outcome, iterations, loglik] or a set of flagged units, is one entry on one
line of ``dumps``.  In an entry, floats agree within ``LOGLIK_RTOL`` and all
else exactly.  The writer keeps the checked-in value of every entry that did
not move, and the file's numpy and BLAS versions unless one moved, so after

    PYTHONPATH=src python3 tests/answers_ledger.py [--moved]

``git diff tests/`` changes exactly the lines it printed.  ``--moved``
prints the same lines, writes no file, and exits 1 if it printed any.
Rewrite the ledgers only when a change is meant to move an entry, and list
every moved entry with the change.

``--digest`` prints the digests alone, from the same inputs and calls (at
``SEEDS``, or at the seeds given after it), and writes no file.  Run it on
two trees and compare:

    PYTHONPATH=src python3 tests/answers_ledger.py --digest [SEED ...]
"""

import hashlib
import json
import sys
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

import numpy as np

from cmvmix import ecm
from cmvmix.ecm import FitConfig, Kind
from cmvmix.errors import DegenerateCluster, NotPositiveDefinite
from cmvmix.selection import sweep
from cmvmix.studies import DEFAULT_N, G_VALUES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

PATH = Path(__file__).with_name("answers_ledger.json")
ACCEPTANCE_PATH = Path(__file__).with_name("acceptance_ledger.json")
SEEDS = (1, 5)
WORKLOADS = ("fit-ref", "sweep-noise", "fit-large")
REF_CONFIG = FitConfig(n_starts=20, seed=0)
_FAILURES = {DegenerateCluster: "degenerate", NotPositiveDefinite: "not_pd"}
# Fixed before measuring.  Changes that only reorder roundoff have moved a
# final log-likelihood by at most 6.4e-16 relative; a chain that takes one
# step more or less moves it by about the stopping tolerance, 1e-8.
LOGLIK_RTOL = 1e-12
CRITERIA = ("criterion_4", "criterion_5", "criterion_6")
VERSION_KEYS = ("numpy", "blas")
_ABSENT = object()  # the side of a key or item that only one ledger has
# the study row fields each criterion 4 and 5 entry keeps
STUDY_FIELDS = ("cmvn_g", "cmvn_bic", "mvn_g", "mvn_bic", "cmvn_start", "cmvn_bad_units")


def versions():
    """numpy's version and the OpenBLAS build it links: iteration counts can
    move with the BLAS, so a mismatch is the first thing to check."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


@contextmanager
def recording_starts():
    """Record every chain the package runs while the block runs.

    Yields a list that receives one ``[cell, outcome, iterations, loglik,
    left]`` per ``ecm._run_chain`` call: the cell is ``"kind:G=g"``, the
    outcome one of converged, max_iter, degenerate and not_pd, the
    iterations the ECM cycles begun (``ecm._cm_half`` calls, the failing one
    included), and the loglik the trace's last value (None for a failed
    start).  ``left`` holds the arrays the start ended with, read from
    ``theta, (z, v), trace, converged`` of the chain's 5-tuple: theta', the
    (N, G) posteriors z and v (v None for MVN) and the trace, or for a
    failed start the z, v, etas and psi_inv its failing ``ecm._cm_half``
    call was given.
    """
    starts, cycles, last = [], [0], [()]
    run_chain, cm_half = ecm._run_chain, ecm._cm_half

    def counted_cm_half(*args):
        cycles[0] += 1
        last[0] = args
        return cm_half(*args)

    def recorded_chain(work, kind, config, *rest):
        cycles[0] = 0
        cell = f"{Kind(kind).value}:G={config.g}"
        try:
            out = run_chain(work, kind, config, *rest)
        except tuple(_FAILURES) as exc:
            starts.append([cell, _FAILURES[type(exc)], cycles[0], None, last[0][1:5]])
            raise
        theta, (z, v), trace, converged = out[:4]
        starts.append([cell, "converged" if converged else "max_iter", cycles[0],
                       float(trace[-1]), (*theta, z, v, trace)])
        return out

    ecm._run_chain, ecm._cm_half = recorded_chain, counted_cm_half
    try:
        yield starts
    finally:
        ecm._run_chain, ecm._cm_half = run_chain, cm_half


def reference_sweep():
    """The six BICs of the reference sweep, its selected cell and the
    1-based units that cell flags bad."""
    res = sweep(workloads._reference(DEFAULT_N), [Kind.MVN, Kind.CMVN], list(G_VALUES),
                REF_CONFIG)
    best = res.best_entry
    return {
        "bic": {f"{e.kind.value}:G={e.g}": e.bic for e in res.entries},
        "selected": f"{best.kind.value}:G={best.g}",
        "bad_units": [int(i) + 1 for i in np.flatnonzero(best.result.bad_flags)],
    }


def _nested(obj):
    """Whether obj is a list holding a list or a dict: dumps spreads it over
    lines and reconcile compares it item by item."""
    return isinstance(obj, list) and any(isinstance(x, (list, dict)) for x in obj)


def dumps(obj, indent=""):
    """JSON text with each list of plain values on one line, so an entry
    that moves is one changed line."""
    inner = indent + " "
    if isinstance(obj, dict):
        items, ends = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in obj.items()], "{}"
    elif _nested(obj):
        items, ends = [inner + dumps(x, inner) for x in obj], "[]"
    else:
        return json.dumps(obj)
    return ends[0] + "\n" + ",\n".join(items) + "\n" + indent + ends[1]


def recorded_runs(seeds):
    """("workload@seed", the starts ``recording_starts`` recorded) for each
    bench fit cell's operation at each seed, from the benchmark's inputs."""
    for workload in WORKLOADS:
        for seed in seeds:
            with recording_starts() as recorded:
                workloads.run_op(workload, workloads.make_inputs(workload, seed))
            yield f"{workload}@{seed}", recorded


def digests(runs):
    """{"workload@seed kind:G=g": SHA-256 hex} over every start of the
    recorded runs in run order: its outcome and iteration count, then the
    bytes of the arrays ``recording_starts`` says it left."""
    hashes = {}
    for key, recorded in runs:
        for cell, outcome, iterations, _, left in recorded:
            h = hashes.setdefault(f"{key} {cell}", hashlib.sha256())
            h.update(f"{outcome} {iterations}".encode())
            for a in left:
                if a is not None:
                    h.update(np.asarray(a).tobytes())
    return {cell: h.hexdigest() for cell, h in hashes.items()}


def build():
    """The ledger as a JSON-ready dict."""
    runs = list(recorded_runs(SEEDS))
    starts = {}
    for key, recorded in runs:
        cells = starts.setdefault(key, {})
        for cell, *record, _ in recorded:
            cells.setdefault(cell, []).append(record)
    return {**versions(), "starts": starts, "reference_sweep": reference_sweep(),
            "digests": digests(runs)}


def outlier_answers(reports):
    """Criterion 4's entries from {seed: single-outlier report}."""
    return {f"seed {s}": {f"c={row['c']}": {k: row[k] for k in STUDY_FIELDS} for row in rep.rows}
            for s, rep in reports.items()}


def noise_answers(reports):
    """Criterion 5's entries from {seed: uniform-noise report}."""
    return {f"seed {s}": {k: rep.rows[0][k] for k in (*STUDY_FIELDS, "ari_good", "mcr_good")}
            for s, rep in reports.items()}


def recovery_answers(recovered):
    """Criterion 6's entries from {seed: (winning start, m_err, kron_err)}."""
    return {f"seed {s}": dict(zip(("start", "m_err", "kron_err"), errs))
            for s, errs in recovered.items()}


def acceptance():
    """The acceptance ledger as a JSON-ready dict, from the runs the
    criterion tests make (about 20 s)."""
    import test_acceptance as t

    answers = (outlier_answers(t.outlier_reports()), noise_answers(t.noise_reports()),
               recovery_answers(t.recovery_runs()))
    return {**versions(), **dict(zip(CRITERIA, answers))}


def entries(ledger):
    """The ledger without its numpy and BLAS versions."""
    return {k: v for k, v in ledger.items() if k not in VERSION_KEYS}


def _same(want, got):
    """Whether got is the entry want: floats within LOGLIK_RTOL, all else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= LOGLIK_RTOL * abs(want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same, want, got))
    return got == want


def reconcile(want, got, path=""):
    """(lines, merged): lines names each entry of got that moved from the
    checked-in want, as "path: got, ledger want", in want's order and new keys
    last; merged has got's keys and items, with want's value where none moved."""
    if isinstance(want, dict) and isinstance(got, dict):
        parts = {k: reconcile(want.get(k, _ABSENT), got.get(k, _ABSENT), f"{path} {k}".strip())
                 for k in [*want, *(k for k in got if k not in want)]}
        return ([line for lines, _ in parts.values() for line in lines],
                {k: merged for k, (_, merged) in parts.items() if k in got})
    if _nested(want) and _nested(got):
        parts = [reconcile(w, g, f"{path}[{i}]")
                 for i, (w, g) in enumerate(zip_longest(want, got, fillvalue=_ABSENT))]
        return [line for lines, _ in parts for line in lines], [m for _, m in parts[:len(got)]]
    if _same(want, got):
        return [], want
    got_text, want_text = ("absent" if x is _ABSENT else x for x in (got, want))
    return [f"{path}: {got_text}, ledger {want_text}"], got


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        for cell, digest in digests(recorded_runs(tuple(map(int, sys.argv[2:])) or SEEDS)).items():
            print(cell, digest)
        sys.exit()
    moved = []
    for path, make in ((PATH, build), (ACCEPTANCE_PATH, acceptance)):
        want, got = json.loads(path.read_text()), make()
        lines, merged = reconcile(entries(want), entries(got))
        moved += lines
        if sys.argv[1:] != ["--moved"]:
            stamp = {k: (got if lines else want)[k] for k in VERSION_KEYS}
            path.write_text(dumps({**stamp, **merged}) + "\n")
    for line in moved:
        print(line)
    sys.exit(1 if moved and sys.argv[1:] == ["--moved"] else 0)
