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

``tests/test_answers_ledger.py`` compares ``build()`` with the checked-in
``answers_ledger.json``.  Rewrite that file only when a change is meant to
move an entry, and list every moved entry with the change:

    PYTHONPATH=src python3 tests/answers_ledger.py

``--digest`` prints the digests alone, from the same inputs and calls (at
``SEEDS``, or at the seeds given after it), and writes no file.  Run it on
two trees and compare:

    PYTHONPATH=src python3 tests/answers_ledger.py --digest [SEED ...]
"""

import hashlib
import json
import sys
from contextlib import contextmanager
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
SEEDS = (1, 5)
WORKLOADS = ("fit-ref", "sweep-noise", "fit-large")
REF_CONFIG = FitConfig(n_starts=20, seed=0)
_FAILURES = {DegenerateCluster: "degenerate", NotPositiveDefinite: "not_pd"}


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
    start).  ``left`` holds the arrays the start ended with: theta', z, v
    and the trace, or for a failed start the z, v, etas and psi_inv its
    failing ``ecm._cm_half`` call was given.
    """
    starts, cycles, last = [], [0], [()]
    run_chain, cm_half = ecm._run_chain, ecm._cm_half

    def counted_cm_half(*args):
        cycles[0] += 1
        last[0] = args
        return cm_half(*args)

    def recorded_chain(data, kind, config, *rest):
        cycles[0] = 0
        cell = f"{Kind(kind).value}:G={config.g}"
        try:
            out = run_chain(data, kind, config, *rest)
        except tuple(_FAILURES) as exc:
            starts.append([cell, _FAILURES[type(exc)], cycles[0], None, last[0][1:5]])
            raise
        theta, resp, trace, converged = out[:4]
        starts.append([cell, "converged" if converged else "max_iter", cycles[0],
                       float(trace[-1]), (*theta, resp.z, resp.v, trace)])
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


def dumps(obj, indent=""):
    """JSON text with each list of plain values on one line, so a start
    that moves is one changed line."""
    inner = indent + " "
    if isinstance(obj, dict):
        items, ends = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, list) and any(isinstance(x, (list, dict)) for x in obj):
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


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        for cell, digest in digests(recorded_runs(tuple(map(int, sys.argv[2:])) or SEEDS)).items():
            print(cell, digest)
    else:
        PATH.write_text(dumps(build()) + "\n")
        print(f"wrote {PATH}")
