"""The four benchmark workloads: input generation, one timed operation each,
and the output checks that decide whether an operation failed.

Every call into the package goes through a module attribute looked up at
call time (``ecm.fit``, ``selection.sweep``, ...), so the span wrappers
installed by ``tracing`` see it.

Inputs.  Each workload poses one fixed reference problem, and the seed draws
an orthogonal change of row coordinates A, of column coordinates B and a
shift C, giving the program ``A X B' + C`` for every unit X.  The matrix
normal and contaminated mixtures are equivariant under these maps and
|det A| = |det B| = 1, so every seed poses the same statistical problem
(same ECM path up to roundoff, same answers, same log-likelihood) in
different numbers.  Drawing fresh data per seed instead changed fit-ref's
wall time by 10x across eight seeds, and drawing only the start seeds
changed sweep-noise's total ECM iterations from 2,281 to 3,388 across ten;
neither spread fits a regression bound.
"""

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from cmvmix import dataio, ecm, metrics, selection, simulate, studies
from cmvmix.data import Dataset

REF_DATA_SEED = 7        # the README quick start's data
PERTURB_SHIFT = 10.0
NOISE_STUDY_SEED = 3     # one uniform-noise study seed: data 3, noise 4, starts 3
LARGE_N = 3000
IO_N = 20000             # one I/O pass of about 2.5 s on a 2-core x86 host
IO_FIT_N = 300

WORKLOADS = ("fit-ref", "sweep-noise", "fit-large", "io-roundtrip")

ZSUM_TOL = 1e-12
ASCENT_RTOL = 1e-9


@dataclass
class Answer:
    """What one operation returned, reduced to the numbers the bench reports."""

    kind: str
    g: int
    start: int
    bad_units: tuple          # 1-based units flagged bad
    best_loglik: float
    ari_good: float
    detect_f1: float
    problems: list = field(default_factory=list)
    io_bytes: int = 0

    def fingerprint(self):
        return {"kind": self.kind, "g": self.g, "start": self.start,
                "bad_units": list(self.bad_units),
                "best_loglik": f"{self.best_loglik:.12g}"}


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def change_coordinates(data: Dataset, seed: int) -> Dataset:
    """Map every unit X to A X B' + C with seed-drawn orthogonal A, B."""
    rng = np.random.default_rng(seed)
    a = _orthogonal(rng, data.r)
    b = _orthogonal(rng, data.p)
    c = rng.normal(0.0, 2.0, size=(data.r, data.p))
    samples = np.einsum("ij,njk,lk->nil", a, data.samples, b) + c
    return Dataset(samples=samples, true_labels=data.true_labels,
                   good_flags=data.good_flags, unit_names=data.unit_names)


def _reference(n):
    """n reference draws with one unit shifted into a known-bad point."""
    base = simulate.generate(simulate.reference_model(), n, REF_DATA_SEED)
    return simulate.perturb(base, studies.PERTURBED_UNIT, PERTURB_SHIFT)


def make_inputs(workload: str, seed: int, work_dir: Optional[Path] = None) -> dict:
    """Everything one workload's operation needs, built from the seed."""
    if workload == "fit-ref":
        return {"data": change_coordinates(_reference(studies.DEFAULT_N), seed),
                "config": ecm.FitConfig(g=2, n_starts=20, seed=0)}
    if workload == "sweep-noise":
        s = NOISE_STUDY_SEED
        lo, hi = studies.NOISE_RANGE
        base = simulate.generate(simulate.reference_model(), studies.DEFAULT_N, s)
        base = simulate.add_uniform_noise(base, studies.NOISE_FRACTION, lo, hi, s + 1)
        return {"data": change_coordinates(base, seed),
                "config": ecm.FitConfig(n_starts=20, seed=s)}
    if workload == "fit-large":
        return {"data": change_coordinates(_reference(LARGE_N), seed),
                "config": ecm.FitConfig(g=2, n_starts=5, seed=0)}
    if workload == "io-roundtrip":
        data = change_coordinates(_reference(IO_N), seed)
        small = Dataset(samples=data.samples[:IO_FIT_N],
                        true_labels=data.true_labels[:IO_FIT_N],
                        good_flags=data.good_flags[:IO_FIT_N])
        result = ecm.fit(small, ecm.FitConfig(g=2, n_starts=2, seed=0), ecm.Kind.CMVN)
        return {"data": data, "fit": result, "fit_data": small, "dir": work_dir}
    raise ValueError(f"unknown workload {workload!r}")


def fit_problems(result) -> list:
    """Output checks that must hold for every returned fit."""
    out = []
    if not np.isfinite(result.loglik):
        out.append(f"loglik {result.loglik} is not finite")
    zsum = np.abs(result.resp.z.sum(axis=1) - 1.0).max()
    if zsum > ZSUM_TOL:
        out.append(f"z rows sum to 1 only within {zsum:.3e}")
    v = result.resp.v
    if v is not None and not (np.all(v > 0.0) and np.all(v < 1.0)):
        out.append("v leaves (0, 1)")
    tr = np.asarray(result.loglik_trace)
    drop = tr[:-1] - tr[1:] - ASCENT_RTOL * np.abs(tr[:-1])
    if drop.size and drop.max() > 0:
        out.append(f"log-likelihood trace decreases at iteration {int(drop.argmax()) + 2}")
    return out


def _f1(pred_bad, true_bad):
    tp = int(np.count_nonzero(pred_bad & true_bad))
    denom = int(np.count_nonzero(pred_bad)) + int(np.count_nonzero(true_bad))
    return 2.0 * tp / denom if denom else 1.0


def _answer(result, data, kind, g, problems):
    good = data.good_flags
    bad = result.bad_flags if result.bad_flags is not None else np.zeros(data.n, bool)
    return Answer(
        kind=kind, g=g, start=result.start_index,
        bad_units=tuple(int(i) + 1 for i in np.flatnonzero(bad)),
        best_loglik=result.loglik,
        ari_good=metrics.adjusted_rand_index(data.true_labels, result.hard_labels, mask=good),
        detect_f1=_f1(bad, ~good),
        problems=problems,
    )


def _same(a, b) -> bool:
    """Exact equality of nested dataclasses, arrays and plain values."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and np.array_equal(a, b))
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def _io_roundtrip(inp) -> Answer:
    data, result, work = inp["data"], inp["fit"], inp["dir"]
    problems = []
    paths = {k: work / f"dataset.{k}" for k in ("json", "csv")}
    for fmt, path in paths.items():
        dataio.write_dataset(data, path)
        back = dataio.read_dataset(path)
        if fmt == "json":
            same = _same(data, back)
        else:  # long CSV carries samples and labels only
            same = _same(data.samples, back.samples) and _same(data.true_labels, back.true_labels)
        if not same:
            problems.append(f"{fmt} dataset round trip is not exact")
    fit_path = work / "fit.json"
    dataio.write_fit(result, fit_path)
    back_fit = dataio.read_fit(fit_path)
    if not _same(result, back_fit):
        problems.append("write_fit -> read_fit round trip is not exact")
    nbytes = sum(p.stat().st_size for p in (*paths.values(), fit_path))
    problems += fit_problems(back_fit)
    ans = _answer(back_fit, inp["fit_data"], back_fit.model.kind.value, back_fit.model.g, problems)
    ans.io_bytes = nbytes
    return ans


def run_op(workload: str, inp: dict) -> Answer:
    """One timed operation of the workload, with its outputs checked."""
    if workload in ("fit-ref", "fit-large"):
        cfg = inp["config"]
        result = ecm.fit(inp["data"], cfg, ecm.Kind.CMVN)
        return _answer(result, inp["data"], "cmvn", cfg.g, fit_problems(result))
    if workload == "sweep-noise":
        res = selection.sweep(inp["data"], [ecm.Kind.MVN, ecm.Kind.CMVN],
                              list(studies.G_VALUES), inp["config"])
        problems = []
        for e in res.entries:
            if e.result is not None:
                problems += [f"{e.kind.value} G={e.g}: {p}" for p in fit_problems(e.result)]
        best = res.best_entry
        return _answer(best.result, inp["data"], best.kind.value, best.g, problems)
    if workload == "io-roundtrip":
        return _io_roundtrip(inp)
    raise ValueError(f"unknown workload {workload!r}")
