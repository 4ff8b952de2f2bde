"""File formats: three-way datasets (JSON / long CSV) and fitted models.

Serialization is canonical: fixed key order, row-major flattening, floats
written with Python's shortest round-trip repr (lossless), optionals
omitted when absent.  Equal in-memory values therefore produce
byte-identical files, and every read(write(x)) is exact.
"""

import contextlib
import csv
import json
import math
import os
import warnings
from array import array
from dataclasses import asdict, fields

import numpy as np

from .data import Dataset, as_array, as_number
from .distributions import CmvnParams, MvnParams
from .ecm import FitConfig, FitResult, Kind, MixtureModel, Responsibilities
from .errors import DimensionMismatch, NotPositiveDefinite, ParseError, SchemaError, ShapeError
from .selection import count_free_params

SCHEMA_VERSION = 1

_DATASET_KEYS = {"schema_version", "n", "r", "p", "samples", "labels", "good_flags", "names"}


@contextlib.contextmanager
def _replacing(path, newline=None):
    """A text file beside path, renamed onto path when the block ends and
    removed when it raises, so a failed write never leaves a partial target."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _dump_canonical(doc, path):
    """Write doc's JSONEncoder(indent=1) text, newline-ended, through
    _replacing: an array value chunk by chunk (see _number_block), json the rest."""
    with _replacing(path) as fh:
        sep = "{\n"
        for key, val in doc.items():
            if isinstance(val, np.ndarray):
                fh.write(f"{sep} {json.dumps(key)}: ")
                fh.writelines(_number_block(val))
            else:  # the item as a one-key object, less its braces, is already at depth 1
                fh.write(sep + json.dumps({key: val}, indent=1)[2:-2])
            sep = ",\n"
        fh.write("\n}\n" if doc else "{}\n")


# Units per repr call.  It exists for peak memory: building a whole file's
# text at once raised the io-roundtrip benchmark's peak RSS from 72.7 to 81.6 MB.
_CHUNK = 2048


def _repr_chunks(arr):
    """repr(chunk.tolist()) of arr, _CHUNK units at a time.  The repr of a
    list of ints or floats is json's and csv's text for each number."""
    for start in range(0, len(arr), _CHUNK):
        yield repr(arr[start:start + _CHUNK].tolist())


def _number_block(arr):
    """A non-empty 1-D or 2-D array as the value of a top-level key, in
    JSONEncoder(indent=1)'s layout: its repr with ", " and "], [" laid out anew."""
    d = arr.ndim
    item = ",\n" + " " * (d + 1)  # between two numbers of one list
    outer = item if d == 1 else "\n  ],\n  [\n   "  # between two rows, so two chunks
    yield "[\n  " if d == 1 else "[\n  [\n   "
    for i, text in enumerate(_repr_chunks(arr)):
        text = text[d:-d].replace(", ", item).replace("]" + item + "[", outer)
        if arr.dtype == bool:
            text = text.replace("True", "true").replace("False", "false")
        yield (outer if i else "") + text
    yield "\n ]" if d == 1 else "\n  ]\n ]"


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _load_doc(path):
    """A versioned JSON document: a top-level object at SCHEMA_VERSION."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema_version {version!r}")
    return doc


def _warn_unknown(doc, known, path):
    extra = set(doc).difference(known)
    if extra:
        warnings.warn(f"{path}: ignoring unknown fields {sorted(extra)}")


def write_dataset(data: Dataset, path) -> None:
    """Write a dataset as long CSV if path ends in .csv, else as canonical JSON."""
    rows = data.samples.reshape(data.n, -1)
    if not str(path).endswith(".csv"):
        doc = {"schema_version": SCHEMA_VERSION, "n": data.n, "r": data.r, "p": data.p,
               "samples": rows}
        if data.true_labels is not None:
            doc["labels"] = data.true_labels
        if data.good_flags is not None:
            doc["good_flags"] = data.good_flags
        if data.unit_names is not None:
            doc["names"] = list(data.unit_names)
        _dump_canonical(doc, path)
        return
    # a record is "unit," + "row,col," + value + ",label\r\n", csv.writer's text for
    # it: str() of an int (labels via tolist(), twice as fast as int64 scalars), a float's repr
    cells = [f"{a},{b}," for a in range(1, data.r + 1) for b in range(1, data.p + 1)]
    labels = data.true_labels
    with _replacing(path, newline="") as fh:
        fh.write("unit,row,col,value\r\n" if labels is None else "unit,row,col,value,label\r\n")
        for start, text in zip(range(0, data.n, _CHUNK), _repr_chunks(rows)):
            ends = (["\r\n"] * _CHUNK if labels is None
                    else [f",{lab}\r\n" for lab in labels[start:start + _CHUNK].tolist()])
            units = zip(range(start + 1, data.n + 1), text[2:-2].split("], ["), ends)
            fh.write("".join([f"{unit},{cell}{value}{end}" for unit, unit_values, end in units
                              for cell, value in zip(cells, unit_values.split(", "))]))


def read_dataset(path) -> Dataset:
    """Read a dataset written by write_dataset (or hand-authored to the
    same schemas); the format follows the file name as there."""
    if str(path).endswith(".csv"):
        return _read_dataset_csv(path)
    doc = _load_doc(path)
    _warn_unknown(doc, _DATASET_KEYS, path)
    try:
        n, r, p = (as_number(key, doc[key], int) for key in ("n", "r", "p"))
        flat = doc["samples"]
        if len(flat) != n:
            raise ShapeError(f"{path}: expected {n} samples, found {len(flat)}")
        for i, values in enumerate(flat):
            if len(values) != r * p:
                raise ShapeError(
                    f"{path}: sample {i + 1} has {len(values)} values, expected {r * p}")
        return Dataset(samples=as_array(flat, "samples", float).reshape(n, r, p),
                       true_labels=doc.get("labels"), good_flags=doc.get("good_flags"),
                       unit_names=doc.get("names"))
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed dataset: {exc}") from None


def _read_dataset_csv(path) -> Dataset:
    """A long-CSV dataset, its records parsed by one np.loadtxt call; the
    line-by-line reader runs instead when that parse finds a faulty record
    or a unit whose records disagree on its label."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header[:4] != ["unit", "row", "col", "value"]:
            raise ParseError(f"{path}: line 1: expected header unit,row,col,value[,label]")
        with_label = header[4:5] == ["label"]
        _warn_unknown(header[4 + with_label:], set(), path)
        records = _load_records(fh, with_label)
    data = None if records is None else _dataset_from_records(path, *records)
    if data is None:
        data = _dataset_from_records(path, *_read_records_by_line(path, with_label))
    return data


def _load_records(fh, with_label):
    """(cells, values, labels) of the records left in fh, as
    _read_records_by_line gives them; None if a record is faulty."""
    k = 4 + with_label
    dtype = [("unit", "i8"), ("row", "i8"), ("col", "i8"), ("value", "f8"), ("label", "i8")]
    try:
        with warnings.catch_warnings():  # a header-only file reads as "no data cells"
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rec = np.loadtxt(fh, dtype=dtype[:k], delimiter=",", quotechar='"',
                             comments=None, usecols=range(k), ndmin=1)
    except ValueError:
        return None
    if not np.isfinite(rec["value"]).all():
        return None
    # copies, so the record array is freed before the cell checks' sort
    labels = rec["label"].copy() if with_label else None
    return np.stack([rec["unit"], rec["row"], rec["col"]], axis=1), rec["value"].copy(), labels


def _read_records_by_line(path, with_label):
    """The records after the header, read one line at a time; the first
    faulty line raises its numbered message.  It stays beside _load_records,
    whose errors count rows, not lines (blank ones go uncounted), and which
    refuses forms that int() and float() accept, such as 1_0 and non-ASCII
    digits.  The tests use it as the fast reader's oracle."""
    cells = array("q")  # unit, row, col of each record, in file order
    values = array("d")
    labels, first = array("q"), {}  # each record's label; each unit's first
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                unit = int(row[0])
                cells.extend((unit, int(row[1]), int(row[2])))
                value = float(row[3])
            except (ValueError, IndexError, OverflowError):
                raise ParseError(f"{path}: line {lineno}: malformed record {row!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: line {lineno}: non-finite value")
            values.append(value)
            if with_label:
                try:
                    labels.append(int(row[4]))  # OverflowError outside int64
                except (ValueError, IndexError, OverflowError):
                    raise ParseError(f"{path}: line {lineno}: malformed label") from None
                if first.setdefault(unit, labels[-1]) != labels[-1]:
                    raise ParseError(f"{path}: line {lineno}: inconsistent label for unit {unit}")
    return (np.frombuffer(cells, dtype=np.int64).reshape(-1, 3), np.frombuffer(values),
            np.frombuffer(labels, dtype=np.int64) if with_label else None)


def _dataset_from_records(path, cells, values, labels):
    """The dataset whose (unit, row, col) cells hold values, with each
    record's label (None without a label column); None if a unit's records
    disagree on its label, which only _load_records passes on.

    One stable sort of the cells orders them row-major, equal cells in file
    order; a complete set without repeats is then the grid itself."""
    if not len(values):
        raise ShapeError(f"{path}: no data cells")
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    if labels is not None:
        lab = labels[order]
        if ((cells[1:, 0] == cells[:-1, 0]) & (lab[1:] != lab[:-1])).any():
            return None
    below = np.flatnonzero(np.any(cells < 1, axis=1))
    if below.size:
        unit, a, b = cells[below[np.argmin(order[below])]]
        raise ShapeError(f"{path}: cell (unit={unit}, row={a}, col={b}) has an index below 1")
    # every record whose cell equals the one before: each cell's repeats, not its first
    repeated = np.flatnonzero(np.all(cells[1:] == cells[:-1], axis=1)) + 1
    if repeated.size:
        unit, a, b = cells[repeated[np.argmin(order[repeated])]]
        raise ShapeError(f"{path}: duplicate cell (unit={unit}, row={a}, col={b})")
    n, r, p = (int(k) for k in cells.max(axis=0))
    if len(cells) != n * r * p:
        k = np.arange(len(cells) + 1)
        grid = np.stack([k // p // r, k // p % r, k % p], axis=1) + 1  # no r * p to overflow
        gap = np.flatnonzero(np.any(cells != grid[:-1], axis=1))
        unit, a, b = grid[gap[0] if gap.size else -1]
        raise ShapeError(f"{path}: missing cell (unit={unit}, row={a}, col={b})")
    del cells  # the sorted copy, before Dataset copies the samples
    true_labels = None if labels is None else labels[order[::r * p]]
    return Dataset(samples=values[order].reshape(n, r, p), true_labels=true_labels)


# read_fit requires each to be what _fit_doc writes for the record built from the others
_DERIVED_KEYS = ("g", "n_obs", "n_params", "loglik", "iterations", "seed", "labels",
                 "bad_flags", "warnings")


def _fit_doc(result: FitResult) -> dict:
    """The document write_fit writes for a fit."""
    model = result.model
    comps = []
    for comp in model.components:
        base = comp.base if model.kind is Kind.CMVN else comp
        rec = {"m": base.m.tolist(), "sigma": base.sigma.tolist(), "psi": base.psi.tolist()}
        if model.kind is Kind.CMVN:
            rec.update(alpha=comp.alpha, eta=comp.eta)
        comps.append(rec)
    r, p = model.components[0].shape
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind.value,
        "g": model.g,
        "weights": model.weights.tolist(),
        "components": comps,
        "loglik": result.loglik,
        "loglik_trace": result.loglik_trace.tolist(),
        "n_obs": len(result.resp.z),
        "n_params": count_free_params(model.kind, model.g, r, p),
        "seed": result.seed,
        "config": asdict(result.config),
        "z": result.resp.z.tolist(),
        "labels": result.hard_labels.tolist(),
        "converged": result.converged,
        "iterations": result.iterations,
        "start_index": result.start_index,
        "warnings": list(result.warnings),
    }
    if result.resp.v is not None:
        doc["v"] = result.resp.v.tolist()
    if result.bad_flags is not None:
        doc["bad_flags"] = result.bad_flags.tolist()
    return doc


def write_fit(result: FitResult, path) -> None:
    """Persist a fit: parameters, posteriors, trace, config echo and seed."""
    _dump_canonical(_fit_doc(result), path)


def _model_from_doc(doc, kind: Kind) -> MixtureModel:
    """Mixture from the "weights" and "components" fields of a fit document
    or a model spec; CMVN component records also carry alpha and eta.

    Missing or malformed fields raise KeyError, TypeError, ValueError or
    DimensionMismatch for the caller to report against its file.
    """
    comps = []
    for rec in doc["components"]:
        base = MvnParams(rec["m"], rec["sigma"], rec["psi"])
        if kind is Kind.CMVN:
            comps.append(CmvnParams(base, rec["alpha"], rec["eta"]))
        else:
            comps.append(base)
    return MixtureModel(kind=kind, weights=doc["weights"], components=tuple(comps))


def read_fit(path) -> FitResult:
    """Load a fit written by write_fit; the round trip is exact.  The file is only parsed:
    FitResult judges the input fields, and every field in _DERIVED_KEYS must be exactly
    (JSON type and value) what write_fit writes for the record they build."""
    doc = _load_doc(path)
    try:
        cfg = dict(doc["config"])
        known = {f.name for f in fields(FitConfig)}
        _warn_unknown(cfg, known, f"{path}: config")
        result = FitResult(model=_model_from_doc(doc, Kind(doc["kind"])),
                           resp=Responsibilities(z=doc["z"], v=doc.get("v")),
                           loglik_trace=doc["loglik_trace"], converged=doc["converged"],
                           config=FitConfig(**{k: v for k, v in cfg.items() if k in known}),
                           start_index=doc["start_index"])
        want = _fit_doc(result)
        for key in _DERIVED_KEYS:  # a NaN or infinity in doc raises, so it equals nothing
            want_text = json.dumps(want.get(key))
            if json.dumps(doc.get(key), allow_nan=False) != want_text:
                raise ValueError(f"{key} must be {want_text[:40]}, as write_fit writes it")
    except (DimensionMismatch, KeyError, NotPositiveDefinite, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed fit document: {exc}") from None
    _warn_unknown(doc, want, path)
    return result


def write_sweep(sweep_result, path) -> None:
    """Persist a sweep table (kind, G, BIC per cell, winning row)."""
    entries = []
    for e in sweep_result.entries:
        rec = {"kind": e.kind.value, "g": e.g}
        if e.bic is not None:
            rec["bic"] = float(e.bic)
        if e.error is not None:
            rec["error"] = e.error
        entries.append(rec)
    doc = {"schema_version": SCHEMA_VERSION, "entries": entries, "best": sweep_result.best}
    _dump_canonical(doc, path)

