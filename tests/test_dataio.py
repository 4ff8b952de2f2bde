"""Tests for dataset / fit serialization and the file schemas."""

import csv
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmvmix import dataio
from cmvmix.data import Dataset
from cmvmix.dataio import (
    _CHUNK,
    _dataset_from_records,
    _dump_canonical,
    _read_records_by_line,
    read_dataset,
    read_fit,
    read_model_spec,
    write_dataset,
    write_fit,
    write_sweep,
)
from cmvmix.ecm import FitConfig, Kind, fit
from cmvmix.errors import ParseError, SchemaError, ShapeError
from cmvmix.selection import sweep
from cmvmix.simulate import generate, reference_model


def random_dataset(rng, with_extras=True):
    n = int(rng.integers(1, 8))
    r = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    labels = rng.integers(1, 3, size=n) if with_extras and rng.random() > 0.5 else None
    flags = rng.random(n) > 0.2 if with_extras and rng.random() > 0.5 else None
    names = [f"u{i}" for i in range(n)] if with_extras and rng.random() > 0.5 else None
    return Dataset(rng.standard_normal((n, r, p)), true_labels=labels,
                   good_flags=flags, unit_names=names)


def two_unit_dataset():
    return Dataset(np.array([[[1.5, -0.25]], [[3.0, 1e-07]]]), true_labels=[1, 2])


def chunk_edge_datasets():
    """Labelled, flagged and named datasets of one unit less than a write
    chunk, one chunk, and one unit more."""
    rng = np.random.default_rng(8)
    for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
        yield Dataset(rng.standard_normal((n, 2, 3)), true_labels=rng.integers(-3, 3, size=n),
                      good_flags=rng.random(n) > 0.3, unit_names=[f"u{i}\u00e9" for i in range(n)])


def assert_datasets_equal(a, b):
    np.testing.assert_array_equal(a.samples, b.samples)
    for attr in ("true_labels", "good_flags"):
        va, vb = getattr(a, attr), getattr(b, attr)
        assert (va is None) == (vb is None)
        if va is not None:
            np.testing.assert_array_equal(va, vb)
    assert a.unit_names == b.unit_names


class TestDatasetJson:
    def test_minimal(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 1, "p": 1, "samples": [[2.5]]}')
        data = read_dataset(path)
        assert data.n == 1 and data.r == 1 and data.p == 1
        assert data.samples[0, 0, 0] == 2.5

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(20):
            data = random_dataset(rng)
            path = tmp_path / f"ds{k}.json"
            write_dataset(data, path)
            assert_datasets_equal(data, read_dataset(path))

    def test_canonical_bytes(self, tmp_path):
        data = generate(reference_model(), 10, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_dataset(data, p1)
        write_dataset(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_field_warns(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 1, "p": 1, '
                        '"samples": [[1.0]], "future_field": 3}')
        with pytest.warns(UserWarning, match="future_field"):
            read_dataset(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"schema_version": 9, "n": 1, "r": 1, "p": 1, "samples": [[1.0]]}')
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"schema_version": 1, "n": 2,')
        with pytest.raises(ParseError):
            read_dataset(path)

    def test_wrong_sample_length(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 2, "p": 2, "samples": [[1.0, 2.0]]}')
        with pytest.raises(ShapeError):
            read_dataset(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 1, "p": 1, "samples": [[NaN]]}')
        with pytest.raises(ParseError):
            read_dataset(path)

    @pytest.mark.parametrize("fields", [
        '"n": 1, "r": 1, "p": 1, "samples": 5',
        '"n": "one", "r": 1, "p": 1, "samples": [[1.0]]',
        '"n": 1, "r": 1, "p": 1, "samples": [["x"]]',
        '"n": 1, "r": 1, "p": 1, "samples": [[1.0]], "labels": ["a"]',
        '"n": 2, "r": 1, "p": 1, "samples": [[1.0], [2.0]], "labels": [1]',
        '"n": 2, "r": 1, "p": 1, "samples": [[1.0], [2.0]], "labels": [1.5, 2.9]',
        '"n": 2, "r": 1, "p": 1, "samples": [[1.0], [2.0]], "good_flags": [2, "no"]',
        '"n": 1, "r": 1, "p": 1, "samples": [[1.0]], "labels": [9223372036854775808]',
        '"n": 2, "r": 1, "p": 1, "samples": [[1.0], [2.0]], "labels": [true, 2]',
        '"n": 3, "r": 1, "p": 1, "samples": [[1.0], [2.0], [3.0]], "names": "abc"',
        '"n": 3, "r": 1, "p": 1, "samples": [[1.0], [2.0], [3.0]], "names": [1, null, 2.5]',
        '"n": 1, "r": 1, "p": 2, "samples": [["1.5", 2.0]]',
        '"n": 1, "r": 1, "p": 2, "samples": [[true, false]]',
        '"n": 2, "r": 1, "p": 2, "samples": [[1.5, 2.0], [0.5, true]]',
        '"n": 2, "r": 1, "p": 1, "samples": [[1.0], [2.0]], "names": [1, null]',
        '"n": 1, "r": 1, "p": 1, "samples": [[1.0]], "names": {"a": 1}',
    ], ids=["samples-number", "n-text", "value-text", "label-text", "labels-short",
            "labels-fractional", "flags-not-bool", "label-beyond-int64", "label-bool",
            "names-text", "names-not-strings", "value-numeric-text", "sample-all-bool",
            "sample-bool-among-floats", "names-int-null", "names-mapping"])
    def test_malformed_fields_are_parse_errors(self, tmp_path, fields):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, ' + fields + '}')
        with pytest.raises(ParseError, match="malformed dataset"):
            read_dataset(path)

    def test_ragged_sample_is_named_parse_error(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 1, "p": 2, "samples": [[1.0, [2.0]]]}')
        with pytest.raises(ParseError) as caught:
            read_dataset(path)
        assert str(caught.value) == (
            f"{path}: malformed dataset: samples must be rectangular, not a ragged list")

    @pytest.mark.parametrize("fields", [
        '"n": 2.0, "r": 1, "p": 1, "samples": [[1.0], [2.0]]',
        '"n": 1, "r": true, "p": 1, "samples": [[1.0]]',
        '"n": 1, "r": 1, "p": 1.0, "samples": [[1.0]]',
        '"n": 2, "r": 0, "p": 1, "samples": [[], []]',
        '"n": 0, "r": 2, "p": 2, "samples": []',
    ], ids=["n-float", "r-bool", "p-float", "r-zero", "n-zero"])
    def test_counts_must_be_positive_json_integers(self, tmp_path, fields):
        path = tmp_path / "counts.json"
        path.write_text('{"schema_version": 1, ' + fields + '}')
        with pytest.raises(ParseError, match="malformed dataset"):
            read_dataset(path)

    def test_sample_count_differs_from_n(self, tmp_path):
        path = tmp_path / "count.json"
        path.write_text('{"schema_version": 1, "n": 2, "r": 1, "p": 1, "samples": [[1.0]]}')
        with pytest.raises(ShapeError, match="expected 2 samples, found 1"):
            read_dataset(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "nosamples.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 1, "p": 1}')
        with pytest.raises(ParseError, match="missing field 'samples'"):
            read_dataset(path)

    def test_top_level_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError, match="top level must be an object"):
            read_dataset(path)

    def test_exact_text(self, tmp_path):
        path = tmp_path / "two.json"
        write_dataset(two_unit_dataset(), path)
        assert path.read_text() == (
            '{\n "schema_version": 1,\n "n": 2,\n "r": 1,\n "p": 2,\n "samples": [\n'
            '  [\n   1.5,\n   -0.25\n  ],\n  [\n   3.0,\n   1e-07\n  ]\n ],\n'
            ' "labels": [\n  1,\n  2\n ]\n}\n')
        # across a write chunk's edges, the text json's own encoder gives
        for data in chunk_edge_datasets():
            write_dataset(data, path)
            doc = {"schema_version": 1, "n": data.n, "r": data.r, "p": data.p,
                   "samples": data.samples.reshape(data.n, -1).tolist(),
                   "labels": data.true_labels.tolist(), "good_flags": data.good_flags.tolist(),
                   "names": list(data.unit_names)}
            assert path.read_text() == json.JSONEncoder(indent=1).encode(doc) + "\n"

    def test_optionals_omitted(self, tmp_path):
        data = Dataset(np.ones((1, 1, 1)))
        path = tmp_path / "bare.json"
        write_dataset(data, path)
        doc = json.loads(path.read_text())
        assert "labels" not in doc and "good_flags" not in doc and "names" not in doc

    def test_failed_encode_keeps_target(self, tmp_path):
        path = tmp_path / "keep.json"
        write_dataset(two_unit_dataset(), path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _dump_canonical({"samples": list(range(1000)), "bad": object()}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["keep.json"]


@st.composite
def datasets(draw):
    n, r, p = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def optional(elems):
        return st.none() | st.lists(elems, min_size=n, max_size=n)

    return Dataset(draw(arrays(np.float64, (n, r, p), elements=finite)),
                   true_labels=draw(optional(st.integers(-2**63, 2**63 - 1))),
                   good_flags=draw(optional(st.booleans())),
                   unit_names=draw(optional(st.text(max_size=5))))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_dataset_round_trip_property(data):
    """JSON keeps every field exactly; long CSV keeps samples and labels."""
    with tempfile.TemporaryDirectory() as d:
        json_path, csv_path = os.path.join(d, "ds.json"), os.path.join(d, "ds.csv")
        write_dataset(data, json_path)
        assert_datasets_equal(data, read_dataset(json_path))
        write_dataset(data, csv_path)
        assert_datasets_equal(Dataset(data.samples, true_labels=data.true_labels),
                              read_dataset(csv_path))


@st.composite
def faulty_csv_texts(draw):
    """A labelled or unlabelled dataset's long CSV with its records
    shuffled, then some repeated, dropped or split by blank lines, a label
    changed, or a field replaced by a token the reader may refuse."""
    n, r, p = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    data = Dataset(draw(arrays(np.float64, (n, r, p), elements=finite)),
                   true_labels=draw(st.none() | st.lists(st.integers(0, 2), min_size=n,
                                                         max_size=n)))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ds.csv")
        write_dataset(data, path)
        with open(path) as fh:
            header, *records = fh.read().splitlines()
    records = draw(st.permutations(records))
    edits = st.sampled_from(["repeat", "drop", "blank", "label", "token"])
    for edit in draw(st.lists(edits, min_size=1, max_size=3)):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        if edit == "repeat":
            records.insert(draw(st.integers(0, len(records))), records[i])
        elif edit == "drop":
            del records[i]
        elif edit == "blank":
            records.insert(i, "")
        else:
            fields = records[i].split(",")
            if edit == "label":
                fields[-1] = "9"  # a label not drawn; without labels, a valid value
            else:
                column = draw(st.sampled_from(range(len(fields))[::-1]))  # value or label first
                fields[column] = draw(st.sampled_from(
                    ["inf", "1e400", "1.5", "1_0", "abc", '""', "99999999999999999999",
                     "9223372036854775808"]))
            records[i] = ",".join(fields)
    return draw(st.sampled_from(["\n", "\r\n"])).join([header, *records, ""])


@settings(max_examples=200, deadline=None)
@given(faulty_csv_texts())
def test_csv_reader_matches_line_reader(text):
    """The one-call parse and the line-by-line reader it falls back on give
    the same dataset, or the same error with the same message."""
    outcomes = []
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "edited.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with_label = text.startswith("unit,row,col,value,label")
        for read in (lambda: read_dataset(path),
                     lambda: _dataset_from_records(path, *_read_records_by_line(path, with_label))):
            try:
                outcomes.append(read())
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
    fast, by_line = outcomes
    if isinstance(by_line, Dataset):
        assert isinstance(fast, Dataset)
        assert_datasets_equal(fast, by_line)
    else:
        assert fast == by_line


class TestDatasetCsv:
    def test_failed_write_keeps_target(self, tmp_path, monkeypatch):
        # a write that stops after its first chunk of units leaves the old file
        path = tmp_path / "keep.csv"
        write_dataset(two_unit_dataset(), path)
        before = path.read_bytes()
        repr_chunks = dataio._repr_chunks

        def first_chunk_only(arr):
            yield next(repr_chunks(arr))
            raise KeyboardInterrupt

        monkeypatch.setattr(dataio, "_repr_chunks", first_chunk_only)
        data = Dataset(np.random.default_rng(4).standard_normal((2 * _CHUNK, 2, 3)))
        with pytest.raises(KeyboardInterrupt):
            write_dataset(data, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["keep.csv"]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((4, 2, 3)), true_labels=[1, 1, 2, 2])
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(data.samples, back.samples)
        np.testing.assert_array_equal(data.true_labels, back.true_labels)

    def test_exact_text(self, tmp_path):
        path = tmp_path / "two.csv"
        write_dataset(two_unit_dataset(), path)
        assert path.read_bytes() == (b"unit,row,col,value,label\r\n1,1,1,1.5,1\r\n1,1,2,-0.25,1\r\n"
                                     b"2,1,1,3.0,2\r\n2,1,2,1e-07,2\r\n")
        # across a write chunk's edges, the text csv.writer gives the same rows,
        # with the drawn labels, without labels, and with labels at int64's ends
        for edge in chunk_edge_datasets():
            extremes = np.where(np.arange(edge.n) % 2, 2**63 - 1, -2**63)
            for data in (edge, Dataset(edge.samples), Dataset(edge.samples, true_labels=extremes)):
                write_dataset(data, path)
                k = 4 + (data.true_labels is not None)  # columns
                want = io.StringIO(newline="")
                writer = csv.writer(want)
                writer.writerow(["unit", "row", "col", "value", "label"][:k])
                for (unit, a, b), value in np.ndenumerate(data.samples):
                    label = None if k == 4 else data.true_labels[unit].item()
                    writer.writerow([unit + 1, a + 1, b + 1, value.item(), label][:k])
                assert path.read_bytes() == want.getvalue().encode()

    def test_shuffled_rows_read_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((5, 2, 3)), true_labels=[1, 2, 2, 1, 3])
        path = tmp_path / "ordered.csv"
        write_dataset(data, path)
        header, *records = path.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rng.permutation(records)))
        assert_datasets_equal(read_dataset(path), read_dataset(shuffled))

    def test_missing_cell_named(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("unit,row,col,value\n1,1,1,1.0\n1,1,2,2.0\n1,2,1,3.0\n")
        with pytest.raises(ShapeError, match=r"unit=1, row=2, col=2"):
            read_dataset(path)

    def test_missing_cell_beside_huge_index(self, tmp_path):
        # found from the records alone: no array as large as the index is made
        path = tmp_path / "huge.csv"
        path.write_text("unit,row,col,value\n1,1,1,1.0\n1,1,1000000000000,2.0\n")
        with pytest.raises(ShapeError, match=r"missing cell \(unit=1, row=1, col=2\)"):
            read_dataset(path)

    @pytest.mark.parametrize("rows, cell", [
        ("1,1,1,1.0\n1,4294967296,4294967296,2.0", "unit=1, row=1, col=2"),  # r * p = 2**64
        ("1,1,1,1.0\n1,1,2,2.0\n1,2,2,4.0", "unit=1, row=2, col=1"),
        ("3,1,1,3.0\n1,1,1,1.0", "unit=2, row=1, col=1"),
        ("1,1,1,1.0\n2,1,2,4.0\n2,1,1,3.0", "unit=1, row=1, col=2"),
    ], ids=["rp-beyond-int64", "row-start", "unit-absent", "unit-end"])
    def test_missing_cell_at_an_edge(self, tmp_path, rows, cell):
        path = tmp_path / "edge.csv"
        path.write_text(f"unit,row,col,value\n{rows}\n")
        with pytest.raises(ShapeError, match=rf"missing cell \({cell}\)"):
            read_dataset(path)

    @pytest.mark.parametrize("rows", [
        "1,1,1,1.0\n1,1,1,2.0\n1,2,2,4.0",
        "1,2,2,4.0\n1,1,1,1.0\n1,2,1,3.0\n1,1,1,2.0",  # as many records as the 2x2 grid
    ], ids=["fewer-records", "grid-count"])
    def test_duplicate_reported_before_missing(self, tmp_path, rows):
        path = tmp_path / "both.csv"
        path.write_text(f"unit,row,col,value\n{rows}\n")
        with pytest.raises(ShapeError, match=r"duplicate cell \(unit=1, row=1, col=1\)"):
            read_dataset(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("unit,row,col,value\n1,1,1,1.0\n1,1,1,2.0\n")
        with pytest.raises(ShapeError, match="duplicate"):
            read_dataset(path)

    def test_duplicate_names_earliest_repeated_record(self, tmp_path):
        # records A, B, B, A: the first record that repeats a cell is the second B
        path = tmp_path / "abba.csv"
        path.write_text("unit,row,col,value\n1,1,1,1.0\n2,1,1,2.0\n2,1,1,3.0\n1,1,1,4.0\n")
        with pytest.raises(ShapeError, match=r"duplicate cell \(unit=2, row=1, col=1\)"):
            read_dataset(path)

    @pytest.mark.parametrize("rows, cell", [
        # units 1-2 are complete 1x1 matrices; the extra cell used to be dropped
        ("1,1,1,1.0\n0,1,1,5.0\n2,1,1,2.0", "unit=0, row=1, col=1"),
        ("1,1,1,1.0\n1,-1,1,5.0\n2,1,1,2.0", "unit=1, row=-1, col=1"),
        ("1,1,1,1.0\n2,1,0,5.0\n2,1,1,2.0", "unit=2, row=1, col=0"),
        ("1,-1,1,1.0", "unit=1, row=-1, col=1"),
    ], ids=["unit-0", "row-negative", "col-0", "every-cell-bad"])
    def test_index_below_one_named(self, tmp_path, rows, cell):
        path = tmp_path / "zero.csv"
        path.write_text(f"unit,row,col,value\n{rows}\n")
        with pytest.raises(ShapeError, match=rf"\({cell}\) has an index below 1"):
            read_dataset(path)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,row,col,value\n1,1,1,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(path)
        path.write_text("unit,row,col,value\n1.5,1,1,0.5\n")  # a unit is an integer
        with pytest.raises(ParseError, match="line 2: malformed record"):
            read_dataset(path)

    def test_index_beyond_64_bits_malformed(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("unit,row,col,value\n1,1,1,1.0\n1,1,99999999999999999999,2.0\n")
        with pytest.raises(ParseError, match="line 3: malformed record"):
            read_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("unit,row,col,value\n\n1,1,1,0.5\n\n2,1,1,1.5\n\n")
        np.testing.assert_array_equal(read_dataset(path).samples.ravel(), [0.5, 1.5])
        path.write_text('unit,row,col,value\n\n"1","1","1","0.5"\n\n2,1,1,1.5\n\n')  # quoted
        np.testing.assert_array_equal(read_dataset(path).samples.ravel(), [0.5, 1.5])

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("unit,row,col,value\n1,1,1,1.0\n2,1,1,inf\n")
        with pytest.raises(ParseError, match="line 3: non-finite value"):
            read_dataset(path)

    def test_malformed_label(self, tmp_path):
        path = tmp_path / "label.csv"
        # a label is an int64: one outside it is refused where it is read, not wrapped
        for label in ("one", "9223372036854775808", "-9223372036854775809",
                      "99999999999999999999"):
            path.write_text(f"unit,row,col,value,label\n1,1,1,1.0,{label}\n")
            with pytest.raises(ParseError, match="line 2: malformed label"):
                read_dataset(path)

    @pytest.mark.parametrize("header, record, message", [
        ("unit,row,col,value", "1,1,1,0_5", "malformed record"),
        ("unit,row,col,value", "1,1,1,\u0663", "malformed record"),  # an Arabic-Indic 3
        ("unit,row,col,value", "\uff11,1,1,1.0", "malformed record"),  # a fullwidth 1
        ("unit,row,col,value,label", "1,1,1,1.0,1_0", "malformed label"),
    ], ids=["value-separator", "value-arabic-indic", "unit-fullwidth", "label-separator"])
    def test_only_ascii_numbers_without_separators(self, tmp_path, header, record, message):
        # np.loadtxt refuses these, so the line reader must too, not read 5, 3, 1 and 10
        path = tmp_path / "forms.csv"
        path.write_text(f"{header}\n{record}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            read_dataset(path)

    def test_inconsistent_label(self, tmp_path):
        path = tmp_path / "relabel.csv"
        path.write_text("unit,row,col,value,label\n1,1,1,1.0,1\n1,1,2,2.0,2\n")
        with pytest.raises(ParseError, match="line 3: inconsistent label for unit 1"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            read_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("unit,row,col,value\n")
        with pytest.raises(ShapeError, match="no data cells"):
            read_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c,d\n1,1,1,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_dataset(path)

    def test_unknown_column_warns(self, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("unit,row,col,value,lable\n1,1,1,0.5,1\n2,1,1,1.5,2\n")
        with pytest.warns(UserWarning, match="ignoring unknown fields.*lable"):
            data = read_dataset(path)
        assert data.true_labels is None
        np.testing.assert_array_equal(data.samples.ravel(), [0.5, 1.5])


@pytest.fixture(scope="module")
def mvn_fit(tmp_path_factory):
    data = generate(reference_model(), 40, seed=5)
    path = tmp_path_factory.mktemp("mvn") / "mvn.json"
    write_fit(fit(data, FitConfig(g=2, n_starts=2, seed=6), Kind.MVN), path)
    return path


class TestFitRoundTrip:
    @pytest.fixture(scope="class")
    def fitted(self):
        data = generate(reference_model(), 60, seed=3)
        return data, fit(data, FitConfig(g=2, n_starts=3, seed=4), Kind.CMVN)

    def test_round_trip_exact(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "fit.json"
        write_fit(result, path)
        back = read_fit(path)
        assert back.model.kind is result.model.kind
        np.testing.assert_array_equal(back.model.weights, result.model.weights)
        for a, b in zip(back.model.components, result.model.components):
            np.testing.assert_array_equal(a.base.m, b.base.m)
            np.testing.assert_array_equal(a.base.sigma, b.base.sigma)
            np.testing.assert_array_equal(a.base.psi, b.base.psi)
            assert a.alpha == b.alpha and a.eta == b.eta
        np.testing.assert_array_equal(back.resp.z, result.resp.z)
        np.testing.assert_array_equal(back.resp.v, result.resp.v)
        np.testing.assert_array_equal(back.loglik_trace, result.loglik_trace)
        np.testing.assert_array_equal(back.hard_labels, result.hard_labels)
        np.testing.assert_array_equal(back.bad_flags, result.bad_flags)
        assert back.config == result.config
        assert back.seed == result.seed
        assert back.converged == result.converged

    def test_write_is_canonical(self, tmp_path, fitted):
        _, result = fitted
        p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
        write_fit(result, p1)
        write_fit(result, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_double_round_trip_byte_identical(self, tmp_path, fitted):
        _, result = fitted
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        write_fit(result, p1)
        write_fit(read_fit(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_fit(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1, "kind": "cmvn"')
        with pytest.raises(ParseError):
            read_fit(path)

    def test_unknown_field_ignored_with_warning(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "fwd.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["a_future_extension"] = {"x": 1}
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="a_future_extension"):
            back = read_fit(path)
        assert back.model.g == result.model.g

    def test_unknown_config_field_ignored_with_warning(self, tmp_path, fitted):
        # e.g. a FitConfig option that an older version wrote and this one lacks
        _, result = fitted
        path = tmp_path / "old.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["config"]["unscaled_eta_update"] = False
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="config: ignoring unknown fields.*unscaled_eta_update"):
            back = read_fit(path)
        assert back.config == result.config

    def test_file_with_min_cluster_weight_reads_back_equal(self, tmp_path):
        # written by the version whose FitConfig still had min_cluster_weight
        # (the floor r*p/2 is now fixed); the file reads back with that field
        # ignored and writes back without it
        path = Path(__file__).with_name("fit_with_min_cluster_weight.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = read_fit(path)
        assert [str(w.message) for w in caught] == [
            f"{path}: config: ignoring unknown fields ['min_cluster_weight']"]
        doc = json.loads(path.read_text())
        del doc["config"]["min_cluster_weight"]
        write_fit(back, tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text()) == doc

    def test_component_shape_mismatch_is_parse_error(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "sigma1x1.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["components"][0]["sigma"] = [[1.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="malformed fit document"):
            read_fit(path)

    @pytest.mark.parametrize("key, edit", [
        ("labels", lambda v: [lab + 0.5 for lab in v]),
        ("bad_flags", lambda v: [2 if f else 0 for f in v]),
        ("labels", lambda v: [-1] + v[1:]),
        ("labels", lambda v: [2] + v[1:]),  # the fit has G = 2
        ("labels", lambda v: v[:-1]),
        ("bad_flags", lambda v: v[:-1]),
    ], ids=["labels-fractional", "flags-not-bool", "label-negative", "label-is-g",
            "labels-short", "flags-short"])
    def test_malformed_labels_and_flags_are_parse_errors(self, tmp_path, fitted, key, edit):
        _, result = fitted
        path = tmp_path / "labels.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc[key] = edit(doc[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="malformed fit document"):
            read_fit(path)

    @pytest.mark.parametrize("key, value", [
        ("iterations", lambda v: v + 0.9),
        ("iterations", lambda v: v + 1),
        ("seed", lambda v: v + 0.5),
        ("seed", lambda v: v + 1),
        ("start_index", float),
        ("start_index", lambda v: 99),
        ("start_index", lambda v: v == 1),  # a boolean in range
        ("converged", lambda v: "false"),
        ("converged", int),
        ("warnings", lambda v: "oops"),
        ("warnings", lambda v: [1]),
        ("g", lambda v: 7),
        ("loglik", lambda v: 123.0),
        ("loglik", lambda v: float("nan")),
        ("n_obs", lambda v: 5),
        ("n_params", lambda v: v + 1),
        ("config", lambda v: {**v, "g": 2.5}),
        ("config", lambda v: {**v, "g": 3}),
        ("config", lambda v: {**v, "n_starts": float(v["n_starts"])}),
        ("config", lambda v: {**v, "max_iter": True}),
        ("config", lambda v: {**v, "seed": float(v["seed"])}),
        ("config", lambda v: list(v.items())),  # [key, value] pairs, not an object
        ("components", lambda v: [{**v[0], "eta": float("nan")}, *v[1:]]),
        ("components", lambda v: [{**v[0], "eta": float("inf")}, *v[1:]]),
        ("weights", lambda v: [float("nan"), *v[1:]]),
        # NaN across the row most surely in cluster 0: argmax picks the first NaN, as its label
        ("z", lambda v: [[float("nan")] * len(row) if row == max(v) else row for row in v]),
        ("v", lambda v: [[float("nan")] * len(v[0]), *v[1:]]),
        ("loglik_trace", lambda v: [float("nan"), *v[1:]]),
        ("loglik_trace", lambda v: [float("-inf"), *v[1:]]),
        ("loglik_trace", lambda v: [str(x) for x in v]),
        ("weights", lambda v: [str(w) for w in v]),
        ("z", lambda v: [[str(x) for x in v[0]], *v[1:]]),
        ("components", lambda v: [{**v[0], "alpha": str(v[0]["alpha"])}, *v[1:]]),
        ("components", lambda v: [{**v[0], "m": [[str(v[0]["m"][0][0]), *v[0]["m"][0][1:]],
                                                 *v[0]["m"][1:]]}, *v[1:]]),
    ], ids=["iterations-float", "iterations-not-trace-length", "seed-float",
            "seed-not-config-seed", "start-float", "start-beyond-n-starts", "start-bool",
            "converged-text", "converged-int", "warnings-text", "warnings-not-strings",
            "g-not-components", "loglik-not-trace-end", "loglik-nan", "n-obs-not-z-rows",
            "n-params-not-model", "config-g-float",
            "config-g-not-model-g", "config-n-starts-float", "config-max-iter-bool",
            "config-seed-float", "config-pairs", "eta-nan", "eta-infinite", "weight-nan", "z-row-nan",
            "v-row-nan", "trace-nan-before-end", "trace-minus-inf-before-end", "trace-text",
            "weights-text", "z-row-text", "alpha-text", "m-entry-text"])
    def test_malformed_or_inconsistent_fields_are_parse_errors(self, tmp_path, fitted, key,
                                                               value):
        _, result = fitted
        path = tmp_path / "fields.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc[key] = value(doc[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="malformed fit document"):
            read_fit(path)

    def test_empty_trace_is_parse_error(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "notrace.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["loglik_trace"], doc["iterations"] = [], 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="malformed fit document"):
            read_fit(path)

    @staticmethod
    def _widen_posteriors(doc):
        for row in doc["z"] + doc["v"]:
            row.append(0.0)  # a third cluster nobody belongs to

    @staticmethod
    def _relabel_first_unit(doc):
        doc["labels"][0] = 1 - doc["labels"][0]  # in [0, 2), but not z's argmax

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("v"),
        lambda doc: doc.pop("bad_flags"),
        _widen_posteriors,
        _relabel_first_unit,
    ], ids=["v-missing", "flags-missing", "z-wide", "label-disagrees-with-z"])
    def test_fit_inconsistent_with_its_posteriors_is_parse_error(self, tmp_path, fitted, edit):
        _, result = fitted
        path = tmp_path / "inconsistent.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="malformed fit document"):
            read_fit(path)

    @staticmethod
    def _nan_inside_trace(doc):
        doc["loglik_trace"][1] = float("nan")

    # one fault each, and the whole message read_fit reports for it
    @pytest.mark.parametrize("kind, edit, message", [
        (Kind.MVN, lambda doc: doc.update(v=doc["z"]),
         "z must be N x 2, with v exactly when kind is cmvn"),
        (Kind.MVN, lambda doc: doc.update(z=[row[:1] for row in doc["z"]]),
         "z must be N x 2, with v exactly when kind is cmvn"),
        (Kind.CMVN, lambda doc: doc["config"].update(g=3), "config.g must be 2, got 3"),
        (Kind.CMVN, lambda doc: doc.update(start_index=3), "start_index must be in [0, n_starts=3)"),
        (Kind.CMVN, lambda doc: doc.update(loglik_trace=[]),
         "loglik_trace must be a non-empty list of finite numbers"),
        (Kind.CMVN, _nan_inside_trace, "loglik_trace must be a non-empty list of finite numbers"),
    ], ids=["v-on-mvn", "z-one-column", "config-g-not-g", "start-is-n-starts", "trace-empty",
            "trace-nan-inside"])
    def test_inconsistent_fit_message(self, tmp_path, kind, edit, message):
        data = generate(reference_model(), 60, seed=3)
        result = fit(data, FitConfig(g=2, n_starts=3, seed=4), kind)
        path = tmp_path / "inconsistent.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        assert len(doc["loglik_trace"]) > 2
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as caught:
            read_fit(path)
        assert str(caught.value) == f"{path}: malformed fit document: {message}"

    def test_ragged_sigma_is_named_parse_error(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "ragged.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["components"][0]["sigma"][1].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as caught:
            read_fit(path)
        assert str(caught.value) == (
            f"{path}: malformed fit document: sigma must be rectangular, not a ragged list")

    def test_schema_mismatch_typed_error(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "v2.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            read_fit(path)

    def test_mvn_fit_round_trip(self, tmp_path):
        data = generate(reference_model(), 40, seed=5)
        result = fit(data, FitConfig(g=2, n_starts=2, seed=6), Kind.MVN)
        path = tmp_path / "mvn.json"
        write_fit(result, path)
        back = read_fit(path)
        assert back.model.kind is Kind.MVN
        assert back.bad_flags is None and back.resp.v is None
        np.testing.assert_array_equal(back.resp.z, result.resp.z)

    @pytest.mark.parametrize("field", ["alpha", "eta"])
    def test_alpha_or_eta_on_an_mvn_component_is_parse_error(self, tmp_path, mvn_fit, field):
        doc = json.loads(mvn_fit.read_text())
        doc["components"][0][field] = 0.9  # read silently, then dropped, before
        path = tmp_path / "mvn_alpha.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as caught:
            read_fit(path)
        assert str(caught.value) == (
            f"{path}: malformed fit document: component 0: an mvn component has no alpha or eta")

    def test_unknown_component_field_ignored_with_warning(self, tmp_path, fitted):
        _, result = fitted
        path = tmp_path / "typo.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        doc["components"][0]["sigmaa"] = doc["components"][0]["sigma"]
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning) as caught:
            back = read_fit(path)
        assert [str(w.message) for w in caught] == [
            f"{path}: component 0: ignoring unknown fields ['sigmaa']"]
        np.testing.assert_array_equal(back.model.components[0].base.sigma,
                                      result.model.components[0].base.sigma)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(z=[[3 * x - 1 for x in row] for row in doc["z"]]),
        lambda doc: doc.update(v=[[1.9 * x for x in row] for row in doc["v"]]),
        lambda doc: doc.update(z=[[x * (1 - 1e-9) for x in row] for row in doc["z"]]),
    ], ids=["z-3z-minus-1", "v-up-to-1.9", "z-rows-sum-below-1"])
    def test_posteriors_that_are_not_probabilities_are_parse_errors(self, tmp_path, fitted,
                                                                   edit):
        _, result = fitted
        path = tmp_path / "posteriors.json"
        write_fit(result, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as caught:
            read_fit(path)
        assert str(caught.value) == (f"{path}: malformed fit document: "
                                     "z and v must be in [0, 1], each row of z summing to 1")


class TestModelSpec:
    COMP = {"m": [[0.0, 0.0]], "sigma": [[1.0]], "psi": [[1.0, 0.0], [0.0, 1.0]]}

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "cmvn", "weights": [1.0], "components": [COMP]},
         "a model spec is a plain matrix normal mixture (kind mvn)"),
        ({"weights": [1.0], "components": [{**COMP, "alpha": 0.9}]},
         "component 0: an mvn component has no alpha or eta"),
        ({"weights": [1.0]}, "'components'"),
        ({"weights": [1.0], "components": [[[0.0, 0.0]]]}, "component 0 must be a JSON object"),
    ], ids=["kind-cmvn", "alpha", "no-components", "component-not-object"])
    def test_refusals_name_the_file(self, tmp_path, doc, message):
        path = self.write(tmp_path, doc)
        with pytest.raises(ParseError) as caught:
            read_model_spec(path)
        assert str(caught.value) == f"{path}: malformed model spec: {message}"

    def test_unknown_fields_warn(self, tmp_path):
        path = self.write(tmp_path, {"weights": [1.0], "components": [{**self.COMP, "sigmaa": 1}],
                                     "note": "x"})
        with pytest.warns(UserWarning) as caught:
            read_model_spec(path)
        assert [str(w.message) for w in caught] == [
            f"{path}: ignoring unknown fields ['note']",
            f"{path}: component 0: ignoring unknown fields ['sigmaa']"]

    def test_mvn_fit_reads_with_a_warning_for_its_fit_fields(self, mvn_fit):
        with pytest.warns(UserWarning, match=r"ignoring unknown fields \['config', .*'z'\]"):
            model = read_model_spec(mvn_fit)
        np.testing.assert_array_equal(model.weights, read_fit(mvn_fit).model.weights)

    def test_cmvn_fit_is_refused_without_a_warning(self, tmp_path):
        data = generate(reference_model(), 40, seed=5)
        path = tmp_path / "cmvn.json"
        write_fit(fit(data, FitConfig(g=2, n_starts=2, seed=6), Kind.CMVN), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match="malformed model spec: .*kind mvn"):
                read_model_spec(path)
        assert caught == []


class TestSweepDocument:
    def test_numpy_scalar_config_and_g_range_round_trip(self, tmp_path):
        # numpy scalars used to reach json and fail there as "not JSON serializable"
        data = generate(reference_model(), 40, seed=8)
        cfg = FitConfig(g=np.int64(2), n_starts=np.int64(2), seed=np.int64(1),
                        tol=np.float32(1e-6))
        result = fit(data, cfg, Kind.CMVN)
        p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
        write_fit(result, p1)
        back = read_fit(p1)
        assert back.config == result.config and back.seed == 1
        write_fit(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        res = sweep(data, [Kind.MVN, Kind.CMVN], np.arange(1, 3), cfg)
        assert [type(e.g) for e in res.entries] == [int] * 4
        write_sweep(res, tmp_path / "sweep.json")
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert [e["g"] for e in doc["entries"]] == [1, 2, 1, 2]

    def test_write(self, tmp_path):
        data = generate(reference_model(), 60, seed=7)
        res = sweep(data, [Kind.MVN], [1, 2], FitConfig(n_starts=2, seed=0))
        path = tmp_path / "sweep.json"
        write_sweep(res, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["entries"]) == 2
        assert doc["entries"][doc["best"]]["bic"] == max(e["bic"] for e in doc["entries"])

    def test_failed_cell_writes_its_error(self, tmp_path):
        # twelve 2x4 units cannot keep three components at the floor r*p/2 = 4
        data = Dataset(generate(reference_model(), 150, seed=42).samples[:12])
        res = sweep(data, [Kind.MVN], [1, 3], FitConfig(n_starts=2, seed=1))
        write_sweep(res, tmp_path / "sweep.json")
        failed = json.loads((tmp_path / "sweep.json").read_text())["entries"][1]
        assert failed == {"kind": "mvn", "g": 3, "error": res.entries[1].error}
        assert res.entries[1].error
