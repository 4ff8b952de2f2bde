"""End-to-end tests of the command-line interface via main(argv)."""

import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import cmvmix
from cmvmix import cli
from cmvmix.cli import build_parser, main
from cmvmix.dataio import read_dataset, write_dataset, write_fit
from cmvmix.ecm import FitConfig, Kind, fit
from cmvmix.simulate import generate, reference_model
from cmvmix.studies import DEFAULT_N

# The JSON layout of `cmvmix detect --format json` (metrics.outlier_report).
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "clusters"],
    "properties": {
        "schema_version": {"const": 1},
        "clusters": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["cluster", "alpha", "eta", "bad_points"],
                "properties": {
                    "cluster": {"type": "integer", "minimum": 1},
                    "alpha": {"type": "number"},
                    "eta": {"type": "number"},
                    "bad_points": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["unit", "name", "v"],
                            "properties": {
                                "unit": {"type": "integer", "minimum": 1},
                                "name": {"type": "string"},
                                "v": {"type": "number"},
                            },
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.json"
    write_dataset(generate(reference_model(), 80, seed=11), path)
    return path


@pytest.fixture(scope="module")
def fit_file(tmp_path_factory, dataset_file):
    data = read_dataset(dataset_file)
    result = fit(data, FitConfig(g=2, n_starts=4, seed=0), Kind.CMVN)
    path = tmp_path_factory.mktemp("cli-fit") / "fit.json"
    write_fit(result, path)
    return path


class TestSimulate:
    def test_builtin_generator(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--paper-table1", "--n", "50",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        data = read_dataset(out)
        assert (data.n, data.r, data.p) == (50, 2, 4)
        assert set(np.unique(data.true_labels)) <= {0, 1}
        assert "n=50" in capsys.readouterr().out

    def test_perturb_zero_shift_changes_nothing(self, tmp_path):
        clean, shifted = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--paper-table1", "--n", "30", "--seed", "2",
                     "--out", str(clean)]) == 0
        assert main(["simulate", "--paper-table1", "--n", "30", "--seed", "2",
                     "--perturb", "obs=6,c=0", "--out", str(shifted)]) == 0
        a, b = read_dataset(clean), read_dataset(shifted)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert bool(read_dataset(shifted).good_flags.all())

    def test_perturb_shifts_one_unit(self, tmp_path):
        clean, shifted = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--paper-table1", "--n", "30", "--seed", "2",
              "--out", str(clean)])
        main(["simulate", "--paper-table1", "--n", "30", "--seed", "2",
              "--perturb", "obs=6,c=10", "--out", str(shifted)])
        a, b = read_dataset(clean), read_dataset(shifted)
        np.testing.assert_array_equal(b.samples[5], a.samples[5] + 10.0)
        np.testing.assert_array_equal(b.samples[:5], a.samples[:5])
        assert not b.good_flags[5] and b.good_flags.sum() == 29

    def test_noise_fraction_count(self, tmp_path):
        out = tmp_path / "noisy.json"
        assert main(["simulate", "--paper-table1", "--n", "150", "--seed", "4",
                     "--noise", "frac=0.1,lo=-8,hi=8", "--out", str(out)]) == 0
        data = read_dataset(out)
        flagged = int(np.count_nonzero(~data.good_flags))
        assert flagged == 15
        assert np.all(np.abs(data.samples[~data.good_flags]) <= 8.0)

    def test_spec_two_components(self, tmp_path, capsys):
        model = reference_model()
        spec = {
            "weights": [float(w) for w in model.weights],
            "components": [{"m": c.m.tolist(), "sigma": c.sigma.tolist(), "psi": c.psi.tolist()}
                           for c in model.components],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--spec", str(spec_path), "--n", "40",
                     "--seed", "3", "--out", str(out)]) == 0
        data = read_dataset(out)
        expected = generate(model, 40, seed=3)
        np.testing.assert_array_equal(data.samples, expected.samples)
        np.testing.assert_array_equal(data.true_labels, expected.true_labels)
        assert "n=40" in capsys.readouterr().out

    def test_spec_top_level_list(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[1, 2]")
        assert main(["simulate", "--spec", str(spec_path), "--n", "10",
                     "--out", str(tmp_path / "x.json")]) == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("components", [
        [{"m": [[0.0, 0.0]], "sigma": [[1.0, 0.0], [0.0, 1.0]], "psi": [[1.0, 0.0], [0.0, 1.0]]}],
        [{"m": [[0.0, 0.0, 0.0]] * 2, "sigma": np.eye(2).tolist(), "psi": np.eye(3).tolist()},
         {"m": [[0.0, 0.0]] * 3, "sigma": np.eye(3).tolist(), "psi": np.eye(2).tolist()}],
    ], ids=["sigma-vs-mean", "components-differ"])
    def test_spec_shape_mismatch_is_parse_error(self, tmp_path, capsys, components):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"weights": [1.0 / len(components)] * len(components),
                                         "components": components}))
        assert main(["simulate", "--spec", str(spec_path), "--n", "10",
                     "--out", str(tmp_path / "x.json")]) == 3
        assert f"{spec_path}: malformed model spec" in capsys.readouterr().err

    def test_spec_from_cmvn_fit_is_parse_error(self, tmp_path, capsys, fit_file):
        out = tmp_path / "x.json"
        assert main(["simulate", "--spec", str(fit_file), "--n", "20", "--out", str(out)]) == 3
        assert f"{fit_file}: malformed model spec" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [{"kind": "cmvn"}, {"alpha": 0.9, "eta": 5.0}],
                             ids=["kind", "alpha-eta"])
    def test_contaminated_spec_is_parse_error(self, tmp_path, capsys, extra):
        comp = {"m": [[0.0, 0.0]], "sigma": [[1.0]], "psi": np.eye(2).tolist()}
        doc = {"weights": [1.0], "components": [comp]}
        (doc if "kind" in extra else comp).update(extra)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["simulate", "--spec", str(spec_path), "--n", "10",
                     "--out", str(tmp_path / "x.json")]) == 3
        assert f"{spec_path}: malformed model spec" in capsys.readouterr().err

    def test_spec_text_weights_is_parse_error(self, tmp_path, capsys):
        comp = {"m": [[0.0, 0.0]], "sigma": [[1.0]], "psi": np.eye(2).tolist()}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"weights": ["0.5", "0.5"], "components": [comp, comp]}))
        assert main(["simulate", "--spec", str(spec_path), "--n", "10",
                     "--out", str(tmp_path / "x.json")]) == 3
        assert f"{spec_path}: malformed model spec" in capsys.readouterr().err

    def test_spec_kind_mvn(self, tmp_path):
        comp = {"m": [[0.0, 0.0]], "sigma": [[1.0]], "psi": np.eye(2).tolist()}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "mvn", "weights": [1.0], "components": [comp]}))
        assert main(["simulate", "--spec", str(spec_path), "--n", "10",
                     "--out", str(tmp_path / "x.json")]) == 0

    def test_bad_perturb_descriptor(self, tmp_path):
        assert main(["simulate", "--paper-table1", "--n", "10",
                     "--perturb", "obs=6", "--out", str(tmp_path / "x.json")]) == 2
        assert main(["simulate", "--paper-table1", "--n", "10",
                     "--perturb", "foo=1,c=2", "--out", str(tmp_path / "y.json")]) == 2


    @pytest.mark.parametrize("obs", ["inf", "6.7", "nan"])
    def test_perturb_unit_must_be_an_integer(self, tmp_path, capsys, obs):
        assert main(["simulate", "--paper-table1", "--n", "10", "--perturb", f"obs={obs},c=1",
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "bad int for --perturb field 'obs'" in err and "Traceback" not in err

    def test_zero_units_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "none.json"
        assert main(["simulate", "--paper-table1", "--n", "0", "--out", str(out)]) == 4
        assert "N, r, p >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_units_refused_by_name(self, tmp_path, capsys):
        # numpy's own message was "negative dimensions are not allowed"
        out = tmp_path / "neg.json"
        assert main(["simulate", "--paper-table1", "--n", "-3", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "n must be >= 1" in err and "-3" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "neg.json"
        assert main(["simulate", "--paper-table1", "--seed", "-1", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_noise_range_defaults_to_the_studys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "NOISE_RANGE", (-0.5, 0.5))
        out = tmp_path / "noisy.json"
        assert main(["simulate", "--paper-table1", "--n", "40", "--seed", "4",
                     "--noise", "frac=0.5", "--out", str(out)]) == 0
        data = read_dataset(out)
        assert np.all(np.abs(data.samples[~data.good_flags]) <= 0.5)


class TestFit:
    def test_ok(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(dataset_file), "--g", "2",
                     "--starts", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out
        assert "kind=cmvn G=2" in line and "BIC=" in line
        assert out.exists()

    def test_bad_g(self, dataset_file):
        assert main(["fit", "--data", str(dataset_file), "--g", "0"]) == 2

    def test_zero_max_iter(self, dataset_file, capsys):
        assert main(["fit", "--data", str(dataset_file), "--g", "1", "--max-iter", "0"]) == 4
        err = capsys.readouterr().err
        assert "max_iter must be >= 1" in err and "Traceback" not in err

    def test_nan_tol(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(dataset_file), "--g", "1", "--tol", "nan",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "tol must be > 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_inf_tol(self, tmp_path, dataset_file, capsys):
        # an infinite tol would stop every start after 2 iterations and
        # write "tol": Infinity, which is not JSON
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(dataset_file), "--g", "1", "--tol", "inf",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "tol must be > 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed(self, dataset_file, capsys):
        assert main(["fit", "--data", str(dataset_file), "--g", "1", "--seed", "-1"]) == 4
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err

    @staticmethod
    def _shifted_data(tmp_path, capsys, c):
        path = tmp_path / f"shifted-{c}.json"
        assert main(["simulate", "--paper-table1", "--n", "60", "--perturb", f"obs=1,c={c}",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, g", [("fit", "2"), ("sweep", "1:2")])
    def test_overflowing_data_refused(self, tmp_path, capsys, command, g):
        # entries near 1e160 square beyond float64: one line naming the
        # overflow, and no numpy warning on the way
        data = self._shifted_data(tmp_path, capsys, "1e160")
        assert main([command, "--data", data, "--g", g, "--starts", "2"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "data overflow" in err and "Traceback" not in err

    def test_large_finite_data_reaches_the_chain(self, tmp_path, capsys):
        # entries near 1e150 square to about 1e300: the chain runs and its
        # starts fail on their own
        data = self._shifted_data(tmp_path, capsys, "1e150")
        assert main(["fit", "--data", data, "--g", "2", "--starts", "2"]) == 4
        err = capsys.readouterr().err
        assert "sigma is not positive definite" in err and "overflow" not in err

    def test_missing_data_file(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "absent.json"), "--g", "1"]) == 3

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"schema_version": 9, "n": 1, "r": 1, "p": 1, "samples": [[1.0]]}')
        assert main(["fit", "--data", str(path), "--g", "1"]) == 5

    @pytest.mark.parametrize("fields", ['"samples": 5', '"samples": [["x"]]',
                                        '"samples": [[1.0]], "labels": [1.5]',
                                        '"samples": [[1.0]], "good_flags": [2]',
                                        '"samples": [[1.0]], "labels": [9223372036854775808]',
                                        '"samples": [[1.0]], "names": "a"',
                                        '"samples": [[1.0]], "names": [1]'],
                             ids=["samples-number", "value-text", "labels-fractional",
                                  "flags-not-bool", "label-beyond-int64", "names-text",
                                  "names-not-strings"])
    def test_malformed_dataset_is_io_error(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "n": 1, "r": 1, "p": 1, ' + fields + '}')
        assert main(["fit", "--data", str(path), "--g", "1"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_label_beyond_int64_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("unit,row,col,value,label\n1,1,1,1.0,99999999999999999999\n")
        assert main(["fit", "--data", str(path), "--g", "1"]) == 3
        err = capsys.readouterr().err
        assert "line 2: malformed label" in err and "Traceback" not in err

    def test_infeasible_fit(self, tmp_path):
        # four observations cannot support four 2x4 clusters
        write_dataset(generate(reference_model(), 4, seed=9), tmp_path / "tiny.json")
        assert main(["fit", "--data", str(tmp_path / "tiny.json"),
                     "--g", "4", "--starts", "2"]) == 4


class TestDetect:
    def test_json_format_validates(self, fit_file, capsys):
        assert main(["detect", "--fit", str(fit_file), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["schema_version"] == 1
        assert len(report["clusters"]) == 2

    def test_table_format(self, fit_file, capsys):
        assert main(["detect", "--fit", str(fit_file)]) == 0
        out = capsys.readouterr().out
        assert "cluster 1:" in out and "alpha=" in out

    def test_names_from_data(self, tmp_path, fit_file, dataset_file, capsys):
        from cmvmix.data import Dataset
        data = read_dataset(dataset_file)
        named = tmp_path / "named.json"
        write_dataset(Dataset(data.samples, unit_names=[f"u{i}" for i in range(data.n)]), named)
        assert main(["detect", "--fit", str(fit_file), "--data", str(named),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        bad = [bp for c in report["clusters"] for bp in c["bad_points"]]
        assert bad and all(bp["name"] == f"u{bp['unit'] - 1}" for bp in bad)

    @pytest.mark.parametrize("key, value", [("labels", 0.5), ("bad_flags", 2),
                                            ("weights", float("nan"))],
                             ids=["labels-fractional", "flags-not-bool", "weights-nan"])
    def test_malformed_fit_is_io_error(self, tmp_path, fit_file, capsys, key, value):
        doc = json.loads(fit_file.read_text())
        doc[key] = [value] * len(doc[key])
        path = tmp_path / "bad_fit.json"
        path.write_text(json.dumps(doc))
        assert main(["detect", "--fit", str(path)]) == 3
        assert "malformed fit document" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["drop-v", "drop-bad_flags", "wide-z", "relabel"])
    def test_fit_inconsistent_with_posteriors_is_io_error(self, tmp_path, fit_file, capsys,
                                                           edit):
        doc = json.loads(fit_file.read_text())
        if edit.startswith("drop-"):
            del doc[edit[len("drop-"):]]
        elif edit == "wide-z":
            for row in doc["z"] + doc["v"]:
                row.append(0.0)
        else:
            doc["labels"][0] = 1 - doc["labels"][0]
        path = tmp_path / "inconsistent_fit.json"
        path.write_text(json.dumps(doc))
        assert main(["detect", "--fit", str(path)]) == 3
        err = capsys.readouterr().err
        assert "malformed fit document" in err and "Traceback" not in err

    def test_rejects_plain_mixture(self, tmp_path, dataset_file):
        data = read_dataset(dataset_file)
        result = fit(data, FitConfig(g=2, n_starts=2, seed=0), Kind.MVN)
        path = tmp_path / "mvn.json"
        write_fit(result, path)
        assert main(["detect", "--fit", str(path)]) == 4


class TestEvaluate:
    def test_perfect_recovery_scores(self, tmp_path, dataset_file, fit_file, capsys):
        # score the fit against its own hard labels for a guaranteed ARI of 1
        from cmvmix.data import Dataset
        from cmvmix.dataio import read_fit
        result = read_fit(fit_file)
        data = read_dataset(dataset_file)
        relabeled = Dataset(data.samples, true_labels=result.hard_labels)
        path = tmp_path / "self.json"
        write_dataset(relabeled, path)
        assert main(["evaluate", "--fit", str(fit_file), "--data", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ARI 1.0000" in out and "MCR 0.00%" in out

    def test_labels_required(self, tmp_path, fit_file, dataset_file):
        from cmvmix.data import Dataset
        bare = Dataset(read_dataset(dataset_file).samples)
        path = tmp_path / "nolabels.json"
        write_dataset(bare, path)
        assert main(["evaluate", "--fit", str(fit_file), "--data", str(path)]) == 2

    def test_exclude_bad_truth_scores_good_units(self, tmp_path, fit_file, capsys):
        # true labels are the fit's own except on units marked bad, which are
        # excluded, so the score is perfect only when the exclusion happens
        from cmvmix.data import Dataset
        from cmvmix.dataio import read_fit
        result = read_fit(fit_file)
        n = len(result.hard_labels)
        good = np.arange(n) % 4 != 0
        labels = np.where(good, result.hard_labels, 1 - result.hard_labels)
        path = tmp_path / "flagged.json"
        write_dataset(Dataset(np.zeros((n, 1, 1)), true_labels=labels, good_flags=good), path)
        assert main(["evaluate", "--fit", str(fit_file), "--data", str(path),
                     "--exclude-bad-truth"]) == 0
        out = capsys.readouterr().out
        assert "ARI 1.0000" in out and "MCR 0.00%" in out

    def test_exclude_bad_truth_needs_flags(self, tmp_path, fit_file, dataset_file):
        from cmvmix.data import Dataset
        data = read_dataset(dataset_file)
        labeled = Dataset(data.samples, true_labels=data.true_labels)
        path = tmp_path / "noflags.json"
        write_dataset(labeled, path)
        assert main(["evaluate", "--fit", str(fit_file), "--data", str(path),
                     "--exclude-bad-truth"]) == 2


class TestSweep:
    def test_table_and_artifact(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--data", str(dataset_file), "--models", "mvn",
                     "--g", "1:2", "--starts", "2", "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert table.count("\n") == 3  # header + two rows
        assert "*" in table
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 2

    def test_single_g(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--data", str(dataset_file), "--g", "2", "--starts", "2",
                     "--out", str(out)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[:2] for row in rows] == [["mvn", "2"], ["cmvn", "2"]]
        assert [(e["kind"], e["g"]) for e in json.loads(out.read_text())["entries"]] == [
            ("mvn", 2), ("cmvn", 2)]

    def test_reversed_range(self, dataset_file):
        assert main(["sweep", "--data", str(dataset_file), "--g", "3:1"]) == 2

    def test_unknown_model_name(self, dataset_file):
        assert main(["sweep", "--data", str(dataset_file), "--models", "bogus"]) == 4

    def test_unparseable_g(self, dataset_file):
        assert main(["sweep", "--data", str(dataset_file), "--g", "two"]) == 2


class TestReplicate:
    def test_report_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["replicate", "--study", "uniform-noise", "--seed", "0", "--starts", "2",
                     "--out", str(out)])
        doc = json.loads(out.read_text())
        assert (doc["study"], doc["seed"], doc["starts"]) == ("uniform-noise", 0, 2)
        asserted = [c["passed"] for c in doc["checks"] if c["mode"] == "asserted"]
        assert asserted and code == (0 if all(asserted) else 4)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(doc["checks"])

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "neg.json"
        code = main(["replicate", "--study", "single-outlier", "--seed", "-1", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()


class TestArgparseLevel:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["fit", "--data", "d.json", "--g", "2"],
                                      ["sweep", "--data", "d.json"]])
    def test_fit_defaults_are_fitconfigs(self, argv):
        args = build_parser().parse_args(argv)
        default = FitConfig()
        assert (args.starts, args.seed, args.tol, args.max_iter) == (
            default.n_starts, default.seed, default.tol, default.max_iter)

    def test_simulate_n_default_is_the_studys(self):
        args = build_parser().parse_args(["simulate", "--paper-table1", "--out", "x.json"])
        assert args.n == DEFAULT_N

    def test_replicate_starts_default_is_fitconfigs(self):
        args = build_parser().parse_args(["replicate", "--study", "uniform-noise"])
        assert args.starts == FitConfig().n_starts


HOSTILE = ["nan", "inf", "-inf", "1e308", "-1e308", "-1", "0", "1e-320"]


@pytest.mark.parametrize("argv", [
    *(["simulate", "--noise", f"frac=0.1,{field}={v}"] for field in ("lo", "hi") for v in HOSTILE),
    *(["simulate", "--noise", f"frac={v}"] for v in HOSTILE),
    ["simulate", "--noise", "frac=0.1,lo=-1e308,hi=1e308"],
    *(["simulate", "--perturb", f"obs=1,c={v}"] for v in HOSTILE),
    *([cmd, f"--tol={v}"] for cmd in ("fit", "sweep") for v in HOSTILE),
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_hostile_numbers_end_in_an_exit_code(tmp_path, capsys, dataset_file, argv):
    """Every such value ends in one of the documented exit codes, never a
    traceback.  Huge --n, --starts and --max-iter are left out: they would
    allocate or run for a long time before any check could refuse them."""
    cmd, *opts = argv
    if cmd == "simulate":
        argv = [cmd, "--paper-table1", "--n", "20", "--out", str(tmp_path / "sim.json"), *opts]
    else:
        argv = [cmd, "--data", str(dataset_file), "--g", "1", "--starts", "1",
                "--max-iter", "5", *opts] + (["--models", "mvn"] if cmd == "sweep" else [])
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing the value
        code = exc.code
        assert code == 2
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    command line loads no scipy module."""
    src = os.path.dirname(os.path.dirname(cmvmix.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import cmvmix, cmvmix.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
