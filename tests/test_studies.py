"""Smoke tests for the two replication studies (reduced sizes for speed) and
the simulation transforms they use."""

import numpy as np
import pytest

from cmvmix.data import Dataset
from cmvmix.distributions import CmvnParams
from cmvmix.ecm import Kind, MixtureModel
from cmvmix.simulate import add_uniform_noise, generate, perturb, reference_model
from cmvmix.studies import (
    PERTURBED_UNIT,
    Check,
    ReplicationReport,
    run_single_outlier_study,
    run_uniform_noise_study,
)


@pytest.fixture(scope="module")
def outlier_report_small():
    # two shifts and few starts keep this a structural smoke test
    return run_single_outlier_study(seed=0, starts=4, shifts=(4, 10))


class TestSingleOutlierStudy:
    def test_report_structure(self, outlier_report_small):
        rep = outlier_report_small
        assert rep.study == "single-outlier"
        assert [row["c"] for row in rep.rows] == [4, 10]
        names = [c.name for c in rep.checks]
        assert names == [
            "C1_contaminated_selects_two_groups",
            "C2_perturbed_unit_detected",
            "C3_inflation_increases_with_shift",
            "C4_plain_mixture_overfits_groups",
        ]
        for row in rep.rows:
            assert set(row) == {"c", "cmvn_g", "cmvn_bic", "mvn_g", "mvn_bic", "cmvn_start",
                                "cmvn_bad_units", "v_perturbed", "perturbed_flagged_bad",
                                "eta_hat"}
            assert row["perturbed_flagged_bad"] == (PERTURBED_UNIT in row["cmvn_bad_units"])
        assert rep.elapsed_seconds > 0

    def test_selection_and_detection_at_smoke_scale(self, outlier_report_small):
        # the full-tolerance evaluation of every check lives in the
        # acceptance suite; at two shifts and four starts the stable facts
        # are selection, the bad flag, and the inflation trend
        rep = outlier_report_small
        by_name = {c.name: c for c in rep.checks}
        assert by_name["C1_contaminated_selects_two_groups"].passed
        assert by_name["C3_inflation_increases_with_shift"].passed
        assert all(row["perturbed_flagged_bad"] for row in rep.rows)
        etas = [row["eta_hat"] for row in rep.rows]
        assert etas[1] > etas[0]

    def test_recorded_check_never_gates(self, outlier_report_small):
        recorded = [c for c in outlier_report_small.checks if c.mode == "recorded"]
        assert recorded and all(c.passed is None for c in recorded)

    def test_deterministic(self):
        a = run_single_outlier_study(seed=3, starts=2, shifts=(10,))
        b = run_single_outlier_study(seed=3, starts=2, shifts=(10,))
        assert a.rows == b.rows

    def test_to_dict_round_trips_through_json(self, outlier_report_small):
        import json
        doc = outlier_report_small.to_dict()
        assert doc["schema_version"] == 1
        again = json.loads(json.dumps(doc))
        assert again["rows"] == doc["rows"]
        assert all(set(c) == {"name", "mode", "passed", "observed", "tolerance"}
                   for c in again["checks"])


class TestUniformNoiseStudy:
    @pytest.fixture(scope="class")
    def noise_report(self):
        return run_uniform_noise_study(seed=2, starts=4)

    def test_structure_and_counts(self, noise_report):
        rep = noise_report
        assert rep.study == "uniform-noise"
        (row,) = rep.rows
        assert row["n_noise"] == 15
        assert 0.0 <= row["noise_v_min"] <= row["noise_v_max"] <= 1.0
        assert [c.name for c in rep.checks] == [
            "C5_selection_and_good_point_recovery",
            "C6_noise_units_flagged_bad",
            "C7_plain_mixture_selection",
        ]

    def test_asserted_checks_hold(self, noise_report):
        assert noise_report.asserted_ok
        (row,) = noise_report.rows
        assert row["cmvn_g"] == 2
        assert row["ari_good"] >= 0.98

    def test_dependent_check_skipped_when_gate_fails(self):
        # construct the degenerate shape directly: passed=None must not
        # count against asserted_ok
        rep = ReplicationReport(
            study="uniform-noise", seed=0, starts=1, rows=[],
            checks=[
                Check("gate", "asserted", True, "", ""),
                Check("dependent", "asserted", None, "", ""),
            ])
        assert not rep.asserted_ok


def test_noise_values_stay_in_range():
    rep = run_uniform_noise_study(seed=1, starts=2)
    (row,) = rep.rows
    assert np.isfinite(row["cmvn_bic"]) and np.isfinite(row["mvn_bic"])


def test_perturb_marks_shifted_unit_when_dataset_has_no_flags():
    data = Dataset(np.zeros((5, 2, 3)))
    shifted = perturb(data, 2, 4.0)
    np.testing.assert_array_equal(shifted.good_flags, [True, False, True, True, True])
    np.testing.assert_array_equal(shifted.samples[1], np.full((2, 3), 4.0))
    assert perturb(data, 2, 0.0).good_flags is None


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf),
                                    (-1e308, 1e308), (1.0, 1.0)])
def test_noise_bounds_must_span_a_finite_range(lo, hi):
    with pytest.raises(ValueError, match="need lo < hi with hi - lo finite"):
        add_uniform_noise(Dataset(np.zeros((4, 1, 1))), 0.5, lo, hi, seed=0)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_perturb_refuses_non_finite_shift(c):
    with pytest.raises(ValueError, match="c must be finite"):
        perturb(Dataset(np.zeros((2, 1, 1))), 1, c)


@pytest.mark.parametrize("obs, c, error, match", [
    (True, 1.0, TypeError, "obs must be of type int"),    # shifted unit 1 before
    (2.5, 1.0, TypeError, "obs must be of type int"),     # numpy's IndexError before
    (1, "1", TypeError, "c must be of type float"),
    (4, 1.0, ValueError, r"obs must be in 1\.\.3, got 4"),
    (0, 1.0, ValueError, r"obs must be in 1\.\.3, got 0"),
])
def test_perturb_refuses_wrong_types_by_name(obs, c, error, match):
    with pytest.raises(error, match=match):
        perturb(Dataset(np.zeros((3, 1, 1))), obs, c)


@pytest.mark.parametrize("n, seed, error, match", [
    (2.5, 1, TypeError, "n must be of type int"),
    (5, 1.5, TypeError, "seed must be of type int"),
    (5, -1, ValueError, "seed must be >= 0"),
])
def test_generate_refuses_n_and_seed_by_name(n, seed, error, match):
    with pytest.raises(error, match=match):
        generate(reference_model(), n, seed)


def test_generate_refuses_a_contaminated_model():
    base = reference_model().components[0]
    model = MixtureModel(kind=Kind.CMVN, weights=[1.0], components=(CmvnParams(base, 0.9, 2.0),))
    with pytest.raises(ValueError, match="generate draws from plain MVN mixtures"):
        generate(model, 5, 0)


@pytest.mark.parametrize("frac, lo, hi, match", [
    (True, -1.0, 1.0, "frac must be of type float"),   # replaced every unit before
    (0.5, -1.0, True, "hi must be of type float"),     # drew from [-1, 1) before
    ("0.5", -1.0, 1.0, "frac must be of type float"),  # bare comparison TypeError before
    (0.5, "-1", 1.0, "lo must be of type float"),
])
def test_noise_refuses_wrong_types_by_name(frac, lo, hi, match):
    with pytest.raises(TypeError, match=match):
        add_uniform_noise(Dataset(np.zeros((4, 1, 1))), frac, lo, hi, 0)


@pytest.mark.parametrize("seed, error, match", [
    (-1, ValueError, "seed must be >= 0"),
    (1.5, TypeError, "seed must be of type int"),
])
def test_noise_refuses_seed_by_name(seed, error, match):
    with pytest.raises(error, match=match):
        add_uniform_noise(Dataset(np.zeros((4, 1, 1))), 0.5, -1.0, 1.0, seed)
