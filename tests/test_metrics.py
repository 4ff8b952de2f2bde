"""Tests for ARI, MCR, and the outlier report."""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from cmvmix.ecm import FitConfig, Kind, fit
from cmvmix.errors import KindMismatch, LengthMismatch
from cmvmix.metrics import (
    adjusted_rand_index,
    adjusted_rand_index_exact,
    misclassification_rate,
    outlier_report,
)
from cmvmix.simulate import generate, perturb, reference_model


def pair_counting_ari(a, b):
    """Oracle: ARI from direct enumeration of all observation pairs."""
    n = len(a)
    same_a = same_b = same_both = 0
    for i, j in combinations(range(n), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        same_a += sa
        same_b += sb
        same_both += sa and sb
    total = n * (n - 1) // 2
    expected = Fraction(same_a * same_b, total)
    max_index = Fraction(same_a + same_b, 2)
    if max_index == expected:
        return Fraction(1)
    return (same_both - expected) / (max_index - expected)


def exhaustive_mcr(truth, pred):
    """Oracle: try every permutation of predicted label values into the
    slots (every label, then one unmatched slot per predicted value).  A
    permutation's hits are read from the (predicted value x slot) agreement
    table; its misclassified count is N minus its hits."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    pred_vals = sorted(set(pred))
    slots = sorted(set(truth) | set(pred)) + list(range(-1, -len(pred_vals) - 1, -1))
    agree = np.array([[np.sum((pred == x) & (truth == s)) for s in slots] for x in pred_vals])
    perms = np.array(list(permutations(range(len(slots)), len(pred_vals))))
    hits = agree[np.arange(len(pred_vals)), perms].sum(axis=1)
    return int(len(truth) - hits.max()) / len(truth)


class TestAri:
    def test_identical(self):
        assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeling_invariance(self):
        assert adjusted_rand_index([1, 1, 2, 2], [5, 5, 3, 3]) == 1.0

    def test_crossed_example(self):
        a = [1, 1, 2, 2]
        b = [1, 2, 1, 2]
        assert adjusted_rand_index_exact(a, b) == pair_counting_ari(a, b)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.integers(1, 4, size=10)
            b = rng.integers(1, 4, size=10)
            assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    def test_random_pairs_match_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            a = rng.integers(1, 4, size=n)
            b = rng.integers(1, 4, size=n)
            exact = adjusted_rand_index_exact(a, b)
            assert exact == pair_counting_ari(a, b)
            assert adjusted_rand_index(a, b) == pytest.approx(float(exact), abs=1e-12)

    def test_degenerate_single_cluster(self):
        assert adjusted_rand_index([1, 1, 1], [2, 2, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            adjusted_rand_index([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            adjusted_rand_index([1], [1])

    def test_mask_equals_physical_filtering(self):
        rng = np.random.default_rng(2)
        a = rng.integers(1, 3, size=20)
        b = rng.integers(1, 3, size=20)
        mask = rng.random(20) > 0.3
        masked = adjusted_rand_index(a, b, mask=mask)
        filtered = adjusted_rand_index(a[mask], b[mask])
        assert masked == filtered

    @pytest.mark.parametrize("score", [adjusted_rand_index, misclassification_rate])
    @pytest.mark.parametrize("mask", [[1.0, 0.5, 1, 1], ["yes", "", "x", "y"], [1, 0, 1, 1]])
    def test_non_boolean_mask_refused(self, score, mask):
        # cast to bool, the first kept all four units and the second dropped one
        with pytest.raises(ValueError, match="mask must be of type bool"):
            score([1, 1, 2, 2], [1, 2, 2, 2], mask=mask)


class TestMcr:
    def test_identical(self):
        assert misclassification_rate([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0

    def test_relabeled(self):
        assert misclassification_rate([1, 1, 2, 2], [2, 2, 1, 1]) == 0.0

    def test_crossed(self):
        assert misclassification_rate([1, 1, 2, 2], [1, 2, 1, 2]) == 0.5

    def test_random_match_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 15))
            truth = rng.integers(1, 5, size=n)
            pred = rng.integers(1, 5, size=n)
            assert misclassification_rate(truth, pred) == pytest.approx(
                exhaustive_mcr(truth, pred), abs=1e-14)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            misclassification_rate(list(range(12)), list(range(12)))

    def test_too_many_true_clusters_rejected(self):
        # 12 true labels against 2 predicted clusters: refused, not searched
        truth = np.arange(24) % 12
        with pytest.raises(ValueError, match="truth 12, predicted 2"):
            misclassification_rate(truth, np.arange(24) % 2)

    @pytest.mark.parametrize("k_true,k_pred", [(9, 2), (2, 5), (6, 3), (1, 4), (4, 1)])
    def test_unequal_cluster_counts_match_exhaustive_oracle(self, k_true, k_pred):
        rng = np.random.default_rng(10 * k_true + k_pred)
        for _ in range(5):
            n = int(rng.integers(max(k_true, k_pred), 16))
            truth = np.concatenate([np.arange(k_true), rng.integers(0, k_true, n - k_true)])
            pred = np.concatenate([np.arange(k_pred), rng.integers(0, k_pred, n - k_pred)])
            pred = rng.permutation(pred) + 3
            assert misclassification_rate(truth, pred) == pytest.approx(
                exhaustive_mcr(truth, pred), abs=1e-14)

    @pytest.mark.parametrize("k_true,k_pred", [(10, 10), (10, 7), (3, 10)])
    def test_ten_clusters_against_linear_sum_assignment(self, k_true, k_pred):
        # 200 units on up to 10 x 10 labels: the exact matching, checked
        # against scipy's assignment solver on the contingency table
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(100 + 10 * k_true + k_pred)
        truth = rng.integers(0, k_true, 200)
        pred = np.where(rng.random(200) < 0.6, truth % k_pred, rng.integers(0, k_pred, 200))
        table = np.zeros((k_true, k_pred), dtype=int)
        np.add.at(table, (truth, pred), 1)
        rows, cols = linear_sum_assignment(table, maximize=True)
        want = (200 - table[rows, cols].sum()) / 200
        assert misclassification_rate(truth, rng.permutation(k_pred)[pred]) == want

    def test_zero_iff_ari_one(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            a = rng.integers(1, 3, size=n)
            b = rng.integers(1, 3, size=n)
            mcr = misclassification_rate(a, b)
            ari = adjusted_rand_index(a, b)
            assert (mcr == 0.0) == (ari == 1.0)

    def test_mask_semantics(self):
        rng = np.random.default_rng(5)
        a = rng.integers(1, 3, size=20)
        b = rng.integers(1, 3, size=20)
        mask = rng.random(20) > 0.4
        assert misclassification_rate(a, b, mask=mask) == \
            misclassification_rate(a[mask], b[mask])


class TestOutlierReport:
    @pytest.fixture(scope="class")
    def cmvn_fit(self):
        data = perturb(generate(reference_model(), 120, seed=30), 6, 10.0)
        return fit(data, FitConfig(g=2, n_starts=5, seed=1), Kind.CMVN)

    def test_requires_cmvn(self):
        data = generate(reference_model(), 40, seed=31)
        res = fit(data, FitConfig(g=2, n_starts=3, seed=1), Kind.MVN)
        with pytest.raises(KindMismatch):
            outlier_report(res)

    def test_perturbed_unit_listed(self, cmvn_fit):
        report = outlier_report(cmvn_fit)
        listed = [bp["unit"] for c in report["clusters"] for bp in c["bad_points"]]
        assert 6 in listed
        v6 = [bp["v"] for c in report["clusters"] for bp in c["bad_points"] if bp["unit"] == 6][0]
        assert v6 < 1e-20

    def test_values_match_responsibilities(self, cmvn_fit):
        report = outlier_report(cmvn_fit)
        for cluster in report["clusters"]:
            j = cluster["cluster"] - 1
            comp = cmvn_fit.model.components[j]
            assert cluster["alpha"] == comp.alpha
            assert cluster["eta"] == comp.eta
            for bp in cluster["bad_points"]:
                assert bp["v"] == cmvn_fit.resp.v[bp["unit"] - 1, j]

    def test_bad_points_sorted_ascending(self, cmvn_fit):
        report = outlier_report(cmvn_fit)
        for cluster in report["clusters"]:
            vs = [bp["v"] for bp in cluster["bad_points"]]
            assert vs == sorted(vs)

    def test_clean_fit_has_empty_lists(self):
        data = generate(reference_model(), 100, seed=32)
        res = fit(data, FitConfig(g=2, n_starts=5, seed=2), Kind.CMVN)
        report = outlier_report(res)
        assert all(c["bad_points"] == [] for c in report["clusters"])
        assert all(0 < c["alpha"] < 1 for c in report["clusters"])

    def test_custom_names(self, cmvn_fit):
        names = [f"unit-{i}" for i in range(120)]
        report = outlier_report(cmvn_fit, names=names)
        for cluster in report["clusters"]:
            for bp in cluster["bad_points"]:
                assert bp["name"] == f"unit-{bp['unit'] - 1}"
        with pytest.raises(LengthMismatch):
            outlier_report(cmvn_fit, names=["short"])
