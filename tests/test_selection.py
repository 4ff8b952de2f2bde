"""Tests for free-parameter counting, BIC, and the model sweep."""

import numpy as np
import pytest

from cmvmix import selection
from cmvmix.data import Dataset
from cmvmix.ecm import FitConfig, Kind
from cmvmix.errors import AllStartsFailed
from cmvmix.selection import bic, count_free_params, sweep
from cmvmix.simulate import generate, reference_model


def enumerate_free_params(kind, g, r, p):
    """Oracle: walk every parameter block and count entries minus constraints."""
    count = g - 1                      # mixing weights on the simplex
    for _ in range(g):
        count += r * p                 # mean entries
        count += r * (r + 1) // 2 - 1  # row scale, symmetric, sigma[0,0] fixed
        count += p * (p + 1) // 2      # column scale, symmetric
        if Kind(kind) is Kind.CMVN:
            count += 2                 # alpha and eta
    return count


class TestCountFreeParams:
    def test_reference_case(self):
        assert count_free_params(Kind.CMVN, 2, 2, 4) == 45

    def test_scalar_mvn(self):
        assert count_free_params(Kind.MVN, 1, 1, 1) == 2

    def test_cmvn_adds_two_per_group(self):
        for g in (1, 2, 3, 5):
            for r, p in ((1, 1), (2, 4), (3, 3)):
                diff = count_free_params(Kind.CMVN, g, r, p) - count_free_params(Kind.MVN, g, r, p)
                assert diff == 2 * g

    def test_enumeration_oracle(self):
        for kind in (Kind.MVN, Kind.CMVN):
            for g in range(1, 5):
                for r in range(1, 5):
                    for p in range(1, 5):
                        assert count_free_params(kind, g, r, p) == \
                            enumerate_free_params(kind, g, r, p)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_free_params(Kind.MVN, 0, 2, 2)

    @pytest.mark.parametrize("g, r, p, match", [
        (True, 2, 4, "g must be of type int"),   # 22 before
        (2.5, 2, 4, "g must be of type int"),    # 56.5 before
        (2, "2", 4, "r must be of type int"),    # bare comparison TypeError before
        (2, 2, 4.0, "p must be of type int"),
    ])
    def test_refuses_wrong_types_by_name(self, g, r, p, match):
        with pytest.raises(TypeError, match=match):
            count_free_params(Kind.CMVN, g, r, p)


class TestBic:
    def test_zero(self):
        assert bic(0.0, 0, 5) == 0.0

    def test_closed_form(self):
        assert bic(-100.0, 10, 7) == 2.0 * -100.0 - 10 * np.log(7)

    def test_penalty_monotone(self):
        assert bic(-50.0, 3, 100) > bic(-50.0, 4, 100)

    def test_requires_observations(self):
        with pytest.raises(ValueError):
            bic(0.0, 1, 0)

    @pytest.mark.parametrize("loglik, m, n, match", [
        (-100.0, 5, True, "n must be of type int"),    # -200.0 before, log n = 0
        (-100.0, 5, 7.0, "n must be of type int"),
        (-100.0, 5.5, 7, "m must be of type int"),
        ("-100", 5, 7, "loglik must be of type float"),
    ])
    def test_refuses_wrong_types_by_name(self, loglik, m, n, match):
        with pytest.raises(TypeError, match=match):
            bic(loglik, m, n)


class TestSweep:
    @pytest.fixture(scope="class")
    def clean_data(self):
        return generate(reference_model(), 150, seed=42)

    def test_selects_two_groups_on_clean_data(self, clean_data):
        cfg = FitConfig(n_starts=8, seed=0)
        res = sweep(clean_data, [Kind.CMVN], [1, 2, 3], cfg)
        assert res.best_entry.g == 2

    def test_failed_cell_recorded_not_fatal(self, clean_data):
        # twelve 2x4 units cannot keep three components at the floor r*p/2 = 4
        # each, so G=3 fails every start while G=1 survives
        small = Dataset(clean_data.samples[:12])
        cfg = FitConfig(n_starts=2, seed=1)
        res = sweep(small, [Kind.MVN], [1, 3], cfg)
        by_g = {e.g: e for e in res.entries}
        assert by_g[1].bic is not None
        assert by_g[3].bic is None and by_g[3].error
        assert res.best_entry.g == 1

    def test_deterministic(self, clean_data):
        cfg = FitConfig(n_starts=3, seed=5)
        a = sweep(clean_data, [Kind.MVN], [1, 2], cfg)
        b = sweep(clean_data, [Kind.MVN], [1, 2], cfg)
        assert [e.bic for e in a.entries] == [e.bic for e in b.entries]
        assert a.best == b.best

    def test_tie_break_prefers_smaller_g_and_mvn(self):
        from cmvmix.selection import SweepEntry, SweepResult, _KIND_ORDER
        # construct entries directly: equal BIC values
        entries = (
            SweepEntry(kind=Kind.CMVN, g=2, bic=-10.0, result=None),
            SweepEntry(kind=Kind.MVN, g=2, bic=-10.0, result=None),
            SweepEntry(kind=Kind.MVN, g=3, bic=-10.0, result=None),
        )
        best = min(enumerate(entries),
                   key=lambda ie: (-ie[1].bic, ie[1].g, _KIND_ORDER[ie[1].kind]))[0]
        assert entries[best].kind is Kind.MVN and entries[best].g == 2

    def test_empty_grid_rejected(self, clean_data):
        with pytest.raises(ValueError):
            sweep(clean_data, [], [1], FitConfig())
        with pytest.raises(ValueError):
            sweep(clean_data, [Kind.MVN], [], FitConfig())

    def test_sweep_ranks_equal_bic_cells_and_records_failures(self, clean_data, monkeypatch):
        calls = []

        def stub_fit(data, config, kind):
            calls.append((kind, config.g))
            if (kind, config.g) == (Kind.CMVN, 3):
                raise AllStartsFailed("start 0: stub failure")
            return (kind, config.g)

        monkeypatch.setattr(selection, "fit", stub_fit)
        monkeypatch.setattr(selection, "bic_of", lambda result, data: -10.0)
        res = sweep(clean_data, [Kind.CMVN, Kind.MVN], [3, 2], FitConfig(n_starts=1))
        cells = [(Kind.CMVN, 3), (Kind.CMVN, 2), (Kind.MVN, 3), (Kind.MVN, 2)]
        assert calls == cells
        assert [(e.kind, e.g) for e in res.entries] == cells
        assert (res.best_entry.kind, res.best_entry.g) == (Kind.MVN, 2)
        failed = res.entries[0]
        assert failed.bic is None and failed.result is None
        assert failed.error == "start 0: stub failure"
