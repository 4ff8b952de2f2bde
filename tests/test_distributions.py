"""Tests for the matrix normal / contaminated matrix normal laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from cmvmix.distributions import (
    ETA_MIN,
    CmvnParams,
    MvnParams,
    cmvn_log_density,
    h_weight,
    mvn_log_density,
    posterior_good_prob,
    sample_cmvn,
    sample_mvn,
    sample_mvn_stack,
    w_weight,
)
from cmvmix.distributions import _logs_from_distances
from cmvmix.ecm import _ALPHA_EPS
from cmvmix.errors import DimensionMismatch, NotPositiveDefinite

from cm_reference import logs_from_distances, trace_quad_form
from test_linalg import random_spd

LOG_2PI = np.log(2 * np.pi)


def vec_log_density(x, m, sigma, psi):
    """Oracle: multivariate normal on vec(X) with covariance psi (x) sigma."""
    return multivariate_normal.logpdf(
        np.asarray(x).flatten(order="F"),
        np.asarray(m).flatten(order="F"),
        np.kron(psi, sigma),
    )


def random_params(rng, r=None, p=None):
    r = r or int(rng.integers(1, 5))
    p = p or int(rng.integers(1, 5))
    return MvnParams(rng.standard_normal((r, p)), random_spd(rng, r), random_spd(rng, p))


class TestMvnDensity:
    def test_at_mean_identity_scales(self):
        params = MvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert mvn_log_density(np.zeros((2, 2)), params) == pytest.approx(-2 * LOG_2PI, rel=1e-14)

    def test_text_matrix_is_refused(self):
        params = MvnParams(np.zeros((1, 2)), np.eye(1), np.eye(2))
        with pytest.raises(ValueError, match="x must be of type float"):
            mvn_log_density([["1", "2"]], params)

    def test_vec_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            params = random_params(rng)
            x = rng.standard_normal(params.shape)
            expected = vec_log_density(x, params.m, params.sigma, params.psi)
            assert mvn_log_density(x, params) == pytest.approx(expected, abs=1e-10)

    def test_single_entry_perturbation(self):
        params = MvnParams(np.zeros((2, 3)), np.eye(2), np.eye(3))
        at_mean = mvn_log_density(np.zeros((2, 3)), params)
        for t in (0.5, 1.0, 3.0):
            x = np.zeros((2, 3))
            x[0, 0] = t
            assert mvn_log_density(x, params) == pytest.approx(at_mean - t * t / 2, rel=1e-13)

    def test_normalization_neutral(self):
        # replacing (sigma, psi) by (sigma/s11, s11*psi) leaves the density alone
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 2))
        sigma = random_spd(rng, 3, scale=2.7)
        psi = random_spd(rng, 2)
        x = rng.standard_normal((3, 2))
        a = mvn_log_density(x, MvnParams(m, sigma, psi))
        s11 = sigma[0, 0]
        b = mvn_log_density(x, MvnParams(m, sigma / s11, s11 * psi))
        assert a == pytest.approx(b, abs=1e-12)
        # and the constructor itself enforces sigma[0,0] = 1
        assert MvnParams(m, sigma, psi).sigma[0, 0] == 1.0

    def test_constructor_preserves_kronecker(self):
        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 2, scale=3.1)
        psi = random_spd(rng, 3)
        params = MvnParams(np.zeros((2, 3)), sigma, psi)
        before = np.kron(psi, sigma)
        after = np.kron(params.psi, params.sigma)
        assert np.linalg.norm(after - before) / np.linalg.norm(before) < 1e-12


class TestCmvnDensity:
    def test_alpha_near_one_degenerates(self):
        rng = np.random.default_rng(3)
        base = random_params(rng, 2, 2)
        params = CmvnParams(base, 1 - 1e-12, 4.0)
        x = rng.standard_normal((2, 2))
        assert cmvn_log_density(x, params) == pytest.approx(mvn_log_density(x, base), abs=1e-9)

    def test_closed_form_at_mean(self):
        base = MvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
        params = CmvnParams(base, 0.9, 4.0)
        # inflated component scales by eta^(-rp/2) = 1/16 at the mean
        expected = np.log(0.9 + 0.1 / 16) - 2 * LOG_2PI
        assert cmvn_log_density(np.zeros((2, 2)), params) == pytest.approx(expected, rel=1e-14)

    def test_two_term_vec_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = random_params(rng)
            alpha = rng.uniform(0.55, 0.95)
            eta = rng.uniform(1.5, 20.0)
            params = CmvnParams(base, alpha, eta)
            x = rng.standard_normal(base.shape)
            good = np.exp(vec_log_density(x, base.m, base.sigma, base.psi))
            bad = np.exp(vec_log_density(x, base.m, eta * base.sigma, base.psi))
            assert cmvn_log_density(x, params) == pytest.approx(
                np.log(alpha * good + (1 - alpha) * bad), abs=1e-10)

    def test_inflation_factorization(self):
        # splitting eta across both scales changes nothing once the products agree
        rng = np.random.default_rng(5)
        base = random_params(rng, 2, 3)
        x = rng.standard_normal((2, 3))
        eta_s, eta_p = 2.5, 3.2
        a = mvn_log_density(x, MvnParams(base.m, eta_s * base.sigma, eta_p * base.psi))
        b = mvn_log_density(x, MvnParams(base.m, eta_s * eta_p * base.sigma, base.psi))
        assert a == pytest.approx(b, abs=1e-12)


class TestPosteriorGoodProb:
    def test_closed_form_at_mean(self):
        base = MvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
        params = CmvnParams(base, 0.9, 4.0)
        got = posterior_good_prob(np.zeros((2, 2)), params)
        assert got == pytest.approx(0.9 / 0.90625, rel=1e-12)

    def test_eta_min_gives_alpha(self):
        rng = np.random.default_rng(6)
        base = random_params(rng, 2, 2)
        params = CmvnParams(base, 0.8, ETA_MIN)
        for _ in range(5):
            x = rng.standard_normal((2, 2))
            assert posterior_good_prob(x, params) == pytest.approx(0.8, abs=1e-3)

    def test_decreasing_in_distance_matches_h(self):
        base = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
        params = CmvnParams(base, 0.85, 5.0)
        deltas = np.linspace(0.0, 50.0, 40)
        values = [h_weight(d, 0.85, 5.0, 1, 1) for d in deltas]
        assert all(b < a for a, b in zip(values, values[1:]))
        # h and the posterior are the same function through two code paths
        for d in deltas[1:]:
            x = np.array([[np.sqrt(d)]])
            assert posterior_good_prob(x, params) == pytest.approx(
                h_weight(d, 0.85, 5.0, 1, 1), rel=1e-12)


def test_one_matrix_whose_distance_overflows_gives_the_floor_without_a_warning():
    # the whitened residuals of x = 1e200 everywhere square to +inf, and the
    # log-odds then meet -inf - -inf; filterwarnings = error makes a numpy
    # warning on the way fail this test, and the caller's error state stays
    base = MvnParams(np.zeros((2, 3)), np.eye(2), np.eye(3))
    law = CmvnParams(base, 0.9, 2.0)
    x = np.full((2, 3), 1e200)
    caller = np.geterr()
    assert mvn_log_density(x, base) == -np.inf
    assert cmvn_log_density(x, law) == -np.inf
    assert posterior_good_prob(x, law) == np.finfo(float).tiny
    assert np.geterr() == caller


def two_term_oracle(delta, log_det, rp, alpha, eta):
    """log f and v from the good and bad log terms through scipy's logsumexp."""
    const = -0.5 * (rp * LOG_2PI + log_det)
    num = np.log(alpha) + const - 0.5 * delta
    bad = np.log1p(-alpha) + const - 0.5 * rp * np.log(eta) - 0.5 * delta / eta
    logf = logsumexp(np.stack([num, bad]), axis=0)
    v = np.clip(np.exp(num - logf), np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    return logf, v, np.abs(num) + np.abs(bad)


@settings(max_examples=300, deadline=None)
@given(
    deltas=st.lists(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e4), st.floats(0.0, 1e300),
                              st.sampled_from([0.0, 1e300])), min_size=1, max_size=8),
    log_det=st.floats(-30.0, 30.0),
    rp=st.integers(1, 60),
    alpha=st.one_of(st.sampled_from([_ALPHA_EPS, 1.0 - _ALPHA_EPS]),
                    st.floats(_ALPHA_EPS, 1.0 - _ALPHA_EPS)),
    eta=st.one_of(st.sampled_from([ETA_MIN, 1e6]), st.floats(ETA_MIN, 1e6)),
)
def test_closed_form_matches_two_term_logsumexp(deltas, log_det, rp, alpha, eta):
    # Both sides round the good and bad log terms, whose magnitudes reach
    # |num| + |bad|; the log-odds, and so log f (absolutely) and v
    # (relatively), are good to a few ulps of that: tolerance 64 eps times it.
    delta = np.array(deltas)
    logf, v = _logs_from_distances(delta, log_det, rp, alpha, eta)
    want_logf, want_v, scale = two_term_oracle(delta, log_det, rp, alpha, eta)
    tol = 64 * np.finfo(float).eps * (1.0 + scale)
    assert np.all(np.abs(logf - want_logf) <= tol)
    assert np.all(np.abs(v - want_v) <= tol * want_v)
    assert np.all((0.0 < v) & (v < 1.0))


# distances at 0, +inf (both parts 0) and far out; alphas within 1e-12 of 0
# and of 1; etas at the floor
_DELTAS = st.one_of(st.sampled_from([0.0, np.inf, 1e300]), st.floats(0.0, 1e4))
_ALPHAS = st.one_of(st.floats(0.0, 1e-12, exclude_min=True),
                    st.floats(1.0 - 1e-12, 1.0, exclude_max=True), st.floats(1e-12, 1.0 - 1e-12))
_ETAS = st.one_of(st.just(ETA_MIN), st.floats(ETA_MIN, 1e6))


@st.composite
def e_pass_terms(draw):
    """(G, N) distances with (G, 1) log determinants, alphas and etas, as the
    E-pass passes them, or one unit's 0-d values (Python floats or 0-d arrays)."""
    if draw(st.booleans()):
        g, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        delta = np.array(draw(st.lists(_DELTAS, min_size=g * n, max_size=g * n))).reshape(g, n)
        column = [np.array(draw(st.lists(s, min_size=g, max_size=g)))[:, None]
                  for s in (st.floats(-30.0, 30.0), _ALPHAS, _ETAS)]
        return (delta, *column)
    values = [draw(s) for s in (_DELTAS, st.floats(-30.0, 30.0), _ALPHAS, _ETAS)]
    return tuple(np.array(x) for x in values) if draw(st.booleans()) else tuple(values)


@settings(max_examples=400, deadline=None)
@given(terms=e_pass_terms(), rp=st.integers(1, 60), cmvn=st.booleans())
def test_in_place_logs_match_the_fresh_array_oracle(terms, rp, cmvn):
    # bit for bit, shapes included (a 0-d result is a 0-d array where the
    # oracle gives a numpy scalar; both have shape ())
    delta, log_det, alpha, eta = terms
    args = (delta, log_det, rp) + ((alpha, eta) if cmvn else ())
    with np.errstate(invalid="ignore"):  # -inf - -inf in the log-odds at delta = +inf
        got, want = _logs_from_distances(*args), logs_from_distances(*args)
    assert (got[1] is None) == (want[1] is None) == (not cmvn)
    for g, w in zip(got, want):
        if w is not None:
            g, w = np.asarray(g), np.asarray(w)
            assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestWeights:
    def test_h_at_zero(self):
        assert h_weight(0.0, 0.9, 4.0, 2, 2) == pytest.approx(0.9 / 0.90625, rel=1e-12)

    def test_h_underflows_monotonically(self):
        vals = [h_weight(d, 0.9, 4.0, 2, 2) for d in (1e2, 1e3, 1e4)]
        assert vals[0] > vals[1] >= vals[2]
        assert vals[2] < 1e-300 or vals[2] == 0.0

    def test_h_far_tail_stays_in_open_interval(self):
        # the good-part posterior is clipped at the smallest normal float
        h = h_weight(1e4, 0.9, 4.0, 2, 2)
        assert 0.0 < h < 1.0
        x = np.zeros((2, 2))
        x[0, 0] = 100.0  # delta = 1e4 under identity scales
        params = CmvnParams(MvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2)), 0.9, 4.0)
        assert h == posterior_good_prob(x, params)

    def test_h_matches_posterior_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            base = random_params(rng, 2, 3)
            alpha = rng.uniform(0.55, 0.95)
            eta = rng.uniform(1.5, 30.0)
            params = CmvnParams(base, alpha, eta)
            x = rng.standard_normal((2, 3))
            delta = trace_quad_form(x, base.m, base.sigma, base.psi)
            assert h_weight(delta, alpha, eta, 2, 3) == pytest.approx(
                posterior_good_prob(x, params), rel=1e-10)

    def test_w_limits(self):
        # h -> 1 gives full weight, h -> 0 bottoms out at 1/eta
        assert w_weight(0.0, 1 - 1e-12, 4.0, 2, 2) == pytest.approx(1.0, abs=1e-9)
        assert w_weight(1e5, 0.6, 4.0, 2, 2) == pytest.approx(0.25, rel=1e-12)

    def test_w_bounds_and_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = rng.uniform(0.55, 0.95)
            eta = rng.uniform(1.2, 50.0)
            deltas = np.sort(rng.uniform(0, 200, size=25))
            vals = [w_weight(d, alpha, eta, 2, 4) for d in deltas]
            hs = [h_weight(d, alpha, eta, 2, 4) for d in deltas]
            assert all(1 / eta - 1e-12 <= v <= 1 + 1e-12 for v in vals)
            # strictly decreasing until w saturates at 1/eta in float precision
            for (va, vb), hb in zip(zip(vals, vals[1:]), hs[1:]):
                if hb > 1e-12:
                    assert vb < va
                else:
                    assert vb <= va

    def test_domain_violations(self):
        for bad in (dict(delta=-1.0), dict(alpha=0.0), dict(alpha=1.0), dict(eta=1.0),
                    dict(delta=np.nan), dict(delta=np.inf), dict(eta=np.nan), dict(eta=np.inf)):
            kwargs = dict(delta=1.0, alpha=0.8, eta=2.0)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                h_weight(kwargs["delta"], kwargs["alpha"], kwargs["eta"], 2, 2)

    @pytest.mark.parametrize("weight", [h_weight, w_weight])
    @pytest.mark.parametrize("name, args", [
        ("r", (1.0, 0.8, 2.0, 2.5, 2)),   # a 2.5-row matrix gave h = 0.946
        ("p", (1.0, 0.8, 2.0, 2, True)),
        ("delta", ("1", 0.8, 2.0, 2, 2)),  # a bare comparison TypeError before
        ("alpha", (1.0, None, 2.0, 2, 2)),
        ("eta", (1.0, 0.8, 2 + 0j, 2, 2)),
    ])
    def test_wrong_types_refused_by_name(self, weight, name, args):
        with pytest.raises(TypeError, match=f"{name} must be of type"):
            weight(*args)

    @pytest.mark.parametrize("delta, eta", [(np.nan, 2.0), (np.inf, 2.0), (1.0, np.nan),
                                            (1.0, np.inf)])
    def test_w_weight_refuses_non_finite(self, delta, eta):
        with pytest.raises(ValueError):
            w_weight(delta, 0.8, eta, 2, 2)

    def test_boundary_agreement_with_posterior(self):
        # the two code paths cross 0.5 at the same distance
        alpha, eta = 0.75, 6.0
        base = MvnParams(np.zeros((1, 2)), np.eye(1), np.eye(2))
        params = CmvnParams(base, alpha, eta)
        for d in np.linspace(0.1, 40, 60):
            x = np.array([[np.sqrt(d), 0.0]])
            assert (posterior_good_prob(x, params) > 0.5) == (h_weight(d, alpha, eta, 1, 2) > 0.5)


class TestSampling:
    def test_fixed_seed_bit_identical(self):
        params = random_params(np.random.default_rng(9), 2, 3)
        a = sample_mvn(params, np.random.default_rng(42))
        b = sample_mvn(params, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_converges(self):
        params = MvnParams(np.arange(6.0).reshape(2, 3), np.eye(2), np.eye(3))
        draws = sample_mvn_stack(params, 10_000, np.random.default_rng(10))
        se = 1 / np.sqrt(10_000)
        assert np.all(np.abs(draws.mean(axis=0) - params.m) < 4 * se)

    def test_vec_covariance_converges(self):
        rng = np.random.default_rng(11)
        params = MvnParams(np.zeros((2, 2)), np.array([[2.0, 0.5], [0.5, 1.0]]),
                           np.array([[1.0, 0.3], [0.3, 1.5]]))
        target = np.kron(params.psi, params.sigma)
        errs = []
        for n in (500, 5_000, 50_000):
            draws = sample_mvn_stack(params, n, rng)
            vecs = draws.reshape(n, 2, 2).transpose(0, 2, 1).reshape(n, 4)  # column-major vec
            emp = np.cov(vecs.T, bias=True)
            errs.append(np.linalg.norm(emp - target))
        assert errs[2] < errs[0]
        assert errs[2] < 0.1 * np.linalg.norm(target)

    def test_cmvn_good_fraction(self):
        rng = np.random.default_rng(12)
        base = MvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
        params = CmvnParams(base, 0.75, 9.0)
        flags = [sample_cmvn(params, rng)[1] for _ in range(10_000)]
        frac = np.mean(flags)
        se = np.sqrt(0.75 * 0.25 / 10_000)
        assert abs(frac - 0.75) < 3 * se

    def test_bad_draw_distance_scales_with_eta(self):
        rng = np.random.default_rng(13)
        base = MvnParams(np.zeros((2, 2)), np.eye(2), np.eye(2))
        eta = 100.0
        params = CmvnParams(base, 0.5001, eta)
        deltas = []
        while len(deltas) < 2000:
            x, good = sample_cmvn(params, rng)
            if not good:
                deltas.append(trace_quad_form(x, base.m, base.sigma, base.psi))
        mean_delta = np.mean(deltas)
        # E[delta] = eta * r * p for bad draws measured under the base scale
        assert mean_delta == pytest.approx(eta * 4, rel=0.1)

    def test_alpha_near_one_rarely_bad(self):
        rng = np.random.default_rng(14)
        base = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
        params = CmvnParams(base, 1 - 1e-12, 4.0)
        assert all(sample_cmvn(params, rng)[1] for _ in range(1000))


class TestParamValidation:
    def test_alpha_range(self):
        base = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
        for alpha in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                CmvnParams(base, alpha, 2.0)

    def test_eta_floor(self):
        base = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            CmvnParams(base, 0.9, 1.0)
        CmvnParams(base, 0.9, ETA_MIN)  # boundary allowed

    @pytest.mark.parametrize("name", ["sigma", "psi"])
    def test_asymmetric_scale_rejected(self, name):
        law = {"m": np.zeros((2, 2)), "sigma": np.eye(2), "psi": np.eye(2)}
        with pytest.raises(NotPositiveDefinite, match=f"{name} is not symmetric"):
            MvnParams(**{**law, name: np.array([[1.0, 0.5], [0.0, 1.0]])})

    @pytest.mark.parametrize("name", ["sigma", "psi"])
    def test_tiny_asymmetry_averaged(self, name):
        a = np.array([[2.0, 0.5 + 5e-11], [0.5, 1.0]])
        law = MvnParams(**{"m": np.zeros((2, 2)), "sigma": np.eye(2), "psi": np.eye(2), name: a})
        got = law.sigma * 2.0 if name == "sigma" else law.psi  # sigma[0,0] = 2 moved to psi
        np.testing.assert_array_equal(got, (a + a.T) / 2)


_LAW = {"m": np.zeros((2, 3)), "sigma": np.array([[2.0, 0.5], [0.5, 1.0]]), "psi": np.eye(3)}
_TEXT = np.array([["a", "b", "c"], ["d", "e", "f"]])
_NAN_M = np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]])
_LAW_FAULTS = [  # (field, fault, value, exception the record raises)
    ("m", "text", _TEXT, ValueError),
    ("m", "complex", np.zeros((2, 3), complex), ValueError),
    ("m", "boolean", np.zeros((2, 3), bool), ValueError),
    ("m", "3-D", np.zeros((2, 3, 1)), DimensionMismatch),
    ("m", "1-D", np.zeros(3), DimensionMismatch),
    ("m", "empty", np.zeros((0, 3)), DimensionMismatch),
    ("m", "nan", _NAN_M, ValueError),
    ("m", "inf", np.where(np.isnan(_NAN_M), np.inf, _NAN_M), ValueError),
    ("sigma", "text", _TEXT[:, :2], ValueError),
    ("sigma", "boolean", np.eye(2, dtype=bool), ValueError),
    ("sigma", "not square", np.ones((2, 3)), DimensionMismatch),
    ("sigma", "1-D", np.ones(2), DimensionMismatch),
    ("sigma", "3-D", np.eye(2)[:, :, None], DimensionMismatch),
    ("sigma", "empty", np.zeros((0, 0)), DimensionMismatch),
    ("sigma", "mean rows", np.eye(3), DimensionMismatch),
    ("sigma", "inf", np.array([[2.0, 0.5], [0.5, np.inf]]), ValueError),
    ("sigma", "nan", np.array([[2.0, np.nan], [np.nan, 1.0]]), ValueError),
    ("sigma", "asymmetric", np.array([[2.0, 0.5], [0.0, 1.0]]), NotPositiveDefinite),
    ("sigma", "ragged row", [[2.0, 0.5], [0.5]], ValueError),
    ("sigma", "s11 zero", np.array([[0.0, 0.0], [0.0, 1.0]]), ValueError),
    ("sigma", "s11 negative", np.array([[-1.0, 0.0], [0.0, 1.0]]), ValueError),
    ("psi", "text", np.full((3, 3), "1"), ValueError),
    ("psi", "complex", np.eye(3, dtype=complex), ValueError),
    ("psi", "not square", np.ones((3, 2)), DimensionMismatch),
    ("psi", "1-D", np.ones(3), DimensionMismatch),
    ("psi", "mean cols", np.eye(2), DimensionMismatch),
    ("psi", "nan", np.diag([1.0, np.nan, 1.0]), ValueError),
    ("psi", "asymmetric", np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-9, 0.0, 1.0]]),
     NotPositiveDefinite),
]


@pytest.mark.parametrize("field, value, exc", [(f, v, e) for f, _, v, e in _LAW_FAULTS],
                         ids=[f"{f}-{fault}" for f, fault, _, _ in _LAW_FAULTS])
def test_law_record_refuses_each_fault_by_name(field, value, exc):
    with pytest.raises(exc, match=rf"^{field}\b"):
        MvnParams(**{**_LAW, field: value})


_CMVN_FAULTS = [  # (field, value, exception)
    ("alpha", "0.9", TypeError), ("alpha", True, TypeError), ("alpha", 1.0, ValueError),
    ("alpha", float("nan"), ValueError), ("eta", "2", TypeError), ("eta", 1.0, ValueError),
    ("eta", float("inf"), ValueError), ("eta", float("nan"), ValueError),
]


@pytest.mark.parametrize("field, value, exc", _CMVN_FAULTS)
def test_contaminated_record_refuses_each_fault_by_name(field, value, exc):
    args = {"base": MvnParams(**_LAW), "alpha": 0.9, "eta": 2.0, field: value}
    with pytest.raises(exc, match=rf"^{field}\b"):
        CmvnParams(**args)
