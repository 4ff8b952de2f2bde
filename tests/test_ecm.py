"""Tests for the ECM engine: E-step, CM-steps, fit driver, classification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp
from scipy.stats import matrix_normal, multivariate_normal

from cmvmix import ecm, linalg
from cmvmix.data import Dataset
from cmvmix.distributions import ETA_MIN, CmvnParams, MvnParams, sample_mvn_stack
from cmvmix.ecm import (
    FitConfig,
    Kind,
    MixtureModel,
    Responsibilities,
    _INIT_ETA,
    _run_chain,
    classify_from,
    e_step,
    fit,
    observed_loglik,
)
from cmvmix.errors import AllStartsFailed, DegenerateCluster, NotPositiveDefinite
from cmvmix.metrics import adjusted_rand_index
from cmvmix.simulate import generate, perturb, reference_model

from cm_reference import (
    cm_step_1,
    cm_step_2_sigma,
    cm_step_3_psi,
    cm_step_4_eta,
    expected_complete_loglik,
)
from test_linalg import random_spd


def naive_ell_c3(samples, z, v, means, sigmas, psis, etas):
    """Independent complete-data objective (explicit inverses, plain loops)."""
    n, r, p = samples.shape
    total = 0.0
    for j in range(len(means)):
        si = np.linalg.inv(sigmas[j])
        pi_inv = np.linalg.inv(psis[j])
        _, lds = np.linalg.slogdet(sigmas[j])
        _, ldp = np.linalg.slogdet(psis[j])
        for i in range(n):
            d = samples[i] - means[j]
            delta = np.trace(si @ d @ pi_inv @ d.T)
            total += z[i, j] * (
                -0.5 * p * lds
                - 0.5 * r * ldp
                - 0.5 * r * p * (1 - v[i, j]) * np.log(etas[j])
                - 0.5 * (v[i, j] + (1 - v[i, j]) / etas[j]) * delta
            )
    return total


def random_cmvn_model(rng, g, r, p):
    comps = tuple(
        CmvnParams(
            MvnParams(3 * rng.standard_normal((r, p)), random_spd(rng, r), random_spd(rng, p)),
            rng.uniform(0.6, 0.95),
            rng.uniform(1.5, 10.0),
        )
        for _ in range(g)
    )
    w = rng.dirichlet(np.full(g, 5.0))
    return MixtureModel(kind=Kind.CMVN, weights=w / w.sum(), components=comps)


class TestEStep:
    def test_single_component_all_ones(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((10, 2, 2)))
        model = random_cmvn_model(rng, 1, 2, 2)
        resp = e_step(data, model)
        np.testing.assert_allclose(resp.z, 1.0)
        assert np.all((resp.v > 0) & (resp.v < 1))

    def test_identical_components_split_evenly(self):
        rng = np.random.default_rng(1)
        comp = random_cmvn_model(rng, 1, 2, 3).components[0]
        model = MixtureModel(kind=Kind.CMVN, weights=np.array([0.5, 0.5]),
                             components=(comp, comp))
        data = Dataset(rng.standard_normal((8, 2, 3)))
        resp = e_step(data, model)
        np.testing.assert_allclose(resp.z, 0.5, atol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((25, 2, 2)))
        model = random_cmvn_model(rng, 3, 2, 2)
        resp = e_step(data, model)
        np.testing.assert_allclose(resp.z.sum(axis=1), 1.0, atol=1e-12)

    def test_linear_space_oracle(self):
        # moderate distances, so straight linear-space mixing is safe
        rng = np.random.default_rng(3)
        g, r, p = 2, 2, 2
        comps = tuple(
            CmvnParams(MvnParams(0.5 * rng.standard_normal((r, p)), np.eye(r), np.eye(p)),
                       0.8, 3.0)
            for _ in range(g)
        )
        model = MixtureModel(kind=Kind.CMVN, weights=np.array([0.4, 0.6]), components=comps)
        data = Dataset(rng.standard_normal((12, r, p)))
        resp = e_step(data, model)
        for i in range(12):
            dens = []
            for comp in model.components:
                vec = data.samples[i].flatten(order="F")
                mu = comp.base.m.flatten(order="F")
                cov = np.kron(comp.base.psi, comp.base.sigma)
                good = multivariate_normal.pdf(vec, mu, cov)
                bad = multivariate_normal.pdf(vec, mu, comp.eta * cov)
                dens.append(comp.alpha * good + (1 - comp.alpha) * bad)
            dens = np.array(dens) * model.weights
            np.testing.assert_allclose(resp.z[i], dens / dens.sum(), rtol=1e-9)


@st.composite
def permuted_problems(draw):
    """A random mixture, a dataset drawn around its means, and a permutation
    of the dataset's units."""
    n, g = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cmvn_model(rng, g, r, p)
    if draw(st.booleans()):
        model = MixtureModel(kind=Kind.MVN, weights=model.weights,
                             components=tuple(c.base for c in model.components))
    samples = 4 * rng.standard_normal((n, r, p))
    return model, Dataset(samples), np.array(draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(permuted_problems())
def test_unit_permutation_permutes_posteriors(problem):
    """Units are exchangeable: permuting them permutes the rows of z and v
    and leaves the observed log-likelihood unchanged."""
    model, data, perm = problem
    resp = e_step(data, model)
    resp_p = e_step(Dataset(data.samples[perm]), model)
    np.testing.assert_allclose(resp_p.z, resp.z[perm], rtol=1e-12, atol=1e-300)
    if model.kind is Kind.CMVN:
        np.testing.assert_allclose(resp_p.v, resp.v[perm], rtol=1e-12, atol=1e-300)
    else:
        assert resp.v is None and resp_p.v is None
    ll = observed_loglik(data, model)
    assert observed_loglik(Dataset(data.samples[perm]), model) == pytest.approx(ll, rel=1e-12)


def orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def map_model(model, a, b, c):
    """The mixture of A X B' + C when X is drawn from model."""
    comps = []
    for comp in model.components:
        base = comp.base if model.kind is Kind.CMVN else comp
        mapped = MvnParams(a @ base.m @ b.T + c, a @ base.sigma @ a.T, b @ base.psi @ b.T)
        comps.append(CmvnParams(mapped, comp.alpha, comp.eta) if model.kind is Kind.CMVN
                     else mapped)
    return MixtureModel(kind=model.kind, weights=model.weights, components=tuple(comps))


def map_units(data, a, b, c):
    return Dataset(np.einsum("ij,njk,lk->nil", a, data.samples, b) + c)


@st.composite
def coordinate_changes(draw):
    """A random mixture, a dataset drawn around its means, and orthogonal
    row and column maps A, B with a shift C."""
    n, g = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    r, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_cmvn_model(rng, g, r, p)
    if draw(st.booleans()):
        model = MixtureModel(kind=Kind.MVN, weights=model.weights,
                             components=tuple(c.base for c in model.components))
    data = Dataset(4 * rng.standard_normal((n, r, p)))
    return model, data, orthogonal(rng, r), orthogonal(rng, p), rng.normal(0.0, 2.0, (r, p))


@settings(max_examples=60, deadline=None)
@given(coordinate_changes())
def test_orthogonal_change_of_coordinates_keeps_posteriors(problem):
    """Mapping every unit to A X B' + C and the model to (A M B' + C,
    A Sigma A', B Psi B') leaves z, v and the observed log-likelihood
    unchanged: the distances are invariant and |det A| = |det B| = 1."""
    model, data, a, b, c = problem
    moved, moved_model = map_units(data, a, b, c), map_model(model, a, b, c)
    resp, resp_m = e_step(data, model), e_step(moved, moved_model)
    np.testing.assert_allclose(resp_m.z, resp.z, rtol=1e-9, atol=1e-12)
    if model.kind is Kind.CMVN:
        np.testing.assert_allclose(resp_m.v, resp.v, rtol=1e-9, atol=1e-12)
    assert observed_loglik(moved, moved_model) == pytest.approx(
        observed_loglik(data, model), rel=1e-10)


@pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
def test_chain_is_equivariant_under_orthogonal_maps(kind):
    """From the same initial responsibilities the chain on A X B' + C takes
    the same path: the initial column scale, the identity, is invariant
    under B, so every iterate is the mapped one."""
    data = perturb(generate(reference_model(), 60, seed=7), 6, 10.0)
    rng = np.random.default_rng(3)
    moved = map_units(data, orthogonal(rng, data.r), orthogonal(rng, data.p),
                      rng.normal(0.0, 2.0, (data.r, data.p)))
    cfg = FitConfig(g=2, max_iter=300)
    init_z, init_v = ecm._initial_responsibilities(np.random.default_rng(11), data.n, 2, kind)
    _, resp, trace, converged, iters = _run_chain(data, kind, cfg, init_z, init_v)
    _, resp_m, trace_m, converged_m, iters_m = _run_chain(moved, kind, cfg, init_z, init_v)
    assert (converged_m, iters_m) == (converged, iters)
    np.testing.assert_allclose(trace_m, trace, rtol=1e-9)
    np.testing.assert_allclose(resp_m.z, resp.z, rtol=1e-9, atol=1e-12)


class TestRecordsReproduceChain:
    """e_step and observed_loglik on a fit's model record give back the
    chain's own posteriors and log-likelihood.  Posteriors far below 1 are
    exponentials of logs tens of nats down, so they are compared with an
    absolute floor far below any probability that matters."""

    @pytest.fixture(scope="class")
    def data(self):
        return perturb(generate(reference_model(), 60, seed=7), 6, 10.0)

    @pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_same_posteriors_and_loglik(self, data, kind, g):
        res = fit(data, FitConfig(g=g, n_starts=3, seed=0), kind)
        resp = e_step(data, res.model)
        np.testing.assert_allclose(resp.z, res.resp.z, rtol=1e-12, atol=1e-15)
        if kind is Kind.CMVN:
            np.testing.assert_allclose(resp.v, res.resp.v, rtol=1e-12, atol=1e-15)
        assert observed_loglik(data, res.model) == pytest.approx(res.loglik, rel=1e-12)


class TestEPass:
    """The E-pass's shifted log-sum-exp against scipy's logsumexp."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
    def test_matches_logsumexp(self, kind):
        rng = np.random.default_rng(40)
        n, g, rp = 8, 3, 8
        # each row's log densities spread over about 1e3 nats
        delta = rng.uniform(0.0, 2000.0, size=(n, g))
        delta[0] = [1.0, 3.0, 2.0]
        log_det = rng.standard_normal(g)
        log_w = np.log(rng.dirichlet(np.ones(g)))
        alphas = rng.uniform(0.6, 0.95, g) if kind is Kind.CMVN else None
        etas = rng.uniform(2.0, 8.0, g) if kind is Kind.CMVN else None
        z, v, ll = ecm._e_pass(delta.T, log_det, log_w, rp, alphas, etas)
        z = z.T
        from cmvmix.distributions import _logs_from_distances
        logw = _logs_from_distances(delta, log_det, rp, alphas, etas)[0] + log_w
        lse = logsumexp(logw, axis=1)
        assert ll == pytest.approx(lse.sum(), rel=1e-14)
        np.testing.assert_allclose(z, np.exp(logw - lse[:, None]), rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_minus_inf_entries(self):
        delta = np.array([[1.0, np.inf, 4.0], [2.0, 5.0, 3.0]])
        log_w = np.log(np.full(3, 1 / 3))
        z, _, ll = ecm._e_pass(delta.T, np.zeros(3), log_w, 4, None, None)
        z = z.T
        assert z[0, 1] == 0.0
        assert np.isfinite(ll)
        logw = -0.5 * (4 * np.log(2 * np.pi) + delta) + log_w
        np.testing.assert_allclose(z[0], np.exp(logw[0] - logsumexp(logw[0])), rtol=1e-14)
        # a unit that no component can explain leaves the log-likelihood
        # non-finite, which fit() counts as a failed start
        delta[1] = np.inf
        with np.errstate(invalid="ignore"):
            _, _, ll = ecm._e_pass(delta.T, np.zeros(3), log_w, 4, None, None)
        assert not np.isfinite(ll)

    def test_minus_inf_entries_cmvn(self):
        # a component at delta = +inf: both of its parts are 0, so log f is
        # -inf and v is the clip floor (the logaddexp form gave v = NaN
        # there), while the other components still explain the unit
        from cmvmix.distributions import _logs_from_distances
        delta = np.array([[1.0, np.inf, 4.0], [2.0, 5.0, 3.0]])
        log_w = np.log(np.full(3, 1 / 3))
        alphas, etas = np.array([0.9, 0.8, 0.7]), np.array([2.0, 3.0, 4.0])
        with np.errstate(invalid="ignore"):  # -inf - -inf in the log-odds
            logf, v_direct = _logs_from_distances(delta, np.zeros(3), 4, alphas, etas)
            z, v, ll = ecm._e_pass(delta.T, np.zeros(3), log_w, 4, alphas, etas)
        z, v = z.T, v.T
        assert logf[0, 1] == -np.inf
        assert not np.any(np.isnan(v)) and not np.any(np.isnan(v_direct))
        assert v[0, 1] == np.finfo(float).tiny
        assert z[0, 1] == 0.0
        assert np.isfinite(ll)
        logw = logf + log_w
        np.testing.assert_allclose(z[0], np.exp(logw[0] - logsumexp(logw[0])), rtol=1e-14)


class TestCmSteps:
    def _setup(self, seed=4, n=30, g=2, r=2, p=3):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n, r, p))
        z = rng.dirichlet(np.ones(g), size=n)
        v = rng.uniform(0.5, 1.0, size=(n, g))
        etas = rng.uniform(1.5, 6.0, size=g)
        return Dataset(samples), z, v, etas

    def test_mean_is_weighted_average_when_all_good(self):
        data, z, _, etas = self._setup()
        v = np.ones_like(z)
        _, _, means, _ = cm_step_1(data, Responsibilities(z=z, v=v), etas)
        for j in range(2):
            expected = np.einsum("i,irp->rp", z[:, j], data.samples) / z[:, j].sum()
            np.testing.assert_allclose(means[j], expected, rtol=1e-12)

    def test_single_observation_cluster_recovers_it(self):
        # one point with z = 1, v = 0: the weights cancel in the mean
        samples = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        data = Dataset(samples)
        resp = Responsibilities(z=np.ones((1, 1)), v=np.zeros((1, 1)))
        _, _, means, _ = cm_step_1(data, resp, np.array([4.0]))
        np.testing.assert_allclose(means[0], samples[0], rtol=1e-14)

    def test_alpha_and_weights(self):
        data, z, v, etas = self._setup()
        weights, alphas, _, _ = cm_step_1(data, Responsibilities(z=z, v=v), etas)
        ng = z.sum(axis=0)
        np.testing.assert_allclose(weights, ng / data.n, rtol=1e-14)
        np.testing.assert_allclose(alphas, (z * v).sum(axis=0) / ng, rtol=1e-12)

    def test_mean_update_is_stationary_point(self):
        # finite-difference gradient of the complete-data objective vanishes
        data, z, v, etas = self._setup(seed=5)
        resp = Responsibilities(z=z, v=v)
        _, _, means, u = cm_step_1(data, resp, etas)
        ng = z.sum(axis=0)
        sigmas = [np.eye(2)] * 2
        psis = [np.eye(3)] * 2
        eps = 1e-6
        for j in range(2):
            grad = np.zeros((2, 3))
            for a in range(2):
                for b in range(3):
                    for sign in (1, -1):
                        shifted = [m.copy() for m in means]
                        shifted[j][a, b] += sign * eps
                        val = naive_ell_c3(data.samples, z, v, shifted, sigmas, psis, etas)
                        grad[a, b] += sign * val
            grad /= 2 * eps
            assert np.linalg.norm(grad) < 1e-6 * max(1.0, abs(
                naive_ell_c3(data.samples, z, v, list(means), sigmas, psis, etas)))

    def test_sigma_monte_carlo_consistency(self):
        rng = np.random.default_rng(6)
        true_sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        true_psi = random_spd(rng, 3)
        params = MvnParams(np.zeros((2, 3)), true_sigma, true_psi)
        from cmvmix.distributions import sample_mvn_stack
        samples = sample_mvn_stack(params, 4000, rng)
        u = np.ones((4000, 1))
        ng = np.array([4000.0])
        means = samples.mean(axis=0)[None, :, :]
        sigmas = cm_step_2_sigma(samples, u, ng, means, [params.psi])
        # identifiability scaling: compare after normalizing sigma[0,0] to 1
        got = sigmas[0] / sigmas[0][0, 0]
        np.testing.assert_allclose(got, params.sigma / params.sigma[0, 0], atol=0.1)

    def test_sigma_symmetric(self):
        data, z, v, etas = self._setup(seed=7)
        resp = Responsibilities(z=z, v=v)
        _, _, means, u = cm_step_1(data, resp, etas)
        sigmas = cm_step_2_sigma(data.samples, u, z.sum(axis=0), means,
                                 [random_spd(np.random.default_rng(8), 3)] * 2)
        for s in sigmas:
            assert np.max(np.abs(s - s.T)) < 1e-12

    def test_degenerate_single_point_at_mean(self):
        samples = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        u = np.ones((1, 1))
        ng = np.array([1.0])
        means = samples.copy()
        sigmas = cm_step_2_sigma(samples, u, ng, means, [np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            cm_step_3_psi(samples, u, ng, means, sigmas)

    def test_psi_transposition_oracle(self):
        # the column-scale update is the row-scale update of the transposed data
        data, z, v, etas = self._setup(seed=9)
        resp = Responsibilities(z=z, v=v)
        _, _, means, u = cm_step_1(data, resp, etas)
        ng = z.sum(axis=0)
        sigmas = [random_spd(np.random.default_rng(10), 2) for _ in range(2)]
        psis = cm_step_3_psi(data.samples, u, ng, means, sigmas)
        transposed = data.samples.transpose(0, 2, 1)
        means_t = means.transpose(0, 2, 1)
        psis_t = cm_step_2_sigma(transposed, u, ng, means_t, sigmas)
        # cm2 divides by the transposed column count (= r); rescale to match cm3
        for a, b in zip(psis, psis_t):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_flip_flop_oracle(self):
        # with v = 1 and one component this is the classical matrix-normal step
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((10, 3, 2))
        u = np.ones((10, 1))
        ng = np.array([10.0])
        means = samples.mean(axis=0)[None, :, :]
        psi_prev = random_spd(rng, 2)
        sigma = cm_step_2_sigma(samples, u, ng, means, [psi_prev])[0]
        psi = cm_step_3_psi(samples, u, ng, means, [sigma])[0]
        # naive reference with explicit inverses
        d = samples - means[0]
        sigma_ref = sum(di @ np.linalg.inv(psi_prev) @ di.T for di in d) / (2 * 10)
        psi_ref = sum(di.T @ np.linalg.inv(sigma_ref) @ di for di in d) / (3 * 10)
        np.testing.assert_allclose(sigma, sigma_ref, rtol=1e-10)
        np.testing.assert_allclose(psi, psi_ref, rtol=1e-10)

    def test_eta_floor_when_no_bad_mass(self):
        data, z, _, _ = self._setup(seed=12)
        v = np.ones_like(z)
        means = np.zeros((2, 2, 3))
        etas = cm_step_4_eta(data.samples, z, v, means, [np.eye(2)] * 2, [np.eye(3)] * 2, 1.0001)
        np.testing.assert_allclose(etas, 1.0001)

    def test_eta_single_bad_point_closed_form(self):
        # one observation with z=1, v=0 at distance 40 on 2x4 matrices: eta = 40/8
        x = np.zeros((1, 2, 4))
        x[0, 0, 0] = np.sqrt(40.0)
        means = np.zeros((1, 2, 4))
        etas = cm_step_4_eta(x, np.ones((1, 1)), np.zeros((1, 1)), means,
                             [np.eye(2)], [np.eye(4)], 1.0001)
        assert etas[0] == pytest.approx(5.0, rel=1e-12)

    def test_eta_matches_numeric_maximization(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n, r, p = 20, 2, 3
            samples = rng.standard_normal((n, r, p)) * 3
            z = rng.dirichlet(np.ones(1), size=n)
            v = rng.uniform(0.1, 0.95, size=(n, 1))
            means = samples.mean(axis=0)[None, :, :]
            sigma = random_spd(rng, r)
            psi = random_spd(rng, p)
            etas = cm_step_4_eta(samples, z, v, means, [sigma], [psi], 1.0001)

            def neg(eta):
                return -naive_ell_c3(samples, z, v, means, [sigma], [psi], [eta])

            opt = minimize_scalar(neg, bounds=(1.0001, 500.0), method="bounded",
                                  options={"xatol": 1e-10})
            assert etas[0] == pytest.approx(max(1.0001, opt.x), rel=1e-6)

    def test_eta_always_floored(self):
        rng = np.random.default_rng(14)
        samples = 0.01 * rng.standard_normal((10, 2, 2))
        z = np.ones((10, 1))
        v = rng.uniform(0.9, 0.999, (10, 1))
        means = samples.mean(axis=0)[None, :, :]
        etas = cm_step_4_eta(samples, z, v, means, [np.eye(2)], [np.eye(2)], 1.0001)
        assert etas[0] >= 1.0001

    def test_eta_floor_applies_per_component(self):
        # component 0 has no bad mass, component 1 one bad point at distance 40
        x = np.zeros((2, 2, 4))
        x[1, 0, 0] = np.sqrt(40.0)
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[1.0, 1.0], [1.0, 0.0]])
        etas = cm_step_4_eta(x, z, v, np.zeros((2, 2, 4)), [np.eye(2)] * 2, [np.eye(4)] * 2, 1.0001)
        assert etas[0] == 1.0001
        assert etas[1] == pytest.approx(5.0, rel=1e-12)

    def test_eta_mixes_an_empty_and_a_filled_component(self):
        # component 0's bad mass (2e-13) is below the 1e-12 cut, component 1's is not
        bad_mass = np.array([[1e-13, 1e-13, 0.0], [0.25, 0.5, 1.0]])
        delta = np.array([[7.0, 9.0, 11.0], [3.0, 40.0, 25.0]])
        etas = ecm._eta(bad_mass, delta, ETA_MIN, 8)
        mean = (0.25 * 3.0 + 0.5 * 40.0 + 1.0 * 25.0) / 1.75
        assert etas.tolist() == [ETA_MIN, mean / 8]

    def test_eta_nan_mass_does_not_hide_an_empty_component(self):
        bad_mass = np.array([[np.nan, 1.0], [1e-13, 0.0]])
        etas = ecm._eta(bad_mass, np.full((2, 2), 30.0), ETA_MIN, 8)
        assert np.isnan(etas[0]) and etas[1] == ETA_MIN

    @staticmethod
    def _cm_half_at_masses(rest):
        """_cm_half on 2x2 units, G = 2: component 0 holds a NaN posterior,
        component 1 the posterior rest on each of six units (floor 2)."""
        rng = np.random.default_rng(3)
        xt = rng.standard_normal((2, 2, 6))
        z = np.stack([[np.nan, 1.0, 1.0, 1.0, 1.0, 1.0], np.full(6, rest)])
        return ecm._cm_half(linalg.Work.of(xt, 2), z, None, np.full(2, _INIT_ETA),
                            np.tile(np.eye(2), (2, 1, 1)))

    def test_nan_mass_does_not_hide_a_component_below_the_floor(self):
        with pytest.raises(DegenerateCluster, match="component mass fell below 2"):
            self._cm_half_at_masses(0.1)

    def test_nan_mass_alone_passes_the_mass_check(self):
        # past the check, component 0's NaN scale fails its factorization
        with pytest.raises(NotPositiveDefinite, match="sigma is not positive definite"):
            self._cm_half_at_masses(1.0)


class TestFit:
    def test_single_component_mvn_recovers_sample_mean(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.standard_normal((40, 2, 3)) + 1.5)
        res = fit(data, FitConfig(g=1, n_starts=1, seed=0), Kind.MVN)
        np.testing.assert_allclose(res.model.components[0].m, data.samples.mean(axis=0),
                                   atol=1e-8)

    def test_two_group_recovery(self):
        data = generate(reference_model(), 150, seed=77)
        res = fit(data, FitConfig(g=2, n_starts=5, seed=1), Kind.CMVN)
        assert adjusted_rand_index(data.true_labels, res.hard_labels) >= 0.95

    def test_loglik_monotone(self):
        rng = np.random.default_rng(16)
        for trial in range(5):
            n = int(rng.integers(30, 80))
            data = Dataset(rng.standard_normal((n, 2, 2)) + rng.integers(0, 3))
            res = fit(data, FitConfig(g=2, n_starts=2, seed=trial, max_iter=100), Kind.CMVN)
            assert np.all(np.diff(res.loglik_trace) >= -1e-8)

    def test_reproducible_bitwise(self):
        data = generate(reference_model(), 60, seed=5)
        cfg = FitConfig(g=2, n_starts=3, seed=9)
        a = fit(data, cfg, Kind.CMVN)
        b = fit(data, cfg, Kind.CMVN)
        np.testing.assert_array_equal(a.resp.z, b.resp.z)
        np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)
        for ca, cb in zip(a.model.components, b.model.components):
            np.testing.assert_array_equal(ca.base.m, cb.base.m)
            assert ca.alpha == cb.alpha and ca.eta == cb.eta

    def test_sigma_normalized_and_kronecker_preserved(self):
        data = generate(reference_model(), 80, seed=3)
        res = fit(data, FitConfig(g=2, n_starts=2, seed=2), Kind.CMVN)
        for comp in res.model.components:
            assert comp.base.sigma[0, 0] == 1.0

    def test_each_cm_step_weakly_increases_objective(self):
        data = generate(reference_model(), 60, seed=8)
        cfg = FitConfig(g=2, n_starts=1, seed=4, max_iter=15)
        res = fit(data, cfg, Kind.CMVN)
        model = res.model
        resp = e_step(data, model)
        before = expected_complete_loglik(data, resp, model)
        # one more full CM cycle from the converged posteriors
        etas = np.array([c.eta for c in model.components])
        weights, alphas, means, u = cm_step_1(data, resp, etas)
        ng = resp.z.sum(axis=0)
        sigmas = cm_step_2_sigma(data.samples, u, ng, means, [c.base.psi for c in model.components])
        psis = cm_step_3_psi(data.samples, u, ng, means, sigmas)
        new_etas = cm_step_4_eta(data.samples, resp.z, resp.v, means, sigmas, psis, ETA_MIN)
        comps = tuple(
            CmvnParams(MvnParams(means[j], sigmas[j], psis[j]), float(alphas[j]), float(new_etas[j]))
            for j in range(2)
        )
        new_model = MixtureModel(kind=Kind.CMVN, weights=weights / weights.sum(), components=comps)
        after = expected_complete_loglik(data, resp, new_model)
        assert after >= before - 1e-8

    def test_complete_data_decomposition(self):
        # with hard z and v the three terms add up to the direct joint loglik
        data = generate(reference_model(), 40, seed=6)
        res = fit(data, FitConfig(g=2, n_starts=2, seed=7), Kind.CMVN)
        model = res.model
        z = np.zeros_like(res.resp.z)
        z[np.arange(data.n), res.hard_labels] = 1.0
        v = (res.resp.v > 0.5).astype(float)
        resp = Responsibilities(z=z, v=v)
        decomposed = expected_complete_loglik(data, resp, model)
        # direct complete-data log-likelihood
        direct = 0.0
        from cmvmix.distributions import mvn_log_density
        for i in range(data.n):
            j = res.hard_labels[i]
            comp = model.components[j]
            direct += np.log(model.weights[j])
            if v[i, j] == 1.0:
                direct += np.log(comp.alpha)
                direct += mvn_log_density(data.samples[i], comp.base)
            else:
                direct += np.log(1 - comp.alpha)
                inflated = MvnParams(comp.base.m, comp.eta * comp.base.sigma, comp.base.psi)
                direct += mvn_log_density(data.samples[i], inflated)
        assert decomposed == pytest.approx(direct, abs=1e-10)

    def test_effective_weight_rank_check(self):
        # within a fitted component, v + (1-v)/eta is non-increasing in distance
        from cmvmix.distributions import _distances
        data = generate(reference_model(), 100, seed=9)
        from cmvmix.simulate import perturb
        data = perturb(data, 6, 8.0)
        res = fit(data, FitConfig(g=2, n_starts=5, seed=3), Kind.CMVN)
        for j, comp in enumerate(res.model.components):
            idx = np.flatnonzero(res.hard_labels == j)
            delta = _distances(data.samples[idx], [comp.base])[0][0]
            w = res.resp.v[idx, j] + (1 - res.resp.v[idx, j]) / comp.eta
            order = np.argsort(delta)
            assert np.all(np.diff(w[order]) <= 1e-10)

    def test_all_starts_failed(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.standard_normal((4, 2, 2)))
        # both components fall below the floor r*p/2 = 2: masses [2.02, 1.98]
        cfg = FitConfig(g=2, n_starts=3, seed=0)
        with pytest.raises(AllStartsFailed):
            fit(data, cfg, Kind.CMVN)

    @pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
    def test_one_run_chain_call_per_start(self, monkeypatch, kind):
        # bench/tracing.py's start ledger wraps ecm._run_chain and reads its
        # (data, kind, config, ...) arguments and its 5-tuple, so fit must
        # call it once per start with the start's initial responsibilities
        data = generate(reference_model(), 40, seed=3)
        cfg = FitConfig(g=2, n_starts=4, seed=5)
        real, calls = ecm._run_chain, []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(ecm, "_run_chain", spy)
        fit(data, cfg, kind)
        assert len(calls) == cfg.n_starts
        for s, (args, kwargs, out) in enumerate(calls):
            assert kwargs == {} and len(args) == 5
            assert args[0] is data and args[1] is kind and args[2] is cfg
            rng = np.random.default_rng(cfg.seed ^ s)
            want_z, want_v = ecm._initial_responsibilities(rng, data.n, cfg.g, kind)
            np.testing.assert_array_equal(args[3], want_z)
            if kind is Kind.CMVN:
                np.testing.assert_array_equal(args[4], want_v)
            else:
                assert args[4] is None
            assert isinstance(out, tuple) and len(out) == 5
            theta, resp, trace, converged, iters = out
            assert len(theta) == 6 and isinstance(resp, Responsibilities)
            assert trace.shape == (iters,) and isinstance(converged, bool)

    def test_overflowing_spread_refused(self):
        samples = np.random.default_rng(2).standard_normal((30, 2, 2))
        samples[0] += 1e160
        with pytest.raises(ValueError, match="data overflow"):
            fit(Dataset(samples), FitConfig(g=2, n_starts=1), Kind.CMVN)
        samples[0] = 1e153  # squares to about 1e306: the check passes, the chain runs
        with pytest.raises(AllStartsFailed):
            fit(Dataset(samples), FitConfig(g=2, n_starts=1), Kind.CMVN)

    def test_needs_enough_observations(self):
        from cmvmix.errors import DimensionMismatch
        data = Dataset(np.zeros((1, 2, 2)) + np.eye(2)[None, :, :2])
        with pytest.raises(DimensionMismatch):
            fit(data, FitConfig(g=2, n_starts=1), Kind.MVN)

    def test_mvn_kind_has_no_bad_flags(self):
        data = generate(reference_model(), 50, seed=4)
        res = fit(data, FitConfig(g=2, n_starts=3, seed=5), Kind.MVN)
        assert res.bad_flags is None
        assert res.resp.v is None

    def test_permutation_invariance(self):
        # same chain on permuted data with compensated initial responsibilities
        data = generate(reference_model(), 50, seed=10)
        cfg = FitConfig(g=2, n_starts=1, seed=11, max_iter=200)
        rng = np.random.default_rng(cfg.seed)
        init_z = rng.dirichlet(np.ones(2), size=data.n)
        init_v = rng.uniform(0.5, 1.0, size=(data.n, 2))
        perm = np.random.default_rng(99).permutation(data.n)
        data_p = Dataset(data.samples[perm])
        _, _, trace_a, _, _ = _run_chain(data, Kind.CMVN, cfg, init_z, init_v)
        _, _, trace_b, _, _ = _run_chain(data_p, Kind.CMVN, cfg, init_z[perm], init_v[perm])
        assert trace_a[-1] == pytest.approx(trace_b[-1], rel=1e-9)

    @staticmethod
    def _stub_chains(monkeypatch, model, resp, final_logliks):
        """Replace the chain by one that ends start s at final_logliks[s]."""
        starts = iter(range(len(final_logliks)))
        comps = model.components
        theta = (model.weights, None, np.stack([c.m for c in comps]),
                 np.stack([c.sigma for c in comps]), np.stack([c.psi for c in comps]), None)

        def stub(data, kind, config, init_z, init_v):
            s = next(starts)
            return theta, resp, np.array([-1e3, final_logliks[s]]), True, 2

        monkeypatch.setattr(ecm, "_run_chain", stub)

    def test_non_finite_loglik_never_wins(self, monkeypatch):
        data = generate(reference_model(), 50, seed=4)
        real = fit(data, FitConfig(g=2, n_starts=1, seed=5), Kind.MVN)
        self._stub_chains(monkeypatch, real.model, real.resp, [np.nan, -101.0, -102.0, -103.0])
        res = fit(data, FitConfig(g=2, n_starts=4), Kind.MVN)
        assert res.start_index == 1
        assert res.loglik == -101.0

    def test_unconverged_fit_warns(self):
        data = generate(reference_model(), 50, seed=4)
        res = fit(data, FitConfig(g=2, n_starts=2, seed=5, max_iter=5), Kind.CMVN)
        assert not res.converged and res.iterations == 5
        assert any(w.startswith(f"start {res.start_index} did not converge in max_iter=5")
                   for w in res.warnings)
        done = fit(data, FitConfig(g=2, n_starts=2, seed=5), Kind.CMVN)
        assert done.converged and not any("did not converge" in w for w in done.warnings)

    def test_builds_records_for_the_returned_start_only(self, monkeypatch):
        built = []

        def counting_model(*args, **kwargs):
            built.append(MixtureModel(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ecm, "MixtureModel", counting_model)
        data = generate(reference_model(), 50, seed=4)
        res = fit(data, FitConfig(g=2, n_starts=5, seed=5), Kind.CMVN)
        assert len(built) == 1 and built[0] is res.model

    def test_all_non_finite_starts_fail(self, monkeypatch):
        data = generate(reference_model(), 50, seed=4)
        real = fit(data, FitConfig(g=2, n_starts=1, seed=5), Kind.MVN)
        self._stub_chains(monkeypatch, real.model, real.resp, [np.nan, np.inf, -np.inf, np.nan])
        with pytest.raises(AllStartsFailed, match="start 3: non-finite log-likelihood"):
            fit(data, FitConfig(g=2, n_starts=4), Kind.MVN)


def reference_chain(data, kind, config, init_z, init_v):
    """The per-record ECM loop: per-step CM helpers, frozen model records every
    iteration, and an E-step from scipy's matrix normal density (row scale
    inflated by eta for the bad part).  Returns (z, v, loglik trace)."""
    samples = data.samples
    n, r, p = samples.shape
    g = config.g
    cmvn = kind is Kind.CMVN
    z, v = init_z, (init_v if cmvn else None)
    etas = np.full(g, _INIT_ETA)
    psis = [np.eye(p)] * g
    trace = []
    for it in range(1, config.max_iter + 1):
        ng = z.sum(axis=0)
        if np.any(ng < r * p / 2.0):
            raise DegenerateCluster(f"iteration {it}: mass {ng}")
        weights, alphas, means, u = cm_step_1(data, Responsibilities(z=z, v=v), etas)
        sigmas = cm_step_2_sigma(samples, u, ng, means, psis)
        psis = cm_step_3_psi(samples, u, ng, means, sigmas)
        bases = [MvnParams(means[j], sigmas[j], psis[j]) for j in range(g)]
        logf = np.empty((n, g))
        if cmvn:
            etas = cm_step_4_eta(samples, z, v, means, sigmas, psis, ETA_MIN)
            comps = tuple(CmvnParams(b, float(a), float(e)) for b, a, e in zip(bases, alphas, etas))
            v = np.empty((n, g))
        else:
            comps = tuple(bases)
        model = MixtureModel(kind=kind, weights=weights / weights.sum(), components=comps)
        for j, b in enumerate(bases):
            try:
                good = matrix_normal(b.m, b.sigma, b.psi).logpdf(samples)
                if cmvn:
                    bad = matrix_normal(b.m, etas[j] * b.sigma, b.psi).logpdf(samples)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise NotPositiveDefinite(str(exc)) from None
            if cmvn:
                num = np.log(alphas[j]) + good
                logf[:, j] = np.logaddexp(num, np.log1p(-alphas[j]) + bad)
                v[:, j] = np.exp(num - logf[:, j])
            else:
                logf[:, j] = good
        logw = logf + np.log(model.weights)
        lse = logsumexp(logw, axis=1)
        z = np.exp(logw - lse[:, None])
        trace.append(lse.sum())
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) / (1.0 + abs(trace[-1])) < config.tol:
            break
    return z, v, np.array(trace)


def _outcome(chain, *args):
    try:
        return chain(*args), None
    except (DegenerateCluster, NotPositiveDefinite) as exc:
        return None, type(exc)


class TestChainAgainstReference:
    """_run_chain against the per-record reference loop from the same starts.

    Tolerances are fixed in advance: the two differ only in roundoff (the
    chain factors the unnormalized scales and sums the density constant in
    another order), far below these bounds over 60 iterations.
    """

    LOGLIK_RTOL = 1e-10
    POSTERIOR_ATOL = 1e-8

    @staticmethod
    def two_groups(r, p, g, n_outliers=3):
        """Two groups of 25 r x p units and n_outliers wide draws."""
        rng = np.random.default_rng(100 * r + 10 * p + g)
        groups = [sample_mvn_stack(MvnParams(4.0 * k * np.ones((r, p)), random_spd(rng, r),
                                             random_spd(rng, p)), 25, rng) for k in range(2)]
        outliers = 6.0 * rng.standard_normal((n_outliers, r, p))
        return Dataset(np.concatenate(groups + [outliers]))

    @staticmethod
    def initial(data, g, start):
        srng = np.random.default_rng(start)
        return srng.dirichlet(np.ones(g), size=data.n), srng.uniform(0.5, 1.0, size=(data.n, g))

    # some G=3 starts end NotPositiveDefinite in both chains
    @pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1)])
    def test_same_chain(self, kind, g, shape):
        data = self.two_groups(*shape, g)
        config = FitConfig(g=g, max_iter=60)
        for start in range(3):
            init_z, init_v = self.initial(data, g, start)
            got, got_exc = _outcome(_run_chain, data, kind, config, init_z, init_v)
            want, want_exc = _outcome(reference_chain, data, kind, config, init_z, init_v)
            assert got_exc is want_exc
            if want_exc is not None:
                continue
            _, resp, trace, _, iterations = got
            z_ref, v_ref, trace_ref = want
            k = min(len(trace), len(trace_ref))
            np.testing.assert_allclose(trace[:k], trace_ref[:k], rtol=self.LOGLIK_RTOL, atol=0)
            assert len(trace) == len(trace_ref) == iterations
            np.testing.assert_allclose(resp.z, z_ref, rtol=0, atol=self.POSTERIOR_ATOL)
            if kind is Kind.CMVN:
                np.testing.assert_allclose(resp.v, v_ref, rtol=0, atol=self.POSTERIOR_ATOL)
            else:
                assert resp.v is None

    def test_same_collapse_mid_chain(self, monkeypatch):
        # 1x2 units, four outliers: both chains lose a component at iteration
        # 28, masses [49.82, 3.18, 1.00] against the floor r*p/2 = 1
        data = self.two_groups(1, 2, 3, n_outliers=4)
        init_z, init_v = self.initial(data, 3, 0)
        config = FitConfig(g=3, max_iter=60)
        cycles, cm_half = [], ecm._cm_half
        monkeypatch.setattr(ecm, "_cm_half", lambda *args: cycles.append(1) or cm_half(*args))
        with pytest.raises(DegenerateCluster, match="fell below 1: "):
            _run_chain(data, Kind.MVN, config, init_z, init_v)
        with pytest.raises(DegenerateCluster, match="iteration 28: "):
            reference_chain(data, Kind.MVN, config, init_z, init_v)
        assert len(cycles) == 28

    def test_same_chain_at_large_n(self):
        # N = 3,000 2x4 units: each (G, r, p, N) work array of the chain is
        # 384 KB, above glibc's default mmap threshold
        r, p, g = 2, 4, 2
        rng = np.random.default_rng(3000)
        groups = [sample_mvn_stack(MvnParams(3.0 * k * np.ones((r, p)), random_spd(rng, r),
                                             random_spd(rng, p)), 1490, rng) for k in range(2)]
        outliers = 6.0 * rng.standard_normal((20, r, p))
        data = Dataset(np.concatenate(groups + [outliers]))
        assert data.n >= 3000
        config = FitConfig(g=g, max_iter=60)
        for start in range(2):
            srng = np.random.default_rng(start)
            init_z = srng.dirichlet(np.ones(g), size=data.n)
            init_v = srng.uniform(0.5, 1.0, size=(data.n, g))
            _, resp, trace, _, iterations = _run_chain(data, Kind.CMVN, config, init_z, init_v)
            z_ref, v_ref, trace_ref = reference_chain(data, Kind.CMVN, config, init_z, init_v)
            np.testing.assert_allclose(trace, trace_ref, rtol=self.LOGLIK_RTOL, atol=0)
            assert len(trace_ref) == iterations
            np.testing.assert_allclose(resp.z, z_ref, rtol=0, atol=self.POSTERIOR_ATOL)
            np.testing.assert_allclose(resp.v, v_ref, rtol=0, atol=self.POSTERIOR_ATOL)


def drive_cycles(data, kind, init_z, init_v, k):
    """k ECM cycles driven by hand from the chain's starting state: each is
    one _cm_half at the last posteriors, then one _e_pass at its theta'.
    Returns per cycle (theta', z, v, loglik), posteriors as (G, N)."""
    xt = np.ascontiguousarray(data.samples.transpose(1, 2, 0))
    r, p, _ = xt.shape
    g = init_z.shape[1]
    work = linalg.Work.of(xt, g)
    z, v = init_z.T, (init_v.T if kind is Kind.CMVN else None)
    etas, psi_inv = np.full(g, _INIT_ETA), np.tile(np.eye(p), (g, 1, 1))
    cycles = []
    for _ in range(k):
        theta, psi_inv, delta, log_det = ecm._cm_half(work, z, v, etas, psi_inv)
        weights, alphas, _, _, _, etas = theta
        z, v, ll = ecm._e_pass(delta, log_det, np.log(weights), r * p, alphas, etas)
        cycles.append((theta, z, v, ll))
    return cycles


def theta_model(kind, theta):
    """The MixtureModel record of a stacked theta'."""
    weights, alphas, means, sigmas, psis, etas = theta
    bases = [MvnParams(m, s, q) for m, s, q in zip(means, sigmas, psis)]
    comps = bases if kind is Kind.MVN else [
        CmvnParams(b, float(a), float(e)) for b, a, e in zip(bases, alphas, etas)]
    return MixtureModel(kind=kind, weights=weights, components=tuple(comps))


@st.composite
def cm_problems(draw):
    """Units around G shifted means, a kind, the chain's random initial
    posteriors and a number of warm-up cycles."""
    g, r, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from([Kind.MVN, Kind.CMVN]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10 * g, 40))
    shifts = 4.0 * rng.integers(0, g, n)[:, None, None]
    samples = shifts + rng.standard_normal((n, r, p)) * rng.uniform(0.5, 3.0, (n, 1, 1))
    init_z, init_v = ecm._initial_responsibilities(rng, n, g, kind)
    return Dataset(samples), kind, init_z, init_v, draw(st.integers(1, 4))


# fixed before measuring; over 2,000 cases the worst step was -2.9e-16 relative
ASCENT_RTOL = 1e-12


@settings(max_examples=100, deadline=None)
@given(cm_problems())
def test_cm_half_and_e_pass_each_weakly_increase(problem):
    """From posteriors z, v computed at theta, _cm_half's theta' does not
    lower the expected complete-data log-likelihood at z, v, and the next
    _e_pass does not lower the observed log-likelihood."""
    data, kind, init_z, init_v, warm = problem
    try:
        cycles = drive_cycles(data, kind, init_z, init_v, warm + 1)
    except (DegenerateCluster, NotPositiveDefinite):
        assume(False)
    (theta, z, v, ll), (theta_new, _, _, ll_new) = cycles[-2:]
    resp = Responsibilities(z=z.T, v=None if v is None else v.T)
    before = expected_complete_loglik(data, resp, theta_model(kind, theta))
    after = expected_complete_loglik(data, resp, theta_model(kind, theta_new))
    assert after >= before - ASCENT_RTOL * abs(before)
    assert ll_new >= ll - ASCENT_RTOL * abs(ll)


@pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
def test_run_chain_only_drives_the_map(kind):
    """k hand-driven _cm_half + _e_pass cycles give _run_chain's trace and
    posteriors at max_iter=k bitwise: the driver adds no arithmetic."""
    data = perturb(generate(reference_model(), 60, seed=7), 6, 10.0)
    k = 12
    init_z, init_v = ecm._initial_responsibilities(np.random.default_rng(11), data.n, 2, kind)
    cycles = drive_cycles(data, kind, init_z, init_v, k)
    _, resp, trace, converged, iters = _run_chain(
        data, kind, FitConfig(g=2, max_iter=k, tol=1e-300), init_z, init_v)
    assert (converged, iters) == (False, k)
    np.testing.assert_array_equal(trace, [c[3] for c in cycles])
    np.testing.assert_array_equal(resp.z, cycles[-1][1].T)
    if kind is Kind.CMVN:
        np.testing.assert_array_equal(resp.v, cycles[-1][2].T)


@settings(max_examples=60, deadline=None)
@given(cm_problems(), st.integers(0, 2**32 - 1))
def test_a_reused_work_set_gives_a_fresh_sets_cycle(problem, other_seed):
    """One _cm_half + _e_pass cycle gives theta', psi_inv, the distances, log
    determinants, z, v and the log-likelihood bit for bit on a work set whose
    arrays a cycle from another state has written as on a fresh one, so no
    view the set holds goes stale or aliases another array.  The state is
    the chain's first (z and v the F-ordered transposes of the draws) or the
    one after one to three cycles."""
    data, kind, init_z, init_v, warm = problem
    xt = np.ascontiguousarray(data.samples.transpose(1, 2, 0))
    g, rp = init_z.shape[1], data.r * data.p

    def first_state(z, v):
        v = None if v is None else v.T
        return z.T, v, np.full(g, _INIT_ETA), np.tile(np.eye(data.p), (g, 1, 1))

    def cycle(work, z, v, etas, psi_inv):
        theta, psi_inv, delta, log_det = ecm._cm_half(work, z, v, etas, psi_inv)
        z, v, ll = ecm._e_pass(delta, log_det, np.log(theta[0]), rp, theta[1], theta[5])
        return (*theta, psi_inv, delta, log_det, z, v, ll)

    state = first_state(init_z, init_v)
    try:
        for _ in range(warm - 1):
            out = cycle(linalg.Work.of(xt, g), *state)
            state = (out[9], out[10], out[5], out[6])  # z, v, etas, psi_inv
        want = cycle(linalg.Work.of(xt, g), *state)
    except (DegenerateCluster, NotPositiveDefinite):
        assume(False)
    work = linalg.Work.of(xt, g)
    other = ecm._initial_responsibilities(np.random.default_rng(other_seed), data.n, g, kind)
    try:
        cycle(work, *first_state(*other))
    except (DegenerateCluster, NotPositiveDefinite):
        pass  # a cycle that fails part way has written into the set as well
    for got, ref in zip(cycle(work, *state), want):
        assert (got is None) == (ref is None)
        if ref is not None:
            got, ref = np.asarray(got), np.asarray(ref)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", [Kind.MVN, Kind.CMVN])
def test_public_scale_updates_are_the_chains(kind):
    """cm_step_2_sigma and cm_step_3_psi at one chain state (the chain's u,
    masses and means, the previous psis) give _cm_half's sigmas and psis bit
    for bit: they call the same kernels."""
    data = perturb(generate(reference_model(), 60, seed=7), 6, 10.0)
    init_z, init_v = ecm._initial_responsibilities(np.random.default_rng(11), data.n, 2, kind)
    (prev, z, v, _), (theta, _, _, _) = drive_cycles(data, kind, init_z, init_v, 2)
    xt = np.ascontiguousarray(data.samples.transpose(1, 2, 0))
    ng = z.sum(axis=1)
    bad = None if v is None else 1.0 - v
    _, _, means, u = ecm._cm_step_1(xt.reshape(-1, data.n).T, z, v, bad, prev[5], ng)
    means = means.reshape(theta[2].shape)
    np.testing.assert_array_equal(means, theta[2])
    sigmas = cm_step_2_sigma(data.samples, u.T, ng, means, prev[4])
    np.testing.assert_array_equal(sigmas, theta[3])
    np.testing.assert_array_equal(cm_step_3_psi(data.samples, u.T, ng, means, sigmas), theta[4])


class TestFitConfig:
    def test_zero_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            FitConfig(max_iter=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_tol_not_positive_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            FitConfig(tol=tol)

    def test_negative_seed_rejected(self):
        # default_rng would refuse seed ^ s only once the first start runs
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("g", 2.5), ("g", 2.0), ("max_iter", 2.5), ("seed", 1.5), ("n_starts", True),
        ("g", np.bool_(True)), ("seed", "1"), ("tol", True), ("tol", "1e-8"),
    ])
    def test_wrong_types_rejected(self, field, value):
        # g=2.5 used to fail inside numpy, n_starts=True to run one start
        with pytest.raises(TypeError, match=f"{field} must be of type"):
            FitConfig(**{field: value})

    def test_numpy_scalars_stored_as_python_numbers(self):
        cfg = FitConfig(g=np.int64(2), n_starts=np.int32(3), max_iter=np.uint16(50),
                        seed=np.int64(4), tol=np.float32(1e-6))
        assert cfg == FitConfig(g=2, n_starts=3, max_iter=50, seed=4, tol=float(np.float32(1e-6)))
        assert [type(getattr(cfg, k)) for k in ("g", "n_starts", "max_iter", "seed", "tol")] \
            == [int] * 4 + [float]


class TestClassify:
    def test_basic(self):
        resp = Responsibilities(z=np.array([[0.9, 0.1]]), v=np.array([[0.99, 0.2]]))
        labels, bad = classify_from(resp, Kind.CMVN)
        assert labels[0] == 0 and not bad[0]

    def test_boundary_half_is_bad(self):
        resp = Responsibilities(z=np.array([[1.0, 0.0]]), v=np.array([[0.5, 0.9]]))
        _, bad = classify_from(resp, Kind.CMVN)
        assert bad[0]

    def test_tie_breaks_to_lowest_index(self):
        resp = Responsibilities(z=np.array([[0.5, 0.5]]), v=np.array([[0.9, 0.9]]))
        labels, _ = classify_from(resp, Kind.CMVN)
        assert labels[0] == 0

    def test_strongly_perturbed_point_has_tiny_v(self):
        from cmvmix.simulate import perturb
        data = perturb(generate(reference_model(), 150, seed=21), 6, 12.0)
        res = fit(data, FitConfig(g=2, n_starts=5, seed=2), Kind.CMVN)
        i = 5
        v6 = res.resp.v[i, res.hard_labels[i]]
        assert res.bad_flags[i]
        assert v6 < 1e-30
