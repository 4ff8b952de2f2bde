"""The ECM cycle's conditional maximizations one step at a time, for tests.

The package runs CM1-CM4 only together, inside ``ecm._cm_half``.  These
entry points take units first (samples (N, r, p), posteriors and weights
(N, G)) and call the kernels the chain runs (``ecm._cm_step_1``,
``linalg.factor``, ``_residuals``, ``_whiten``, ``_row_scatter``,
``_col_scatter``, ``_whitened_distances`` and ``ecm._eta``), so a test of
one step checks the chain's own arithmetic.  They take symmetric positive
definite arrays the tests built and check none.  ``logs_from_distances`` is
the E-pass's closed form written one fresh array per operation, the oracle
for the in-place ``distributions._logs_from_distances``, and
``log_det_from_factor`` the per-factor log determinant that
``linalg._log_det_kron`` folds into one pass.
"""

import numpy as np

from cmvmix import ecm, linalg
from cmvmix.distributions import _LOG_2PI, _V_MAX, _V_MIN


def _factors(mats, name):
    """Cholesky factors of a sequence of matrices, stacked."""
    return np.stack([linalg.factor(a, name) for a in mats])


def _residuals(samples, means):
    """A linalg.Work set for units samples (N, r, p) and G = len(means)
    components, holding the residuals of every unit against every mean."""
    work = linalg.Work.of(samples.transpose(1, 2, 0), len(means))
    linalg._residuals(work, means)
    return work


def log_det_from_factor(L):
    """log determinant given a precomputed lower Cholesky factor, or one per
    factor of a stack (..., k, k)."""
    return 2.0 * np.log(L.diagonal(0, -2, -1)).sum(axis=-1)


def cm_step_1(data, resp, etas_prev):
    """Update mixing weights, alpha, and means.

    Returns (weights, alphas, means, u) where u (N, G) are the effective
    weights reused by the scale updates; alphas is None for plain MVN.
    """
    z, v = resp.z.T, None if resp.v is None else resp.v.T
    w, alphas, means, u = ecm._cm_step_1(data.samples.reshape(data.n, -1), z, v,
                                         None if v is None else 1.0 - v, etas_prev, z.sum(axis=1))
    return w, alphas, means.reshape(-1, data.r, data.p), u.T


def cm_step_2_sigma(samples, u, ng, means, prev_psis):
    """Row-scale update: weighted scatter through the previous column scale.

    Returned matrices are not yet normalized to sigma[0,0] = 1; that happens
    when the component record is built, after the column scale is also
    updated, so the Kronecker product is preserved exactly.
    """
    work = _residuals(samples, means)
    pi = np.linalg.inv(_factors(prev_psis, "psi"))
    return list(linalg._row_scatter(work, u.T[:, None, None], pi, ng[:, None, None]))


def cm_step_3_psi(samples, u, ng, means, new_sigmas):
    """Column-scale update: weighted scatter through the new row scale."""
    work = _residuals(samples, means)
    linalg._whiten(work, np.linalg.inv(_factors(new_sigmas, "sigma")))
    return list(linalg._col_scatter(work, u.T[:, None, None], ng[:, None, None]))


def cm_step_4_eta(samples, z, v, means, sigmas, psis, eta_min):
    """Inflation update: bad-mass-weighted mean distance over r*p (the
    stationary point of the complete-data objective in eta), floored at
    eta_min."""
    _, r, p = samples.shape
    work = _residuals(samples, means)
    linalg._whiten(work, np.linalg.inv(_factors(sigmas, "sigma")))
    delta = linalg._whitened_distances(work, np.linalg.inv(_factors(psis, "psi")))
    return ecm._eta((z * (1.0 - v)).T, delta, eta_min, r * p)


def expected_complete_loglik(data, resp, model):
    """Expected complete-data log-likelihood at the given posteriors.

    Used to check that each conditional maximization weakly increases the
    objective it optimizes.
    """
    delta, log_det, log_weights, rp, alphas, etas = ecm._model_terms(data, model)
    if alphas is None:  # plain matrix normal: every point good, alpha = eta = 1
        v, alpha_terms, etas = 1.0, 0.0, 1.0
    else:  # CmvnParams keeps 0 < alpha < 1, so both logs are finite
        v = resp.v
        alpha_terms = v * np.log(alphas) + (1 - v) * np.log1p(-alphas)
    terms = (
        log_weights
        + alpha_terms
        - 0.5 * (rp * np.log(2 * np.pi) + log_det)
        - 0.5 * rp * (1 - v) * np.log(etas)
        - 0.5 * (v + (1 - v) / etas) * delta.T
    )
    return float((resp.z * terms).sum())


def trace_quad_form(x, m, sigma, psi):
    """Squared Mahalanobis-type distance for an r x p observation.

    Computes ``tr[sigma^-1 (x - m) psi^-1 (x - m)']`` by whitening with the
    inverses of the two Cholesky factors: it equals the squared Frobenius
    norm of ``L_sigma^-1 (x - m) L_psi^-T``.  Always >= 0; zero iff x == m.
    """
    work = _residuals(x[None], m[None])
    linalg._whiten(work, np.linalg.inv(_factors([sigma], "sigma")))
    return float(linalg._whitened_distances(work, np.linalg.inv(_factors([psi], "psi")))[0, 0])


def logs_from_distances(delta, log_det, rp, alpha=None, eta=None):
    """distributions._logs_from_distances with a fresh array for every
    intermediate: the same operations on the same operands in the same
    order, so the two agree bit for bit."""
    const = -0.5 * (rp * _LOG_2PI + log_det)
    half = 0.5 * delta
    log_good = const - half
    if alpha is None:
        return log_good, None
    num = np.log(alpha) + log_good
    bad = np.log1p(-alpha) + (const - 0.5 * rp * np.log(eta) - half / eta)
    d = np.fmin(bad - num, np.inf)  # a NaN from -inf - -inf becomes +inf
    e = np.exp(-np.abs(d))
    v = np.where(d > 0, e, 1.0) / (1.0 + e)
    return np.maximum(num, bad) + np.log1p(e), np.minimum(np.maximum(v, _V_MIN), _V_MAX)
