"""ECM fitting of matrix-variate normal and contaminated-normal mixtures.

One ECM cycle runs the conditional maximizations first (weights/alpha/mean,
then the row scale given the previous column scale, then the column scale
given the new row scale, then the inflation parameter), followed by an
E-step that refreshes the cluster and good-point posteriors and the
observed log-likelihood.  Chains start from random responsibilities; fit()
runs several independent chains and keeps the best admissible, converged
one, falling back with warnings to a chain that is neither.
"""

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from . import linalg
from .data import Dataset
from .distributions import ETA_MIN, CmvnParams, MvnParams, _distances, _logs_from_distances
from .errors import (
    AllStartsFailed,
    DegenerateCluster,
    DimensionMismatch,
    NotPositiveDefinite,
)

_ALPHA_EPS = 1e-12
_INIT_ETA = 2.0


class Kind(str, enum.Enum):
    """Mixture family: plain matrix normal or contaminated matrix normal."""

    MVN = "mvn"
    CMVN = "cmvn"


def _frozen(a, dtype=None):
    """A read-only copy of a as an array (None passes through)."""
    if a is None:
        return None
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MixtureModel:
    """Mixing weights plus per-component parameter records."""

    kind: Kind
    weights: np.ndarray
    components: Tuple[Union[MvnParams, CmvnParams], ...]

    def __post_init__(self):
        w = _frozen(self.weights, float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-12):  # NaN fails both
            raise ValueError("weights must be strictly positive and sum to 1")
        comps = tuple(self.components)
        if len(comps) != w.size:
            raise ValueError("weights and components disagree on G")
        want = CmvnParams if self.kind is Kind.CMVN else MvnParams
        if any(not isinstance(c, want) for c in comps):
            raise TypeError(f"{self.kind.value} model requires {want.__name__} components")
        if len({c.shape for c in comps}) > 1:
            raise DimensionMismatch(f"components differ in shape: {[c.shape for c in comps]}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "kind", Kind(self.kind))

    @property
    def g(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Responsibilities:
    """Cluster posteriors z (N x G) and, for CMVN, good-point posteriors v."""

    z: np.ndarray
    v: Optional[np.ndarray] = None

    def __post_init__(self):
        z = _frozen(self.z, float)
        if z.ndim != 2:
            raise DimensionMismatch("z must be N x G")
        object.__setattr__(self, "z", z)
        if self.v is not None:
            v = _frozen(self.v, float)
            if v.shape != z.shape:
                raise DimensionMismatch("v must match z in shape")
            object.__setattr__(self, "v", v)


def check_seed(seed):
    """Refuse a negative seed by name: numpy's generators refuse it with a
    message that names neither the option nor the value."""
    if seed < 0:
        raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the ECM driver.

    min_cluster_weight defaults to r*p/2 effective observations at fit time;
    chains dropping below it abort and the next start runs.
    """

    g: int = 1
    n_starts: int = 20
    max_iter: int = 1000
    tol: float = 1e-8
    seed: int = 0
    min_cluster_weight: Optional[float] = None

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("g must be >= 1")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        check_seed(self.seed)
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be > 0 and finite")
        if self.min_cluster_weight is not None and not self.min_cluster_weight > 0:
            raise ValueError("min_cluster_weight must be > 0")


@dataclass(frozen=True)
class FitResult:
    """Converged model plus everything needed for reporting and replay."""

    model: MixtureModel
    resp: Responsibilities
    loglik_trace: np.ndarray
    converged: bool
    iterations: int
    hard_labels: np.ndarray
    bad_flags: Optional[np.ndarray]
    seed: int
    config: FitConfig
    start_index: int = 0
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("loglik_trace", "hard_labels", "bad_flags"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


def _e_pass(delta, log_det, log_weights, rp, alphas, etas):
    """Posteriors z, v (G, N) and the observed log-likelihood from (G, N)
    distances and per-component log determinants, log weights, alphas and
    etas; alphas None is the plain matrix normal (v None).  Each unit's
    log-sum-exp is shifted by its largest entry, so a unit with no finite
    entry gives a NaN log-likelihood."""
    if alphas is not None:
        alphas, etas = alphas[:, None], etas[:, None]
    logf, v = _logs_from_distances(delta, log_det[:, None], rp, alphas, etas)
    logw = logf + log_weights[:, None]
    top = logw.max(axis=0)
    w = np.exp(logw - top)
    tot = w.sum(axis=0)
    return w / tot, v, float((np.log(tot) + top).sum())


def _model_terms(data: Dataset, model: MixtureModel):
    """The arguments of _e_pass at the parameters of a model record: (G, N)
    distances, log determinants, log weights, r*p, alphas and etas (None for
    the plain matrix normal)."""
    comps = model.components
    cmvn = model.kind is Kind.CMVN
    delta, log_det = _distances(data.samples, [c.base for c in comps] if cmvn else comps)
    alphas = np.array([c.alpha for c in comps]) if cmvn else None
    etas = np.array([c.eta for c in comps]) if cmvn else None
    return delta, log_det, np.log(model.weights), data.r * data.p, alphas, etas


def e_step(data: Dataset, model: MixtureModel) -> Responsibilities:
    """Posterior cluster memberships (and good-point posteriors for CMVN)."""
    z, v, _ = _e_pass(*_model_terms(data, model))
    return Responsibilities(z=z.T, v=None if v is None else v.T)


def observed_loglik(data: Dataset, model: MixtureModel) -> float:
    """Observed-data log-likelihood of the mixture."""
    return _e_pass(*_model_terms(data, model))[2]


def cm_step_1(data: Dataset, resp: Responsibilities, etas_prev):
    """Update mixing weights, alpha, and means.

    Returns (weights, alphas, means, u) where u (N, G) are the effective
    weights reused by the scale updates; alphas is None for plain MVN.
    """
    z, v = resp.z.T, None if resp.v is None else resp.v.T
    w, alphas, means, u = _cm_step_1(data.samples.transpose(1, 2, 0), z, v, etas_prev, z.sum(axis=1))
    return w, alphas, means, u.T


def _cm_step_1(xt, z, v, etas_prev, ng):
    """cm_step_1 on units xt (r, p, N), posteriors z, v (G, N) and their
    masses ng = z.sum(axis=1), giving u (G, N); v None is plain MVN."""
    r, p, n = xt.shape
    weights = ng / n
    alphas = None if v is None else np.clip((z * v).sum(axis=1) / ng, _ALPHA_EPS, 1.0 - _ALPHA_EPS)
    # per-observation M-step weights z * (v + (1 - v)/eta)
    u = z.copy() if v is None else z * (v + (1.0 - v) / etas_prev[:, None])
    means = (u @ xt.reshape(r * p, n).T).reshape(-1, r, p) / u.sum(axis=1)[:, None, None]
    return weights, alphas, means, u


def _factors(mats, name):
    """Validated Cholesky factors of a sequence of matrices, stacked."""
    return np.stack([linalg.cholesky(a, name) for a in mats])


def _weighted_residuals(samples, u, means):
    """sqrt(u)-weighted residuals (G, r, p, N) of units (N, r, p) under
    weights u (N, G), as the scale updates take them."""
    d = linalg._residuals(samples.transpose(1, 2, 0), means)
    return np.multiply(d, np.sqrt(np.asarray(u).T)[:, None, None], out=d)


def cm_step_2_sigma(samples, u, ng, means, prev_psis):
    """Row-scale update: weighted scatter through the previous column scale.

    Returned matrices are not yet normalized to sigma[0,0] = 1; that happens
    when the component record is built, after the column scale is also
    updated, so the Kronecker product is preserved exactly.
    """
    b = _weighted_residuals(samples, u, means)
    pi = np.linalg.inv(_factors(prev_psis, "psi"))
    return list(linalg._row_scatter(b, pi, np.asarray(ng, dtype=float)))


def cm_step_3_psi(samples, u, ng, means, new_sigmas):
    """Column-scale update: weighted scatter through the new row scale."""
    b = _weighted_residuals(samples, u, means)
    si = np.linalg.inv(_factors(new_sigmas, "sigma"))
    return list(linalg._col_scatter(b, si, np.asarray(ng, dtype=float)))


def cm_step_4_eta(samples, z, v, means, sigmas, psis, eta_min):
    """Inflation update: bad-mass-weighted mean distance over r*p (the
    stationary point of the complete-data objective in eta), floored at
    eta_min."""
    _, r, p = samples.shape
    delta = linalg._distances(samples.transpose(1, 2, 0), means,
                              _factors(sigmas, "sigma"), _factors(psis, "psi"))
    return _eta((z * (1.0 - v)).T, delta, eta_min, r * p)


def _eta(bad_mass, delta, eta_min, rp):
    """Per-component inflations from (G, N) bad masses and distances: the
    mean distance under each component's bad mass over rp, floored at
    eta_min (eta_min itself for a component with no bad mass)."""
    denom = bad_mass.sum(axis=1)
    empty = denom < 1e-12
    mean = (bad_mass * delta).sum(axis=1) / np.where(empty, 1.0, denom)
    return np.where(empty, eta_min, np.maximum(eta_min, mean / rp))


def _cm_half(xt, z, v, etas, psi_inv, mcw, work):
    """CM1-CM4 of one ECM cycle over all G components, units on the last
    axis: from units xt (r, p, N), posteriors z, v (G, N), the previous etas
    and inverse column factors psi_inv (G, p, p) to theta' = (weights,
    alphas, means, sigmas, psis, etas), the new psi_inv, distances (G, N)
    and log determinants.  The (G, r, p, N) work arrays (residuals D, a
    whitened copy W, another S, and B = sqrt(u) D) are written in place.
    B is formed once and whitened by the previous column inverse for the
    row scale and by the new row inverse for the column scale; each scale is
    factored and inverted once, and D, whitened by both new inverses, gives
    the distances for eta and the E-pass.  Plain MVN is v None (v = 1, no
    alpha or eta).  Raises DegenerateCluster when a component's mass falls
    below mcw."""
    ng = z.sum(axis=1)
    if np.any(ng < mcw):
        raise DegenerateCluster(f"component mass fell below {mcw:.3g}: {ng}")
    r, p, _ = xt.shape
    D, W, S, B = work
    weights, alphas, means, u = _cm_step_1(xt, z, v, etas, ng)
    linalg._residuals(xt, means, out=D)
    np.multiply(D, np.sqrt(u)[:, None, None], out=B)
    sigmas = linalg._row_scatter(B, psi_inv, ng, out=W)
    L_sigma = linalg.factor(sigmas, "sigma")
    sigma_inv = np.linalg.inv(L_sigma)
    psis = linalg._col_scatter(B, sigma_inv, ng, out=S)
    L_psi = linalg.factor(psis, "psi")
    psi_inv = np.linalg.inv(L_psi)
    delta = linalg._whitened_distances(linalg._whiten(sigma_inv, None, D, out=W), psi_inv, out=S)
    log_det = linalg._log_det_kron(L_sigma, L_psi)
    if v is not None:
        etas = _eta(z * (1.0 - v), delta, ETA_MIN, r * p)
    return (weights / weights.sum(), alphas, means, sigmas, psis, etas), psi_inv, delta, log_det


def _run_chain(data: Dataset, kind: Kind, config: FitConfig, init_z, init_v):
    """One deterministic ECM chain from given initial responsibilities:
    _cm_half then _e_pass, into work arrays allocated once, until the
    log-likelihood's relative change falls below tol; returns _cm_half's
    theta' with (resp, trace, converged, iterations).  Raises
    DegenerateCluster / NotPositiveDefinite on collapse (a failed start)."""
    xt = np.ascontiguousarray(data.samples.transpose(1, 2, 0))
    r, p, n = xt.shape
    g = config.g
    cmvn = kind is Kind.CMVN
    mcw = r * p / 2.0 if config.min_cluster_weight is None else config.min_cluster_weight

    z = np.asarray(init_z, dtype=float).T
    v = np.asarray(init_v, dtype=float).T if cmvn else None
    etas = np.full(g, _INIT_ETA)
    psi_inv = np.tile(np.eye(p), (g, 1, 1))
    work = tuple(np.empty((g, r, p, n)) for _ in range(4))

    trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        theta, psi_inv, delta, log_det = _cm_half(xt, z, v, etas, psi_inv, mcw, work)
        weights, alphas, _, _, _, etas = theta
        z, v, ll = _e_pass(delta, log_det, np.log(weights), r * p, alphas, etas)
        trace.append(ll)
        if len(trace) > 1 and abs(ll - trace[-2]) / (1.0 + abs(ll)) < config.tol:
            converged = True
            break

    return theta, Responsibilities(z=z.T, v=v.T if cmvn else None), np.array(trace), converged, it


def _check_spread(samples):
    """Refuse data whose scale updates would overflow, naming the cause: the
    chain's scatters sum squared deviations of the units from their means,
    so the total squared deviation from the mean unit, sum_i ||X_i - mean||^2,
    must be finite in float64 (it is not once entries differ by about 1e154)."""
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.square(samples - samples.mean(axis=0)).sum()
    if not np.isfinite(spread):
        raise ValueError("data overflow: the units' squared deviations from their mean "
                         "exceed float64 (about 1.8e308); rescale the data")


def _initial_responsibilities(rng, n, g, kind):
    z = rng.dirichlet(np.ones(g), size=n)
    v = rng.uniform(0.5, 1.0, size=(n, g)) if kind is Kind.CMVN else None
    return z, v


def fit(data: Dataset, config: FitConfig, kind: Kind = Kind.CMVN) -> FitResult:
    """Multi-start ECM fit, building model records for the best chain only.

    Start s draws its initial responsibilities from a generator seeded with
    seed XOR s, so results are reproducible and independent of execution
    order.  A chain that degenerates or ends at a non-finite log-likelihood
    is a failed start; raises AllStartsFailed when every start fails.
    """
    kind = Kind(kind)
    cmvn = kind is Kind.CMVN
    if data.n < config.g:
        raise DimensionMismatch(f"need at least G={config.g} observations, have {data.n}")
    _check_spread(data.samples)
    # Chains are ranked admissible-first, then converged, then by final
    # log-likelihood.  A chain whose final alpha leaves (0.5, 1) sits outside
    # the parameter space ("good" points must be the majority of every
    # cluster), and a chain still climbing at max_iter is usually riding an
    # unbounded likelihood spike; both are kept only as fallbacks, and the
    # returned chain carries a warning for each.
    best = None
    best_key = None
    failures = []
    for s in range(config.n_starts):
        rng = np.random.default_rng(config.seed ^ s)
        init_z, init_v = _initial_responsibilities(rng, data.n, config.g, kind)
        try:
            theta, resp, trace, converged, iters = _run_chain(data, kind, config, init_z, init_v)
        except (DegenerateCluster, NotPositiveDefinite) as exc:
            failures.append(f"start {s}: {exc}")
            continue
        if not np.isfinite(trace[-1]):
            failures.append(f"start {s}: non-finite log-likelihood")
            continue
        warns = [f"component {j}: majority-bad (alpha={a:.4f})"
                 for j, a in enumerate(theta[1] if cmvn else ()) if a <= 0.5]
        key = (not warns, converged, trace[-1])
        if best is None or key > best_key:
            best, best_key = (theta, resp, trace, converged, iters, s, warns), key
    if best is None:
        raise AllStartsFailed("; ".join(failures))
    (weights, alphas, means, sigmas, psis, etas), resp, trace, converged, iters, s, warns = best
    if not converged:
        warns.append(f"start {s} did not converge in max_iter={config.max_iter} iterations")
    bases = [MvnParams(*msp) for msp in zip(means, sigmas, psis)]
    comps = [CmvnParams(b, float(a), float(e)) for b, a, e in zip(bases, alphas, etas)] if cmvn else bases
    model = MixtureModel(kind=kind, weights=weights, components=comps)
    labels, bad = classify_from(resp, kind)
    return FitResult(
        model=model,
        resp=resp,
        loglik_trace=trace,
        converged=converged,
        iterations=iters,
        hard_labels=labels,
        bad_flags=bad,
        seed=config.seed,
        config=config,
        start_index=s,
        warnings=tuple(warns),
    )


def classify_from(resp: Responsibilities, kind: Kind):
    """Hard labels by maximal z (ties to the lowest index) and, for CMVN,
    bad flags where the assigned component's good-posterior is <= 0.5."""
    labels = np.argmax(resp.z, axis=1)
    bad = None
    if kind is Kind.CMVN:
        bad = resp.v[np.arange(len(labels)), labels] <= 0.5
    return labels, bad


def expected_complete_loglik(data: Dataset, resp: Responsibilities, model: MixtureModel) -> float:
    """Expected complete-data log-likelihood at the given posteriors.

    Used to check that each conditional maximization weakly increases the
    objective it optimizes.
    """
    delta, log_det, log_weights, rp, alphas, etas = _model_terms(data, model)
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
