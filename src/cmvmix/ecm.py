"""ECM fitting of matrix-variate normal and contaminated-normal mixtures.

One ECM cycle runs the conditional maximizations first (weights/alpha/mean,
then the row scale given the previous column scale, then the column scale
given the new row scale, then the inflation parameter), followed by an
E-step that refreshes the cluster and good-point posteriors and the
observed log-likelihood.  Chains start from random responsibilities; fit()
runs several independent chains and keeps the best converged one.
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


@dataclass(frozen=True)
class MixtureModel:
    """Mixing weights plus per-component parameter records."""

    kind: Kind
    weights: np.ndarray
    components: Tuple[Union[MvnParams, CmvnParams], ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be strictly positive and sum to 1")
        comps = tuple(self.components)
        if len(comps) != w.size:
            raise ValueError("weights and components disagree on G")
        want = CmvnParams if self.kind is Kind.CMVN else MvnParams
        if any(not isinstance(c, want) for c in comps):
            raise TypeError(f"{self.kind.value} model requires {want.__name__} components")
        if len({c.shape for c in comps}) > 1:
            raise DimensionMismatch(f"components differ in shape: {[c.shape for c in comps]}")
        w.setflags(write=False)
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
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 2:
            raise DimensionMismatch("z must be N x G")
        object.__setattr__(self, "z", z)
        if self.v is not None:
            v = np.asarray(self.v, dtype=float)
            if v.shape != z.shape:
                raise DimensionMismatch("v must match z in shape")
            object.__setattr__(self, "v", v)


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
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
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

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


def _e_pass(delta, log_det, log_weights, rp, alphas, etas):
    """Posteriors z, v and the observed log-likelihood from the (N, G)
    distances and the per-component log determinants; alphas None is the
    plain matrix normal (v None).  Each row's log-sum-exp is shifted by its
    largest entry, so a row with no finite entry gives a NaN log-likelihood.
    """
    logf, v = _logs_from_distances(delta, log_det, rp, alphas, etas)
    logw = logf + log_weights
    top = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - top)
    tot = w.sum(axis=1, keepdims=True)
    return w / tot, v, float((np.log(tot) + top).sum())


def _model_terms(data: Dataset, model: MixtureModel):
    """The arguments of _e_pass at the parameters of a model record: (N, G)
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
    return Responsibilities(z=z, v=v)


def observed_loglik(data: Dataset, model: MixtureModel) -> float:
    """Observed-data log-likelihood of the mixture."""
    return _e_pass(*_model_terms(data, model))[2]


def cm_step_1(data: Dataset, resp: Responsibilities, etas_prev):
    """Update mixing weights, alpha, and means.

    Returns (weights, alphas, means, u) where u are the effective weights
    reused by the scale updates; alphas is None for plain MVN.
    """
    return _cm_step_1(data.samples, resp.z, resp.v, etas_prev)


def _cm_step_1(samples, z, v, etas_prev):
    """cm_step_1 on the posterior arrays; v None is plain MVN."""
    ng = z.sum(axis=0)
    weights = ng / samples.shape[0]
    alphas = None
    if v is not None:
        alphas = np.clip((z * v).sum(axis=0) / ng, _ALPHA_EPS, 1.0 - _ALPHA_EPS)
    # per-observation M-step weights z * (v + (1 - v)/eta)
    u = z.copy() if v is None else z * (v + (1.0 - v) / etas_prev[None, :])
    s = u.sum(axis=0)
    means = np.einsum("ig,irp->grp", u, samples) / s[:, None, None]
    return weights, alphas, means, u


def _factors(mats, name):
    """Validated Cholesky factors of a sequence of matrices, stacked."""
    return np.stack([linalg.cholesky(a, name) for a in mats])


def cm_step_2_sigma(samples, u, ng, means, prev_psis):
    """Row-scale update: weighted scatter through the previous column scale.

    Returned matrices are not yet normalized to sigma[0,0] = 1; that happens
    when the component record is built, after the column scale is also
    updated, so the Kronecker product is preserved exactly.
    """
    d = linalg._residuals(samples, means)
    t = linalg._whiten(_factors(prev_psis, "psi"), d.transpose(0, 1, 3, 2))
    return list(linalg._scatter(t, u, np.asarray(ng, dtype=float)))


def cm_step_3_psi(samples, u, ng, means, new_sigmas):
    """Column-scale update: weighted scatter through the new row scale."""
    s = linalg._whiten(_factors(new_sigmas, "sigma"), linalg._residuals(samples, means))
    return list(linalg._scatter(s, u, np.asarray(ng, dtype=float)))


def cm_step_4_eta(samples, z, v, means, sigmas, psis, eta_min):
    """Inflation update: bad-mass-weighted mean distance over r*p (the
    stationary point of the complete-data objective in eta), floored at
    eta_min."""
    _, r, p = samples.shape
    delta = linalg._distances(samples, means, _factors(sigmas, "sigma"), _factors(psis, "psi"))
    return _eta(z * (1.0 - v), delta, eta_min, r * p)


def _eta(bad_mass, delta, eta_min, rp):
    """Per-component inflations from (N, G) bad masses and distances: the
    mean distance under each column's bad mass over rp, floored at eta_min
    (eta_min itself for a column with no bad mass)."""
    denom = bad_mass.sum(axis=0)
    empty = denom < 1e-12
    mean = (bad_mass * delta).sum(axis=0) / np.where(empty, 1.0, denom)
    return np.where(empty, eta_min, np.maximum(eta_min, mean / rp))


def _run_chain(data: Dataset, kind: Kind, config: FitConfig, init_z, init_v):
    """One deterministic ECM chain from given initial responsibilities.

    Parameters live in arrays with a leading component axis, and each step
    is one call over all G components: per iteration the row and column
    scales are factored once each (the column factor is carried into the
    next row-scale update), and the column scatter's whitened residuals
    L_sigma^-1 D are whitened once more by the new column factor's inverse
    to give the distances that feed the eta update, the posteriors and the
    log-likelihood.  Plain MVN is the case v = 1 with no alpha or eta.
    Model records are built once, at the end.

    Raises DegenerateCluster / NotPositiveDefinite when the chain collapses;
    fit() treats that as a failed start.
    """
    samples = data.samples
    _, r, p = samples.shape
    g = config.g
    cmvn = kind is Kind.CMVN
    mcw = config.min_cluster_weight
    if mcw is None:
        mcw = r * p / 2.0

    z = np.asarray(init_z, dtype=float)
    v = np.asarray(init_v, dtype=float) if cmvn else None
    etas = np.full(g, _INIT_ETA)
    L_psi = np.tile(np.eye(p), (g, 1, 1))

    trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        ng = z.sum(axis=0)
        if np.any(ng < mcw):
            raise DegenerateCluster(f"component mass fell below {mcw:.3g}: {ng}")
        weights, alphas, means, u = _cm_step_1(samples, z, v, etas)
        d = linalg._residuals(samples, means)
        sigmas = linalg._scatter(linalg._whiten(L_psi, d.transpose(0, 1, 3, 2)), u, ng)
        L_sigma = linalg.factor(sigmas, "sigma")
        s = linalg._whiten(L_sigma, d)
        psis = linalg._scatter(s, u, ng)
        L_psi = linalg.factor(psis, "psi")
        delta = linalg._whitened_distances(s, L_psi)
        log_det = linalg._log_det_kron(L_sigma, L_psi)
        if cmvn:
            etas = _eta(z * (1.0 - v), delta, ETA_MIN, r * p)
        weights = weights / weights.sum()
        z, v, ll = _e_pass(delta, log_det, np.log(weights), r * p, alphas, etas)
        trace.append(ll)
        if len(trace) > 1 and abs(ll - trace[-2]) / (1.0 + abs(ll)) < config.tol:
            converged = True
            break

    bases = [MvnParams(means[j], sigmas[j], psis[j]) for j in range(g)]
    comps = [CmvnParams(b, float(a), float(e)) for b, a, e in zip(bases, alphas, etas)] if cmvn else bases
    model = MixtureModel(kind=kind, weights=weights, components=comps)
    return model, Responsibilities(z=z, v=v), np.array(trace), converged, it


def _initial_responsibilities(rng, n, g, kind):
    z = rng.dirichlet(np.ones(g), size=n)
    v = rng.uniform(0.5, 1.0, size=(n, g)) if kind is Kind.CMVN else None
    return z, v


def fit(data: Dataset, config: FitConfig, kind: Kind = Kind.CMVN) -> FitResult:
    """Multi-start ECM fit; returns the best chain by final log-likelihood.

    Start s draws its initial responsibilities from a generator seeded with
    seed XOR s, so results are reproducible and independent of execution
    order.  A chain that degenerates or ends at a non-finite log-likelihood
    is a failed start; raises AllStartsFailed when every start fails.
    """
    kind = Kind(kind)
    if data.n < config.g:
        raise DimensionMismatch(f"need at least G={config.g} observations, have {data.n}")
    # Chains are ranked admissible-first, then converged, then by final
    # log-likelihood.  A chain whose final alpha leaves (0.5, 1) sits outside
    # the parameter space ("good" points must be the majority of every
    # cluster), and a chain still climbing at max_iter is usually riding an
    # unbounded likelihood spike; both are kept only as fallbacks.
    best = None
    best_key = None
    failures = []
    for s in range(config.n_starts):
        rng = np.random.default_rng(config.seed ^ s)
        init_z, init_v = _initial_responsibilities(rng, data.n, config.g, kind)
        try:
            model, resp, trace, converged, iters = _run_chain(data, kind, config, init_z, init_v)
        except (DegenerateCluster, NotPositiveDefinite) as exc:
            failures.append(f"start {s}: {exc}")
            continue
        if not np.isfinite(trace[-1]):
            failures.append(f"start {s}: non-finite log-likelihood")
            continue
        admissible = kind is Kind.MVN or all(c.alpha > 0.5 for c in model.components)
        key = (admissible, converged, trace[-1])
        if best is None or key > best_key:
            best, best_key = (model, resp, trace, converged, iters, s), key
    if best is None:
        raise AllStartsFailed("; ".join(failures))
    model, resp, trace, converged, iters, s = best
    labels, bad = classify_from(resp, model.kind)
    warns = []
    if model.kind is Kind.CMVN:
        for j, comp in enumerate(model.components):
            if comp.alpha <= 0.5:
                warns.append(f"component {j}: majority-bad (alpha={comp.alpha:.4f})")
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
        - 0.5 * (v + (1 - v) / etas) * delta
    )
    return float((resp.z * terms).sum())
