"""ECM fitting of matrix-variate normal and contaminated-normal mixtures.

One ECM cycle runs the conditional maximizations first (weights/alpha/mean,
then the row scale given the previous column scale, then the column scale
given the new row scale, then the inflation parameter), followed by an
E-step that refreshes the cluster and good-point posteriors and the
observed log-likelihood.  Chains start from random responsibilities; fit()
runs several independent chains and keeps the best converged one, falling
back with a warning to a chain that did not converge.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import linalg
from .data import Dataset, as_array, as_number
from .distributions import (
    ALPHA_MIN,
    ETA_MIN,
    CmvnParams,
    MvnParams,
    _distances,
    _logs_from_distances,
)
from .errors import (
    AllStartsFailed,
    DegenerateCluster,
    DimensionMismatch,
    NotPositiveDefinite,
)

_ALPHA_EPS = 1e-12  # alpha's upper clip is 1 - _ALPHA_EPS, so log1p(-alpha) stays finite
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
        w = as_array(self.weights, "weights", float)
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
        z = as_array(self.z, "z", float)
        if z.ndim != 2:
            raise DimensionMismatch("z must be N x G")
        object.__setattr__(self, "z", z)
        if self.v is not None:
            object.__setattr__(self, "v", as_array(self.v, "v", float, z.shape))


def check_seed(seed):
    """seed as a Python int, refused by name when it is not an integer or is
    negative: numpy's generators refuse both with a message that names
    neither the option nor the value."""
    seed = as_number("seed", seed, int)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the ECM driver."""

    g: int = 1
    n_starts: int = 20
    max_iter: int = 1000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("g", "n_starts", "max_iter"):
            object.__setattr__(self, name, as_number(name, getattr(self, name), int))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "tol", as_number("tol", self.tol, float))
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be > 0 and finite")


@dataclass(frozen=True)
class FitResult:
    """Converged model plus everything needed for reporting and replay, checked to hold
    together.  hard_labels and bad_flags are classify_from(resp, kind); warnings name each
    alpha <= 0.5 (from fit, a component on the bound ALPHA_MIN; the rule and its text predate
    the bound and stay, because read_fit compares a file's warnings with these), then a start
    that did not converge; iterations is the trace's length."""

    model: MixtureModel
    resp: Responsibilities
    loglik_trace: np.ndarray
    converged: bool
    config: FitConfig
    start_index: int = 0
    warnings: Tuple[str, ...] = field(init=False)
    hard_labels: np.ndarray = field(init=False)
    bad_flags: Optional[np.ndarray] = field(init=False)

    def __post_init__(self):
        model, resp, config = self.model, self.resp, self.config
        cmvn = model.kind is Kind.CMVN
        if resp.z.shape[1] != model.g or (resp.v is None) == cmvn:
            raise ValueError(f"z must be N x {model.g}, with v exactly when kind is cmvn")
        if not (all(np.all((a >= 0) & (a <= 1)) for a in (resp.z, resp.v) if a is not None)
                and np.all(abs(resp.z.sum(1) - 1) <= 1e-12)):  # a NaN fails both
            raise ValueError("z and v must be in [0, 1], each row of z summing to 1")
        if config.g != model.g:
            raise ValueError(f"config.g must be {model.g}, got {config.g!r}")
        trace = as_array(self.loglik_trace, "loglik_trace", float)
        if not (trace.ndim == 1 and trace.size and np.isfinite(trace).all()):
            raise ValueError("loglik_trace must be a non-empty list of finite numbers")
        start = as_number("start_index", self.start_index, int)
        if not 0 <= start < config.n_starts:
            raise ValueError(f"start_index must be in [0, n_starts={config.n_starts})")
        if not isinstance(self.converged, (bool, np.bool_)):
            raise TypeError(f"converged must be of type bool, got {self.converged!r}")
        warns = [f"component {j}: majority-bad (alpha={c.alpha:.4f})"
                 for j, c in enumerate(model.components) if cmvn and c.alpha <= 0.5]
        if not self.converged:
            warns.append(f"start {start} did not converge in max_iter={config.max_iter} iterations")
        labels, bad = classify_from(resp, model.kind)
        for name, val in (("loglik_trace", trace), ("start_index", start),
                          ("converged", bool(self.converged)), ("warnings", tuple(warns)),
                          ("hard_labels", as_array(labels, "hard_labels", int)),
                          ("bad_flags", as_array(bad, "bad_flags", bool))):
            object.__setattr__(self, name, val)

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def iterations(self) -> int:
        return len(self.loglik_trace)

    @property
    def seed(self) -> int:
        return self.config.seed


def _e_pass(delta, log_det, log_weights, rp, alphas, etas):
    """Posteriors z, v (G, N) and the observed log-likelihood from (G, N)
    distances and per-component log determinants, log weights, alphas and
    etas; alphas None is the plain matrix normal (v None).  Each unit's
    log-sum-exp is shifted by its largest entry, so a unit with no finite
    entry gives a NaN log-likelihood."""
    alphas, etas = (None, None) if alphas is None else (alphas[:, None], etas[:, None])
    logw, v = _logs_from_distances(delta, log_det[:, None], rp, alphas, etas)
    logw += log_weights[:, None]
    top = np.maximum.reduce(logw, 0)
    w = np.exp(np.subtract(logw, top, out=logw), out=logw)
    tot = np.add.reduce(w, 0)
    return np.divide(w, tot, out=w), v, float(np.add.reduce(np.log(tot) + top))


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


def _cm_step_1(x_cols, z, v, bad, etas_prev, ng):
    """CM1 on the units as an N x r*p matrix x_cols, posteriors z, v (G, N),
    bad = 1 - v and the masses ng = z.sum(axis=1): weights, alphas (None for
    plain MVN, v None), means as (G, r*p) rows and the effective weights u
    (G, N) that the scale updates reuse.  Each alpha is the closed form
    sum(z v) / ng clipped to [ALPHA_MIN, 1 - _ALPHA_EPS].  The alpha part of
    the expected complete log-likelihood, sum z v log(alpha) + sum z (1 - v)
    log(1 - alpha), is concave in alpha with its peak at the closed form, so
    the clip is its exact maximiser on that interval and ECM stays monotone."""
    weights = ng / x_cols.shape[0]
    alphas = None if v is None else np.minimum(
        np.maximum(np.add.reduce(z * v, 1) / ng, ALPHA_MIN), 1.0 - _ALPHA_EPS)
    # per-observation M-step weights z * (v + (1 - v)/eta)
    u = z if v is None else z * (v + bad / etas_prev[:, None])
    means = u @ x_cols
    means /= np.add.reduce(u, 1)[:, None]
    return weights, alphas, means, u


def _eta(bad_mass, delta, eta_min, rp):
    """Per-component inflations from (G, N) bad masses and distances: the
    mean distance under each component's bad mass over rp, floored at
    eta_min (eta_min itself for a component with no bad mass, below 1e-12)."""
    denom = np.add.reduce(bad_mass, 1)
    empty = denom < 1e-12
    mean = np.add.reduce(bad_mass * delta, 1)
    mean /= np.where(empty, 1.0, denom)
    mean /= rp
    np.maximum(eta_min, mean, out=mean)
    np.copyto(mean, eta_min, where=empty)
    return mean


def _cm_half(work: linalg.Work, z, v, etas, psi_inv):
    """CM1-CM4 of one ECM cycle over all G components, units on the last
    axis: from the units work.X (r, p, N), posteriors z, v (G, N), the
    previous etas and inverse column factors psi_inv (G, p, p) to theta' =
    (weights, alphas, means, sigmas, psis, etas), the new psi_inv, distances
    (G, N) and log determinants.  The work set's (G, r, p, N) arrays (see
    linalg.Work: residuals D, their whitened copy Y, and Y's u-weighted copy
    U) are written in place through the views it holds, and u and the
    masses are broadcast over them once for both scatters.  D whitened by the
    previous column inverse gives the row scale; D whitened by the new row
    inverse, into Y, gives both the column scale and, whitened by the new
    column inverse into U, the distances for eta and the E-pass.  Each scale
    is factored and inverted once.  Plain MVN is v None (v = 1, no alpha or
    eta).  Raises DegenerateCluster when a component's mass falls below
    r*p/2 effective units; fmin skips a NaN mass, so a NaN never hides a
    component below the floor."""
    r, p, _ = work.X.shape
    ng, floor = np.add.reduce(z, 1), r * p / 2.0
    if np.fmin.reduce(ng) < floor:
        raise DegenerateCluster(f"component mass fell below {floor:.3g}: {ng}")
    bad = None if v is None else 1.0 - v
    weights, alphas, means, u = _cm_step_1(work.X_cols, z, v, bad, etas, ng)
    means = means.reshape(-1, r, p)
    u4, ng3 = u[:, None, None], ng[:, None, None]
    linalg._residuals(work, means)
    sigmas = linalg._row_scatter(work, u4, psi_inv, ng3)
    L_sigma, sigma_inv = linalg.factor(sigmas, "sigma", inverse=True)
    linalg._whiten(work, sigma_inv)
    psis = linalg._col_scatter(work, u4, ng3)
    L_psi, psi_inv = linalg.factor(psis, "psi", inverse=True)
    delta = linalg._whitened_distances(work, psi_inv)
    log_det = linalg._log_det_kron(L_sigma, L_psi)
    if v is not None:
        etas = _eta(z * bad, delta, ETA_MIN, r * p)
    weights /= np.add.reduce(weights)
    return (weights, alphas, means, sigmas, psis, etas), psi_inv, delta, log_det


def _run_chain(work: linalg.Work, kind: Kind, config: FitConfig, init_z, init_v):
    """One deterministic ECM chain on fit's work set, from initial (N, G)
    responsibilities: _cm_half then _e_pass, each cycle on C-ordered (G, N)
    posteriors (copies of the initial ones, then _e_pass's), until the
    log-likelihood's relative change falls below tol.  Returns _cm_half's
    theta' with ((z, v), trace, converged, iterations), z and v (N, G) views
    of the last posteriors (v None for plain MVN), none a view into the set.
    Raises DegenerateCluster / NotPositiveDefinite on collapse (a failed start)."""
    r, p, _ = work.X.shape
    g, cmvn = config.g, kind is Kind.CMVN

    z = np.asarray(init_z, dtype=float).T.copy()
    v = np.asarray(init_v, dtype=float).T.copy() if cmvn else None
    etas = np.full(g, _INIT_ETA)
    psi_inv = np.tile(np.eye(p), (g, 1, 1))

    trace = []
    converged = False
    for it in range(1, config.max_iter + 1):
        theta, psi_inv, delta, log_det = _cm_half(work, z, v, etas, psi_inv)
        weights, alphas, _, _, _, etas = theta
        z, v, ll = _e_pass(delta, log_det, np.log(weights), r * p, alphas, etas)
        trace.append(ll)
        if len(trace) > 1 and abs(ll - trace[-2]) / (1.0 + abs(ll)) < config.tol:
            converged = True
            break

    return theta, (z.T, v.T if cmvn else None), np.array(trace), converged, it


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
    """Multi-start ECM fit, building records only for the start it returns.

    Start s draws its initial responsibilities from a generator seeded with
    seed XOR s, so results are reproducible and independent of execution
    order.  A chain that degenerates or ends at a non-finite log-likelihood
    is a failed start; raises AllStartsFailed when every start fails.  The
    best chain is the converged one with the highest final log-likelihood.
    A chain that ran to max_iter is usually riding an unbounded likelihood
    spike, so it is only a fallback when none converged, and the returned
    record warns of it.  Every CMVN chain keeps its alphas in
    [ALPHA_MIN, 1) (see _cm_step_1), so a returned component may sit on the
    bound alpha = ALPHA_MIN.
    """
    kind = Kind(kind)
    cmvn = kind is Kind.CMVN
    if data.n < config.g:
        raise DimensionMismatch(f"need at least G={config.g} observations, have {data.n}")
    _check_spread(data.samples)
    work = linalg.Work.of(data.samples, config.g)
    best = None
    best_key = None
    failures = []
    for s in range(config.n_starts):
        rng = np.random.default_rng(config.seed ^ s)
        init_z, init_v = _initial_responsibilities(rng, data.n, config.g, kind)
        try:
            theta, post, trace, converged, _ = _run_chain(work, kind, config, init_z, init_v)
        except (DegenerateCluster, NotPositiveDefinite) as exc:
            failures.append(f"start {s}: {exc}")
            continue
        if not np.isfinite(trace[-1]):
            failures.append(f"start {s}: non-finite log-likelihood")
            continue
        key = (converged, trace[-1])
        if best is None or key > best_key:
            best, best_key = (theta, post, trace, converged, s), key
    if best is None:
        raise AllStartsFailed("; ".join(failures))
    (weights, alphas, means, sigmas, psis, etas), (z, v), trace, converged, s = best
    bases = [MvnParams(*msp) for msp in zip(means, sigmas, psis)]
    comps = [CmvnParams(b, a, e) for b, a, e in zip(bases, alphas, etas)] if cmvn else bases
    model = MixtureModel(kind=kind, weights=weights, components=comps)
    resp = Responsibilities(z=z, v=v)
    return FitResult(model=model, resp=resp, loglik_trace=trace, converged=converged,
                     config=config, start_index=s)


def classify_from(resp: Responsibilities, kind: Kind):
    """Hard labels by maximal z (ties to the lowest index) and, for CMVN,
    bad flags where the assigned component's good-posterior is <= 0.5."""
    labels = np.argmax(resp.z, axis=1)
    bad = None
    if kind is Kind.CMVN:
        bad = resp.v[np.arange(len(labels)), labels] <= 0.5
    return labels, bad
