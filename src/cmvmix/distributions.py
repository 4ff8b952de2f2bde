"""Matrix-variate normal and contaminated matrix-variate normal laws.

The contaminated density is a two-component scale mixture: a "good" part
with weight alpha and a "bad" part whose row scale is inflated by eta > 1.
All density arithmetic is done in log space (posterior good-point
probabilities routinely reach 1e-160 on contaminated data and underflow in
linear space).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import as_array, as_number
from .errors import DimensionMismatch, NotPositiveDefinite

ETA_MIN = 1.0001

_LOG_2PI = float(np.log(2.0 * np.pi))
_V_MIN, _V_MAX = np.finfo(float).tiny, np.nextafter(1.0, 0.0)  # v's open-interval clip


@dataclass(frozen=True)
class MvnParams:
    """Parameters (mean, row scale, column scale) of a matrix normal law.

    The pair (sigma, psi) is identified only up to reciprocal scaling, so
    the constructor normalizes sigma to have first diagonal element 1 and
    pushes the factor into psi; the Kronecker product psi (x) sigma is
    unchanged.  The constructor is the one gate for a law's parameters from
    users, model specs and fit files: the mean must be a finite, non-empty
    2-D array and each scale a finite symmetric matrix matching it (positive
    definiteness is checked by the first factorization of the scale).
    """

    m: np.ndarray
    sigma: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        m = as_array(self.m, "m", float)
        if m.ndim != 2 or m.size == 0:
            raise DimensionMismatch(f"m must be a non-empty 2-D array, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("m contains non-finite entries")
        scales = []
        for name, k in (("sigma", m.shape[0]), ("psi", m.shape[1])):
            a = as_array(getattr(self, name), name, float, (k, k))
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
            asym = np.max(np.abs(a - a.T))
            if asym > 1e-10:  # roundoff asymmetry is averaged out, anything larger refused
                raise NotPositiveDefinite(f"{name} is not symmetric (max asymmetry {asym:.3e})")
            scales.append((a + a.T) / 2.0)
        sigma, psi = scales
        s11 = sigma[0, 0]
        if s11 <= 0:
            raise ValueError("sigma[0,0] must be positive")
        sigma = sigma / s11
        psi = psi * s11
        for name, arr in (("m", m), ("sigma", sigma), ("psi", psi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self):
        return self.m.shape


@dataclass(frozen=True)
class CmvnParams:
    """Contaminated matrix normal: base law plus (alpha, eta).

    alpha is the proportion of good matrices; eta >= ETA_MIN inflates the
    row scale of the bad component.  alpha is validated in (0, 1): the
    intended operating range is (0.5, 1) (a majority-good model), but the
    estimation updates are unconstrained closed forms, so construction only
    rejects values outside the open unit interval.
    """

    base: MvnParams
    alpha: float
    eta: float

    def __post_init__(self):
        for name in ("alpha", "eta"):
            object.__setattr__(self, name, as_number(name, getattr(self, name), float))
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not ETA_MIN <= self.eta < np.inf:
            raise ValueError(f"eta must be >= {ETA_MIN} and finite, got {self.eta}")

    @property
    def shape(self):
        return self.base.shape


def mvn_log_density(x, params: MvnParams) -> float:
    """Log density of an r x p matrix under the matrix normal law."""
    return float(_one_law_logs(x, params)[0])


def cmvn_log_density(x, params: CmvnParams) -> float:
    """Log of alpha * f_good + (1 - alpha) * f_bad, mixed via log-sum-exp."""
    return float(_one_law_logs(x, params.base, params.alpha, params.eta)[0])


def _one_law_logs(x, base: MvnParams, alpha=None, eta=None):
    """_logs_from_distances for one r x p matrix under one law: the N = 1,
    G = 1 case of _distances.  A matrix so far out that its distance
    overflows to +inf gets log density -inf and, under a contaminated law,
    the floor of v, without numpy's overflow and invalid-value warnings on
    the way (squaring the whitened residuals, then -inf - -inf in the
    log-odds)."""
    with np.errstate(over="ignore", invalid="ignore"):
        delta, log_det = _distances(as_array(x, "x", float)[None, :, :], [base])
        return _logs_from_distances(delta[0, 0], log_det[0], base.m.size, alpha, eta)


def _distances(xs, bases):
    """Distances (G, N) of a stack (N, r, p) to G matrix normal laws and the
    log determinants (G,) of their covariances psi (x) sigma.  The records
    were validated on construction, so their stacked scales are only factored."""
    shapes = {b.shape for b in bases}
    if shapes != {xs.shape[1:]}:
        raise DimensionMismatch(f"observations {xs.shape[1:]} vs params {sorted(shapes)}")
    L_sigma, sigma_inv = linalg.factor(np.stack([b.sigma for b in bases]), "sigma", inverse=True)
    L_psi, psi_inv = linalg.factor(np.stack([b.psi for b in bases]), "psi", inverse=True)
    work = linalg.Work.of(xs.transpose(1, 2, 0), len(bases))
    linalg._residuals(work, np.stack([b.m for b in bases]))
    linalg._whiten(work, sigma_inv)
    return linalg._whitened_distances(work, psi_inv), linalg._log_det_kron(L_sigma, L_psi)


def _logs_from_distances(delta, log_det, rp, alpha=None, eta=None):
    """Log densities and good-point posteriors from distances.

    log_det, alpha and eta broadcast to delta's shape (one law, or one
    column per mixture component), and the intermediates are written in
    place into the three arrays of that shape that numpy makes for half the
    distances, the good part's log term and the log-odds (``out=...``, so
    one unit gives 0-d arrays, not scalars).  With alpha None the law is the
    plain matrix normal and v is None.  Otherwise the log density mixes the
    good part (weight alpha) with the eta-inflated part, whose scale only
    rescales delta and the determinant, in the closed form of h_weight: with
    d the log-odds of bad against good (+inf when both parts are 0, at delta
    = +inf), e = exp(-|d|) gives log f = max(good, bad) + log1p(e) and v, the
    posterior probability of the good part, = 1/(1 + e) for d <= 0 and
    e/(1 + e) for d > 0, clipped into the open unit interval.
    """
    const = -0.5 * (rp * _LOG_2PI + log_det)
    half = np.multiply(0.5, delta, out=...)
    if alpha is None:
        return np.subtract(const, half, out=half), None
    num = np.subtract(const, half, out=...)
    num = np.add(np.log(alpha), num, out=num)
    bad = np.subtract(const - 0.5 * rp * np.log(eta), np.divide(half, eta, out=half), out=half)
    bad = np.add(np.log1p(-alpha), bad, out=bad)
    d = np.subtract(bad, num, out=...)
    d = np.fmin(d, np.inf, out=d)  # a NaN from -inf - -inf becomes +inf
    good = d <= 0
    e = np.exp(np.negative(np.abs(d, out=d), out=d), out=d)
    logf = np.add(np.maximum(num, bad, out=num), np.log1p(e, out=bad), out=num)
    # 0 <= e <= 1, so max(e, 1) = 1 where the good part leads and max(e, 0) = e elsewhere
    v = np.divide(np.maximum(e, good), np.add(1.0, e, out=e), out=e)
    return logf, np.minimum(np.maximum(v, _V_MIN, out=v), _V_MAX, out=v)


def posterior_good_prob(x, params: CmvnParams) -> float:
    """Posterior probability that x is a good (uncontaminated) point, in (0, 1)."""
    return float(_one_law_logs(x, params.base, params.alpha, params.eta)[1])


def h_weight(delta, alpha, eta, r, p):
    """Posterior good-point probability as a closed form in the distance.

    h(delta) = 1 / (1 + ((1-alpha)/alpha) eta^(-rp/2) exp[(delta/2)(1 - 1/eta)]),
    strictly decreasing in delta; value in (0, 1), clipped like posterior_good_prob.
    """
    delta, alpha, eta = (as_number(k, x, float) for k, x in
                         (("delta", delta), ("alpha", alpha), ("eta", eta)))
    r, p = as_number("r", r, int), as_number("p", p, int)
    if not 0 <= delta < np.inf:
        raise ValueError(f"delta must be >= 0 and finite, got {delta}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 1.0 < eta < np.inf:
        raise ValueError(f"eta must be > 1 and finite, got {eta}")
    if r < 1 or p < 1:
        raise ValueError("r and p must be positive")
    return float(_logs_from_distances(delta, 0.0, r * p, alpha, eta)[1])


def w_weight(delta, alpha, eta, r, p):
    """Effective mean-update weight (1/eta)[1 + (eta-1) h]; in [1/eta, 1].

    Decreasing in delta: distant points are progressively downweighted,
    bottoming out at 1/eta for a certain bad point.
    """
    h = h_weight(delta, alpha, eta, r, p)
    return float((1.0 + (eta - 1.0) * h) / eta)


def sample_mvn(params: MvnParams, rng: np.random.Generator):
    """Draw one r x p matrix: M + A Z B' with A A' = sigma, B B' = psi."""
    return sample_mvn_stack(params, 1, rng)[0]


def sample_mvn_stack(params: MvnParams, n: int, rng: np.random.Generator):
    """Draw n iid matrices as a stack of shape (n, r, p)."""
    r, p = params.shape
    a = linalg.factor(params.sigma, "sigma")  # MvnParams validated both scales
    b = linalg.factor(params.psi, "psi")
    z = rng.standard_normal((n, r, p))
    return params.m[None, :, :] + np.einsum("ij,njk,lk->nil", a, z, b)


def sample_cmvn(params: CmvnParams, rng: np.random.Generator):
    """Draw one matrix from the contaminated law.

    Returns (x, good): good ~ Bernoulli(alpha); bad draws come from the
    eta-inflated row scale.  The flag is only used by simulation truth
    records.
    """
    base = params.base
    good = bool(rng.random() < params.alpha)
    if good:
        return sample_mvn(base, rng), True
    inflated = MvnParams(base.m, params.eta * base.sigma, base.psi)
    return sample_mvn(inflated, rng), False
