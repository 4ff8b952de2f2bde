"""Synthetic three-way data: the reference two-group generator and the
perturbation / background-noise transforms used by the sensitivity studies.
"""

import numpy as np

from .data import Dataset, as_number
from .distributions import MvnParams, sample_mvn_stack
from .ecm import Kind, MixtureModel, check_seed

# Reference two-group matrix normal mixture on 2x4 matrices: equal weights,
# well-separated means, distinct row scales, a shared banded column scale.
_M1 = np.array([
    [-2.60, -1.10, -0.50, -0.20],
    [1.30, 0.60, 0.30, 0.10],
])
_M2 = np.array([
    [1.50, 1.70, 1.90, 2.20],
    [-3.70, -2.70, -2.00, -1.50],
])
_SIGMA1 = np.array([
    [2.00, 0.00],
    [0.00, 1.00],
])
_SIGMA2 = np.array([
    [1.70, 0.50],
    [0.50, 1.30],
])
_PSI = np.array([
    [1.00, 0.50, 0.25, 0.13],
    [0.50, 1.00, 0.50, 0.25],
    [0.25, 0.50, 1.00, 0.50],
    [0.13, 0.25, 0.50, 1.00],
])


def reference_model() -> MixtureModel:
    """The built-in two-component generator (pi = 0.5/0.5, 2x4 matrices)."""
    return MixtureModel(
        kind=Kind.MVN,
        weights=np.array([0.5, 0.5]),
        components=(
            MvnParams(_M1, _SIGMA1, _PSI),
            MvnParams(_M2, _SIGMA2, _PSI),
        ),
    )


def generate(model: MixtureModel, n: int, seed: int) -> Dataset:
    """Draw n units from an MVN mixture, recording true labels.

    Component draws use a single generator stream, so the output is a
    deterministic function of (model, n, seed).  All good_flags start True.
    """
    if model.kind is not Kind.MVN:
        raise ValueError("generate draws from plain MVN mixtures")
    n = as_number("n", n, int)
    if n < 1:  # numpy refuses a negative size without naming n
        raise ValueError(f"n must be >= 1 (a dataset needs N, r, p >= 1), got {n}")
    rng = np.random.default_rng(check_seed(seed))
    labels = rng.choice(model.g, size=n, p=model.weights)
    r, p = model.components[0].shape
    samples = np.empty((n, r, p))
    for j, comp in enumerate(model.components):
        idx = np.flatnonzero(labels == j)
        if idx.size:
            samples[idx] = sample_mvn_stack(comp, idx.size, rng)
    return Dataset(samples=samples, true_labels=labels,
                   good_flags=np.ones(n, dtype=bool))


def perturb(data: Dataset, obs: int, c: float) -> Dataset:
    """Shift one unit (1-based index) by c times the all-ones matrix.

    A nonzero shift flags that unit bad in good_flags (all others good if the
    dataset had no flags); c = 0 returns an identical dataset.
    """
    obs, c = as_number("obs", obs, int), as_number("c", c, float)
    if not (1 <= obs <= data.n):
        raise ValueError(f"obs must be in 1..{data.n}, got {obs}")
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    samples = np.array(data.samples)
    samples[obs - 1] += c
    flags = data.good_flags
    if c != 0:
        flags = np.ones(data.n, dtype=bool) if flags is None else np.array(flags)
        flags[obs - 1] = False
    return Dataset(samples=samples, true_labels=data.true_labels,
                   good_flags=flags, unit_names=data.unit_names)


def add_uniform_noise(data: Dataset, frac: float, lo: float, hi: float,
                      seed: int) -> Dataset:
    """Replace round(frac * N) randomly chosen units with iid uniform noise.

    Replaced units keep their true label but are flagged not-good, so
    metrics restricted to true good points exclude them.
    """
    frac, lo, hi = (as_number(k, x, float) for k, x in (("frac", frac), ("lo", lo), ("hi", hi)))
    if not (0.0 <= frac <= 1.0):
        raise ValueError(f"frac must be in [0, 1], got {frac}")
    if not (lo < hi and np.isfinite(hi - lo)):  # what rng.uniform can draw from
        raise ValueError(f"need lo < hi with hi - lo finite, got lo={lo}, hi={hi}")
    rng = np.random.default_rng(check_seed(seed))
    n_noise = int(round(frac * data.n))
    idx = rng.choice(data.n, size=n_noise, replace=False)
    samples = np.array(data.samples)
    samples[idx] = rng.uniform(lo, hi, size=(n_noise, data.r, data.p))
    flags = np.ones(data.n, dtype=bool) if data.good_flags is None else np.array(data.good_flags)
    flags[idx] = False
    return Dataset(samples=samples, true_labels=data.true_labels,
                   good_flags=flags, unit_names=data.unit_names)
