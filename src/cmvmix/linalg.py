"""Dense-matrix kernels shared by the density and estimation code.

All inverse-weighted quantities go through Cholesky factors and triangular
solves; explicit matrix inversion is never used.  Matrices are plain numpy
arrays; the helpers below validate shape, finiteness, symmetry and positive
definiteness at the boundaries where user data enters.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, NotPositiveDefinite

SYMMETRY_ATOL = 1e-10


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_spd(a, name="matrix"):
    """Validate a symmetric matrix, symmetrizing away roundoff asymmetry.

    Asymmetry up to ``SYMMETRY_ATOL`` (absolute) is averaged out; anything
    larger is rejected.  Positive definiteness is checked lazily, by the
    first factorization that touches the result.
    """
    a = as_matrix(a, name)
    n, m = a.shape
    if n != m:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    asym = np.max(np.abs(a - a.T))
    if asym > SYMMETRY_ATOL:
        raise NotPositiveDefinite(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return (a + a.T) / 2.0


def factor(a, name="matrix"):
    """Lower Cholesky factor of a symmetric matrix built by the program
    itself, without validation.

    Raises NotPositiveDefinite when any pivot is non-positive; the caller
    decides whether to jitter, restart or abort.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite: {exc}") from None


def cholesky(a, name="matrix"):
    """Lower Cholesky factor L with L @ L.T == a, after validating a."""
    return factor(as_spd(a, name), name)


def log_det_from_factor(L):
    """log determinant given a precomputed lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def log_det_spd(a):
    """log determinant of an SPD matrix via its Cholesky factor."""
    return log_det_from_factor(cholesky(a))


def trace_quad_form(x, m, sigma, psi):
    """Squared Mahalanobis-type distance for an r x p observation.

    Computes ``tr[sigma^-1 (x - m) psi^-1 (x - m)']`` through two triangular
    solves, which equals the squared Frobenius norm of
    ``L_sigma^-1 (x - m) L_psi^-T``.  Always >= 0; zero iff x == m.
    """
    x = as_matrix(x, "x")
    m = as_matrix(m, "m")
    if x.shape != m.shape:
        raise DimensionMismatch(f"x {x.shape} and m {m.shape} differ")
    L_sigma = cholesky(sigma, "sigma")
    L_psi = cholesky(psi, "psi")
    r, p = x.shape
    if L_sigma.shape[0] != r:
        raise DimensionMismatch(f"sigma is {L_sigma.shape[0]}x{L_sigma.shape[0]}, rows are {r}")
    if L_psi.shape[0] != p:
        raise DimensionMismatch(f"psi is {L_psi.shape[0]}x{L_psi.shape[0]}, cols are {p}")
    return float(trace_quad_forms(x[None, :, :], m, L_sigma, L_psi)[0])


def trace_quad_forms(xs, m, L_sigma, L_psi):
    """Vectorized trace quadratic form for a stack of observations.

    Parameters
    ----------
    xs : ndarray, shape (N, r, p)
    m : ndarray, shape (r, p)
    L_sigma, L_psi : lower Cholesky factors of the row/column scale matrices.

    Returns
    -------
    ndarray, shape (N,), the distances delta_i >= 0.
    """
    n, r, p = xs.shape
    d = xs - m[None, :, :]
    # S_i = L_sigma^-1 D_i, solved for all i at once
    s = solve_triangular(L_sigma, d.transpose(1, 0, 2).reshape(r, n * p), lower=True)
    s = s.reshape(r, n, p).transpose(1, 0, 2)
    # W_i = L_psi^-1 S_i', then delta_i = ||W_i||_F^2
    w = solve_triangular(L_psi, s.transpose(2, 0, 1).reshape(p, n * r), lower=True)
    w = w.reshape(p, n, r)
    return np.einsum("pnr,pnr->n", w, w)


def weighted_row_scatter(xs, m, weights, L_psi):
    """Accumulate ``sum_i w_i D_i psi^-1 D_i'`` via triangular solves.

    Returns an r x r symmetric matrix (symmetrized against roundoff).
    """
    n, r, p = xs.shape
    d = xs - m[None, :, :]
    t = solve_triangular(L_psi, d.transpose(2, 0, 1).reshape(p, n * r), lower=True)
    t = t.reshape(p, n, r)
    out = np.einsum("n,pnr,pns->rs", weights, t, t)
    return (out + out.T) / 2.0


def weighted_col_scatter(xs, m, weights, L_sigma):
    """Accumulate ``sum_i w_i D_i' sigma^-1 D_i``; p x p symmetric."""
    n, r, p = xs.shape
    d = xs - m[None, :, :]
    s = solve_triangular(L_sigma, d.transpose(1, 0, 2).reshape(r, n * p), lower=True)
    s = s.reshape(r, n, p)
    out = np.einsum("n,rnp,rnq->pq", weights, s, s)
    return (out + out.T) / 2.0
