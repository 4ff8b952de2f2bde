"""Dense-matrix kernels shared by the density and estimation code.

All inverse-weighted quantities go through Cholesky factors: residuals are
whitened by LU solves against stacks of lower-triangular factors, one
(G, k, k) stack per call with every right-hand side of a component in one
solve; explicit matrix inversion is never used.  Matrices are plain numpy
arrays; the helpers below validate shape, finiteness, symmetry and positive
definiteness at the boundaries where user data enters.
"""

import numpy as np

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
    itself (or of a stack of them, shape (..., k, k)), without validation.

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
    """log determinant given a precomputed lower Cholesky factor, or one per
    factor of a stack (..., k, k)."""
    return 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)


def log_det_spd(a):
    """log determinant of an SPD matrix via its Cholesky factor."""
    return log_det_from_factor(cholesky(a))


def trace_quad_form(x, m, sigma, psi):
    """Squared Mahalanobis-type distance for an r x p observation.

    Computes ``tr[sigma^-1 (x - m) psi^-1 (x - m)']`` through two solves
    against the Cholesky factors, which equals the squared Frobenius norm of
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
    s = _whiten(L_sigma[None], _residuals(xs, m[None]))
    return _whitened_distances(s, L_psi[None])[:, 0]


def _residuals(xs, means):
    """D_gi = X_i - M_g for units xs (N, r, p) and means (G, r, p): (G, N, r, p)."""
    return xs[None] - means[:, None]


def _whiten(L, d):
    """L_g^-1 D_gi for factors L (G, k, k) and residuals d (G, N, k, m).

    One LU solve per factor takes all N*m right-hand sides; the result is
    laid out (G, k, N, m).
    """
    g, n, k, m = d.shape
    rhs = d.transpose(0, 2, 1, 3).reshape(g, k, n * m)
    return np.linalg.solve(L, rhs).reshape(g, k, n, m)


def _scatter(w, u, ng):
    """sum_i u_ig W_gi' W_gi / (k ng_g) for whitened residuals w (G, k, N, m)
    and weights u (N, G); a (G, m, m) stack, symmetrized against roundoff.

    With w = L_psi^-1 D' this is the row-scale update (k = p), with
    w = L_sigma^-1 D the column-scale update (k = r).
    """
    g, k, n, m = w.shape
    a = (w * np.sqrt(u.T)[:, None, :, None]).reshape(g, k * n, m)
    out = np.matmul(a.transpose(0, 2, 1), a)
    return (out + out.transpose(0, 2, 1)) / (2.0 * k * ng[:, None, None])


def _whitened_distances(s, L_psi):
    """Distances delta (N, G) from s = L_sigma^-1 D (G, r, N, p): the squared
    Frobenius norm of L_psi^-1 S_gi' per unit and component."""
    w = _whiten(L_psi, s.transpose(0, 2, 3, 1))
    return np.square(w).sum(axis=(1, 3)).T
