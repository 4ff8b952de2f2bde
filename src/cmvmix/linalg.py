"""Dense-matrix kernels shared by the density and estimation code.

All inverse-weighted quantities go through Cholesky factors: residuals are
whitened by the inverses of stacked lower-triangular factors.  A factor is
small and comes from a Cholesky factorization that succeeded, so its
inverse exists and ``inv(L) @ B`` matches a triangular solve to roundoff.
The stacked kernels (``_distances`` and after) keep the N units on the last
axis, so no whitening copies its residuals.  The kernels that make a
(G, r, p, N) array take an optional
C-contiguous ``out`` of that shape (a pair for ``_row_scatter``, which
makes two) and write it there, so the ECM chain allocates its work arrays
once.  No scatter multiplies an array by its own transpose, which numpy
hands to the slower BLAS syrk: each is one gemm of the u-weighted copy of an
array with the array, made exactly symmetric as (S + S')/2 (a float sum
does not depend on its order).  Matrices are plain numpy arrays; the
helpers below validate shape, finiteness, symmetry and positive
definiteness where user data enters.
"""

import numpy as np

from .data import as_array
from .errors import DimensionMismatch, NotPositiveDefinite

SYMMETRY_ATOL = 1e-10


def as_matrix(a, name="matrix"):
    """Validate and return a read-only 2-D float copy of a with finite entries."""
    a = as_array(a, name, float)
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


def log_det_from_factor(L):
    """log determinant given a precomputed lower Cholesky factor, or one per
    factor of a stack (..., k, k)."""
    return 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)


def _log_det_kron(L_sigma, L_psi):
    """log det(psi (x) sigma) from stacks of factors (..., r, r), (..., p, p)."""
    r, p = L_sigma.shape[-1], L_psi.shape[-1]
    return p * log_det_from_factor(L_sigma) + r * log_det_from_factor(L_psi)


def _distances(xt, means, L_sigma, L_psi):
    """Distances delta (G, N) of units xt (r, p, N) to G laws with means
    (G, r, p) and scale factors L_sigma (G, r, r), L_psi (G, p, p)."""
    d = _residuals(xt, means)
    return _whitened_distances(_whiten(np.linalg.inv(L_sigma), None, d), np.linalg.inv(L_psi))


def _residuals(xt, means, out=None):
    """D_gi = X_i - M_g for units xt (r, p, N) and means (G, r, p): (G, r, p, N)."""
    return np.subtract(xt, means[..., None], out=out)


def _whiten(Si, Pi, d, out=None):
    """Si_g D_gi Pi_g' for residuals d (G, r, p, N) and inverse factors
    Si = L_sigma^-1 (G, r, r), Pi = L_psi^-1 (G, p, p); None leaves that side
    as it is.  Each side is one matrix product over all N units, with worst
    relative error 4.1e-15 (as for a triangular solve) at condition 1e14.
    """
    if Si is not None:
        g, r, p, n = d.shape
        rows = out if out is not None and Pi is None else np.empty(d.shape)
        np.matmul(Si, d.reshape(g, r, p * n), out=rows.reshape(g, r, p * n))
        d = rows
    if Pi is not None:
        d = np.matmul(Pi[:, None], d, out=out)
    return d


def _row_scatter(d, u, Pi, ng, out=None):
    """Row scales sum_i u_gi D_gi Psi_g^-1 D_gi' / (p ng_g), a (G, r, r)
    stack, from residuals d (G, r, p, N), weights u (G, N) and the inverse
    column factors Pi (G, p, p): the whitened residuals Y = D Pi' and their
    u-weighted copy Yu (into the pair out, when given) are each one r x p*N
    matrix per component, and the sum is Yu Y'."""
    g, r, p, n = d.shape
    y, yu = (None, None) if out is None else out
    y = _whiten(None, Pi, d, y)
    yu = np.multiply(y, u[:, None, None], out=yu)
    s = np.matmul(yu.reshape(g, r, p * n), y.reshape(g, r, p * n).swapaxes(1, 2))
    return (s + s.swapaxes(1, 2)) / (2.0 * p * ng[:, None, None])


def _col_scatter(z, u, ng, out=None):
    """Column scales sum_i u_gi D_gi' Sigma_g^-1 D_gi / (r ng_g), a (G, p, p)
    stack, from the row-whitened residuals z = L_sigma^-1 D (G, r, p, N) and
    weights u (G, N): the sum over rows of the p x N blocks of z's u-weighted
    copy (into out, when given) times those of z transposed."""
    r = z.shape[1]
    s = np.matmul(np.multiply(z, u[:, None, None], out=out), z.swapaxes(-1, -2)).sum(axis=1)
    return (s + s.swapaxes(1, 2)) / (2.0 * r * ng[:, None, None])


def _whitened_distances(z, Pi, out=None):
    """Distances delta (G, N) from the row-whitened residuals z = L_sigma^-1 D
    (G, r, p, N) and the inverse column factors Pi (G, p, p): the squared
    Frobenius norm of Z_gi L_psi^-T per component and unit, squared in place
    (in out, when given)."""
    w = _whiten(None, Pi, z, out)
    return np.square(w, out=w).sum(axis=(1, 2))
