"""Dense-matrix kernels shared by the density and estimation code.

All inverse-weighted quantities go through Cholesky factors: residuals are
whitened by the inverses of stacked lower-triangular factors.  A factor is
small and comes from a Cholesky factorization that succeeded, so its
inverse exists and ``inv(L) @ B`` matches a triangular solve to roundoff.
The stacked kernels (``_distances`` and after) keep the N units on the last
axis, so no whitening copies its residuals; public functions take units
first.  The kernels that make a (G, r, p, N) array take an optional
C-contiguous ``out`` of that shape and write it there, so the ECM chain
allocates its work arrays once.  Matrices are plain numpy arrays; the
helpers below validate shape, finiteness, symmetry and positive
definiteness where user data enters.
"""

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

SYMMETRY_ATOL = 1e-10


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D float copy of a with finite entries."""
    a = np.array(a, dtype=float)
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


def trace_quad_form(x, m, sigma, psi):
    """Squared Mahalanobis-type distance for an r x p observation.

    Computes ``tr[sigma^-1 (x - m) psi^-1 (x - m)']`` by whitening with the
    inverses of the two Cholesky factors: it equals the squared Frobenius
    norm of ``L_sigma^-1 (x - m) L_psi^-T``.  Always >= 0; zero iff x == m.
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
    return float(_distances(x[:, :, None], m[None], L_sigma[None], L_psi[None])[0, 0])


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


def _row_scatter(b, Pi, ng, out=None):
    """Row scales sum_i B_gi Psi_g^-1 B_gi' / (p ng_g), a (G, r, r) stack, from
    sqrt(u)-weighted residuals b (G, r, p, N) and the inverse column factors
    Pi (G, p, p).  The whitened residuals (written into out, when given) are
    one r x p*N matrix per component, so the sum is one product of that
    matrix with its own transpose, which numpy returns exactly symmetric
    (BLAS syrk fills one triangle and numpy copies it to the other).
    """
    g, r, p, n = b.shape
    w = _whiten(None, Pi, b, out).reshape(g, r, p * n)
    return np.matmul(w, w.swapaxes(1, 2)) / (p * ng[:, None, None])


def _col_scatter(b, Si, ng, out=None):
    """Column scales sum_i B_gi' Sigma_g^-1 B_gi / (r ng_g), a (G, p, p)
    stack, from the same weighted residuals b whitened by the inverse row
    factors Si (G, r, r) (into out, when given): a sum over the r rows of
    p x N blocks, each times its own transpose, so again exactly symmetric.
    """
    r = b.shape[1]
    s = _whiten(Si, None, b, out)
    return np.matmul(s, s.swapaxes(-1, -2)).sum(axis=1) / (r * ng[:, None, None])


def _whitened_distances(s, Pi, out=None):
    """Distances delta (G, N) from s = L_sigma^-1 D (G, r, p, N) and the
    inverse column factors Pi (G, p, p): the squared Frobenius norm of
    S_gi L_psi^-T per component and unit, squared in place (in out, when
    given)."""
    w = _whiten(None, Pi, s, out)
    return np.square(w, out=w).sum(axis=(1, 2))
