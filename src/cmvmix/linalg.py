"""Dense-matrix kernels of the ECM chain, shared by the density code.

All inverse-weighted quantities go through Cholesky factors: residuals are
whitened by the inverses of stacked lower-triangular factors.  A factor is
small and comes from a Cholesky factorization that succeeded, so its inverse
exists and ``inv(L) @ B`` matches a triangular solve to roundoff.  This
module alone calls LAPACK: numpy's gufuncs ``cholesky_lo`` and ``inv``,
bound at import, are what ``np.linalg.cholesky`` and ``np.linalg.inv`` run
after per-call checks and casts that cost more than the chain's small
factorizations.  One ``np.errstate(invalid="raise", over="ignore",
divide="ignore", under="ignore")`` covers each scale's factor and inverse,
so a failed pivot raises, as NotPositiveDefinite.  The stacked kernels
(``_residuals`` and after) keep the N units on the last axis, so no
whitening copies its residuals.  The kernels that make a (G, r, p, N) array
take an optional C-contiguous ``out`` of that shape (a pair for
``_row_scatter``, which makes two) and write it there, so the ECM chain
allocates its work arrays once.  No scatter multiplies an array by its own
transpose, which numpy hands to the slower BLAS syrk: each is one gemm of
the u-weighted copy of an array with the array, made exactly symmetric as
(S + S')/2 (a float sum does not depend on its order).  Matrices are plain
numpy arrays that the callers built or validated (``distributions.MvnParams``
judges a law's parameters), so nothing here checks them.
"""

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, inv

from .errors import NotPositiveDefinite


def factor(a, name="matrix", *, inverse=False):
    """Lower Cholesky factor L of a symmetric float matrix the program built or
    a record validated (or of a stack (..., k, k)), with inverse the pair
    (L, L^-1), bitwise as np.linalg gives them.  Raises NotPositiveDefinite
    when a pivot is non-positive or NaN (OpenBLAS passes a NaN pivot; a NaN
    reaches the last); the caller decides whether to jitter, restart or abort."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            L = cholesky_lo(a)
            if not np.logical_or.reduce(np.isnan(L[..., -1, -1]), None):
                return (L, inv(L)) if inverse else L
    except FloatingPointError:
        pass
    raise NotPositiveDefinite(f"{name} is not positive definite")


def _log_det_kron(L_sigma, L_psi):
    """log det(psi (x) sigma) = 2p sum log diag L_sigma + 2r sum log diag L_psi
    from stacks of factors (G, r, r), (G, p, p).  Doubling is exact, so each
    scaled sum is bitwise p * (2 sum) and r * (2 sum)."""
    r, p = L_sigma.shape[-1], L_psi.shape[-1]
    s = np.add.reduce(np.log(L_sigma.diagonal(0, -2, -1)), -1)
    t = np.add.reduce(np.log(L_psi.diagonal(0, -2, -1)), -1)
    s *= 2.0 * p
    t *= 2.0 * r
    return np.add(s, t, out=s)


def _residuals(xt, means, out=None):
    """D_gi = X_i - M_g for units xt (r, p, N) and means (G, r, p): (G, r, p, N)."""
    return np.subtract(xt, means[..., None], out=out)


def _whiten(Si, d, out=None):
    """Si_g D_gi for residuals d (G, r, p, N) and inverse row factors
    Si = L_sigma^-1 (G, r, r), into out when given: one matrix product over
    all N units, with worst relative error 4.1e-15 (as for a triangular
    solve) at condition 1e14."""
    g, r, p, n = d.shape
    rows = None if out is None else out.reshape(g, r, p * n)
    return np.matmul(Si, d.reshape(g, r, p * n), out=rows).reshape(d.shape)


def _row_scatter(d, u, Pi, ng, out=None):
    """Row scales sum_i u_gi D_gi Psi_g^-1 D_gi' / (p ng_g), a (G, r, r)
    stack, from residuals d (G, r, p, N), weights u (G, N) and the inverse
    column factors Pi (G, p, p): the whitened residuals Y = D Pi' and their
    u-weighted copy Yu (into the pair out, when given) are each one r x p*N
    matrix per component, and the sum is Yu Y'."""
    g, r, p, n = d.shape
    y, yu = (None, None) if out is None else out
    y = np.matmul(Pi[:, None], d, out=y)
    yu = np.multiply(y, u[:, None, None], out=yu)
    s = np.matmul(yu.reshape(g, r, p * n), y.reshape(g, r, p * n).swapaxes(1, 2))
    sym = s + s.swapaxes(1, 2)
    sym /= 2.0 * p * ng[:, None, None]
    return sym


def _col_scatter(z, u, ng, out=None):
    """Column scales sum_i u_gi D_gi' Sigma_g^-1 D_gi / (r ng_g), a (G, p, p)
    stack, from the row-whitened residuals z = L_sigma^-1 D (G, r, p, N) and
    weights u (G, N): the sum over rows of the p x N blocks of z's u-weighted
    copy (into out, when given) times those of z transposed."""
    r = z.shape[1]
    zu = np.multiply(z, u[:, None, None], out=out)
    s = np.add.reduce(np.matmul(zu, z.swapaxes(-1, -2)), 1)
    sym = s + s.swapaxes(1, 2)
    sym /= 2.0 * r * ng[:, None, None]
    return sym


def _whitened_distances(z, Pi, out=None):
    """Distances delta (G, N) from the row-whitened residuals z = L_sigma^-1 D
    (G, r, p, N) and the inverse column factors Pi (G, p, p): the squared
    Frobenius norm of Z_gi L_psi^-T per component and unit, squared in place
    (in out, when given)."""
    w = np.matmul(Pi[:, None], z, out=out)
    return np.add.reduce(np.square(w, out=w), (1, 2))
