"""Dense-matrix kernels of the ECM chain, shared by the density code.

All inverse-weighted quantities go through Cholesky factors: residuals are
whitened by the inverses of stacked lower-triangular factors.  A factor is
small and comes from a Cholesky factorization that succeeded, so its inverse
exists and ``inv(L) @ B`` matches a triangular solve to roundoff.  This
module alone calls LAPACK: numpy's gufuncs ``cholesky_lo`` and ``inv``,
bound at import, are what ``np.linalg.cholesky`` and ``np.linalg.inv`` run
after per-call checks and casts that cost more than the chain's small
factorizations.  ``factor`` sets one error state (invalid raises;
overflow, divide and underflow are ignored), built at import, in numpy's
error-state context variable around each scale's factor and inverse and
resets the caller's after them, so a failed pivot raises, as
NotPositiveDefinite, without a new ``np.errstate`` per call; that context
variable and the function that builds the state are private numpy names,
bound at import as well, so a numpy without them fails at import.  The
stacked kernels (``_residuals`` and after) keep the N units on the last
axis, so no whitening copies its residuals.  They take a ``Work`` set: the
units, the three (G, r, p, N) arrays the kernels write, and the views of
both that the kernels read, so a fit copies its units, allocates its arrays
and makes their views once for all its chains.  No scatter multiplies an
array by its own transpose, which numpy hands to the slower BLAS syrk:
each is one gemm of the u-weighted copy of an array with the array, made
exactly symmetric as (S + S')/2 (a float sum does not depend on its
order).  Matrices are plain numpy arrays that the callers built or
validated (``distributions.MvnParams`` judges a law's parameters), so
nothing here checks them.
"""

from typing import NamedTuple

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg._umath_linalg import cholesky_lo, inv

from .errors import NotPositiveDefinite

_FACTOR_ERRSTATE = _make_extobj(invalid="raise", over="ignore", divide="ignore", under="ignore")


def factor(a, name="matrix", *, inverse=False):
    """Lower Cholesky factor L of a symmetric float matrix the program built or
    a record validated (or of a stack (..., k, k)), with inverse the pair
    (L, L^-1), bitwise as np.linalg gives them.  Raises NotPositiveDefinite
    when a pivot is non-positive or NaN (OpenBLAS passes a NaN pivot; a NaN
    reaches the last); the caller decides whether to jitter, restart or abort."""
    token = _extobj_contextvar.set(_FACTOR_ERRSTATE)
    try:
        L = cholesky_lo(a)
        if not np.logical_or.reduce(np.isnan(L[..., -1, -1]), None):
            return (L, inv(L)) if inverse else L
    except FloatingPointError:
        pass
    finally:
        _extobj_contextvar.reset(token)
    raise NotPositiveDefinite(f"{name} is not positive definite")


class Work(NamedTuple):
    """N r x p units X (r, p, N) and the three (G, r, p, N) arrays the
    kernels write for G components: residuals D, their whitened copy Y and
    Y's u-weighted copy U (each kernel says which it reads and writes).  The
    other fields are views made once for the kernels: X as an N x r*p matrix
    (X_cols), each of D, Y and U as one r x p*N matrix per component (the
    _rows fields), Y_rows transposed, and Y with its last two axes swapped."""

    X: np.ndarray
    X_cols: np.ndarray
    D: np.ndarray
    Y: np.ndarray
    U: np.ndarray
    D_rows: np.ndarray
    Y_rows: np.ndarray
    U_rows: np.ndarray
    Y_rows_t: np.ndarray
    Y_t: np.ndarray

    @classmethod
    def of(cls, samples, g):
        """A work set with fresh arrays for a units-last copy of samples (N, r, p)."""
        xt = np.ascontiguousarray(samples.transpose(1, 2, 0))
        r, p, n = xt.shape
        arrays = [np.empty((g, r, p, n)) for _ in range(3)]
        rows = [a.reshape(g, r, p * n) for a in arrays]
        return cls(xt, xt.reshape(r * p, n).T, *arrays, *rows, rows[1].swapaxes(1, 2),
                   arrays[1].swapaxes(2, 3))


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


def _residuals(w: Work, means):
    """D_gi = X_i - M_g for the units w.X and means (G, r, p), into w.D."""
    return np.subtract(w.X, means[..., None], out=w.D)


def _whiten(w: Work, Si):
    """Y = Si_g D_gi for the residuals in w.D and inverse row factors
    Si = L_sigma^-1 (G, r, r), into w.Y (returned): one matrix product over
    all N units, with worst relative error 4.1e-15 (as for a triangular
    solve) at condition 1e14."""
    np.matmul(Si, w.D_rows, out=w.Y_rows)
    return w.Y


def _row_scatter(w: Work, u, Pi, ng):
    """Row scales sum_i u_gi D_gi Psi_g^-1 D_gi' / (p ng_g), a (G, r, r)
    stack, from the residuals in w.D, weights u (G, 1, 1, N), the inverse
    column factors Pi (G, p, p) and masses ng (G, 1, 1): the whitened
    residuals Y = D Pi' (into w.Y) and their u-weighted copy (into w.U) are
    each one r x p*N matrix per component, and the sum is U Y'."""
    np.multiply(np.matmul(Pi[:, None], w.D, out=w.Y), u, out=w.U)
    s = np.matmul(w.U_rows, w.Y_rows_t)
    sym = s + s.swapaxes(1, 2)
    sym /= 2.0 * w.D.shape[2] * ng
    return sym


def _col_scatter(w: Work, u, ng):
    """Column scales sum_i u_gi D_gi' Sigma_g^-1 D_gi / (r ng_g), a (G, p, p)
    stack, from the row-whitened residuals Z = L_sigma^-1 D in w.Y, weights
    u (G, 1, 1, N) and masses ng (G, 1, 1): the sum over rows of the p x N
    blocks of Z's u-weighted copy (into w.U) times those of Z transposed."""
    s = np.add.reduce(np.matmul(np.multiply(w.Y, u, out=w.U), w.Y_t), 1)
    sym = s + s.swapaxes(1, 2)
    sym /= 2.0 * w.D.shape[1] * ng
    return sym


def _whitened_distances(w: Work, Pi):
    """Distances delta (G, N) from the row-whitened residuals Z = L_sigma^-1 D
    in w.Y and the inverse column factors Pi (G, p, p): the squared
    Frobenius norm of Z_gi L_psi^-T per component and unit, squared in place
    in w.U."""
    U = np.matmul(Pi[:, None], w.Y, out=w.U)
    return np.add.reduce(np.square(U, out=U), (1, 2))
