"""Tests for the dense-matrix kernels."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from cmvmix import linalg
from cmvmix.errors import NotPositiveDefinite

from cm_reference import log_det_from_factor, trace_quad_form


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def cofactor_det(a):
    """Naive determinant by cofactor expansion; oracle for dim <= 4."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.factor(np.eye(3)), np.eye(3))

    def test_known_factor(self):
        L = linalg.factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(L, expected, rtol=1e-15)
        np.testing.assert_allclose(L @ L.T, [[4, 2], [2, 3]], rtol=1e-15)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            a = random_spd(rng, n)
            L = linalg.factor(a)
            err = np.linalg.norm(L @ L.T - a) / np.linalg.norm(a)
            assert err < 1e-12


def same_bits(got, want):
    """Equal shapes, dtypes and bytes: stricter than ==, which takes -0.0
    for 0.0."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestForeignCalls:
    """factor calls numpy's LAPACK gufuncs without np.linalg's wrappers; it
    must give the wrappers' numbers bit for bit, and refuse what their
    factorization refuses plus a NaN, by name and without a warning.  A
    numpy that changes those private gufuncs fails here first."""

    @staticmethod
    def stack(g, k, cond, seed):
        # SPD matrices with eigenvalues log-spaced from 1 to cond, in random bases
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(g):
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            out.append((q * np.logspace(0, np.log10(cond), k)) @ q.T * rng.uniform(0.1, 10.0))
        return (np.array(out) + np.array(out).transpose(0, 2, 1)) / 2.0

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 10])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_bitwise_equal_to_numpy_linalg(self, g, k, cond):
        a = self.stack(g, k, cond, seed=1000 * g + 10 * k + int(np.log10(cond)))
        want_L = np.linalg.cholesky(a)
        want_inv = np.linalg.inv(want_L)
        L, L_inv = linalg.factor(a, "sigma", inverse=True)
        assert same_bits(L, want_L) and same_bits(L_inv, want_inv)
        assert same_bits(linalg.factor(a), want_L)
        assert same_bits(linalg.factor(a[0]), want_L[0])  # one matrix, not a stack

    @pytest.mark.parametrize("fault", ["indefinite", "nan on the diagonal", "nan off it"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 10])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("caller_errstate", ["ignore", "warn", "raise"])
    def test_refuses_by_name_without_warning(self, g, k, fault, caller_errstate):
        # the last member of the stack is faulty; the caller's own errstate
        # does not change what factor raises, and factor hands it back as it
        # found it, after a refusal and after a factorization that succeeds
        good = self.stack(g, k, 1e4, seed=7 * g + k)
        a = good.copy()
        j = k - 1
        if fault == "indefinite":
            a[-1, j, j] = -1.0 if k == 1 else -abs(a[-1]).max()
        elif fault == "nan on the diagonal" or k == 1:
            a[-1, j, j] = np.nan
        else:
            a[-1, j, 0] = a[-1, 0, j] = np.nan
        for inverse in (False, True):
            with warnings.catch_warnings(), np.errstate(all=caller_errstate):
                warnings.simplefilter("error")
                caller = np.geterr()
                with pytest.raises(NotPositiveDefinite, match="^psi is not positive definite$"):
                    linalg.factor(a, "psi", inverse=inverse)
                assert np.geterr() == caller
                linalg.factor(good, "psi", inverse=inverse)
                assert np.geterr() == caller


def log_det_spd(a):
    """log determinant of an SPD matrix via its Cholesky factor."""
    return log_det_from_factor(linalg.factor(a))


class TestLogDet:
    def test_identity(self):
        assert log_det_spd(np.eye(4)) == 0.0

    def test_diagonal(self):
        assert log_det_spd(np.diag([2.0, 8.0])) == pytest.approx(np.log(16.0), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_cofactor_expansion(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(20):
            a = random_spd(rng, n)
            assert log_det_spd(a) == pytest.approx(np.log(cofactor_det(a)), rel=1e-10)

    @pytest.mark.parametrize("g,r,p", [(1, 1, 1), (2, 2, 4), (3, 6, 6), (2, 10, 3), (1, 17, 9)])
    def test_kron_is_the_per_factor_form_bit_for_bit(self, g, r, p):
        rng = np.random.default_rng(100 * r + p)
        L_sigma = linalg.factor(np.stack([random_spd(rng, r, 1e-3) for _ in range(g)]))
        L_psi = linalg.factor(np.stack([random_spd(rng, p, 1e3) for _ in range(g)]))
        want = p * log_det_from_factor(L_sigma) + r * log_det_from_factor(L_psi)
        assert linalg._log_det_kron(L_sigma, L_psi).tobytes() == want.tobytes()


class TestTraceQuadForm:
    def test_zero_at_mean(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3))
        assert trace_quad_form(x, x, random_spd(rng, 2), random_spd(rng, 3)) == 0.0

    def test_identity_scales_give_frobenius(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4))
        m = rng.standard_normal((3, 4))
        got = trace_quad_form(x, m, np.eye(3), np.eye(4))
        assert got == pytest.approx(np.sum((x - m) ** 2), rel=1e-13)

    def test_vec_kronecker_oracle(self):
        # delta must equal vec(X-M)' (psi (x) sigma)^-1 vec(X-M)
        rng = np.random.default_rng(2)
        for _ in range(30):
            r = rng.integers(1, 5)
            p = rng.integers(1, 5)
            x = rng.standard_normal((r, p))
            m = rng.standard_normal((r, p))
            sigma = random_spd(rng, r)
            psi = random_spd(rng, p)
            got = trace_quad_form(x, m, sigma, psi)
            d = (x - m).flatten(order="F")
            expected = d @ np.linalg.inv(np.kron(psi, sigma)) @ d
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_scale_cancellation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3))
        m = rng.standard_normal((2, 3))
        sigma = random_spd(rng, 2)
        psi = random_spd(rng, 3)
        base = trace_quad_form(x, m, sigma, psi)
        for c in (0.1, 2.0, 57.3):
            assert trace_quad_form(x, m, c * sigma, psi / c) == pytest.approx(base, rel=1e-12)

    def test_transposition_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2))
        m = rng.standard_normal((3, 2))
        sigma = random_spd(rng, 3)
        psi = random_spd(rng, 2)
        a = trace_quad_form(x, m, sigma, psi)
        b = trace_quad_form(x.T, m.T, psi, sigma)
        assert a == pytest.approx(b, rel=1e-12)


def per_component_steps(xs, means, u, ng, L_psi_prev):
    """Oracle for the stacked kernels: one component and one unit at a time,
    with scipy's triangular solves.  Returns (sigmas, psis, delta, log_det)
    of the row update through L_psi_prev, the column update through the new
    row factor, and the distances and log det(psi (x) sigma) at both."""
    n, r, p = xs.shape
    sigmas, psis, delta, log_det = [], [], np.empty((n, len(means))), []
    for j, m in enumerate(means):
        d = xs - m
        sigma = np.zeros((r, r))
        for i in range(n):
            t = solve_triangular(L_psi_prev[j], d[i].T, lower=True)
            sigma += u[i, j] * t.T @ t
        sigma /= p * ng[j]
        L_s = np.linalg.cholesky(sigma)
        psi = np.zeros((p, p))
        for i in range(n):
            s = solve_triangular(L_s, d[i], lower=True)
            psi += u[i, j] * s.T @ s
        psi /= r * ng[j]
        L_p = np.linalg.cholesky(psi)
        for i in range(n):
            s = solve_triangular(L_s, d[i], lower=True)
            delta[i, j] = np.sum(solve_triangular(L_p, s.T, lower=True) ** 2)
        log_det.append(2 * p * np.log(np.diag(L_s)).sum() + 2 * r * np.log(np.diag(L_p)).sum())
        sigmas.append(sigma)
        psis.append(psi)
    return np.array(sigmas), np.array(psis), delta, np.array(log_det)


class TestStackedKernels:
    """The stacked whiten/scatter/distance kernels, in the order the ECM
    chain calls them, against the per-component oracle."""

    RTOL = 1e-12

    @staticmethod
    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1), (2, 4), (3, 5), (6, 6)])
    def test_against_per_component_oracle(self, g, shape):
        r, p = shape
        rng = np.random.default_rng(10 * g + r)
        n = 20
        xs = rng.standard_normal((n, r, p)) * rng.uniform(0.5, 3.0)
        means = rng.standard_normal((g, r, p))
        z = rng.dirichlet(np.ones(g), size=n)
        u = z * rng.uniform(0.3, 1.0, size=(n, g))
        ng = z.sum(axis=0)
        L_psi_prev = np.stack([linalg.factor(random_spd(rng, p)) for _ in range(g)])

        w = linalg.Work.of(xs, g)
        linalg._residuals(w, means)
        inv, u4, ng3 = np.linalg.inv, u.T[:, None, None], ng[:, None, None]
        sigmas = linalg._row_scatter(w, u4, inv(L_psi_prev), ng3)
        L_sigma = linalg.factor(sigmas)
        linalg._whiten(w, inv(L_sigma))
        psis = linalg._col_scatter(w, u4, ng3)
        L_psi = linalg.factor(psis)
        delta = linalg._whitened_distances(w, inv(L_psi)).T
        log_det = p * log_det_from_factor(L_sigma) + r * log_det_from_factor(L_psi)

        want = per_component_steps(xs, means, u, ng, L_psi_prev)
        for got, ref in zip((sigmas, psis, delta), want[:3]):
            assert got.shape == ref.shape
            assert self.rel(got, ref) < self.RTOL
        np.testing.assert_allclose(log_det, want[3], rtol=self.RTOL, atol=self.RTOL)
        np.testing.assert_array_equal(sigmas, sigmas.transpose(0, 2, 1))
        np.testing.assert_array_equal(psis, psis.transpose(0, 2, 1))

    def test_one_failing_factor_raises(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(NotPositiveDefinite, match="psi"):
            linalg.factor(stack, "psi")

    @pytest.mark.parametrize("cond", [1e4, 1e8])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(2, 4), (6, 6), (6, 1), (1, 6), (3, 5)])
    def test_ill_conditioned_scales_against_oracle(self, cond, g, shape):
        # Units drawn with row and column scales of condition number cond.
        # Two correct double-precision evaluations of a quantity whitened by
        # an estimated scale differ by up to about eps * cond(scale) (whitening
        # the residuals by the factors' triangular inverses and weighting one
        # copy by u differs from the oracle by up to 2.4e-13 on these cases at
        # 1e4 and 1.9e-9 at 1e8), so the bound is 10 * eps * cond: 2.2e-11 at
        # 1e4 and 2.2e-7 at 1e8.
        r, p = shape
        rng = np.random.default_rng(int(np.log10(cond)) * 100 + 10 * r + p + g)

        def spd_with_cond(k):
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            return (q * np.logspace(0, np.log10(cond), k)) @ q.T

        n = 40
        A = np.linalg.cholesky(np.stack([spd_with_cond(r) for _ in range(g)]))
        L_psi_prev = np.linalg.cholesky(np.stack([spd_with_cond(p) for _ in range(g)]))
        lab = rng.integers(0, g, n)
        xs = A[lab] @ rng.standard_normal((n, r, p)) @ L_psi_prev[lab].transpose(0, 2, 1)
        means = rng.standard_normal((g, r, p))
        z = rng.dirichlet(np.ones(g), size=n)
        u = z * rng.uniform(0.3, 1.0, size=(n, g))
        ng = z.sum(axis=0)

        w = linalg.Work.of(xs, g)
        linalg._residuals(w, means)
        inv, u4, ng3 = np.linalg.inv, u.T[:, None, None], ng[:, None, None]
        sigmas = linalg._row_scatter(w, u4, inv(L_psi_prev), ng3)
        linalg._whiten(w, inv(linalg.factor(sigmas)))
        psis = linalg._col_scatter(w, u4, ng3)
        delta = linalg._whitened_distances(w, inv(linalg.factor(psis))).T

        bound = 10 * np.finfo(float).eps * cond
        for got, ref in zip((sigmas, psis, delta), per_component_steps(xs, means, u, ng, L_psi_prev)):
            assert self.rel(got, ref) < bound


class TestKernelsIntoBuffers:
    """Each (G, r, p, N) kernel writes into its linalg.Work set's arrays, and
    they and its result hold, bit for bit, what numpy's plain expressions on
    fresh arrays give (the shapes include a row or a column of one)."""

    @staticmethod
    def inputs(g, r, p, n=17):
        rng = np.random.default_rng(100 * g + 10 * r + p)
        xt = rng.standard_normal((r, p, n))
        means = rng.standard_normal((g, r, p))
        u = rng.uniform(0.1, 1.0, size=(g, n))
        ng = u.sum(axis=1)
        Si = np.linalg.inv(np.stack([linalg.factor(random_spd(rng, r)) for _ in range(g)]))
        Pi = np.linalg.inv(np.stack([linalg.factor(random_spd(rng, p)) for _ in range(g)]))
        return xt, means, u, ng, Si, Pi

    @staticmethod
    def work(xt, g):
        """The work set of the units xt (r, p, N) and g components."""
        return linalg.Work.of(xt.transpose(2, 0, 1), g)

    @staticmethod
    def row_whitened(Si, d):
        g, r = Si.shape[:2]
        return np.matmul(Si, d.reshape(g, r, -1)).reshape(d.shape)

    SHAPES = [(2, 3), (1, 3), (3, 1), (1, 1)]

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_work_views(self, g, shape):
        xt = self.inputs(g, *shape)[0]
        w = self.work(xt, g)
        np.testing.assert_array_equal(w.X, xt)
        assert w.X.flags.c_contiguous
        np.testing.assert_array_equal(w.X_cols, xt.reshape(-1, xt.shape[2]).T)
        assert np.shares_memory(w.X_cols, w.X)
        for a, rows in ((w.D, w.D_rows), (w.Y, w.Y_rows), (w.U, w.U_rows)):
            assert a.shape == (g, *xt.shape) and a.flags.c_contiguous
            assert rows.base is a and rows.shape == (g, shape[0], shape[1] * xt.shape[2])
        assert w.Y_rows_t.base is w.Y and w.Y_rows_t.shape == w.Y_rows.swapaxes(1, 2).shape
        assert w.Y_t.base is w.Y and w.Y_t.shape == w.Y.swapaxes(2, 3).shape
        assert not any(np.shares_memory(a, b) for a, b in ((w.D, w.Y), (w.D, w.U), (w.Y, w.U)))

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_residuals(self, g, shape):
        xt, means, *_ = self.inputs(g, *shape)
        w = self.work(xt, g)
        got = linalg._residuals(w, means)
        assert got is w.D
        np.testing.assert_array_equal(got, xt - means[..., None])

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_whiten(self, g, shape):
        xt, means, _, _, Si, _ = self.inputs(g, *shape)
        w = self.work(xt, g)
        linalg._residuals(w, means)
        got = linalg._whiten(w, Si)
        assert got is w.Y
        np.testing.assert_array_equal(got, self.row_whitened(Si, xt - means[..., None]))

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("swap", [False, True])
    def test_scatter(self, g, shape, swap):
        # swap=True is the row-scale update: Y receives the residuals whitened
        # by the column factors and U their u-weighted copy; swap=False the
        # column-scale update of the residuals whitened by the row factors in
        # Y: U receives their u-weighted copy
        xt, means, u, ng, Si, Pi = self.inputs(g, *shape)
        r, p = shape
        d = xt - means[..., None]
        w = self.work(xt, g)
        linalg._residuals(w, means)
        u4, ng3 = u[:, None, None], ng[:, None, None]
        if swap:
            got = linalg._row_scatter(w, u4, Pi, ng3)
            y = np.matmul(Pi[:, None], d)
            s = np.matmul((y * u4).reshape(g, r, -1), y.reshape(g, r, -1).swapaxes(1, 2))
            k = p
        else:
            y = self.row_whitened(Si, d)
            linalg._whiten(w, Si)
            got = linalg._col_scatter(w, u4, ng3)
            s = np.matmul(y * u4, y.swapaxes(2, 3)).sum(axis=1)
            k = r
        np.testing.assert_array_equal(w.Y, y)
        np.testing.assert_array_equal(w.U, y * u4)
        np.testing.assert_array_equal(got, (s + s.swapaxes(1, 2)) / (2.0 * k * ng3))
        np.testing.assert_array_equal(got, got.swapaxes(1, 2))

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_whitened_distances(self, g, shape):
        xt, means, _, _, Si, Pi = self.inputs(g, *shape)
        w = self.work(xt, g)
        linalg._residuals(w, means)
        linalg._whiten(w, Si)
        got = linalg._whitened_distances(w, Pi)
        want = np.square(np.matmul(Pi[:, None], self.row_whitened(Si, xt - means[..., None])))
        np.testing.assert_array_equal(w.U, want)
        np.testing.assert_array_equal(got, want.sum(axis=(1, 2)))
