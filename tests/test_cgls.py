"""CGLS least-squares solver."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bandlq.cgls import cgls
from bandlq.sparsecore import canonicalize, identity


def test_identity_system_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    res = cgls(identity(3), b, tol=1e-12)
    assert res.converged
    assert res.iterations <= 1
    np.testing.assert_allclose(res.x, b, atol=1e-12)


def test_scalar_lyapunov_system():
    # [2a] z = p with a = -1, p = -2  ->  z = 1
    M = canonicalize(sp.csr_matrix(np.array([[-2.0]])))
    res = cgls(M, np.array([-2.0]), tol=1e-12)
    np.testing.assert_allclose(res.x, [1.0], atol=1e-12)


def test_matches_dense_normal_equations():
    rng = np.random.default_rng(20)
    n = 20
    M = np.zeros((n, n))
    for d in (-1, 0, 1):
        M += np.diag(rng.standard_normal(n - abs(d)), k=d)
    M += 5.0 * np.eye(n)
    b = rng.standard_normal(n)
    Ms = canonicalize(sp.csr_matrix(M))
    res = cgls(Ms, b, tol=1e-8)
    ref = np.linalg.solve(M.T @ M, M.T @ b)
    assert res.converged
    assert np.linalg.norm(res.x - ref) <= 1e-6 * np.linalg.norm(ref)
    # the same run through the matrix-free interface
    res_op = cgls(spla.aslinearoperator(Ms), b, tol=1e-8)
    assert res_op.iterations == res.iterations
    np.testing.assert_allclose(res_op.x, res.x, rtol=0, atol=1e-14)


def test_overdetermined_least_squares():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 10))
    b = rng.standard_normal(30)
    res = cgls(canonicalize(sp.csr_matrix(M)), b, tol=1e-12)
    ref, *_ = np.linalg.lstsq(M, b, rcond=None)
    np.testing.assert_allclose(res.x, ref, atol=1e-8)


def test_non_convergence_flag():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((50, 50))
    res = cgls(canonicalize(sp.csr_matrix(M)), rng.standard_normal(50),
               tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_normal_residual_window_monotone():
    # the normal-equation residual may wobble locally but must decrease
    # across any 5-iteration window
    rng = np.random.default_rng(11)
    M = rng.standard_normal((40, 25))
    res = cgls(canonicalize(sp.csr_matrix(M)), rng.standard_normal(40),
               tol=1e-12)
    h = res.normal_residual_history
    for i in range(len(h) - 5):
        assert min(h[i + 1:i + 6]) <= h[i] * (1.0 + 1e-12)


def test_nan_in_rhs_stops_at_once():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 10))
    b = rng.standard_normal(30)
    b[7] = np.nan
    res = cgls(canonicalize(sp.csr_matrix(M)), b, tol=1e-12)
    assert not res.converged
    assert res.iterations <= 1
    assert np.isnan(res.residual)


def test_nan_from_operator_stops_at_once():
    # the operator's products turn non-finite from the first one inside
    # the loop on: every product with a nonzero vector is NaN
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 10))

    def matvec(x):
        y = M @ x
        return y if not np.any(x) else np.full_like(y, np.nan)

    op = spla.LinearOperator(M.shape, matvec=matvec,
                             rmatvec=lambda r: M.T @ r, dtype=np.float64)
    res = cgls(op, rng.standard_normal(30), tol=1e-12)
    assert not res.converged
    assert res.iterations == 0


def _lstsq_instance():
    rng = np.random.default_rng(4)
    M = canonicalize(sp.csr_matrix(rng.standard_normal((30, 10))))
    b = rng.standard_normal(30)
    ref, *_ = np.linalg.lstsq(M.toarray(), b, rcond=None)
    return M, b, ref, rng


def test_x0_at_solution_returns_at_once():
    M, b, ref, _rng = _lstsq_instance()
    res = cgls(M, b, tol=1e-10, x0=ref)
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x, ref)


def test_x0_keeps_the_cold_absolute_target():
    # the target is tol * ||M^T b||, not tol times the start's own normal
    # residual: the run stops at the first iterate under it
    M, b, ref, rng = _lstsq_instance()
    tol = 1e-8
    norm_s0 = np.linalg.norm(M.T @ b)
    cold = cgls(M, b, tol=tol)
    x0 = ref + 1e-3 * rng.standard_normal(ref.size)
    warm = cgls(M, b, tol=tol, x0=x0)
    h = warm.normal_residual_history
    assert cold.converged and cold.normal_residual_history[0] == 1.0
    assert warm.converged and warm.iterations >= 1
    assert h[0] == pytest.approx(
        np.linalg.norm(M.T @ (b - M @ x0)) / norm_s0, rel=1e-12)
    assert all(v > tol for v in h[:-1]) and h[-1] <= tol
    # a start already under the absolute target needs no iteration, although
    # its own normal residual is far from reduced by tol
    d = x0 - ref
    near = ref + 0.5 * tol * norm_s0 / np.linalg.norm(M.T @ (M @ d)) * d
    res = cgls(M, b, tol=tol, x0=near)
    assert res.converged and res.iterations == 0
    assert res.residual == pytest.approx(0.5 * tol, rel=1e-3)


def test_x0_not_modified():
    M, b, ref, rng = _lstsq_instance()
    x0 = rng.standard_normal(ref.size)
    before = x0.copy()
    res = cgls(M, b, tol=1e-10, x0=x0)
    assert res.iterations >= 1
    np.testing.assert_array_equal(x0, before)
    assert res.x is not x0


def _counting(M):
    """M as a LinearOperator that counts its applications and adjoints."""
    calls = []

    def matvec(x):
        calls.append("M")
        return M @ x

    def rmatvec(r):
        calls.append("M^T")
        return M.T @ r

    op = spla.LinearOperator(M.shape, matvec=matvec, rmatvec=rmatvec,
                             dtype=np.float64)
    return op, calls


def test_operator_calls_cold_and_warm():
    # a cold start needs only M^T b before the loop, a warm one also
    # M x0 and M^T r0; each iteration costs one apply and one adjoint
    M, b, ref, rng = _lstsq_instance()
    op, calls = _counting(M.toarray())
    cold = cgls(op, b, tol=1e-10)
    assert cold.converged and cold.iterations >= 1
    assert len(calls) == 1 + 2 * cold.iterations
    calls.clear()
    warm = cgls(op, b, tol=1e-10, x0=rng.standard_normal(ref.size))
    assert warm.converged and warm.iterations >= 1
    assert len(calls) == 3 + 2 * warm.iterations
