"""CGLS least-squares solver."""

import numpy as np
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
