"""Shared fixtures and generators for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bandlq.control import LqProblem
from bandlq.modelgen import GridSpec, build_model
from bandlq.sparsecore import canonicalize


def random_banded(n, band, rng, density=0.7):
    """Random banded matrix with the given half-bandwidth."""
    A = np.zeros((n, n))
    for d in range(-band, band + 1):
        m = n - abs(d)
        vals = rng.standard_normal(m) * (rng.random(m) < density)
        A += np.diag(vals, k=d)
    return A


def random_stable_instance(n, rng, band=2):
    """Random (Abar, E, P) with the pencil (Abar, E) stable and E nonsingular.

    E is diagonally dominant (hence nonsingular), Abar is shifted so all
    pencil eigenvalues have real part <= -0.5, and P is symmetric.
    """
    E = random_banded(n, 1, rng) + (n + 2.0) * np.eye(n)
    G = random_banded(n, band, rng)
    lam = np.linalg.eigvals(np.linalg.solve(E, G))
    shift = lam.real.max() + 0.5
    Abar = G - shift * E
    Pd = random_banded(n, band, rng)
    P = Pd + Pd.T
    return (canonicalize(sp.csr_matrix(Abar)),
            canonicalize(sp.csr_matrix(E)),
            canonicalize(sp.csr_matrix(P)))


def heat_problem(nodes, discretization="fe-bilinear-2d", seed=7,
                 io_fraction=0.5, dimension=2):
    lengths = tuple(1.0 for _ in range(dimension))
    grid = GridSpec(dimension=dimension, nodes=tuple(nodes), lengths=lengths,
                    diffusivity=1.0, discretization=discretization)
    model = build_model(grid, io_fraction, seed=seed)
    prob = LqProblem(model, Q=np.ones(model.r), R=np.ones(model.m))
    return model, prob


def scalar_problem():
    from bandlq.modelgen import DescriptorModel
    from bandlq.sparsecore import Permutation
    one = canonicalize(sp.csr_matrix(np.array([[1.0]])))
    model = DescriptorModel(E=one, A=canonicalize(-one), B=one, C=one,
                            permutation=Permutation.identity(1))
    return model, LqProblem(model, Q=np.ones(1), R=np.ones(1))


def nan_lyap_solve_at(monkeypatch, step):
    """Make Newton step ``step`` receive NaN from its Method-1 solve.

    Wraps ``bandlq.control.solve_lyap_lsq``, which returns coordinates;
    returns the list of the steps it was called at.
    """
    import bandlq.control
    solve = bandlq.control.solve_lyap_lsq
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(len(calls) + 1)
        x, rep = solve(*args, **kwargs)
        if calls[-1] == step:
            x = np.full_like(x, np.nan)
        return x, rep

    monkeypatch.setattr(bandlq.control, "solve_lyap_lsq", wrapped)
    return calls


def warm_cgls(M, b, x0, r0, tol, max_iter, forcing=0.0):
    """Reference: CGLS on min ||b - M x|| that accumulates into a copy of the
    start x0, whose residual b - M x0 is r0, until ||M^T r|| <=
    max(tol ||M^T b||, forcing ||M^T r0||). Returns x, the iterations, the
    normal residual history relative to ||M^T b|| and ||r||."""
    M = spla.aslinearoperator(M)
    Mt = M.H
    x, r = np.array(x0, dtype=np.float64), np.array(r0, dtype=np.float64)
    norm_b = np.linalg.norm(Mt @ b)
    s = Mt @ r
    p, gamma = s.copy(), float(s @ s)
    history = [np.sqrt(gamma) / norm_b]
    target = max(tol, forcing * history[0])
    while history[-1] > target and len(history) <= max_iter:
        q = M @ p
        alpha = gamma / float(q @ q)
        x += alpha * p
        r -= alpha * q
        s = Mt @ r
        gamma, gamma_old = float(s @ s), gamma
        history.append(np.sqrt(gamma) / norm_b)
        p = s + (gamma / gamma_old) * p
    return x, len(history) - 1, history, float(np.linalg.norm(r))


def bitwise_equal(X, Y):
    """X and Y are the same CSR matrix, bit for bit."""
    return all(np.array_equal(a, b) for a, b in
               ((X.indptr, Y.indptr), (X.indices, Y.indices),
                (X.data, Y.data)))


def full_pattern(n):
    from bandlq.sparsecore import binarize
    return binarize(sp.csr_matrix(np.ones((n, n))))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
