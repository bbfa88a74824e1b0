"""Dense reference solvers used only for verification at desk scale.

Everything here works on dense numpy arrays and is independent of the
sparse solution paths: explicit Kronecker systems at tiny sizes, a
Schur-based generalized Lyapunov solve above that, Newton iteration for
the Riccati equation, scaling-and-squaring matrix exponential, and pencil
eigenvalues via an explicit E-solve.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

_KRON_LIMIT = 60
DEFAULT_CAP = 400


def _dense(A):
    if sp.issparse(A):
        return np.asarray(A.todense(), dtype=np.float64)
    return np.asarray(A, dtype=np.float64)


def dense_lyap(Abar, E, P, max_n=DEFAULT_CAP):
    """Exact solution of E^T Z Abar + Abar^T Z E = P, symmetrized.

    Forms the explicit n^2 x n^2 Kronecker system for n <= 60; above that
    substitutes W = E^T Z E and solves the transformed standard Lyapunov
    equation by the Schur method.
    """
    A = _dense(Abar)
    Em = _dense(E)
    Pm = _dense(P)
    n = A.shape[0]
    if n > max_n:
        raise ValueError(f"dense_lyap: n={n} exceeds oracle cap {max_n}")
    if n <= _KRON_LIMIT:
        z = np.linalg.solve(kron_matrix(A, Em), Pm.flatten(order="F"))
        Z = z.reshape((n, n), order="F")
    else:
        G = np.linalg.solve(Em, A)          # E^{-1} Abar
        W = sla.solve_continuous_lyapunov(G.T, Pm)   # G^T W + W G = P
        Y = np.linalg.solve(Em.T, W)
        Z = np.linalg.solve(Em.T, Y.T).T
    return 0.5 * (Z + Z.T)


def dense_riccati_residual(Z, E, A, B, C, Qd, Rd):
    ctqc = C.T @ (Qd[:, None] * C)
    S = E.T @ Z @ A
    K = E.T @ Z @ B
    return ctqc + S + S.T - K @ ((1.0 / Rd)[:, None] * K.T)


def dense_riccati(prob, z0_scale=10.0, tol=1e-11, max_iter=100,
                  max_n=DEFAULT_CAP):
    """Newton iteration with exact inner Lyapunov solves from Z0 = z0_scale*I."""
    E = _dense(prob.model.E)
    A = _dense(prob.model.A)
    B = _dense(prob.model.B)
    C = _dense(prob.model.C)
    Qd = np.asarray(prob.Q, dtype=np.float64)
    Rd = np.asarray(prob.R, dtype=np.float64)
    n = A.shape[0]
    if n > max_n:
        raise ValueError(f"dense_riccati: n={n} exceeds oracle cap {max_n}")
    ctqc = C.T @ (Qd[:, None] * C)
    ref = max(np.linalg.norm(ctqc, "fro"), 1.0)
    Z = z0_scale * np.eye(n)
    for _ in range(max_iter):
        F = (1.0 / Rd)[:, None] * (B.T @ Z @ E)
        Abar = A - B @ F
        P = -ctqc - F.T @ (Rd[:, None] * F)
        Z = dense_lyap(Abar, E, P, max_n=max_n)
        res = np.linalg.norm(dense_riccati_residual(Z, E, A, B, C, Qd, Rd), "fro")
        if res <= tol * ref:
            lam_min = float(np.linalg.eigvalsh(Z).min())
            if lam_min < -1e-10 * max(np.linalg.norm(Z, "fro"), 1.0):
                raise RuntimeError(
                    f"dense_riccati: converged to indefinite Z (lam_min={lam_min:.3e})")
            return Z
    raise RuntimeError(f"dense_riccati: no convergence in {max_iter} iterations")


def dense_expm(A, max_n=DEFAULT_CAP):
    """Matrix exponential by scaling-and-squaring with Pade approximation."""
    A = _dense(A)
    if A.shape[0] > max_n:
        raise ValueError(f"dense_expm: n={A.shape[0]} exceeds oracle cap {max_n}")
    out = sla.expm(A)
    if not np.all(np.isfinite(out)):
        raise OverflowError("dense_expm: non-finite entries in the result")
    return out


def pencil_eigs(A, E, max_n=DEFAULT_CAP):
    """Eigenvalues of the pencil (A, E) via explicit E-solve."""
    A = _dense(A)
    Em = _dense(E)
    if A.shape[0] > max_n:
        raise ValueError(f"pencil_eigs: n={A.shape[0]} exceeds oracle cap {max_n}")
    # det underflows for well-conditioned matrices with tiny entries,
    # so singularity is judged by the condition number instead
    cond = np.linalg.cond(Em)
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise np.linalg.LinAlgError("pencil_eigs: E is numerically singular")
    return np.linalg.eigvals(np.linalg.solve(Em, A))


def kron_matrix(Abar, E):
    """Explicit M = Abar^T (x) E^T + E^T (x) Abar^T (tiny n only)."""
    A = _dense(Abar)
    Em = _dense(E)
    return np.kron(A.T, Em.T) + np.kron(Em.T, A.T)
