"""Conjugate Gradient Least Squares on rectangular systems.

Solves min ||b - M x||_2 for a matrix or ``LinearOperator`` M by running CG
implicitly on the normal equations M^T M x = M^T b without forming M^T M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla


@dataclass
class CglsResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float                  # final ||M^T (b - M x)|| / ||M^T b||
    normal_residual_history: list = field(default_factory=list)


def cgls(M, b, tol=1e-10, max_iter=None, x0=None):
    """Run CGLS on min ||b - M x||.

    Terminates when ||M^T r|| / ||M^T b|| <= tol or after max_iter
    iterations (default 10 * ncols). A start x0 (copied, never modified)
    keeps this target relative to ||M^T b||, not to its own first residual.
    A non-finite value in b or in an operator product stops it at once,
    unconverged.
    """
    M = spla.aslinearoperator(M)
    b = np.asarray(b, dtype=np.float64).ravel()
    ncols = M.shape[1]
    if max_iter is None:
        max_iter = max(10 * ncols, 100)
    x = np.zeros(ncols) if x0 is None else np.array(x0, dtype=np.float64)
    Mt = M.H

    s0 = Mt @ b
    norm_s0 = np.linalg.norm(s0)
    if x0 is None:
        r, s = b.copy(), s0
    else:
        r = b - M @ x
        s = Mt @ r
    if not np.isfinite(norm_s0):
        return CglsResult(x=x, converged=False, iterations=0,
                          residual=float("nan"),
                          normal_residual_history=[float("nan")])
    if norm_s0 == 0.0:
        return CglsResult(x=x, converged=True, iterations=0, residual=0.0,
                          normal_residual_history=[0.0])
    p = s.copy()
    gamma = float(s @ s)
    history = [np.linalg.norm(s) / norm_s0]
    converged = bool(history[-1] <= tol)
    it = 0
    while not converged and it < max_iter:
        q = M @ p
        qq = float(q @ q)
        if qq == 0.0 or not np.isfinite(qq):
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        s = Mt @ r
        gamma_new = float(s @ s)
        rel = np.sqrt(gamma_new) / norm_s0
        history.append(rel)
        it += 1
        if not np.isfinite(rel):
            break
        if rel <= tol:
            converged = True
            break
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return CglsResult(x=x, converged=converged, iterations=it,
                      residual=history[-1], normal_residual_history=history)
