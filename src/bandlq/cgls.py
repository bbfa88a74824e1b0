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
    residual: float                  # final ||M^T (b - M x)|| / ref
    residual_norm: float             # ||r||, CGLS's running b - M x
    normal_residual_history: list = field(default_factory=list)


def cgls(M, b, tol=1e-10, max_iter=None, forcing=0.0, ref=None):
    """Run CGLS on min ||b - M x|| from x = 0.

    Terminates when ||M^T r|| <= max(tol ref, forcing ||M^T b||), with
    forcing in [0, 1) and ref = ||M^T b|| unless given, or after max_iter
    iterations (default max(10 ncols, 100)). A Newton correction passes
    its start's residual p - M x0 as b and ||M^T p|| as ref, so that tol
    keeps the target of the equation M x = p. A b that meets tol ref makes
    0 iterations and returns x = 0, any other at least one. b is copied,
    never modified. A non-finite value in b, ref or an operator product
    stops it at once, unconverged.
    """
    if not 0.0 <= forcing < 1.0:
        raise ValueError("CGLS forcing must lie in [0, 1)")
    M = spla.aslinearoperator(M)
    b = np.asarray(b, dtype=np.float64).ravel()
    ncols = M.shape[1]
    if max_iter is None:
        max_iter = max(10 * ncols, 100)
    x = np.zeros(ncols)
    Mt = M.H

    r = b.copy()
    s = Mt @ b
    norm_s = np.linalg.norm(s)
    ref = norm_s if ref is None else ref
    if not np.isfinite(ref):
        return CglsResult(x=x, converged=False, iterations=0,
                          residual=float("nan"),
                          residual_norm=float(np.linalg.norm(r)),
                          normal_residual_history=[float("nan")])
    if ref == 0.0:
        return CglsResult(x=x, converged=True, iterations=0, residual=0.0,
                          residual_norm=float(np.linalg.norm(r)),
                          normal_residual_history=[0.0])
    p = s.copy()
    gamma = float(s @ s)
    history = [norm_s / ref]
    target = max(tol, forcing * history[0])
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
        rel = np.sqrt(gamma_new) / ref
        history.append(rel)
        it += 1
        if not np.isfinite(rel):
            break
        if rel <= target:
            converged = True
            break
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return CglsResult(x=x, converged=converged, iterations=it,
                      residual=history[-1],
                      residual_norm=float(np.linalg.norm(r)),
                      normal_residual_history=history)
