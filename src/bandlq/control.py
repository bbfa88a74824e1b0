"""Inexact Newton for the generalized Riccati equation and LQ feedback.

Each Newton step rewrites the linearized Riccati equation as a GL
equation E^T Z Abar + Abar^T Z E = P with
Abar = A - B F, P = -C^T Q C - F^T R F, F = R^{-1} B^T Z_prev E,
solved approximately on a frozen a priori pattern by Method 1 or 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lyap_gp import FaberConfig, GpConfig, initial_guess, solve_lyap_gp
from .lyap_lsq import CglsConfig, solve_lyap_lsq
from .modelgen import DescriptorModel
from .pattern import apriori_pattern
from .sparsecore import ShapeMismatchError, canonicalize, frobenius, identity


@dataclass(frozen=True)
class LqProblem:
    model: DescriptorModel
    Q: np.ndarray     # diagonal of the output weight (length r)
    R: np.ndarray     # diagonal of the input weight (length m)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if Q.size != self.model.r or R.size != self.model.m:
            raise ValueError("Q/R diagonal lengths must match C rows / B cols")
        if np.any(R <= 0):
            raise ValueError("R must be positive definite")
        if np.any(Q < 0):
            raise ValueError("Q must be positive semidefinite")

    def ctqc(self):
        C = self.model.C
        return canonicalize(C.T @ sp.diags(self.Q) @ C)

    def r_inv_bt(self):
        return canonicalize(sp.diags(1.0 / self.R) @ self.model.B.T)


@dataclass(frozen=True)
class NewtonConfig:
    Z0_scale: float = 10.0
    N_max: int = 20
    lyap_method: str = "lsq"          # "lsq" | "gp"
    residual_tol: float = 1e-6        # relative to v_1
    w: int = 1                        # order of the a priori pattern

    def __post_init__(self):
        if self.N_max < 1:
            raise ValueError("N_max must be >= 1")


@dataclass
class NewtonIterationReport:
    k: int
    v_k: float              # Riccati residual Frobenius norm
    lyap_residual: float    # inner-solve residual (the Newton inexactness)
    nnz_Z: int
    nnz_F: int
    lyap_iterations: int    # inner-solve iterations
    lyap_converged: bool    # the inner solve's converged flag
    wall_ms: float


class RiccatiDivergence(RuntimeError):
    """The Newton loop stopped on a non-finite or persistently grown v_k."""

    def __init__(self, reports):
        last = reports[-1]
        super().__init__(
            f"Riccati residual is not finite at Newton step {last.k}"
            if not np.isfinite(last.v_k)
            else "Riccati residual grew for 3 consecutive iterations")
        self.reports = reports


def _symmetrize_checked(Z, tol=1e-10):
    Z = canonicalize(Z)
    asym = frobenius(Z - Z.T)
    scale = max(frobenius(Z), 1.0)
    if asym > tol * scale:
        raise ValueError(f"matrix is not symmetric: ||Z - Z^T||_F = {asym:.3e}")
    return canonicalize(0.5 * (Z + Z.T))


def riccati_residual(Z, prob):
    """D[Z] = C^T Q C + E^T Z A + A^T Z E - E^T Z B R^{-1} B^T Z E."""
    E, A = prob.model.E, prob.model.A
    if Z.shape != A.shape:
        raise ShapeMismatchError("riccati_residual", Z.shape, A.shape)
    Z = _symmetrize_checked(Z)
    S = canonicalize(E.T @ Z @ A)
    K = canonicalize(E.T @ Z @ prob.model.B)      # n x m
    W = canonicalize(K @ sp.diags(1.0 / prob.R) @ K.T)
    return canonicalize(prob.ctqc() + S + S.T - W)


def feedback(Z, prob):
    """LQ feedback matrix F = R^{-1} B^T Z E."""
    Z = _symmetrize_checked(Z)
    return canonicalize(prob.r_inv_bt() @ Z @ prob.model.E)


def newton_step_matrices(Z_prev, prob):
    """(F, Abar, P) defining the GL equation of one Newton step."""
    F = feedback(Z_prev, prob)
    Abar = canonicalize(prob.model.A - prob.model.B @ F)
    P = canonicalize(-prob.ctqc() - F.T @ sp.diags(prob.R) @ F)
    return F, Abar, P


def solve_lyap(Abar, E, P, pat, method, X0=None, cgls_cfg=CglsConfig(),
               gp_cfg=GpConfig(), faber_cfg=FaberConfig()):
    """One inner solve of E^T Z Abar + Abar^T Z E = P on the pattern.

    ``method`` is "lsq" (Method 1, CGLS) or "gp" (Method 2, gradient
    projection). Both start from X0 when given; without it LSQ starts from
    zero and GP from the X3 initial guess. Returns (Z, SolveReport), whose
    ``extra["residual_2norm"]`` is ||p - M z|| for either method.
    """
    if method == "lsq":
        return solve_lyap_lsq(Abar, E, P, pat, cfg=cgls_cfg, X0=X0)
    if method == "gp":
        if X0 is None:
            X0, _info = initial_guess(Abar, E, P, cfg=gp_cfg, fcfg=faber_cfg)
        return solve_lyap_gp(Abar, E, P, pat, X0, cfg=gp_cfg)
    raise ValueError(f"unknown Lyapunov method {method!r}")


def solve_riccati(prob, cfg=NewtonConfig(), cgls_cfg=CglsConfig(),
                  gp_cfg=GpConfig(), faber_cfg=FaberConfig(), pattern=None):
    """Inexact Newton loop; returns (Z_hat, per-iteration reports, F).

    F = R^-1 B^T Z_hat E is the LQ feedback of Z_hat.

    Every step solves on ``pattern``, by default the order-``cfg.w`` a
    priori pattern of the first step's GL equation. Raises
    ``RiccatiDivergence`` with the reports so far when v_k is not finite
    or has stayed above 10 v_1 for 3 consecutive steps.
    """
    E = prob.model.E
    Z = canonicalize(cfg.Z0_scale * identity(prob.model.n))
    # the step matrices of each new Z give its report's nnz_F and the next
    # step's GL equation
    F, Abar, P = newton_step_matrices(Z, prob)
    if pattern is None:
        pattern = apriori_pattern(Abar, E, P, cfg.w)
    reports = []
    v1 = None
    growth_streak = 0
    for k in range(1, cfg.N_max + 1):
        t0 = time.perf_counter()
        # inner solves start from the previous Newton iterate; step 1
        # starts LSQ from zero and GP from the X3 initial guess
        Z, lrep = solve_lyap(Abar, E, P, pattern, cfg.lyap_method,
                             X0=Z if k > 1 else None, cgls_cfg=cgls_cfg,
                             gp_cfg=gp_cfg, faber_cfg=faber_cfg)
        v_k = frobenius(riccati_residual(Z, prob))
        F, Abar, P = newton_step_matrices(Z, prob)
        reports.append(NewtonIterationReport(
            k=k, v_k=v_k, lyap_residual=lrep.extra["residual_2norm"],
            nnz_Z=Z.nnz, nnz_F=F.nnz, lyap_iterations=lrep.iterations,
            lyap_converged=lrep.converged,
            wall_ms=1e3 * (time.perf_counter() - t0)))
        if not np.isfinite(v_k):
            raise RiccatiDivergence(reports)
        if v1 is None:
            v1 = v_k
        if v_k <= cfg.residual_tol * v1:
            break
        growth_streak = growth_streak + 1 if v_k > 10.0 * v1 else 0
        if growth_streak >= 3:
            raise RiccatiDivergence(reports)
    return Z, reports, F


def metric_e(Zhat, Zexact):
    """Relative Frobenius error ||Zhat - Zexact||_F / ||Zexact||_F."""
    Zhat = sp.csr_matrix(Zhat)
    Zexact = sp.csr_matrix(Zexact)
    if Zhat.shape != Zexact.shape:
        raise ShapeMismatchError("metric_e", Zhat.shape, Zexact.shape)
    denom = frobenius(Zexact)
    if denom == 0.0:
        raise ZeroDivisionError("metric_e: reference solution has zero norm")
    return frobenius(canonicalize(Zhat - Zexact)) / denom


@dataclass
class Trajectory:
    steps: np.ndarray       # recorded step indices
    times: np.ndarray
    state_norms: np.ndarray
    inst_cost: np.ndarray
    cost: float


def simulate_closed_loop(prob, F, x0, dt, steps, max_rows=1000):
    """Implicit-Euler simulation of E x' = (A - B F) x with LQ running cost.

    cost accumulates dt * (y^T Q y + u^T R u) per step with y = C x and
    u = -F x; the trajectory is downsampled to at most ``max_rows`` rows.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    model = prob.model
    Abar = canonicalize(model.A - model.B @ F)
    S = canonicalize(model.E - dt * Abar).tocsc()
    try:
        lu = spla.splu(S)
    except RuntimeError as exc:
        raise RuntimeError(f"singular step matrix at dt={dt}") from exc
    E = model.E.tocsr()
    x = np.asarray(x0, dtype=np.float64).ravel().copy()
    stride = max(1, steps // max_rows)
    rec_steps, rec_t, rec_norm, rec_cost = [], [], [], []
    cost = 0.0
    for i in range(steps):
        y = model.C @ x
        u = -(F @ x)
        inst = float(y @ (prob.Q * y) + u @ (prob.R * u))
        cost += dt * inst
        if i % stride == 0:
            rec_steps.append(i)
            rec_t.append(i * dt)
            rec_norm.append(float(np.linalg.norm(x)))
            rec_cost.append(inst)
        x = lu.solve(E @ x)
    rec_steps.append(steps)
    rec_t.append(steps * dt)
    rec_norm.append(float(np.linalg.norm(x)))
    y = model.C @ x
    u = -(F @ x)
    rec_cost.append(float(y @ (prob.Q * y) + u @ (prob.R * u)))
    return Trajectory(steps=np.array(rec_steps), times=np.array(rec_t),
                      state_norms=np.array(rec_norm),
                      inst_cost=np.array(rec_cost), cost=cost)
