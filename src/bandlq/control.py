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
from scipy.linalg import get_lapack_funcs

from . import lyap_lsq
from .lyap_gp import GpConfig, initial_guess, solve_lyap_gp
from .lyap_lsq import CglsConfig, GlOperator, solve_lyap_lsq
from .modelgen import DescriptorModel
from .pattern import apriori_pattern
from .sparsecore import (ShapeMismatchError, canonicalize, check_square,
                         filled, frobenius, identity)


@dataclass(frozen=True)
class LqProblem:
    model: DescriptorModel
    Q: np.ndarray     # diagonal of the output weight (length r)
    R: np.ndarray     # diagonal of the input weight (length m)

    def __post_init__(self):
        # read-only copies, so that the products below cannot go stale
        Q = np.array(self.Q, dtype=np.float64)
        R = np.array(self.R, dtype=np.float64)
        Q.flags.writeable = R.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if Q.shape != (self.model.r,) or R.shape != (self.model.m,):
            raise ValueError("Q and R must be 1-D, of lengths r and m")
        if not np.all(R > 0):
            raise ValueError("R must be positive definite")
        if not np.all(Q >= 0):
            raise ValueError("Q must be positive semidefinite")
        C, B = self.model.C, self.model.B
        object.__setattr__(self, "_ctqc",
                           canonicalize(C.T @ sp.diags(Q) @ C))
        object.__setattr__(self, "_r_inv_bt",
                           canonicalize(sp.diags(1.0 / R) @ B.T))

    def ctqc(self):
        """C^T Q C, computed once."""
        return self._ctqc

    def r_inv_bt(self):
        """R^{-1} B^T, computed once."""
        return self._r_inv_bt


@dataclass(frozen=True)
class NewtonConfig:
    Z0_scale: float = 10.0
    N_max: int = 20
    lyap_method: str = "lsq"          # "lsq" | "gp"
    residual_tol: float = 1e-6        # relative to v_1
    w: int = 1                        # order of the a priori pattern
    cgls: CglsConfig = CglsConfig()   # Method 1
    gp: GpConfig = GpConfig()         # Method 2 and its X3 initial guess

    def __post_init__(self):
        if not np.isfinite(self.Z0_scale):
            raise ValueError("Z0_scale must be a finite number")
        for name, low in (("N_max", 1), ("w", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not self.residual_tol >= 0:
            raise ValueError("residual_tol must be >= 0")
        if self.lyap_method not in ("lsq", "gp"):
            raise ValueError("lyap_method must be 'lsq' or 'gp', "
                             f"got {self.lyap_method!r}")


@dataclass
class NewtonIterationReport:
    k: int
    v_k: float              # Riccati residual Frobenius norm
    lyap_residual: float    # inner-solve residual (the Newton inexactness)
    nnz_Z: int
    nnz_F: int
    lyap_iterations: int    # inner-solve iterations
    lyap_converged: bool    # the inner solve's converged flag
    forcing: float          # the CGLS forcing term the inner solve ran with
    wall_ms: float


class RiccatiDivergence(RuntimeError):
    """The Newton loop stopped on a non-finite or persistently grown v_k.

    ``step`` is the step at which v_k had been above 10 v_1 for 3
    consecutive steps, past the last of ``reports`` when the steps between
    repeat a fixed point; it is None for a non-finite v_k.
    """

    def __init__(self, reports, step=None):
        k = reports[-1].k
        msg = (f"Riccati residual is not finite at Newton step {k}"
               if step is None else "Riccati residual v_k > 10 v_1 for 3 "
               f"consecutive Newton steps, at step {step}")
        if step is not None and step > k:
            msg += f": step {k} is a fixed point that steps {k + 1} to " \
                f"{step} would repeat"
        super().__init__(msg)
        self.reports = reports
        self.step = step


_SYMMETRY_TOL = 1e-10     # the largest ||Z - Z^T||_F / max(||Z||_F, 1)
# the largest forcing term of a Newton step's Method-1 solve
_FORCING_MAX = 0.1


def _symmetrize_checked(Z):
    Z = canonicalize(Z)
    asym = frobenius(Z - Z.T)
    scale = max(frobenius(Z), 1.0)
    if asym > _SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is not symmetric: ||Z - Z^T||_F = {asym:.3e}")
    return canonicalize(0.5 * (Z + Z.T))


def riccati_residual(Z, prob):
    """D[Z] = C^T Q C + E^T Z A + A^T Z E - E^T Z B R^{-1} B^T Z E."""
    E, A = prob.model.E, prob.model.A
    check_square("riccati_residual", A.shape[0], Z)
    Z = _symmetrize_checked(Z)
    S = canonicalize(E.T @ Z @ A)
    K = canonicalize(E.T @ Z @ prob.model.B)      # n x m
    W = canonicalize(K @ sp.diags(1.0 / prob.R) @ K.T)
    return canonicalize(prob.ctqc() + S + S.T - W)


def _feedback(Z, prob):
    """R^{-1} B^T Z E of a canonical, exactly symmetric Z."""
    return canonicalize(prob.r_inv_bt() @ Z @ prob.model.E)


def feedback(Z, prob):
    """LQ feedback matrix F = R^{-1} B^T Z E."""
    return _feedback(_symmetrize_checked(Z), prob)


def newton_step_matrices(Z_prev, prob):
    """(F, Abar, P) defining the GL equation of one Newton step.

    Z_prev must be canonical and exactly symmetric, as Z0 and the Newton
    loop's iterates are; unlike ``feedback``, this does not check it.
    Where F is ``filled``, P = -C^T Q C - F^T R F is formed in one dense
    n x n array, F^T R F as the Gram product W^T W of W = R^{1/2} F, which
    BLAS makes exactly symmetric. At fe-bilinear Newton step 3 (seed 7,
    one BLAS thread) that took 0.3 against 4.0 ms for the sparse product
    at 13^2, and 9 against 61 ms at 29^2, with P's support unchanged.
    """
    F = _feedback(Z_prev, prob)
    Abar = canonicalize(prob.model.A - prob.model.B @ F)
    if not filled(F):
        return F, Abar, canonicalize(-prob.ctqc() - F.T @ sp.diags(prob.R) @ F)
    W = F.toarray()
    W *= np.sqrt(prob.R)[:, None]
    G = W.T @ W
    del W
    C = prob.ctqc().tocoo()
    G[C.row, C.col] += C.data
    np.negative(G, out=G)
    return F, Abar, canonicalize(G)


def newton_start(prob, cfg=NewtonConfig()):
    """(F, Abar, P) of Newton step 1, from Z0 = cfg.Z0_scale I."""
    Z0 = canonicalize(cfg.Z0_scale * identity(prob.model.n))
    return newton_step_matrices(Z0, prob)


def inner_solve(op, x=None, r=None, cfg=NewtonConfig(), forcing=0.0):
    """Method ``cfg.lyap_method`` on the GL operator ``op``: x + d, where d
    is the correction to the start x on ``op.inputs`` found from zero on
    its residual r = p - M x, computed if not given; LSQ with the term
    ``forcing``. Without x, LSQ solves from zero on p and GP corrects the
    X3 initial guess. Also returns a SolveReport whose ``final_residual``
    is ||p - M (x + d)||."""
    if x is None and cfg.lyap_method == "gp":
        X3, _info = initial_guess(op.Abar, op.E, op.P, cfg=cfg.gp)
        x = op.inputs.fold(X3)
    b = op.rhs if x is None else (op.rhs - op @ x if r is None else r)
    d, report = (solve_lyap_lsq(op, b, cfg.cgls, forcing)
                 if cfg.lyap_method == "lsq" else solve_lyap_gp(op, b, cfg.gp))
    return (d if x is None else x + d), report


def solve_lyap(Abar, E, P, pat, cfg=NewtonConfig(), X0=None):
    """One inner solve of E^T Z Abar + Abar^T Z E = P on the pattern.

    Runs ``inner_solve`` on the operator built on ``pat``, which must be
    symmetric, from X0 read through its symmetric part on the pattern.
    Returns (Z, SolveReport), Z exactly symmetric; ``wall_ms`` is the call.
    """
    t0 = time.perf_counter()
    op = GlOperator(Abar, E, pat, P)
    x, report = inner_solve(op, None if X0 is None else op.inputs.fold(X0),
                            cfg=cfg)
    Z = lyap_lsq.scatter_solution(op, x)
    report.wall_ms = 1e3 * (time.perf_counter() - t0)
    return Z, report


def solve_riccati(prob, cfg=NewtonConfig(), pattern=None):
    """Inexact Newton loop; returns (Z_hat, per-iteration reports, F).

    F = R^-1 B^T Z_hat E is the LQ feedback of Z_hat.

    Every step solves on ``pattern``, by default the order-``cfg.w`` a
    priori pattern of the first step's GL equation, by ``inner_solve`` on
    one ``GlOperator`` per step, refilled where it can be. Step k+1 solves
    for the correction to step k's coordinates, from which Z_k is scattered
    for F and the return, on their residual r_k, read off its operator,
    whose output coordinates are orthonormal: v_k = ||D[Z_k]||_F is
    ||r_k||. Method 1 runs step 1 with no forcing term and step k >= 2
    with the forcing term min(_FORCING_MAX, v_{k-1} / v_1): CGLS stops at
    ``cfg.cgls.tol`` or once its normal residual has fallen by that factor
    from ||M^T r_{k-1}||. The loop ends when v_k <= ``cfg.residual_tol``
    v_1, after ``cfg.N_max`` steps, or at a fixed point: a step k >= 2
    whose inner solve makes 0 iterations, as it does only on an r_{k-1}
    that meets ``cfg.cgls.tol``, adds a zero correction and returns its
    start, which every later step would repeat. Raises
    ``RiccatiDivergence`` with the reports so far when v_k is not finite or
    stays above 10 v_1 for 3 consecutive steps within ``cfg.N_max``, the
    repeats of a fixed point included.
    """
    E = prob.model.E
    # the step matrices of each new Z give its report's nnz_F and the next
    # step's GL equation
    F, Abar, P = newton_start(prob, cfg)
    if pattern is None:
        pattern = apriori_pattern(Abar, E, P, cfg.w)
    op = GlOperator(Abar, E, pattern, P)
    x = r = None
    reports = []
    v1 = None
    growth_streak = 0
    for k in range(1, cfg.N_max + 1):
        t0 = time.perf_counter()
        forcing = (min(_FORCING_MAX, v_k / v1)
                   if k > 1 and cfg.lyap_method == "lsq" else 0.0)
        x, lrep = inner_solve(op, x, r, cfg, forcing)
        Z = lyap_lsq.scatter_solution(op, x)
        F, Abar, P = newton_step_matrices(Z, prob)
        if not op.refill(Abar, P):
            op = None   # release this step's operator before the next is built
            op = GlOperator(Abar, E, pattern, P)
        r = op.rhs - op @ x
        v_k = float(np.linalg.norm(r))
        reports.append(NewtonIterationReport(
            k=k, v_k=v_k, lyap_residual=lrep.final_residual,
            nnz_Z=Z.nnz, nnz_F=F.nnz, lyap_iterations=lrep.iterations,
            lyap_converged=lrep.converged, forcing=forcing,
            wall_ms=1e3 * (time.perf_counter() - t0)))
        if not np.isfinite(v_k):
            raise RiccatiDivergence(reports)
        if v1 is None:
            v1 = v_k
        if v_k <= cfg.residual_tol * v1:
            break
        growth_streak = growth_streak + 1 if v_k > 10.0 * v1 else 0
        fixed = k > 1 and lrep.iterations == 0
        # a fixed point's steps k+1 .. N_max would each repeat this v_k
        repeats = cfg.N_max - k if fixed else 0
        if growth_streak and growth_streak + repeats >= 3:
            raise RiccatiDivergence(reports, k + 3 - growth_streak)
        if fixed:
            break
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


# simulate_closed_loop keeps at most this many state entries in one block
_SIM_BLOCK_ENTRIES = 1 << 14


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
    u = -F x. The trajectory records at most ``max_rows`` steps: every
    s-th step and the last, with s = ceil(steps / (max_rows - 1)), or
    step 0 alone when ``max_rows`` is 1.
    The steps solve with a LAPACK LU of the step matrix E - dt Abar when
    Abar is ``filled``, and with SuperLU otherwise; a singular step matrix
    raises RuntimeError. F stays CSR: u = -F x reads each entry once, and
    at fe-bilinear 45^2 Newton step 2, where F is 14 % dense and so filled,
    the product took 793 us with F dense against 302 us with F as CSR.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"simulate_closed_loop: dt = {dt} is not in (0, inf)")
    if steps < 1 or max_rows < 1:
        raise ValueError("steps and max_rows must be >= 1")
    model = prob.model
    for want, got in (((model.m, model.n), F.shape),
                      ((model.n,), (np.size(x0),))):
        if got != want:
            raise ShapeMismatchError("simulate_closed_loop", want, got)
    Abar = canonicalize(model.A - model.B @ F)
    S = canonicalize(model.E - dt * Abar)
    singular = f"singular step matrix at dt={dt}"
    if filled(Abar):
        # a LAPACK LU in place on S's one dense copy, Fortran-ordered so
        # that getrf does not copy it; info > 0 names a zero pivot
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (S.data,))
        lu, piv, info = getrf(S.toarray(order="F"), overwrite_a=True)
        if info > 0:
            raise RuntimeError(singular)

        def solve(b):
            return getrs(lu, piv, b)[0]
    else:
        try:
            solve = spla.splu(S.tocsc()).solve
        except RuntimeError as exc:
            raise RuntimeError(singular) from exc
    E = model.E.tocsr()
    x = np.asarray(x0, dtype=np.float64).ravel().copy()
    n = x.size
    stride = -(-steps // max(1, max_rows - 1))
    rec_steps = np.union1d(np.arange(0, steps + 1, stride), steps)[:max_rows]
    # states 0 .. steps, a block of them at a time as the columns of X
    X = np.empty((n, max(1, _SIM_BLOCK_ENTRIES // n)), order="F")
    rec_norm, rec_cost = [], []
    cost = 0.0
    for lo in range(0, steps + 1, X.shape[1]):
        hi = min(steps + 1, lo + X.shape[1])
        for j in range(hi - lo):
            if lo + j:              # state 0 is x0
                x = solve(E @ x)
            X[:, j] = x
        block = X[:, :hi - lo]
        Y = model.C @ block
        U = F @ block
        inst = (np.einsum("ij,ij->j", Y, prob.Q[:, None] * Y)
                + np.einsum("ij,ij->j", U, prob.R[:, None] * U))
        # the cost sums dt * inst over states 0 .. steps - 1 in step order
        for c in (dt * inst[:min(hi, steps) - lo]).tolist():
            cost += c
        mine = rec_steps[(rec_steps >= lo) & (rec_steps < hi)] - lo
        for j in mine.tolist():
            # a contiguous column, as np.linalg.norm of one state reads
            rec_norm.append(float(np.linalg.norm(block[:, j])))
            rec_cost.append(float(inst[j]))
    return Trajectory(steps=rec_steps, times=rec_steps * dt,
                      state_norms=np.array(rec_norm),
                      inst_cost=np.array(rec_cost), cost=cost)
