"""Method 2: gradient projection solve of the pattern-constrained GL equation.

The iteration minimizes J[Z] = ||P - E^T Z Abar - Abar^T Z E||_F^2 over
matrices supported on the a priori pattern, with a step that an Armijo
line search would never shorten. It starts from a quadrature of matrix
exponentials: a sparse approximate inverse of E turns the GL equation into
a non-generalized one, a sinh-based quadrature discretizes its integral
representation, and each matrix exponential is expanded in sparsified
Faber/Chebyshev polynomials of one basis shared by all quadrature nodes.
The iteration keeps its iterate in the GL operator's working layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .pattern import inverse_pattern
from .report import SolveReport
from .sparsecore import (binarize, canonicalize, check_square, concat_ranges,
                         filled, frobenius, identity, pattern_power_sum,
                         project)

_DENSE_EIG_LIMIT = 2000
_INFLATION = 0.05
# the gradient iteration stops when J fell by less than this share over
# this many iterations
_STAGNATION_WINDOW = 20
_STAGNATION_RTOL = 1e-12
# DFT length of the Faber coefficients; 4p < W keeps aliasing negligible
_FABER_W = 2048


class UnstableMatrixError(RuntimeError):
    """The quadrature requires all eigenvalue real parts to be negative."""


@dataclass(frozen=True)
class SpectrumBounds:
    lambda_RS: float     # smallest real part
    lambda_RL: float     # largest real part
    lambda_IL: float     # largest |imaginary part|

    def __post_init__(self):
        if not self.lambda_RS <= self.lambda_RL + 1e-12:
            raise ValueError("lambda_RS must not exceed lambda_RL")
        if not self.lambda_IL >= 0:
            raise ValueError("lambda_IL must be nonnegative")

    def scaled(self, t):
        if not t > 0:
            raise ValueError("time scale must be positive")
        return SpectrumBounds(t * self.lambda_RS, t * self.lambda_RL,
                              t * self.lambda_IL)


@dataclass(frozen=True)
class GpConfig:
    max_iter: int = 4000
    q: int = 40                      # quadrature half-width
    k1: int = 3                      # SPAI pattern order
    p: int = 30                      # truncation order of the Faber series
    k2: int = 1                      # sparsification pattern order for it

    def __post_init__(self):
        for name, low in (("max_iter", 0), ("q", 1), ("k1", 0), ("p", 0),
                          ("k2", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not 4 * self.p < _FABER_W:
            raise ValueError(f"p must be <= {(_FABER_W - 1) // 4}, so that "
                             f"4p < the DFT length {_FABER_W}")


def spai(E, pat):
    """Sparse approximate inverse of E on the given pattern.

    Returns the column form X, the minimizer of ||I - E X||_F column by
    column over the pattern's support, together with that residual. For
    symmetric E and pat, as every model here has, the row form
    min ||I - X E||_F is its transpose with the same residual.
    """
    n = E.shape[0]
    check_square("spai", n, E, pat)
    Ec = canonicalize(E)
    X = _spai_one_sided(Ec, binarize(pat))
    return X, frobenius(identity(n) - Ec @ X)


def _spai_one_sided(E, pat):
    """min ||I - E X||_F with X supported on pat, solved per column.

    Column j's problem reads E's columns on the support of pat[:, j], on
    the rows those columns touch: column j of supp(E) supp(pat). The
    problems are solved a group of equal shape at a time: the group's
    blocks E[I, J], for its rows I and supports J, come from one CSR
    lookup, and one stacked QR (``_lstsq_unit``) solves them for e_j on I.
    """
    n = E.shape[0]
    patc = pat.tocsc()
    rows = (binarize(E) @ patc).tocsc()
    rows.sort_indices()
    shape = np.column_stack([np.diff(rows.indptr), np.diff(patc.indptr)])
    shapes, group = np.unique(shape, axis=0, return_inverse=True)
    data = np.zeros(patc.nnz)
    for g, (m, width) in enumerate(shapes):
        if m == 0 or width == 0:
            continue        # no rows or no unknowns: x = 0
        cols = np.flatnonzero(group == g)
        I = rows.indices[concat_ranges(rows.indptr[cols],
                                       np.full(cols.size, m))].reshape(-1, m)
        at = concat_ranges(patc.indptr[cols], np.full(cols.size, width))
        J = patc.indices[at].reshape(-1, width)
        A = E[np.repeat(I, width, axis=1).ravel(), np.tile(J, m).ravel()]
        data[at] = _lstsq_unit(np.asarray(A).reshape(-1, m, width),
                               I == cols[:, None]).ravel()
    X = sp.csc_matrix((data, patc.indices, patc.indptr), shape=(n, n))
    return canonicalize(X)


def _lstsq_unit(A, b):
    """The least-squares solutions x[g] of A[g] x = b[g] for a stack A of
    equal-shaped matrices.

    One stacked QR gives x = R^{-1} Q^T b when every A[g] has full column
    rank; otherwise each problem goes to ``np.linalg.lstsq``, whose
    minimum-norm solution the rank-deficient ones need.
    """
    m, width = A.shape[1:]
    if m >= width:
        Q, R = np.linalg.qr(A)
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        if np.all(diag > diag.max(axis=1, keepdims=True) * m
                  * np.finfo(float).eps):
            rhs = np.einsum("gmk,gm->gk", Q, b)
            return np.linalg.solve(R, rhs[..., None])[..., 0]
    return np.array([np.linalg.lstsq(a, bb, rcond=None)[0]
                     for a, bb in zip(A, b)])


def spectrum_bounds(A1):
    """Extreme real parts and largest |imaginary part| of eig(A1).

    Uses the dense eigensolver at desk scale; above _DENSE_EIG_LIMIT falls
    back to ARPACK extreme-eigenvalue estimates inflated by _INFLATION in
    modulus to keep the spectral ellipse enclosing.
    """
    n = A1.shape[0]
    if n <= _DENSE_EIG_LIMIT:
        lam = np.linalg.eigvals(np.asarray(sp.csr_matrix(A1).todense()))
        return SpectrumBounds(float(lam.real.min()), float(lam.real.max()),
                              float(np.abs(lam.imag).max()))
    A1 = sp.csr_matrix(A1)
    try:
        lam_lr = spla.eigs(A1, k=4, which="LR", return_eigenvectors=False)
        lam_sr = spla.eigs(A1, k=4, which="SR", return_eigenvectors=False)
        lam_li = spla.eigs(A1, k=4, which="LI", return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(f"extreme eigenvalue estimation failed: {exc}") from exc
    rs = float(min(lam_sr.real.min(), lam_lr.real.min())) * (1 + _INFLATION)
    rl = float(lam_lr.real.max())
    rl = rl * (1 - _INFLATION) if rl < 0 else rl * (1 + _INFLATION)
    il = float(np.abs(lam_li.imag).max()) * (1 + _INFLATION)
    return SpectrumBounds(rs, rl, il)


def quadrature_nodes(q, bounds):
    """Sinh-quadrature nodes and weights for the Lyapunov integral.

    psi = 3 / (2 |lambda_RL|); for j = -q..q,
    omega_j = (q + q exp(-2 j / sqrt(q)))^(-1/2) and
    t_j = log(exp(j / sqrt(q)) + sqrt(1 + exp(2 j / sqrt(q)))); the scaled
    abscissae are t~_j = psi t_j.
    """
    if q < 1:
        raise ValueError("quadrature half-width q must be >= 1")
    if not bounds.lambda_RL < 0:
        raise UnstableMatrixError(
            f"largest eigenvalue real part {bounds.lambda_RL} is not negative")
    psi = 3.0 / (2.0 * abs(bounds.lambda_RL))
    js = np.arange(-q, q + 1)
    e = np.exp(js / np.sqrt(q))
    omega = 1.0 / np.sqrt(q + q * np.exp(-2.0 * js / np.sqrt(q)))
    t = np.log(e + np.sqrt(1.0 + e * e))
    return psi, list(zip(psi * t, omega))


def faber_coefficients(c2, c3, c4, W=_FABER_W, p=30):
    """First p+1 Faber coefficients of exp on the elliptic spectral region.

    Samples g_k = exp(s_k) on the Bernstein ellipse boundary
    s_k = (c2 + c3/(4 c2)) cos(2 pi k / W) + c4
          + i (c2 - c3/(4 c2)) sin(2 pi k / W)
    and returns the real parts of the leading inverse-DFT coefficients.
    """
    if not c2 > 0:
        raise ValueError("c2 must be positive")
    theta = 2.0 * np.pi * np.arange(W) / W
    s = (c2 + c3 / (4.0 * c2)) * np.cos(theta) + c4 \
        + 1j * (c2 - c3 / (4.0 * c2)) * np.sin(theta)
    g = np.exp(s)
    a = np.fft.fft(g) / W
    return a.real[:p + 1].copy()


def _faber_constants(bounds):
    """Ellipse constants (c1..c4) for the scaled spectrum bounds."""
    c1 = 0.5 * (bounds.lambda_RL - bounds.lambda_RS)
    c4 = 0.5 * (bounds.lambda_RL + bounds.lambda_RS)
    il = bounds.lambda_IL
    if il == 0.0:
        # removable singularity of the general formulas at lambda_IL = 0
        return c1, 0.5 * c1, c1 * c1, c4
    c2 = 0.5 * (c1 ** (2.0 / 3.0) * np.sqrt(c1 ** (2.0 / 3.0) + il ** (2.0 / 3.0))
                + np.sqrt((c1 * il * il) ** (2.0 / 3.0) + il * il))
    c3 = (c1 ** (2.0 / 3.0) + il ** (2.0 / 3.0)) \
        * (c1 ** (4.0 / 3.0) - il ** (4.0 / 3.0))
    return c1, c2, c3, c4


def _collapses(sb):
    """The scaled spectrum is the single point c4 (to 1e-14)."""
    return 0.5 * (sb.lambda_RL - sb.lambda_RS) <= 1e-14 \
        and sb.lambda_IL <= 1e-14


def faber_basis(A1, bounds, cfg=GpConfig()):
    """Weighted, projected Chebyshev matrices of A1 on one fixed support.

    Runs the three-term recurrence in the shifted variable
    A2 = (A1 - c4 I)/sqrt(c3), projected after each step onto the pattern
    P of I + A2 + ... + A2^min(k2, p); as T_l lies in the pattern of order
    l, projecting onto order p is projecting onto order k2 for k2 > p.
    Returns (S, V): the support S = supp(A2) | P, which holds every T_l,
    and the (p+1) x nnz(S) array whose row l holds the values of T_l on S,
    weighted by 2 scale^l for l >= 1, so that a Faber sum is a @ V on S.
    Row l is written as soon as T_l is made, so only two terms are alive
    at a time. The ellipse constants c1, c2 and c4 scale as t and c3 as
    t^2, so A2 and scale = sqrt(c3)/(2 c2), hence S and V, are the same
    for t A1 with the bounds scaled by t.
    """
    n = A1.shape[0]
    _c1, c2, c3, c4 = _faber_constants(bounds)
    if c3 <= 0:
        raise ValueError(
            f"invalid spectral ellipse (c3 = {c3:.3e}); bounds {bounds}")
    A2 = canonicalize((sp.csr_matrix(A1) - c4 * identity(n)) / np.sqrt(c3))
    P = pattern_power_sum(A2, min(cfg.k2, cfg.p))
    S = binarize(binarize(A2) + P)      # a sum of 0/1 patterns cannot cancel
    rows, cols = S.nonzero()
    scale = np.sqrt(c3) / (2.0 * c2)

    V = np.empty((cfg.p + 1, S.nnz))
    T_prev, T_cur = identity(n), A2
    V[0] = T_prev[rows, cols]
    pw = scale
    for l in range(1, cfg.p + 1):
        if l >= 2:
            T_prev, T_cur = T_cur, project(2.0 * (A2 @ T_cur) - T_prev, P)
            pw *= scale
        V[l] = 2.0 * pw * T_cur[rows, cols]
    return S, V


def faber_expm(A1, t_scaled, bounds, cfg=GpConfig(), basis=None):
    """Sparse banded approximation of exp(t_scaled * A1).

    Sums the Faber coefficients of the scaled spectrum bounds over the
    projected Chebyshev basis of A1 (``faber_basis(A1, bounds, cfg)``,
    built here unless the caller passes it as ``basis``).
    """
    n = A1.shape[0]
    sb = bounds.scaled(t_scaled)
    _c1, c2, c3, c4 = _faber_constants(sb)
    if _collapses(sb):
        return canonicalize(np.exp(c4) * identity(n))
    S, V = basis if basis is not None else faber_basis(A1, bounds, cfg)
    K = S.copy()
    K.data = faber_coefficients(c2, c3, c4, p=cfg.p) @ V
    return canonicalize(K)


def transformed_problem(Abar, E, P, k1):
    """SPAI-based reduction of the GL equation to non-generalized form.

    Returns (A1, P1) with A1 = Einv^T Abar^T and
    P1 = Einv^T P Einv, where Einv approximates E^{-1} on the pattern
    I + E + ... + E^{k1}.
    """
    pat = inverse_pattern(E, k1)
    Einv, _residual = spai(E, pat)
    A1 = canonicalize(Einv.T @ sp.csr_matrix(Abar).T)
    P1 = canonicalize(Einv.T @ sp.csr_matrix(P) @ Einv)
    return A1, P1


def initial_guess(Abar, E, P, cfg=GpConfig()):
    """Quadrature-of-exponentials initial guess for the gradient iteration.

    X3 = -sum_j psi omega_j K~_j P1 K~_j^T over the sinh-quadrature nodes,
    with each K~_j a sparsified Faber approximation of exp(t~_j A1). All
    nodes share one Faber basis of A1; only the coefficients vary. X3 is
    accumulated in one dense n x n array, each term as two products, by
    BLAS GEMM where K~_j is ``filled``, and returned symmetrized as
    canonical CSR, with {"fill": its share of the n^2 entries}.
    """
    A1, P1 = transformed_problem(Abar, E, P, cfg.k1)
    bounds = spectrum_bounds(A1)
    psi, nodes = quadrature_nodes(cfg.q, bounds)
    n = A1.shape[0]
    P1t = P1.T.toarray()
    X3 = np.zeros((n, n))
    # t_j grows with j, so some node needs the basis iff the last one does
    basis = (None if _collapses(bounds.scaled(nodes[-1][0]))
             else faber_basis(A1, bounds, cfg))
    for t_j, omega_j in nodes:
        K = faber_expm(A1, t_j, bounds, cfg, basis=basis)
        if filled(K):
            K = K.toarray()
        term = K @ (K @ P1t).T          # K (K P1^T)^T = K P1 K^T
        term *= psi * omega_j
        X3 -= term
    X3 = canonicalize(0.5 * (X3 + X3.T))
    return X3, {"fill": X3.nnz / float(n * n)}


def default_delta_bar(Abar, E):
    """Method 2's step 1 / (8 ||E||_F^2 ||Abar||_F^2)."""
    return 1.0 / (8.0 * frobenius(canonicalize(E)) ** 2
                  * frobenius(canonicalize(Abar)) ** 2)


def solve_lyap_gp(op, x0, cfg=GpConfig(), r0=None):
    """Gradient projection iteration on the pattern-constrained objective.

    Z^{i+1} = project(Z^i - delta N^i) with N = -2 E R Abar^T - 2 Abar R E^T,
    R = P - E^T Z Abar - Abar^T Z E and delta = default_delta_bar(op.Abar,
    op.E), on the GL operator ``op`` from the coordinates x0, R from r0 if
    given. As ||M||_2 <= 2 ||E||_F ||Abar||_F, delta ||M||_2^2 <= 1/2: no
    Armijo search would shorten a step. Z and R stay in the operator's
    working layout from start to end, on the pattern and O. It has
    converged only when J stagnates, not at ``cfg.max_iter`` or on a
    stall, a step that does not lower J. Returns the coordinates and a
    SolveReport. On the dense forms the loop also holds about six n x n
    arrays, Z, R, their trial copies, p and the step, that no report counts.
    """
    r = op.rhs - op @ x0 if r0 is None else r0
    # 2 delta on the pattern and 0 off it, where a dense layout's adjoint
    # has entries too: the step and the projection in one product
    step = (2.0 * default_delta_bar(op.Abar, op.E)
            * (op.lift(np.ones(op.inputs.size), op.inputs) != 0))
    p = op.lift(op.rhs, op.outputs)
    Z, R = op.lift(x0, op.inputs), op.lift(r, op.outputs)
    J = float(R.ravel() @ R.ravel())
    J_history = [J]
    stalled = stagnated = False
    for _ in range(cfg.max_iter):
        Z_try = op.adjoint(R)
        Z_try *= step
        Z_try += Z
        R_try = op.apply(Z_try)
        np.subtract(p, R_try, out=R_try)
        J_try = float(R_try.ravel() @ R_try.ravel())
        if not J_try <= J:
            stalled = True
            break
        Z, R, J = Z_try, R_try, J_try
        J_history.append(J)
        if len(J_history) > _STAGNATION_WINDOW:
            ref = J_history[-_STAGNATION_WINDOW - 1]
            if ref <= 0.0 or (ref - J) / ref < _STAGNATION_RTOL:
                stagnated = True
                break
    report = SolveReport(
        method="gp", n=op.n, nnz_pattern=op.inputs.nnz,
        stored_entries=op.stored_entries, iterations=len(J_history) - 1,
        final_residual=float(np.sqrt(J)), converged=stagnated,
        extra={"J_history": J_history, "stalled": stalled,
               "operator_form": op.form},
    )
    return op.lower(Z, op.inputs), report
