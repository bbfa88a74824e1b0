"""Method 1: pattern-reduced least-squares solution of the GL equation.

The vectorized equation M z = p with M = Abar^T (x) E^T + E^T (x) Abar^T
is never formed: CGLS runs on ``GlOperator``, which applies M and M^T to
the unknowns inside the a priori pattern. ``assemble_reduced`` builds the
same reduced matrix column by column, as the reference for the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cgls import cgls
from .report import SolveReport
from .sparsecore import ShapeMismatchError, binarize, canonicalize

# vec(X) is column-major throughout: entry (r, s) lives at index s*n + r.


@dataclass(frozen=True)
class CglsConfig:
    tol: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("CGLS tolerance must be positive")


class GlOperator(spla.LinearOperator):
    """The GL operator Z -> E^T Z Abar + Abar^T Z E on the pattern unknowns.

    It maps the values of Z on the pattern (ordered as ``column_map``) to
    all n^2 entries of vec(E^T Z Abar + Abar^T Z E); its adjoint maps R to
    E R Abar^T + Abar R E^T restricted to the pattern. ``nnz`` is the
    structural nnz of the matrix M1 that ``assemble_reduced`` builds.
    """

    def __init__(self, Abar, E, Zpat):
        n = Abar.shape[0]
        for M in (E, Zpat):
            if M.shape != (n, n):
                raise ShapeMismatchError("GlOperator", (n, n), M.shape)
        self.n = n
        self._E = canonicalize(E)
        self._Abar = canonicalize(Abar)
        i, j = binarize(Zpat).nonzero()
        if i.size == 0:
            raise ValueError("GlOperator: empty a priori pattern")
        self._rows, self._cols = i, j
        self.column_map = np.column_stack([i, j])
        # column (i, j) of M1 is kron(Abar[j,:], E[i,:]) + kron(E[j,:],
        # Abar[i,:]): with row nnz e of E and a of Abar and c their overlap,
        # it has e_i a_j + a_i e_j - c_i c_j entries
        e = np.diff(self._E.indptr).astype(np.int64)
        a = np.diff(self._Abar.indptr).astype(np.int64)
        c = np.diff(binarize(self._E).multiply(binarize(self._Abar)).indptr)
        self.nnz = int(np.sum(e[i] * a[j] + a[i] * e[j] - c[i] * c[j]))
        super().__init__(np.float64, (n * n, i.size))

    def vec(self, X):
        """vec(X), column-major, of an n x n matrix: the output space."""
        if X.shape != (self.n, self.n):
            raise ShapeMismatchError("vec", (self.n, self.n), X.shape)
        return sp.csr_matrix(X).toarray().ravel(order="F")

    def restrict(self, X):
        """Values of an n x n matrix on the pattern: the input space."""
        return self.vec(X)[self._cols * self.n + self._rows]

    def _matvec(self, z):
        Z = np.zeros((self.n, self.n))
        Z[self._rows, self._cols] = np.ravel(z)
        L = self._E.T @ (Z @ self._Abar) + self._Abar.T @ (Z @ self._E)
        return L.ravel(order="F")

    def _rmatvec(self, r):
        R = np.reshape(r, (self.n, self.n), order="F")
        G = self._E @ (R @ self._Abar.T) + self._Abar @ (R @ self._E.T)
        return G[self._rows, self._cols]


@dataclass(frozen=True)
class ReducedSystem:
    M1: sp.csr_matrix
    p1: np.ndarray
    column_map: np.ndarray      # (n1, 2) unknown -> (row, col) in the pattern
    row_map: np.ndarray         # retained equation -> global index s*n + r


def _colwise_kron(X, Y, n):
    """Per-unknown outer products: for unknown c, entries at s*n + r with
    value X[c, s] * Y[c, r]. X and Y are CSR with one row per unknown.
    Returns (global_rows, cols, values) without a Python-level loop."""
    kx = np.diff(X.indptr)
    ky = np.diff(Y.indptr)
    unknown_of_x = np.repeat(np.arange(kx.size), kx)
    rep = ky[unknown_of_x]                     # Y-row length per X entry
    s_exp = np.repeat(X.indices.astype(np.int64), rep)
    w_exp = np.repeat(X.data, rep)
    cols = np.repeat(unknown_of_x, rep)
    # gather the full Y row for each X entry via concatenated ranges
    starts = Y.indptr[unknown_of_x].astype(np.int64)
    total = int(rep.sum())
    block_start = np.cumsum(rep) - rep
    idx = np.arange(total, dtype=np.int64) \
        - np.repeat(block_start, rep) + np.repeat(starts, rep)
    r_exp = Y.indices[idx].astype(np.int64)
    v_exp = Y.data[idx]
    return s_exp * n + r_exp, cols, w_exp * v_exp


def assemble_reduced(Abar, E, P, Zpat):
    """Reduced system (M1, p1) for the unknowns inside Zpat.

    The unknown z at pattern position (i, j) contributes the coefficient
    E[i, r] * Abar[j, s] + Abar[i, r] * E[j, s] to the equation at (r, s);
    memory stays proportional to nnz(M1).
    """
    n = Abar.shape[0]
    for M in (E, P, Zpat):
        if M.shape != (n, n):
            raise ShapeMismatchError("assemble_reduced", (n, n), M.shape)
    Zp = binarize(Zpat)
    if Zp.nnz == 0:
        raise ValueError("assemble_reduced: empty a priori pattern")
    Ec = canonicalize(E)
    Ac = canonicalize(Abar)

    ui = np.repeat(np.arange(n), np.diff(Zp.indptr))
    uj = Zp.indices.astype(np.int64)
    n1 = ui.size

    # column c of the reduced matrix is the column-wise Kronecker product
    # kron(Abar[j,:], E[i,:]) + kron(E[j,:], Abar[i,:]) for (i, j) = unknown c
    g1, c1, v1 = _colwise_kron(Ac[uj, :], Ec[ui, :], n)
    g2, c2, v2 = _colwise_kron(Ec[uj, :], Ac[ui, :], n)
    grows = np.concatenate([g1, g2])
    gcols = np.concatenate([c1, c2])
    gvals = np.concatenate([v1, v2])

    Pc = canonicalize(P).tocoo()
    p_glob = Pc.col.astype(np.int64) * n + Pc.row.astype(np.int64)
    # retain every equation with a structural coefficient, plus equations
    # whose right-hand side is nonzero (they contribute to the residual)
    row_map = np.unique(np.concatenate([grows, p_glob]))
    mapped = np.searchsorted(row_map, grows)
    M1 = sp.coo_matrix((gvals, (mapped, gcols)),
                       shape=(row_map.size, n1)).tocsr()
    M1.sort_indices()
    p1 = np.zeros(row_map.size)
    p1[np.searchsorted(row_map, p_glob)] = Pc.data
    return ReducedSystem(M1=M1, p1=p1,
                         column_map=np.column_stack([ui, uj]),
                         row_map=row_map)


def scatter_solution(sys, z1, symmetrize=True):
    """Scatter the unknowns of ``sys.column_map`` into an n x n matrix."""
    Z = sp.coo_matrix((z1, (sys.column_map[:, 0], sys.column_map[:, 1])),
                      shape=(sys.n, sys.n)).tocsr()
    if symmetrize:
        Z = 0.5 * (Z + Z.T)
    return canonicalize(Z)


def solve_lyap_lsq(Abar, E, P, Zpat, cfg=CglsConfig(), w=-1):
    """Method 1 end to end: CGLS on the GL operator, scatter, symmetrize."""
    t0 = time.perf_counter()
    op = GlOperator(Abar, E, Zpat)
    p = op.vec(P)
    res = cgls(op, p, tol=cfg.tol, max_iter=cfg.max_iter)
    Z = scatter_solution(op, res.x)
    report = SolveReport(
        method="lsq", n=op.n, w=w,
        nnz_pattern=op.shape[1], nnz_m1=op.nnz,
        iterations=res.iterations, final_residual=res.residual,
        wall_ms=1e3 * (time.perf_counter() - t0), converged=res.converged,
        extra={"lsq_residual_2norm": float(np.linalg.norm(p - op @ res.x))},
    )
    return Z, report
