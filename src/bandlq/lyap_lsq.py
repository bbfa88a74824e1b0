"""Method 1: pattern-reduced least-squares solution of the GL equation.

The vectorized equation M z = p with M = Abar^T (x) E^T + E^T (x) Abar^T
is never formed: CGLS runs on ``GlOperator``, which maps coordinates of the
symmetric matrices inside the a priori pattern to coordinates of the
symmetric matrices on the operator's structural output support, the
support of E^T Zpat Abar plus its transpose and of P, and back.
``assemble_reduced`` builds the reduced matrix over all pattern entries
column by column, as the reference for the tests.
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
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


class SymCoords:
    """Orthonormal coordinates of the symmetric n x n matrices on a support.

    There is one coordinate per support entry (i, j) with i <= j, in the
    row-major order of ``map``. Coordinate k has the unit-norm basis matrix
    w (e_i e_j^T + e_j e_i^T), with w = 1/sqrt(2) off the diagonal and 1/2
    on it, so the coordinates of X are w (X[i, j] + X[j, i]) and their norm
    is ||X||_F for symmetric X on the support. ``nnz`` is the number of
    support entries, both triangles: the storage of any matrix on it.
    """

    def __init__(self, n, rows, cols):
        self.n = n
        self.map = np.column_stack([rows, cols])
        self.size = rows.size
        off = rows != cols
        self.nnz = self.size + int(np.count_nonzero(off))
        self._weight = np.where(off, np.sqrt(0.5), 0.5)
        # the basis matrix holds w at (i, j) and (j, i), 2 w = 1 at (i, i)
        self._value = np.where(off, np.sqrt(0.5), 1.0)
        # flat indices of (i, j) and (j, i) in a C-ordered n x n array
        self._upper = rows.astype(np.int64) * n + cols
        self._lower = cols.astype(np.int64) * n + rows

    def fold(self, X):
        """Coordinates of the symmetric part of the sparse n x n X."""
        if X.shape != (self.n, self.n):
            raise ShapeMismatchError("fold", (self.n, self.n), X.shape)
        X = canonicalize(X)
        rows, cols = self.map.T
        return np.asarray((X + X.T)[rows, cols]).ravel() * self._weight

    def gather(self, H):
        """Coordinates of the dense n x n H."""
        h = H.ravel()
        return (h[self._upper] + h[self._lower]) * self._weight

    def put(self, out, z):
        """Write the matrix with coordinates z into the dense n x n out,
        which must be zero off the support."""
        v = np.ravel(z) * self._value
        flat = out.ravel()
        flat[self._upper] = v
        flat[self._lower] = v

    def to_csr(self, z):
        """The matrix with coordinates z, as canonical CSR."""
        rows, cols = self.map.T
        U = sp.coo_matrix((np.ravel(z) * self._weight, (rows, cols)),
                          shape=(self.n, self.n))
        return canonicalize(U + U.T)


class GlOperator(spla.LinearOperator):
    """The GL operator Z -> E^T Z Abar + Abar^T Z E on symmetric Z in the pattern.

    Both sides are ``SymCoords``, so coordinate norms are Frobenius norms.
    The unknowns ``inputs`` are the symmetric matrices on the pattern, which
    must be symmetric. The outputs ``outputs`` are the symmetric matrices on
    the structural support of E^T Zpat Abar plus its transpose, together
    with supp(P): every matrix the operator produces and the right-hand
    side ``rhs``, the coordinates of P's symmetric part. Each apply and
    adjoint runs two sparse-times-dense products on dense n x n buffers that
    the operator keeps. ``nnz`` is the structural nnz of the matrix M1 that
    ``assemble_reduced`` builds and ``nnz_pattern`` the number of pattern
    entries, ``inputs.nnz``.
    """

    def __init__(self, Abar, E, Zpat, P):
        n = Abar.shape[0]
        for M in (E, Zpat, P):
            if M.shape != (n, n):
                raise ShapeMismatchError("GlOperator", (n, n), M.shape)
        self.n = n
        self._E = canonicalize(E)
        self._Abar = canonicalize(Abar)
        Zp = binarize(Zpat)
        if Zp.nnz == 0:
            raise ValueError("GlOperator: empty a priori pattern")
        if (Zp != Zp.T).nnz:
            raise ValueError("GlOperator: the a priori pattern is not "
                             "symmetric")
        # column (i, j) of M1 is kron(Abar[j,:], E[i,:]) + kron(E[j,:],
        # Abar[i,:]): with row nnz e of E and a of Abar and c their overlap,
        # it has e_i a_j + a_i e_j - c_i c_j entries
        i, j = Zp.nonzero()
        e = np.diff(self._E.indptr).astype(np.int64)
        a = np.diff(self._Abar.indptr).astype(np.int64)
        c = np.diff(binarize(self._E).multiply(binarize(self._Abar)).indptr)
        self.nnz = int(np.sum(e[i] * a[j] + a[i] * e[j] - c[i] * c[j]))
        upper = i <= j
        self.inputs = SymCoords(n, i[upper], j[upper])
        self.nnz_pattern = self.inputs.nnz
        # every product below is CSR @ C-contiguous dense
        self._ET = self._E.T.tocsr()
        self._AbarT = self._Abar.T.tocsr()
        self._Z = np.zeros((n, n))
        self._R = np.zeros((n, n))
        self._T = np.empty((n, n))
        # the output support: one apply with the structural patterns, whose
        # products of positive entries cannot cancel
        self.inputs.put(self._Z, np.ones(self.inputs.size))
        mask = self._product(binarize(self._ET), binarize(self._AbarT)) > 0
        Pc = canonicalize(P).tocoo()
        mask[Pc.row, Pc.col] = True
        mask |= mask.T
        r, s = np.nonzero(mask)
        upper = r <= s
        self.outputs = SymCoords(n, r[upper], s[upper])
        self.rhs = self.outputs.fold(P)
        super().__init__(np.float64, (self.outputs.size, self.inputs.size))

    def _product(self, ET, AbarT):
        """E^T Z Abar for the Z buffer, through Abar^T Z = (Z Abar)^T."""
        # Abar^T Z is dropped before the second product allocates, so the
        # allocator can reuse its memory instead of faulting in fresh pages
        np.copyto(self._T, (AbarT @ self._Z).T)
        return ET @ self._T

    def _matvec(self, z):
        # L = S + S^T has the coordinates 2 w (S[i, j] + S[j, i])
        self.inputs.put(self._Z, z)
        return 2.0 * self.outputs.gather(self._product(self._ET, self._AbarT))

    def _rmatvec(self, r):
        # the adjoint of the coordinates of L is the symmetric R with
        # coordinates r; H = E (R + R^T) Abar^T enters the coordinates only
        # through H + H^T, so its transpose Abar (2 R) E^T serves as well
        self.outputs.put(self._R, r)
        np.copyto(self._T, (self._E @ self._R).T)
        return 2.0 * self.inputs.gather(self._Abar @ self._T)


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


def scatter_solution(op, z):
    """The symmetric n x n matrix with the coordinates z of ``op``."""
    return op.inputs.to_csr(z)


def solve_lyap_lsq(Abar, E, P, Zpat, cfg=CglsConfig(), X0=None):
    """Method 1 end to end: CGLS on the GL operator, then scatter.

    Z is sought among the symmetric matrices supported on Zpat, which must
    be symmetric; the result is exactly symmetric. CGLS starts from zero,
    or from X0 read through its symmetric part on the pattern.
    """
    t0 = time.perf_counter()
    op = GlOperator(Abar, E, Zpat, P)
    p = op.rhs
    x0 = None if X0 is None else op.inputs.fold(X0)
    res = cgls(op, p, tol=cfg.tol, max_iter=cfg.max_iter, x0=x0)
    Z = scatter_solution(op, res.x)
    report = SolveReport(
        method="lsq", n=op.n, nnz_pattern=op.nnz_pattern, nnz_m1=op.nnz,
        iterations=res.iterations, final_residual=res.residual,
        wall_ms=1e3 * (time.perf_counter() - t0), converged=res.converged,
        extra={"residual_2norm": float(np.linalg.norm(p - op @ res.x))},
    )
    return Z, report
