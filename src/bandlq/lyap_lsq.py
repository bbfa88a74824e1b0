"""Method 1: pattern-reduced least-squares solution of the GL equation.

The vectorized equation M z = p with M = Abar^T (x) E^T + E^T (x) Abar^T
is never formed: CGLS runs on ``GlOperator``, the GL operator on
coordinates of symmetric matrices that both methods share, and a solve
reports the operator's storage. ``assemble_reduced`` builds the reduced
matrix M1 over all pattern entries column by column, as the reference for
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cgls import cgls
from .report import SolveReport
from .sparsecore import (binarize, canonicalize, check_square, concat_ranges,
                         filled)


@dataclass(frozen=True)
class CglsConfig:
    tol: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("CGLS tolerance must be positive")
        if not isinstance(self.max_iter, int) or self.max_iter < 0:
            raise ValueError("max_iter must be an integer >= 0")


# GlOperator runs on its two sparse factors when nnz(K1) <= _FACTOR_FILL n^2
_FACTOR_FILL = 4.0
# The factors are built a block of rows at a time, with about this many
# entries per block and at most this many entries in a block's lookup
# table (rows x n), which bounds the build's scratch memory.
_BLOCK_ENTRIES = 1 << 15
_TABLE_ENTRIES = 1 << 18


def _rows(S):
    """The row index of every stored entry of the CSR S."""
    return np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))


class SymCoords:
    """Orthonormal coordinates of the symmetric n x n matrices on a support.

    The support is the binary, canonical, symmetric CSR ``S``. There is one
    coordinate per support entry (i, j) with i <= j, in the row-major order
    of ``map``. Coordinate k has the unit-norm basis matrix
    w (e_i e_j^T + e_j e_i^T), with w = 1/sqrt(2) off the diagonal and 1/2
    on it, so the coordinates of X are w (X[i, j] + X[j, i]) and their norm
    is ||X||_F for symmetric X on the support. ``nnz`` is the number of
    support entries, both triangles: the storage of any matrix on it.
    """

    def __init__(self, S):
        n = S.shape[0]
        rows = _rows(S)
        upper = rows <= S.indices
        rows, cols = rows[upper], S.indices[upper]
        self.n = n
        self.map = np.column_stack([rows, cols]).astype(S.indices.dtype)
        self.size = rows.size
        self.nnz = S.nnz
        off = rows != cols
        self._weight = np.where(off, np.sqrt(0.5), 0.5)
        # the basis matrix holds w at (i, j) and (j, i), 2 w = 1 at (i, i)
        self._value = np.where(off, np.sqrt(0.5), 1.0)
        # flat indices of (i, j) and (j, i) in a C-ordered n x n array
        self._upper = rows.astype(np.int64) * n + cols
        self._lower = cols.astype(np.int64) * n + rows

    def fold(self, X):
        """Coordinates of the symmetric part of the sparse n x n X."""
        check_square("fold", self.n, X)
        X = canonicalize(X)
        rows, cols = self.map.T
        return np.asarray((X + X.T)[rows, cols]).ravel() * self._weight

    def gather(self, H):
        """Coordinates of the dense n x n H."""
        h = H.ravel()
        return (h[self._upper] + h[self._lower]) * self._weight

    def put(self, out, z):
        """Write the matrix with coordinates z into the dense n x n out,
        which must be zero off the support, and return out."""
        v = np.ravel(z) * self._value
        flat = out.ravel()
        flat[self._upper] = v
        flat[self._lower] = v
        return out

    def to_csr(self, z):
        """The matrix with coordinates z, as canonical CSR."""
        rows, cols = self.map.T
        U = sp.coo_matrix((np.ravel(z) * self._weight, (rows, cols)),
                          shape=(self.n, self.n))
        return canonicalize(U + U.T)


def _same_support(A, B):
    """Whether the canonical CSR A and B store the same entries."""
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices))


def _k1_nnz(pattern_counts, abar_counts):
    """nnz(K1) of ``GlOperator``: the sum of nnz(Abar[k, :]) over the
    pattern entries (i, k), from the pattern's column counts (its row
    counts, as it is symmetric) and Abar's row counts, counted in int64."""
    return int(np.asarray(pattern_counts, dtype=np.int64) @ abar_counts)


def _output_support(E, Y, P):
    """supp(E^T Y) plus supp(P), folded by symmetry, for a nonnegative Y,
    CSR or dense, on supp(Zpat Abar): a structural product of positive
    entries, which cannot cancel."""
    S = binarize(E).T.tocsr() @ Y + binarize(P)
    return binarize(S + S.T)


def _entry_coords(S, dtype):
    """The coordinate of ``SymCoords(S)`` that each stored entry of S is on."""
    upper = _rows(S) <= S.indices
    rank = (np.cumsum(upper) - 1).astype(dtype)
    # S is symmetric with sorted indices, so the CSR of its transpose has
    # S's layout, and its data takes each entry (i, j) to that of (j, i)
    swap = sp.csr_matrix((np.arange(S.nnz), S.indices, S.indptr),
                         shape=S.shape).T.tocsr().data
    return np.where(upper, rank, rank[swap])


def _pointers(counts, n):
    """Pointers for counts[m] entries in slot m, in the factor's index type."""
    big = max(int(counts.sum()), n * n) >= 2**31
    ptr = np.zeros(len(counts) + 1, np.int64 if big else np.int32)
    np.cumsum(counts, dtype=ptr.dtype, out=ptr[1:])
    return ptr


def _fill(G, M, S, weight, ptr):
    """The data and indices of a sparse factor with one slot per entry of G.

    For every entry (a, b) of the CSR G, whose value numbers its slot m,
    the slot ptr[m] .. ptr[m + 1] - 1 receives each k of row b of M with
    (a, k) on the symmetric support S, in M's order: the coordinate of
    {a, k} on S, and weight[coordinate] M[b, k]. G is read a block of rows
    at a time, with about _BLOCK_ENTRIES entries of M each, and a block
    looks its coordinates up in a table of its own rows of S, at most
    _TABLE_ENTRIES entries.
    """
    n = S.shape[0]
    m_row = np.diff(M.indptr)
    # the entries of M that each row of G reads
    per_row = np.diff(np.concatenate(([0], np.cumsum(m_row[G.indices])))
                      [G.indptr])
    step = max(1, min(int(_BLOCK_ENTRIES // max(1, per_row.max())),
                      _TABLE_ENTRIES // n))
    coords = _entry_coords(S, ptr.dtype)
    data, ind = np.empty(int(ptr[-1])), np.empty(int(ptr[-1]), ptr.dtype)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        gs, gt = G.indptr[lo], G.indptr[hi]
        if gs == gt:
            continue
        b = G.indices[gs:gt]
        src = concat_ranges(M.indptr.take(b), m_row.take(b))
        s, t = S.indptr[lo], S.indptr[hi]
        table = np.full((hi - lo) * n, -1, dtype=ptr.dtype)
        table[np.repeat(np.arange(hi - lo) * n, np.diff(S.indptr[lo:hi + 1]))
              + S.indices[s:t]] = coords[s:t]
        coord = table.take(np.repeat(np.arange(hi - lo) * n, per_row[lo:hi])
                           + M.indices.take(src))
        hit = coord >= 0
        coord, src = coord[hit], src[hit]
        start, end = ptr.take(G.data[gs:gt]), ptr.take(G.data[gs:gt] + 1)
        # slots that follow one another in G's order take one slice
        dest = (slice(start[0], end[-1]) if np.all(start[1:] == end[:-1])
                else concat_ranges(start, end - start))
        ind[dest] = coord
        data[dest] = M.data.take(src) * weight.take(coord)
    return data, ind


class GlOperator(spla.LinearOperator):
    """The GL operator Z -> E^T Z Abar + Abar^T Z E on symmetric Z in the pattern.

    ``Abar``, ``E`` and ``P`` hold the equation it was built from, as
    canonical CSR that shares the arrays of canonical CSR arguments.
    Both sides are ``SymCoords``, so coordinate norms are Frobenius norms.
    The unknowns ``inputs`` are the symmetric matrices on the pattern, which
    must be symmetric. The outputs ``outputs`` are the symmetric matrices on
    O, the structural support of E^T Zpat Abar plus its transpose, together
    with supp(P): every matrix the operator produces and the right-hand
    side ``rhs``, the coordinates of P's symmetric part. O is computed once,
    from the structural patterns (``_output_support``).

    The operator has three forms with the same spaces and ``rhs``:

    - ``"factors"``: the product K2 K1 of two sparse matrices whose
      structure is found once. K1 takes the coordinates to the entries of
      Z Abar on Y = supp(Zpat Abar), with nnz(K1) the sum of
      nnz(Abar[k, :]) over the pattern entries (i, k); K2 applies E^T and
      folds onto the output coordinates. One routine, ``_fill``, builds
      both: K1 from the entries of Y with Abar^T and the pattern, K2 from
      those of Y^T with E and O, each entry's slot counted before the
      fill, and a lookup table bounded for every E. An apply is two
      sparse matrix-vector products, the adjoint the same two through
      scipy's transpose views, and no n x n array is allocated.
    - ``"dense"``: each apply and adjoint runs two sparse-times-dense
      products on three dense n x n buffers that the operator keeps.
    - ``"dense-abar"``: the dense form with Abar held as a C-contiguous
      n x n array, when Abar is ``filled``: its product is a BLAS GEMM.

    The factors are built iff nnz(K1) <= _FACTOR_FILL n^2 = 4 n^2, a count
    read off the row counts of Zpat and Abar before either form is built:
    from Newton step 2 on, where Abar = A - B F fills in, they cost more
    than the dense buffers. Otherwise Abar is held dense iff ``filled``:
    nnz(Abar) > n^2 / FILL_DIVISOR = n^2 / 16, the rule that also picks
    LAPACK over SuperLU in ``simulate_closed_loop``. The README's
    performance note has the timings both bounds rest on. ``form`` names
    the form and ``stored_entries`` counts its storage, which both methods
    report: its stored factor entries, or n^2 per dense buffer and for a
    dense Abar. ``refill`` gives an operator in a dense form the equation
    of the next Newton step.

    ``lift``, ``apply``, ``adjoint`` and ``lower`` run it in its working
    layout, where an iterate can stay for a whole solve: the coordinates
    for the factors, else the symmetric n x n arrays, of the same norm.
    """

    def __init__(self, Abar, E, Zpat, P):
        n = self.n = Abar.shape[0]
        check_square("GlOperator", n, Abar, E, Zpat, P)
        Zp = binarize(Zpat)
        if Zp.nnz == 0:
            raise ValueError("GlOperator: empty a priori pattern")
        if (Zp != Zp.T).nnz:
            raise ValueError(
                "GlOperator: the a priori pattern is not symmetric")
        E, Abar, P = canonicalize(E), canonicalize(Abar), canonicalize(P)
        self.E = E
        self.inputs = SymCoords(Zp)
        k1_nnz = _k1_nnz(np.diff(Zp.indptr), np.diff(Abar.indptr))
        form = self.form = ("factors" if k1_nnz <= _FACTOR_FILL * n * n
                            else "dense-abar" if filled(Abar) else "dense")
        # Y = supp(Zpat Abar). For the factors it holds the overlap counts
        # of Zpat |Abar|, the sizes of K1's rows. Where Abar fills in, Y is
        # nearly full, and the dense product finds it faster than the sparse
        # one (3 against 9 ms for O at fe 13^2 step 2); Zpat is symmetric,
        # so (Abar^T Zpat)^T is Zpat Abar
        Y = (canonicalize(Zp @ binarize(Abar)) if form == "factors"
             else (binarize(Abar).T @ Zp.toarray()).T)
        O = _output_support(E, Y, P)
        self.outputs = SymCoords(O)
        if form == "factors":
            k1_ptr = _pointers(Y.data, n)
            k2_ptr = _pointers(np.diff(E.indptr).repeat(np.diff(Y.indptr)), n)
            # entry m of Y is K1's row m and K2's column m
            Y = sp.csr_matrix((np.arange(Y.nnz, dtype=Y.indices.dtype),
                               Y.indices, Y.indptr), shape=(n, n))
            # K2 folds S = E^T Y onto O: the entry (c, i) of Y^T takes row i
            # of E to the coordinates {c, k} on O, where the weight 2 v,
            # sqrt(2) off the diagonal and 2 on it, gives their coordinates
            # 2 w (S[k, c] + S[c, k]). K2 comes first, so that O is gone
            # before K1 is allocated
            self._K2 = sp.csc_matrix(
                (*_fill(Y.T.tocsr(), E, O, 2.0 * self.outputs._value, k2_ptr),
                 k2_ptr), shape=(self.outputs.size, Y.nnz))
            del O
            # K1 reads Z Abar on Y: the entry (i, c) of Y takes column c of
            # Abar to the coordinates {i, k} on the pattern, weighted by
            # their basis value v
            self._K1 = sp.csr_matrix(
                (*_fill(Y, Abar.T.tocsr(), Zp, self.inputs._value, k1_ptr),
                 k1_ptr), shape=(Y.nnz, self.inputs.size))
            self._K1T, self._K2T = self._K1.T, self._K2.T
            self.stored_entries = self._K1.nnz + self._K2.nnz
        else:
            del Y, O
            # every sparse product below is CSR @ C-contiguous dense
            self._ET = E.T.tocsr()
            if form == "dense-abar":
                self._Abar = np.empty((n, n))
            self._Z = np.zeros((n, n))
            self._R = np.zeros((n, n))
            self._T = np.empty((n, n))
            self.stored_entries = (4 if form == "dense-abar" else 3) * n * n
        self._take(Abar, P)
        super().__init__(np.float64, (self.outputs.size, self.inputs.size))

    def _take(self, Abar, P):
        """Hold the canonical Abar and P, and the values the form reads."""
        self.Abar, self.P = Abar, P
        self.rhs = self.outputs.fold(P)
        if self.form == "dense-abar":
            Abar.toarray(out=self._Abar)
        elif self.form == "dense":
            self._AbarT = Abar.T.tocsr()

    def refill(self, Abar, P):
        """Become the operator of (Abar, ``self.E``, P) on this pattern by
        taking the values of Abar and P only.

        That holds for a dense form when supp(Abar) and supp(P) are those of
        ``self.Abar`` and ``self.P``, as from Newton step 2 on; the spaces,
        the form and the buffers stay. Returns whether it refilled;
        if not, nothing changed. Abar and P must be n x n either way.
        """
        check_square("GlOperator.refill", self.n, Abar, P)
        if self.form == "factors":
            return False
        Abar, P = canonicalize(Abar), canonicalize(P)
        if not (_same_support(Abar, self.Abar) and _same_support(P, self.P)):
            return False
        self._take(Abar, P)
        return True

    def lift(self, v, space):
        """The coordinates v on ``space`` in the working layout."""
        if self.form == "factors":
            return v
        return space.put(np.zeros((self.n, self.n)), v)

    def lower(self, X, space):
        """The coordinates on ``space`` of X in the working layout."""
        return X if self.form == "factors" else space.gather(X)

    def apply(self, Z):
        """S + S^T, S = E^T Z Abar, in the working layout."""
        if self.form == "factors":
            return self._K2 @ (self._K1 @ Z)
        S = self._half(Z)
        return S + S.T

    def adjoint(self, R):
        """H + H^T, H = Abar R E^T, in the working layout: the adjoint on
        the pattern's entries, which ``lower`` reads."""
        if self.form == "factors":
            return self._K1T @ (self._K2T @ R)
        H = self._half_adjoint(R)
        return H + H.T

    def _half(self, Z):
        # S = E^T T, T = Z Abar. A dense Abar gives T by GEMM; a CSR one as
        # (Abar^T Z)^T, Z being symmetric, where Abar^T Z is dropped before
        # the second product allocates, so the allocator can reuse its
        # memory instead of faulting in fresh pages
        if self.form == "dense-abar":
            np.matmul(Z, self._Abar, out=self._T)
        else:
            np.copyto(self._T, (self._AbarT @ Z).T)
        return self._ET @ self._T

    def _half_adjoint(self, R):
        # for symmetric R, H^T = E R Abar^T; GEMM reads the transpose of
        # E R in place
        if self.form == "dense-abar":
            return np.matmul(self._Abar, (self.E @ R).T, out=self._T)
        np.copyto(self._T, (self.E @ R).T)
        return self.Abar @ self._T

    # the coordinates of S + S^T are 2 gather(S), bit for bit, and so for
    # H: Method 1 never forms either sum, which cost its 13^2 Newton loop
    # 3-6 % and a dense product at 21^2 up to 2x
    def _matvec(self, z):
        if self.form == "factors":
            return self.apply(z)
        return 2.0 * self.outputs.gather(
            self._half(self.inputs.put(self._Z, z)))

    def _rmatvec(self, r):
        if self.form == "factors":
            return self.adjoint(r)
        return 2.0 * self.inputs.gather(
            self._half_adjoint(self.outputs.put(self._R, r)))


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
    idx = concat_ranges(Y.indptr[unknown_of_x].astype(np.int64), rep)
    r_exp = Y.indices[idx].astype(np.int64)
    v_exp = Y.data[idx]
    return s_exp * n + r_exp, cols, w_exp * v_exp


def assemble_reduced(Abar, E, P, Zpat):
    """Reduced system (M1, p1) for the unknowns inside Zpat.

    The unknown z at pattern position (i, j) contributes the coefficient
    E[i, r] * Abar[j, s] + Abar[i, r] * E[j, s] to the equation at (r, s),
    whose global index is s*n + r: vec(X) is column-major here, unlike the
    row-major flat indices of ``SymCoords``. Memory stays proportional to
    nnz(M1).
    """
    n = Abar.shape[0]
    check_square("assemble_reduced", n, Abar, E, P, Zpat)
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


def solve_lyap_lsq(op, b, cfg=CglsConfig(), forcing=0.0):
    """Method 1: CGLS from zero on the GL operator ``op`` and b, ``op.rhs``
    or a start's residual p - M x, to ``cfg.tol`` relative to ||M^T p|| or
    the Newton step's ``forcing`` term relative to ||M^T b||, whichever is
    larger. Returns the coordinates on ``op.inputs`` of the solution or of
    the start's correction, and a SolveReport with the operator's
    ``stored_entries``, CGLS's own ||b - M z|| as ``final_residual`` and
    the operator's form as ``extra["operator_form"]``.
    """
    ref = None if b is op.rhs else np.linalg.norm(op.rmatvec(op.rhs))
    res = cgls(op, b, tol=cfg.tol, max_iter=cfg.max_iter, forcing=forcing,
               ref=ref)
    report = SolveReport(
        method="lsq", n=op.n, nnz_pattern=op.inputs.nnz,
        stored_entries=op.stored_entries, iterations=res.iterations,
        final_residual=res.residual_norm, converged=res.converged,
        extra={"operator_form": op.form},
    )
    return res.x, report
