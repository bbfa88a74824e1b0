"""CSR sparse kernels, pattern algebra, projection, and RCM ordering.

All matrices are scipy.sparse CSR with float64 values. Sparsity patterns are
CSR matrices whose stored values are all 1.0; ``binarize`` produces that
canonical form. Kernels drop exact stored zeros only -- deliberate
sparsification happens solely through ``project``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""

    def __init__(self, op, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {shape_a} and {shape_b}")
        self.shapes = (shape_a, shape_b)


def canonicalize(A):
    """Return A as canonical CSR: sorted indices, duplicates summed, exact zeros dropped."""
    A = sp.csr_matrix(A, dtype=np.float64)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def identity(n):
    return sp.identity(n, dtype=np.float64, format="csr")


def binarize(A):
    """Structural pattern of A: same support, all stored values 1.0."""
    B = canonicalize(A).copy()
    B.data = np.ones_like(B.data)
    return B


def project(Q, X):
    """Keep entries of Q where the pattern X has a structural nonzero.

    Realizes the pattern masking operator; the result's pattern is
    contained in X and the operator is idempotent.
    """
    if Q.shape != X.shape:
        raise ShapeMismatchError("project", Q.shape, X.shape)
    return canonicalize(sp.csr_matrix(Q).multiply(binarize(X)))


def pattern_power_sum(A, k):
    """Structural pattern of I + A + A^2 + ... + A^k (boolean arithmetic).

    Each intermediate power is re-binarized so no numeric cancellation or
    overflow can delete structurally present entries.
    """
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatchError("pattern_power_sum", A.shape, A.shape)
    if k < 0:
        raise ValueError("pattern_power_sum: k must be >= 0")
    n = A.shape[0]
    base = binarize(A)
    acc = identity(n)
    cur = identity(n)
    for _ in range(k):
        cur = binarize(cur @ base)
        acc = binarize(acc + cur)
    return acc


def frobenius(A):
    """Frobenius norm of a sparse matrix."""
    A = sp.csr_matrix(A)
    if A.nnz == 0:
        return 0.0
    return float(np.sqrt(np.sum(A.data * A.data)))


def bandwidth(A):
    """max |i - j| over structural nonzeros (0 for an empty matrix)."""
    A = sp.coo_matrix(A)
    if A.nnz == 0:
        return 0
    return int(np.max(np.abs(A.row - A.col)))


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}.

    ``forward[old] = new`` and ``inverse[new] = old``. Applying the
    permutation two-sidedly to a matrix is ``A[inverse][:, inverse]``.
    """

    forward: np.ndarray
    inverse: np.ndarray

    @staticmethod
    def from_order(order):
        """Build from ``order[new] = old`` (the sequence of old labels)."""
        order = np.asarray(order, dtype=np.int64)
        forward = np.empty_like(order)
        forward[order] = np.arange(order.size)
        return Permutation(forward=forward, inverse=order)

    @staticmethod
    def identity(n):
        idx = np.arange(n, dtype=np.int64)
        return Permutation(forward=idx.copy(), inverse=idx.copy())

    @property
    def n(self):
        return self.forward.size

    def apply_symmetric(self, A):
        """P A P^T: relabel rows and columns simultaneously."""
        A = sp.csr_matrix(A)
        return canonicalize(A[self.inverse][:, self.inverse])

    def apply_rows(self, A):
        return canonicalize(sp.csr_matrix(A)[self.inverse, :])

    def apply_cols(self, A):
        return canonicalize(sp.csr_matrix(A)[:, self.inverse])


def rcm_order(A):
    """Reverse Cuthill-McKee ordering of a square pattern.

    The pattern is symmetrized (A union A^T) and ordered by scipy's
    ``reverse_cuthill_mckee``, which handles each connected component.
    """
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatchError("rcm_order", A.shape, A.shape)
    if A.shape[0] == 0:                 # scipy rejects a 0 x 0 graph
        return Permutation.identity(0)
    g = binarize(binarize(A) + binarize(A).T)
    order = reverse_cuthill_mckee(g, symmetric_mode=True)
    return Permutation.from_order(order)
