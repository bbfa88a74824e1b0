"""Matrix Market I/O for sparse matrices and sparsity patterns.

Writes 1-based coordinate files with deterministic entry ordering
(row-major) and 17 significant digits, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .sparsecore import binarize, canonicalize

_REAL_HEADER = "%%MatrixMarket matrix coordinate real general"
_PATTERN_HEADER = "%%MatrixMarket matrix coordinate pattern general"
_CHUNK = 8192


def write_matrix(path, A):
    A = canonicalize(A).tocoo()
    _write(path, _REAL_HEADER, A, "%d %d %.17g\n",
           (A.row + 1, A.col + 1, A.data))


def write_pattern(path, X):
    X = binarize(X).tocoo()
    _write(path, _PATTERN_HEADER, X, "%d %d\n", (X.row + 1, X.col + 1))


def _write(path, header, A, fmt, columns):
    """Header, size line and one ``fmt`` line per entry, in chunks that
    bound the Python objects alive at once."""
    with open(path, "w") as f:
        f.write(f"{header}\n{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for k in range(0, A.nnz, _CHUNK):
            f.writelines(fmt % entry for entry in
                         zip(*(c[k:k + _CHUNK].tolist() for c in columns)))


def read_matrix(path):
    shape, ij, entries = _read(path, 3, pattern=False)
    return canonicalize(sp.coo_matrix((entries[:, 2], ij), shape=shape))


def read_pattern(path):
    shape, ij, _entries = _read(path, 2, pattern=True)
    return binarize(sp.coo_matrix((np.ones(ij.shape[1]), ij), shape=shape))


def _read(path, fields, pattern):
    """Shape, 0-based (row, col) indices and the (nnz, fields) entries of
    a coordinate file."""
    with open(path) as f:
        header = f.readline().strip()
        if "pattern" in header and not pattern:
            raise ValueError(f"{path}: pattern file, use read_pattern")
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        nrows, ncols, nnz = (int(t) for t in line.split())
        entries = np.loadtxt(f, ndmin=2, max_rows=nnz) if nnz \
            else np.empty((0, fields))
    if entries.shape[0] != nnz or entries.shape[1] < fields:
        raise ValueError(f"{path}: expected {nnz} entries of {fields} "
                         f"fields, read {entries.shape}")
    return (nrows, ncols), entries[:, :2].T.astype(np.int64) - 1, entries
