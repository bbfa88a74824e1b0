"""Matrix Market I/O for sparse matrices and sparsity patterns.

A thin layer over ``scipy.io``. Files are 1-based coordinate ``general``
files in row-major order, with values in shortest round-trip form, so
identical inputs give byte-identical files and every value reads back bit
for bit. Reads expand ``symmetric`` and ``skew-symmetric`` files to the
full matrix, and every read error names the file.
"""

from __future__ import annotations

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .sparsecore import binarize, canonicalize


def write_matrix(path, A):
    _write(path, canonicalize(A), field=None)


def write_pattern(path, X):
    _write(path, binarize(X), field="pattern")


def _write(path, A, field):
    # a file object, because scipy appends ".mtx" to a path without suffix
    with open(path, "wb") as f:
        sio.mmwrite(f, A, field=field, symmetry="general")


def read_matrix(path):
    if _read(sio.mminfo, path)[4] == "pattern":
        raise ValueError(f"{path}: pattern file, use read_pattern")
    return canonicalize(_read(sio.mmread, path))


def read_pattern(path):
    # every stored entry is in the pattern, explicit zeros included
    X = sp.coo_matrix(_read(sio.mmread, path))
    X.data = np.ones(X.nnz)
    return binarize(X)


def _read(fn, path):
    """``fn(path)`` with the path named in a parse error. ``fn`` gets the
    path, not a file object: ``mminfo`` on a binary file object aborts the
    interpreter."""
    try:
        return fn(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
