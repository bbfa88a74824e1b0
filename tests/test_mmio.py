"""Matrix Market reading/writing round trips and determinism."""

import numpy as np
import pytest
import scipy.sparse as sp

import bandlq.mmio
from bandlq.mmio import read_matrix, read_pattern, write_matrix, write_pattern
from bandlq.sparsecore import binarize, canonicalize
from conftest import random_banded


def test_matrix_round_trip(tmp_path, rng):
    A = canonicalize(sp.csr_matrix(random_banded(9, 2, rng)))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert (A != B).nnz == 0
    np.testing.assert_array_equal(A.toarray(), B.toarray())


def test_pattern_round_trip(tmp_path, rng):
    X = binarize(sp.csr_matrix(rng.random((7, 5)) < 0.4))
    path = tmp_path / "p.mtx"
    write_pattern(path, X)
    Y = read_pattern(path)
    assert (X != Y).nnz == 0


def test_write_is_deterministic(tmp_path, rng):
    A = canonicalize(sp.csr_matrix(random_banded(11, 3, rng)))
    p1, p2 = tmp_path / "a1.mtx", tmp_path / "a2.mtx"
    write_matrix(p1, A)
    write_matrix(p2, A)
    assert p1.read_bytes() == p2.read_bytes()


def test_full_precision_round_trip(tmp_path):
    vals = np.array([[np.pi, 0.0], [1.0 / 3.0, 1e-300]])
    A = canonicalize(sp.csr_matrix(vals))
    path = tmp_path / "pi.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    np.testing.assert_array_equal(A.toarray(), B.toarray())


def test_header_kinds(tmp_path, rng):
    A = canonicalize(sp.csr_matrix(random_banded(4, 1, rng)))
    mp = tmp_path / "m.mtx"
    write_matrix(mp, A)
    assert mp.read_text().splitlines()[0] \
        == "%%MatrixMarket matrix coordinate real general"
    pp = tmp_path / "p.mtx"
    write_pattern(pp, binarize(A))
    assert pp.read_text().splitlines()[0] \
        == "%%MatrixMarket matrix coordinate pattern general"


def test_write_matches_per_entry_reference(tmp_path, rng, monkeypatch):
    # the reference writes one entry per call; a small chunk puts several
    # chunk boundaries inside the file
    monkeypatch.setattr(bandlq.mmio, "_CHUNK", 7)
    exponents = rng.integers(-300, 300, (30, 20))
    A = canonicalize(sp.csr_matrix(rng.standard_normal((30, 20))
                                   * 10.0 ** exponents
                                   * (rng.random((30, 20)) < 0.3)))
    A.data[:3] = [np.inf, -np.inf, np.nan]
    coo = A.tocoo()
    ref = "%%MatrixMarket matrix coordinate real general\n30 20 " \
        f"{A.nnz}\n" + "".join(f"{i + 1} {j + 1} {v:.17g}\n"
                              for i, j, v in zip(coo.row, coo.col, coo.data))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    assert path.read_text() == ref
    np.testing.assert_array_equal(read_matrix(path).toarray(), A.toarray())


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 2\n1 1 1.5\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        read_matrix(path)
