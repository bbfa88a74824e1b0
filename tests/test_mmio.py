"""Matrix Market reading/writing round trips and determinism."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

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


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 2\n1 1 1.5\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_matrix(path)


def test_extra_entries_rejected(tmp_path):
    path = tmp_path / "long.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 1\n1 1 1.5\n2 2 2.5\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_matrix(path)


def test_symmetric_pattern_reads_whole(tmp_path):
    # one triangle stored; the pattern is its symmetric closure
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                    "3 3 4\n1 1\n2 1\n3 2\n3 3\n")
    np.testing.assert_array_equal(read_pattern(path).toarray(),
                                  [[1, 1, 0], [1, 0, 1], [0, 1, 1]])


def test_pattern_keeps_explicit_zeros(tmp_path):
    # every stored entry is structural, whatever its value
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 0\n2 1 3.5\n")
    np.testing.assert_array_equal(read_pattern(path).toarray(),
                                  [[1, 0], [1, 0]])


def test_symmetric_matrix_reads_whole(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 3\n1 1 1.5\n2 1 -2.5\n3 2 4\n")
    np.testing.assert_array_equal(read_matrix(path).toarray(),
                                  [[1.5, -2.5, 0], [-2.5, 0, 4], [0, 4, 0]])


def test_special_values_round_trip_bitwise(tmp_path):
    vals = [np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300,
            5e-324, np.pi]
    A = sp.csr_matrix((vals, (np.zeros(len(vals), int), np.arange(len(vals)))),
                      shape=(2, len(vals)))
    path = tmp_path / "s.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    np.testing.assert_array_equal(B.indices, A.indices)
    np.testing.assert_array_equal(B.data.view(np.uint64),
                                  A.data.view(np.uint64))


def test_read_matrix_rejects_pattern_file(tmp_path, rng):
    path = tmp_path / "p.mtx"
    write_pattern(path, binarize(sp.csr_matrix(random_banded(5, 1, rng))))
    with pytest.raises(ValueError, match="pattern file"):
        read_matrix(path)


def test_path_without_suffix_is_written_as_given(tmp_path, rng):
    A = canonicalize(sp.csr_matrix(random_banded(5, 1, rng)))
    write_matrix(tmp_path / "Z", A)
    write_pattern(tmp_path / "P", A)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["P", "Z"]
    assert (read_matrix(tmp_path / "Z") != A).nnz == 0
    assert (read_pattern(tmp_path / "P") != binarize(A)).nnz == 0
