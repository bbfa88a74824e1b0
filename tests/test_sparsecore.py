"""Sparse kernels, pattern algebra, projection, and RCM ordering."""

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.sparsecore import (Permutation, ShapeMismatchError, bandwidth,
                               binarize, canonicalize, frobenius, identity,
                               pattern_power_sum, project, rcm_order)
from conftest import random_banded

# a 3 x 4 matrix; a routine that takes square matrices names the (3, 3)
# it expected and the shape it received
WIDE = canonicalize(sp.csr_matrix(np.ones((3, 4))))
WIDE_MESSAGE = r"incompatible shapes \(3, 3\) and \(3, 4\)"


class TestCanonicalize:
    @pytest.mark.parametrize("shape", [(5, 5), (13, 13), (29, 29), (7, 4)])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_dense_array_matches_the_coo_route(self, rng, shape, density):
        # an ndarray and an np.matrix read row by row give the CSR of their
        # COO form bit for bit: -0.0 is dropped as a zero, NaN is kept
        X = rng.standard_normal(shape) * (rng.random(shape) < density)
        X[1] = 0.0
        X[2, 3], X[3, 1] = -0.0, np.nan
        ref = canonicalize(sp.coo_matrix(X))
        for A in (X, X.view(np.matrix)):
            C = canonicalize(A)
            assert type(C) is type(ref) and C.shape == ref.shape
            for a, b in ((C.indptr, ref.indptr), (C.indices, ref.indices),
                         (C.data, ref.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert C.has_canonical_format


class TestProject:
    def test_full_pattern_is_identity(self, rng):
        Q = canonicalize(sp.csr_matrix(random_banded(4, 3, rng)))
        full = binarize(sp.csr_matrix(np.ones((4, 4))))
        assert (project(Q, full) != Q).nnz == 0

    def test_diagonal_mask(self):
        Q = canonicalize(sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        out = project(Q, identity(2))
        np.testing.assert_allclose(out.toarray(), [[1.0, 0.0], [0.0, 4.0]])

    def test_idempotent_and_contractive(self, rng):
        Q = canonicalize(sp.csr_matrix(rng.standard_normal((10, 10))))
        X = binarize(sp.csr_matrix(rng.random((10, 10)) < 0.4))
        once = project(Q, X)
        twice = project(once, X)
        assert (once != twice).nnz == 0
        assert frobenius(once) <= frobenius(Q)

    def test_result_within_pattern(self, rng):
        Q = canonicalize(sp.csr_matrix(rng.standard_normal((10, 10))))
        X = binarize(sp.csr_matrix(rng.random((10, 10)) < 0.4))
        out = binarize(project(Q, X))
        assert (out - X).max() <= 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError,
                           match=r"project: .* \(3, 4\) and \(4, 4\)"):
            project(WIDE, identity(4))


class TestPatternPowerSum:
    def test_k0_identity(self, rng):
        A = binarize(sp.csr_matrix(rng.random((6, 6)) < 0.5))
        out = pattern_power_sum(A, 0)
        assert (out != identity(6)).nnz == 0

    def test_tridiagonal_k1(self):
        T = binarize(sp.diags([np.ones(8), np.ones(9), np.ones(8)],
                              [-1, 0, 1], format="csr"))
        assert (pattern_power_sum(T, 1) != T).nnz == 0

    def test_matches_boolean_powers(self):
        T = binarize(sp.diags([np.ones(8), np.ones(9), np.ones(8)],
                              [-1, 0, 1], format="csr"))
        out = pattern_power_sum(T, 3)
        assert bandwidth(out) == 3
        D = T.toarray() > 0
        acc = np.eye(9, dtype=bool)
        Pk = np.eye(9, dtype=bool)
        for _ in range(3):
            Pk = Pk @ D
            acc |= Pk
        np.testing.assert_array_equal(out.toarray() > 0, acc)

    def test_monotone_in_k(self, rng):
        A = binarize(sp.csr_matrix(rng.random((12, 12)) < 0.2))
        for k in range(4):
            small = pattern_power_sum(A, k)
            large = pattern_power_sum(A, k + 1)
            assert (small - large.multiply(small)).nnz == 0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError,
                           match="pattern_power_sum: " + WIDE_MESSAGE):
            pattern_power_sum(WIDE, 1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            pattern_power_sum(identity(3), -1)


class TestRcmOrder:
    def test_tridiagonal_unchanged(self):
        T = binarize(sp.diags([np.ones(7), np.ones(8), np.ones(7)],
                              [-1, 0, 1], format="csr"))
        perm = rcm_order(T)
        assert bandwidth(perm.apply_symmetric(T)) == 1

    def test_star_graph(self):
        # hub node 0 connected to 5 leaves
        rows = [0] * 5 + list(range(1, 6)) + list(range(6))
        cols = list(range(1, 6)) + [0] * 5 + list(range(6))
        A = binarize(sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                   shape=(6, 6)))
        perm = rcm_order(A)
        assert sorted(perm.forward) == list(range(6))
        assert bandwidth(perm.apply_symmetric(A)) <= 5

    def test_grid_bandwidth(self):
        nx = 6
        T = sp.diags([np.ones(nx - 1), np.ones(nx), np.ones(nx - 1)],
                     [-1, 0, 1], format="csr")
        A = binarize(sp.kron(sp.identity(nx), T, format="csr")
                     + sp.kron(T, sp.identity(nx), format="csr"))
        rng = np.random.default_rng(0)
        shuffle = Permutation.from_order(rng.permutation(36))
        shuffled = shuffle.apply_symmetric(A)
        perm = rcm_order(shuffled)
        assert bandwidth(perm.apply_symmetric(shuffled)) <= 7

    def test_deterministic(self, rng):
        A = binarize(sp.csr_matrix(rng.random((20, 20)) < 0.15))
        A = binarize(A + A.T)
        p1 = rcm_order(A)
        p2 = rcm_order(A)
        np.testing.assert_array_equal(p1.forward, p2.forward)

    def test_never_increases_bandwidth_after_shuffle(self, rng):
        for trial in range(5):
            T = binarize(sp.diags([np.ones(15), np.ones(16), np.ones(15)],
                                  [-1, 0, 1], format="csr"))
            shuffle = Permutation.from_order(rng.permutation(16))
            shuffled = shuffle.apply_symmetric(T)
            perm = rcm_order(shuffled)
            assert bandwidth(perm.apply_symmetric(shuffled)) \
                <= bandwidth(shuffled)

    def test_two_shuffled_paths(self, rng):
        # a disconnected graph: each component is ordered on its own
        path = sp.diags([np.ones(9), np.ones(9)], [-1, 1], shape=(10, 10))
        A = binarize(sp.block_diag([path, path], format="csr"))
        shuffle = Permutation.from_order(rng.permutation(20))
        shuffled = shuffle.apply_symmetric(A)
        perm = rcm_order(shuffled)
        assert bandwidth(perm.apply_symmetric(shuffled)) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_sizes_give_identity(self, n):
        perm = rcm_order(identity(n))
        np.testing.assert_array_equal(perm.forward, np.arange(n))
        np.testing.assert_array_equal(perm.inverse, np.arange(n))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError,
                           match="rcm_order: " + WIDE_MESSAGE):
            rcm_order(WIDE)


class TestNorms:
    def test_frobenius_identity(self):
        assert frobenius(identity(4)) == pytest.approx(2.0)

    def test_bandwidth_of_an_empty_matrix(self):
        assert bandwidth(sp.csr_matrix((5, 5))) == 0


class TestPermutation:
    def test_bijection(self, rng):
        order = rng.permutation(9)
        perm = Permutation.from_order(order)
        np.testing.assert_array_equal(perm.forward[perm.inverse],
                                      np.arange(9))
        np.testing.assert_array_equal(perm.inverse[perm.forward],
                                      np.arange(9))

    def test_symmetric_application_round_trip(self, rng):
        A = canonicalize(sp.csr_matrix(random_banded(9, 2, rng)))
        perm = Permutation.from_order(rng.permutation(9))
        back = Permutation(forward=perm.inverse, inverse=perm.forward)
        assert (back.apply_symmetric(perm.apply_symmetric(A)) != A).nnz == 0
