"""A priori pattern computation and the approximate-inverse pattern."""

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.pattern import apriori_pattern, inverse_pattern, pattern_density
from bandlq.sparsecore import (ShapeMismatchError, bandwidth, canonicalize,
                               identity)
from conftest import heat_problem, random_banded


def _diag(vals):
    return canonicalize(sp.diags(np.asarray(vals, dtype=np.float64),
                                 format="csr"))


def _tridiag_random(n, rng):
    return canonicalize(sp.csr_matrix(random_banded(n, 1, rng) +
                                      3.0 * np.eye(n)))


class TestAprioriPattern:
    def test_non_square_rejected(self):
        # the message names the (n, n) of Abar and the shape received
        wide = canonicalize(sp.csr_matrix(np.ones((3, 4))))
        with pytest.raises(ShapeMismatchError, match=r"apriori_pattern: "
                           r"incompatible shapes \(3, 3\) and \(3, 4\)"):
            apriori_pattern(identity(3), wide, identity(3))

    def test_diagonal_inputs_stay_diagonal(self, rng):
        n = 6
        A = _diag(-1.0 - rng.random(n))
        P = _diag(rng.standard_normal(n))
        for w in (0, 1, 3):
            pat = apriori_pattern(A, identity(n), P, w=w)
            assert (pat != identity(n)).nnz == 0

    def test_tridiagonal_w0(self, rng):
        n = 8
        A = _tridiag_random(n, rng)
        P = _diag(rng.standard_normal(n) + 2.0)
        pat = apriori_pattern(A, identity(n), P, w=0)
        assert bandwidth(pat) == 1

    def test_matches_dense_boolean_recursion(self, rng):
        n = 12
        A = _tridiag_random(n, rng)
        E = _tridiag_random(n, rng)
        P = _tridiag_random(n, rng)
        w = 2
        pat = apriori_pattern(A, E, P, w=w)

        def b(M):
            return (np.abs(M) > 0).astype(float)

        Ad, Ed, Pd = b(A.toarray()), b(E.toarray()), b(P.toarray())
        G = b(Ed @ Pd @ Ad.T + Ad @ Pd @ Ed.T)
        acc = np.eye(n) + G
        for _ in range(w):
            inner = b(Ed.T @ G @ Ad + Ad.T @ G @ Ed)
            G = b(Ed @ inner @ Ad.T + Ad @ inner @ Ed.T)
            acc += G
        ref = ((acc + acc.T) > 0)
        np.testing.assert_array_equal(pat.toarray() > 0, ref)

    def test_tiny_entries_keep_their_structure(self):
        # products of 1e-170 underflow to 0 in floating point; the pattern
        # multiplies 0/1 matrices, so the w = 1 pattern of this bidiagonal
        # Abar keeps its bandwidth 3: all of the 4 x 4 matrix
        n = 4
        A = canonicalize(sp.csr_matrix(-np.eye(n) + 1e-170 * np.eye(n, k=1)))
        P = _diag(np.full(n, 1e-170))
        pat = apriori_pattern(A, identity(n), P, w=1)
        assert pat.nnz == n * n

    def test_monotone_in_w(self, rng):
        n = 10
        A = _tridiag_random(n, rng)
        E = _tridiag_random(n, rng)
        P = _tridiag_random(n, rng)
        for w in range(3):
            small = apriori_pattern(A, E, P, w=w)
            large = apriori_pattern(A, E, P, w=w + 1)
            assert (small - large.multiply(small)).nnz == 0

    def test_symmetric_output(self, rng):
        n = 9
        A = _tridiag_random(n, rng)
        E = _tridiag_random(n, rng)
        P = _tridiag_random(n, rng)
        pat = apriori_pattern(A, E, P, w=2)
        assert (pat != pat.T).nnz == 0

    def test_nnz_linear_bound_for_tridiagonal(self, rng):
        for n in (40, 80):
            A = _tridiag_random(n, rng)
            E = _tridiag_random(n, rng)
            P = _tridiag_random(n, rng)
            for w in range(3):
                pat = apriori_pattern(A, E, P, w=w)
                assert pat.nnz <= 2 * (4 * w + 5) * n

    def test_dimension_mismatch(self, rng):
        with pytest.raises(Exception):
            apriori_pattern(identity(3), identity(4), identity(3), w=1)

    def test_negative_w_rejected(self):
        with pytest.raises(ValueError, match="w must be >= 0"):
            apriori_pattern(identity(3), identity(3), identity(3), w=-1)


class TestInversePattern:
    def test_k0_identity(self, rng):
        E = _tridiag_random(7, rng)
        out = inverse_pattern(E, 0)
        assert (out != identity(7)).nnz == 0

    def test_tridiagonal_band_growth(self, rng):
        E = _tridiag_random(9, rng)
        assert bandwidth(inverse_pattern(E, 3)) == 3

    def test_heat_model_density_under_ten_percent(self):
        model, _prob = heat_problem((29, 29), discretization="fe-bilinear-2d")
        pat = inverse_pattern(model.E, 3)
        density = pattern_density(pat)
        assert density < 0.10
