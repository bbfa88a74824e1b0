"""Method 1: reduced least-squares Lyapunov solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.cgls import cgls
from bandlq.control import metric_e, newton_step_matrices
from bandlq.lyap_lsq import (CglsConfig, GlOperator, assemble_reduced,
                             scatter_solution, solve_lyap_lsq)
from bandlq.oracle import dense_lyap, kron_matrix
from bandlq.pattern import apriori_pattern
from bandlq.sparsecore import binarize, canonicalize, frobenius, identity
from conftest import full_pattern, heat_problem, random_stable_instance


def _csr(M):
    return canonicalize(sp.csr_matrix(np.asarray(M, dtype=np.float64)))


def _sym_columns(M, index, column_map):
    """Columns of M in the operator's coordinates, where column index[i, j]
    of M belongs to entry (i, j): (M[:, index[i, j]] + M[:, index[j, i]])
    / sqrt(2) for i < j and M[:, index[i, i]] for i = j."""
    i, j = column_map[:, 0], column_map[:, 1]
    scale = np.where(i == j, 0.5, np.sqrt(0.5))
    return (M[:, index[i, j]] + M[:, index[j, i]]) * scale


def _sym_rows(M, index, output_map):
    """Rows of M folded onto the operator's output coordinates, where row
    index[i, j] of M belongs to entry (i, j): (M[index[i, j]] +
    M[index[j, i]]) / sqrt(2) for i < j and M[index[i, i]] for i = j."""
    i, j = output_map[:, 0], output_map[:, 1]
    scale = np.where(i == j, 0.5, np.sqrt(0.5))
    return ((M[index[i, j]] + M[index[j, i]]).T * scale).T


def _check_operator(Abar, E, pat, P, rs, M):
    """GlOperator against the explicit Kronecker matrix M and the assembled
    reduced system rs: the output support is rs.row_map folded by symmetry,
    the same columns in symmetric coordinates on both sides with nothing
    lost in the fold, the same nnz(M1), a true adjoint, and restrict/scatter
    as an isometry pair."""
    n = Abar.shape[0]
    op = GlOperator(Abar, E, pat, P)
    upper = rs.column_map[:, 0] <= rs.column_map[:, 1]
    np.testing.assert_array_equal(op.column_map, rs.column_map[upper])
    r, s = rs.row_map % n, rs.row_map // n
    folded = np.unique(np.minimum(r, s) * n + np.maximum(r, s))
    np.testing.assert_array_equal(op.outputs.map,
                                  np.column_stack([folded // n, folded % n]))
    assert op.shape == (folded.size, op.column_map.shape[0])
    unit = np.eye(op.shape[1])
    op_cols = np.column_stack([op.matvec(u) for u in unit])
    vec_index = np.arange(n * n).reshape((n, n), order="F")
    sym_cols = _sym_columns(M, vec_index, op.column_map)
    np.testing.assert_allclose(op_cols, _sym_rows(sym_cols, vec_index,
                                                  op.outputs.map),
                               rtol=0, atol=1e-15 * np.abs(M).max())
    np.testing.assert_allclose(np.linalg.norm(op_cols, axis=0),
                               np.linalg.norm(sym_cols, axis=0), rtol=1e-14)
    p = P.toarray().ravel(order="F")
    np.testing.assert_allclose(op.rhs, _sym_rows(p, vec_index,
                                                 op.outputs.map),
                               rtol=0, atol=1e-15 * np.abs(p).max())
    assert np.linalg.norm(op.rhs) == pytest.approx(frobenius(P), rel=1e-14)
    assert op.nnz == rs.M1.nnz
    assert op.nnz_pattern == binarize(pat).nnz
    probe = np.random.default_rng(0)
    z = probe.standard_normal(op.shape[1])
    r = probe.standard_normal(op.shape[0])
    lhs = float((op @ z) @ r)
    assert lhs == pytest.approx(float(z @ op.rmatvec(r)), rel=1e-12)
    Z = op.scatter(z)
    assert frobenius(Z - Z.T) == 0.0
    assert (binarize(Z) - binarize(pat).multiply(binarize(Z))).nnz == 0
    assert frobenius(Z) == pytest.approx(np.linalg.norm(z), rel=1e-14)
    np.testing.assert_allclose(op.restrict(Z), z, rtol=0, atol=1e-14)
    # restrict reads the symmetric part, and entries counts both triangles
    X = sp.csr_matrix(probe.standard_normal((n, n)))
    np.testing.assert_allclose(op.restrict(X), op.restrict(0.5 * (X + X.T)),
                               rtol=0, atol=1e-14)
    z[::2] = 0.0
    assert op.entries(z) == op.scatter(z).nnz
    r[::2] = 0.0
    assert op.outputs.entries(r) == op.outputs.to_csr(r).nnz


class TestAssembleReduced:
    def test_scalar(self):
        E = _csr([[1.0]])
        A = _csr([[-3.0]])
        P = _csr([[5.0]])
        rs = assemble_reduced(A, E, P, full_pattern(1))
        np.testing.assert_allclose(rs.M1.toarray(), [[-6.0]])
        np.testing.assert_allclose(rs.p1, [5.0])

    def test_diagonal(self):
        a = np.array([-1.0, -2.0, -3.0])
        rs = assemble_reduced(_csr(np.diag(a)), identity(3),
                              _csr(np.diag([1.0, 1.0, 1.0])), identity(3))
        np.testing.assert_allclose(sorted(rs.M1.toarray().sum(axis=1)),
                                   sorted(2.0 * a))

    def test_columns_match_explicit_kronecker(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            Abar, E, P = random_stable_instance(n, rng, band=1)
            pat = full_pattern(n)
            rs = assemble_reduced(Abar, E, P, pat)
            M = kron_matrix(Abar, E)
            # reduced unknown c at (i, j) corresponds to vec index j*n + i
            cols = rs.column_map[:, 1] * n + rs.column_map[:, 0]
            ref = M[np.ix_(rs.row_map, cols)]
            np.testing.assert_allclose(rs.M1.toarray(), ref, atol=1e-15)
            _check_operator(Abar, E, pat, P, rs, M)

    def test_partial_pattern_columns(self, rng):
        n = 6
        Abar, E, P = random_stable_instance(n, rng, band=2)
        pat = binarize(sp.csr_matrix(rng.random((n, n)) < 0.3)
                       + identity(n))
        rs = assemble_reduced(Abar, E, P, pat)
        M = kron_matrix(Abar, E)
        cols = rs.column_map[:, 1] * n + rs.column_map[:, 0]
        ref = M[np.ix_(rs.row_map, cols)]
        np.testing.assert_allclose(rs.M1.toarray(), ref, atol=1e-15)
        # the operator acts on symmetric matrices only
        assert (pat != pat.T).nnz > 0
        with pytest.raises(ValueError, match="symmetric"):
            GlOperator(Abar, E, pat, P)
        sym = binarize(pat + pat.T)
        _check_operator(Abar, E, sym, P, assemble_reduced(Abar, E, P, sym),
                        M)

    def test_rhs_rows_with_zero_coefficients_retained(self):
        # diagonal pattern but P has an off-diagonal entry: that equation
        # has no structural coefficients yet must remain in the residual
        E = identity(2)
        A = _csr(np.diag([-1.0, -2.0]))
        P = _csr([[1.0, 0.5], [0.5, 1.0]])
        rs = assemble_reduced(A, E, P, identity(2))
        off_rows = [r for r in rs.row_map if r in (1, 2)]
        assert len(off_rows) == 2
        assert rs.M1.shape[0] == rs.row_map.size

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            assemble_reduced(identity(2), identity(2), identity(2),
                             binarize(sp.csr_matrix((2, 2))))


class TestSolve:
    def test_scalar_end_to_end(self):
        Z, rep = solve_lyap_lsq(_csr([[-1.0]]), _csr([[1.0]]), _csr([[-2.0]]),
                                full_pattern(1))
        np.testing.assert_allclose(Z.toarray(), [[1.0]], atol=1e-10)
        assert rep.converged

    def test_full_pattern_matches_dense_oracle(self, rng):
        for n in (6, 14, 25):
            Abar, E, P = random_stable_instance(n, rng)
            Z, rep = solve_lyap_lsq(Abar, E, P, full_pattern(n),
                                    cfg=CglsConfig(tol=1e-10))
            Zex = dense_lyap(Abar, E, P)
            assert metric_e(Z, sp.csr_matrix(Zex)) <= 1e-6

    def test_result_symmetric_and_in_pattern(self, rng):
        n = 12
        Abar, E, P = random_stable_instance(n, rng)
        mask = sp.csr_matrix(rng.random((n, n)) < 0.3)
        pat = binarize(identity(n) + mask + mask.T)
        Z, _rep = solve_lyap_lsq(Abar, E, P, pat)
        assert frobenius(Z - Z.T) <= 1e-12 * max(frobenius(Z), 1.0)
        assert (binarize(Z) - pat.multiply(binarize(Z))).nnz == 0

    def test_matches_symmetrized_dense_lstsq(self, rng):
        # the least-squares solution over the symmetric matrices in the
        # pattern, from the assembled M1 taken to symmetric coordinates
        n = 9
        Abar, E, P = random_stable_instance(n, rng)
        mask = sp.csr_matrix(rng.random((n, n)) < 0.3)
        pat = binarize(identity(n) + mask + mask.T)
        rs = assemble_reduced(Abar, E, P, pat)
        op = GlOperator(Abar, E, pat, P)
        index = np.zeros((n, n), dtype=np.int64)
        index[rs.column_map[:, 0], rs.column_map[:, 1]] = \
            np.arange(rs.column_map.shape[0])
        Ms = _sym_columns(rs.M1.toarray(), index, op.column_map)
        z, *_ = np.linalg.lstsq(Ms, rs.p1, rcond=None)
        Zref = op.scatter(z)
        Z, rep = solve_lyap_lsq(Abar, E, P, pat, cfg=CglsConfig(tol=1e-12))
        assert rep.converged and rep.nnz_pattern == pat.nnz
        assert frobenius(Z - Zref) <= 1e-8 * frobenius(Zref)

    def test_x0_read_through_symmetric_part_on_pattern(self, rng):
        # an X0 with an antisymmetric part and entries off the pattern starts
        # CGLS where sym(X0) restricted to the pattern does
        n = 9
        Abar, E, P = random_stable_instance(n, rng)
        mask = sp.csr_matrix(rng.random((n, n)) < 0.3)
        pat = binarize(identity(n) + mask + mask.T)
        X0 = _csr(rng.standard_normal((n, n)))
        X0_sym = canonicalize(0.5 * (X0 + X0.T)).multiply(pat).tocsr()
        assert frobenius(X0 - X0.T) > 0 and (X0 - X0.multiply(pat)).nnz > 0
        cfg = CglsConfig(tol=1e-12, max_iter=3)
        Z, rep = solve_lyap_lsq(Abar, E, P, pat, cfg=cfg, X0=X0)
        Z_sym, rep_sym = solve_lyap_lsq(Abar, E, P, pat, cfg=cfg, X0=X0_sym)
        Z_cold, _rep = solve_lyap_lsq(Abar, E, P, pat, cfg=cfg)
        assert rep.iterations == rep_sym.iterations == 3
        assert frobenius(Z - Z_sym) <= 1e-14 * frobenius(Z_sym)
        assert frobenius(Z - Z_cold) > 1e-6 * frobenius(Z_cold)

    def test_x0_at_previous_solution_returns_at_once(self, rng):
        n = 12
        Abar, E, P = random_stable_instance(n, rng)
        mask = sp.csr_matrix(rng.random((n, n)) < 0.3)
        pat = binarize(identity(n) + mask + mask.T)
        cfg = CglsConfig(tol=1e-8)
        Z, rep = solve_lyap_lsq(Abar, E, P, pat, cfg=cfg)
        Z2, rep2 = solve_lyap_lsq(Abar, E, P, pat, cfg=cfg, X0=Z)
        assert rep.iterations > 0
        assert rep2.converged and rep2.iterations == 0
        assert frobenius(Z2 - Z) <= 1e-14 * frobenius(Z)

    def test_x0_none_is_the_cold_start(self, rng):
        n = 12
        Abar, E, P = random_stable_instance(n, rng)
        pat = full_pattern(n)
        Z, rep = solve_lyap_lsq(Abar, E, P, pat)
        Z_none, rep_none = solve_lyap_lsq(Abar, E, P, pat, X0=None)
        assert rep.iterations == rep_none.iterations
        np.testing.assert_array_equal(Z.indptr, Z_none.indptr)
        np.testing.assert_array_equal(Z.indices, Z_none.indices)
        np.testing.assert_array_equal(Z.data, Z_none.data)

    def test_residual_identity(self, rng):
        # vector-form and matrix-form residuals agree, also for a diagonal
        # pattern whose P has off-diagonal entries outside the operator's
        # structural support
        n = 10
        cases = [random_stable_instance(n, rng) + (full_pattern(n),),
                 (_csr(np.diag([-1.0, -2.0])), identity(2),
                  _csr([[1.0, 0.5], [0.5, 1.0]]), identity(2))]
        for Abar, E, P, pat in cases:
            op = GlOperator(Abar, E, pat, P)
            res = cgls(op, op.rhs, tol=1e-10)
            Z = scatter_solution(op, res.x)
            R = canonicalize(P - E.T @ Z @ Abar - Abar.T @ Z @ E)
            vec_res = np.linalg.norm(op.rhs - op @ res.x)
            assert frobenius(R) == pytest.approx(vec_res, abs=1e-12)
        assert frobenius(R) == pytest.approx(np.sqrt(0.5))

    def test_heat_model_w1_recorded_error(self):
        # structured-grid analog of the smallest 2D model scale: the error
        # at w = 1 is recorded and must stay under 5e-2 on this grid
        model, prob = heat_problem((13, 13))
        _F, Abar, P = newton_step_matrices(10.0 * identity(model.n), prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        Z, rep = solve_lyap_lsq(Abar, model.E, P, pat,
                                cfg=CglsConfig(tol=1e-5))
        Zex = dense_lyap(Abar, model.E, P, max_n=2000)
        e = metric_e(Z, sp.csr_matrix(Zex))
        print(f"heat 13x13 w=1 relative error: {e:.6f}")
        assert e <= 5e-2
