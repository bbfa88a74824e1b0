"""Method 1: reduced least-squares Lyapunov solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.cgls import cgls
from bandlq.control import metric_e, newton_step_matrices
from bandlq.lyap_lsq import (CglsConfig, GlOperator, assemble_reduced,
                             scatter_solution, solve_lyap_lsq)
from bandlq.oracle import dense_lyap, kron_matrix
from bandlq.pattern import PatternConfig, apriori_pattern
from bandlq.sparsecore import binarize, canonicalize, frobenius, identity
from conftest import full_pattern, heat_problem, random_stable_instance


def _csr(M):
    return canonicalize(sp.csr_matrix(np.asarray(M, dtype=np.float64)))


def _check_operator(Abar, E, pat, rs, M):
    """GlOperator against the explicit Kronecker matrix M and the assembled
    reduced system rs: same columns, same nnz(M1), and a true adjoint."""
    n = Abar.shape[0]
    op = GlOperator(Abar, E, pat)
    np.testing.assert_array_equal(op.column_map, rs.column_map)
    cols = op.column_map[:, 1] * n + op.column_map[:, 0]
    unit = np.eye(op.shape[1])
    op_cols = np.column_stack([op.matvec(u) for u in unit])
    np.testing.assert_allclose(op_cols, M[:, cols], rtol=0, atol=1e-15)
    assert op.nnz == rs.M1.nnz
    probe = np.random.default_rng(0)
    z = probe.standard_normal(op.shape[1])
    r = probe.standard_normal(n * n)
    lhs = float((op @ z) @ r)
    assert lhs == pytest.approx(float(z @ op.rmatvec(r)), rel=1e-12)


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
            _check_operator(Abar, E, pat, rs, M)

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
        _check_operator(Abar, E, pat, rs, M)

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

    def test_residual_identity(self, rng):
        # vector-form and matrix-form residuals agree before symmetrization
        n = 10
        Abar, E, P = random_stable_instance(n, rng)
        pat = full_pattern(n)
        op = GlOperator(Abar, E, pat)
        p = op.vec(P)
        res = cgls(op, p, tol=1e-10)
        Z = scatter_solution(op, res.x, symmetrize=False)
        R = canonicalize(P - E.T @ Z @ Abar - Abar.T @ Z @ E)
        vec_res = np.linalg.norm(p - op @ res.x)
        assert frobenius(R) == pytest.approx(vec_res, abs=1e-12)

    def test_heat_model_w1_recorded_error(self):
        # structured-grid analog of the smallest 2D model scale: the error
        # at w = 1 is recorded and must stay under 5e-2 on this grid
        model, prob = heat_problem((13, 13))
        _F, Abar, P = newton_step_matrices(10.0 * identity(model.n), prob)
        pat = apriori_pattern(Abar, model.E, P, PatternConfig(w=1))
        Z, rep = solve_lyap_lsq(Abar, model.E, P, pat,
                                cfg=CglsConfig(tol=1e-5))
        Zex = dense_lyap(Abar, model.E, P, max_n=2000)
        e = metric_e(Z, sp.csr_matrix(Zex))
        print(f"heat 13x13 w=1 relative error: {e:.6f}")
        assert e <= 5e-2
