"""Method 1: reduced least-squares Lyapunov solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import bandlq.lyap_lsq
from bandlq.cgls import cgls
from bandlq.control import (NewtonConfig, metric_e, newton_start,
                            newton_step_matrices, solve_lyap)
from bandlq.lyap_lsq import (_TABLE_ENTRIES, CglsConfig, GlOperator,
                             _k1_nnz, assemble_reduced, scatter_solution,
                             solve_lyap_lsq)
from bandlq.oracle import dense_lyap, kron_matrix
from bandlq.pattern import apriori_pattern
from bandlq.sparsecore import (ShapeMismatchError, binarize, canonicalize,
                               filled, frobenius, identity)
from conftest import (bitwise_equal, full_pattern, heat_problem,
                      random_stable_instance)


# the sparse factors, dense buffers with Abar as CSR, and with Abar dense
FORMS = ("factors", "dense", "dense-abar")


def _csr(M):
    return canonicalize(sp.csr_matrix(np.asarray(M, dtype=np.float64)))


def _in_form(form, *args):
    """GlOperator(*args) in ``form``, picked through the operator's two
    rules: the factors bound ``_FACTOR_FILL`` and ``filled``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bandlq.lyap_lsq, "_FACTOR_FILL",
                   np.inf if form == "factors" else -1.0)
        mp.setattr(bandlq.lyap_lsq, "filled",
                   lambda M: form == "dense-abar")
        return GlOperator(*args)


def _lsq(Abar, E, P, pat, cfg=CglsConfig(), X0=None):
    """Method 1 through the matrix-level entry ``solve_lyap``."""
    return solve_lyap(Abar, E, P, pat, NewtonConfig(cgls=cfg), X0=X0)


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
    """GlOperator, in each of its forms, against the explicit Kronecker
    matrix M and the assembled reduced system rs: the output support is
    rs.row_map folded by symmetry, the same columns in symmetric coordinates
    on both sides with nothing lost in the fold, a true adjoint, fold/to_csr
    as an isometry pair, and each space's entry count. The forms share their
    spaces and right-hand side exactly."""
    factors, *dense = (_in_form(form, Abar, E, pat, P) for form in FORMS)
    assert [op.form for op in (factors, *dense)] == list(FORMS)
    for op in dense:
        for name in ("map", "nnz"):
            for space in ("inputs", "outputs"):
                np.testing.assert_array_equal(
                    getattr(getattr(op, space), name),
                    getattr(getattr(factors, space), name))
        np.testing.assert_array_equal(op.rhs, factors.rhs)
    for op in (factors, *dense):
        _check_form(op, pat, P, rs, M)


def _check_form(op, pat, P, rs, M):
    n = op.n
    upper = rs.column_map[:, 0] <= rs.column_map[:, 1]
    np.testing.assert_array_equal(op.inputs.map, rs.column_map[upper])
    r, s = rs.row_map % n, rs.row_map // n
    folded = np.unique(np.minimum(r, s) * n + np.maximum(r, s))
    np.testing.assert_array_equal(op.outputs.map,
                                  np.column_stack([folded // n, folded % n]))
    assert op.shape == (folded.size, op.inputs.map.shape[0])
    unit = np.eye(op.shape[1])
    op_cols = np.column_stack([op.matvec(u) for u in unit])
    vec_index = np.arange(n * n).reshape((n, n), order="F")
    sym_cols = _sym_columns(M, vec_index, op.inputs.map)
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
    assert op.inputs.nnz == binarize(pat).nnz
    probe = np.random.default_rng(0)
    z = probe.standard_normal(op.shape[1])
    r = probe.standard_normal(op.shape[0])
    lhs = float((op @ z) @ r)
    assert lhs == pytest.approx(float(z @ op.rmatvec(r)), rel=1e-12)
    Z = op.inputs.to_csr(z)
    assert frobenius(Z - Z.T) == 0.0
    assert (binarize(Z) - binarize(pat).multiply(binarize(Z))).nnz == 0
    assert frobenius(Z) == pytest.approx(np.linalg.norm(z), rel=1e-14)
    np.testing.assert_allclose(op.inputs.fold(Z), z, rtol=0, atol=1e-14)
    # fold reads the symmetric part
    X = sp.csr_matrix(probe.standard_normal((n, n)))
    np.testing.assert_allclose(op.inputs.fold(X),
                               op.inputs.fold(0.5 * (X + X.T)),
                               rtol=0, atol=1e-14)
    for space in (op.inputs, op.outputs):
        assert space.nnz == space.to_csr(np.ones(space.size)).nnz


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

    def test_columns_match_explicit_kronecker(self, rng, monkeypatch):
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
        # an E whose first and last rows reach across the matrix, on a
        # banded pattern, with the factors built one row of Y (K1) and of
        # Y^T (K2) at a time
        monkeypatch.setattr("bandlq.lyap_lsq._BLOCK_ENTRIES", 1)
        n = 7
        Abar, E, P = random_stable_instance(n, rng, band=1)
        E = canonicalize(E + sp.csr_matrix(
            ([1.0, 1.0], ([0, n - 1], [n - 1, 0])), shape=(n, n)))
        pat = binarize(Abar + Abar.T)
        _check_operator(Abar, E, pat, P, assemble_reduced(Abar, E, P, pat),
                        kron_matrix(Abar, E))

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

    def test_operator_rejects_an_empty_pattern(self):
        with pytest.raises(ValueError, match="GlOperator: empty"):
            GlOperator(identity(2), identity(2), sp.csr_matrix((2, 2)),
                       identity(2))

    @pytest.mark.parametrize("operand", ["Abar", "E", "P", "Zpat"])
    @pytest.mark.parametrize("build", [assemble_reduced, GlOperator],
                             ids=["assemble_reduced", "GlOperator"])
    def test_shape_mismatch_names_the_routine(self, build, operand):
        # a 4 x 5 operand, Abar included, fails naming the routine
        args = {"Abar": _csr(-np.eye(4)), "E": identity(4),
                "P": _csr(np.eye(4)), "Zpat": identity(4)}
        args[operand] = _csr(np.ones((4, 5)))
        with pytest.raises(ShapeMismatchError,
                           match=rf"^{build.__name__}: incompatible shapes "
                                 r"\(4, 4\) and \(4, 5\)$"):
            build(**args)


class TestSolve:
    def test_scalar_end_to_end(self):
        Z, rep = _lsq(_csr([[-1.0]]), _csr([[1.0]]), _csr([[-2.0]]),
                      full_pattern(1))
        np.testing.assert_allclose(Z.toarray(), [[1.0]], atol=1e-10)
        assert rep.converged

    def test_full_pattern_matches_dense_oracle(self, rng):
        for n in (6, 14, 25):
            Abar, E, P = random_stable_instance(n, rng)
            Z, rep = _lsq(Abar, E, P, full_pattern(n),
                          cfg=CglsConfig(tol=1e-10))
            Zex = dense_lyap(Abar, E, P)
            assert metric_e(Z, sp.csr_matrix(Zex)) <= 1e-6

    def test_result_symmetric_and_in_pattern(self, rng):
        n = 12
        Abar, E, P = random_stable_instance(n, rng)
        mask = sp.csr_matrix(rng.random((n, n)) < 0.3)
        pat = binarize(identity(n) + mask + mask.T)
        Z, _rep = _lsq(Abar, E, P, pat)
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
        Ms = _sym_columns(rs.M1.toarray(), index, op.inputs.map)
        z, *_ = np.linalg.lstsq(Ms, rs.p1, rcond=None)
        Zref = op.inputs.to_csr(z)
        Z, rep = _lsq(Abar, E, P, pat, cfg=CglsConfig(tol=1e-12))
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
        Z, rep = _lsq(Abar, E, P, pat, cfg=cfg, X0=X0)
        Z_sym, rep_sym = _lsq(Abar, E, P, pat, cfg=cfg, X0=X0_sym)
        Z_cold, _rep = _lsq(Abar, E, P, pat, cfg=cfg)
        assert rep.iterations == rep_sym.iterations == 3
        assert frobenius(Z - Z_sym) <= 1e-14 * frobenius(Z_sym)
        assert frobenius(Z - Z_cold) > 1e-6 * frobenius(Z_cold)

    def test_x0_at_previous_solution_returns_at_once(self, rng):
        n = 12
        Abar, E, P = random_stable_instance(n, rng)
        mask = sp.csr_matrix(rng.random((n, n)) < 0.3)
        pat = binarize(identity(n) + mask + mask.T)
        cfg = CglsConfig(tol=1e-8)
        Z, rep = _lsq(Abar, E, P, pat, cfg=cfg)
        Z2, rep2 = _lsq(Abar, E, P, pat, cfg=cfg, X0=Z)
        assert rep.iterations > 0
        assert rep2.converged and rep2.iterations == 0
        assert frobenius(Z2 - Z) <= 1e-14 * frobenius(Z)
        # on the operator alone, a solution's coordinates return bit for bit
        op = GlOperator(Abar, E, pat, P)
        x, _rep = solve_lyap_lsq(op, cfg=cfg)
        x2, rep3 = solve_lyap_lsq(op, x, cfg)
        assert rep3.converged and rep3.iterations == 0
        assert np.array_equal(x2, x)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_config_rejects_a_tolerance_not_above_0(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            CglsConfig(tol=tol)

    @pytest.mark.parametrize("max_iter", [np.nan, 2.5, -1])
    def test_config_rejects_a_count_not_a_nonnegative_integer(self,
                                                              max_iter):
        # NaN used to run 0 iterations without a word
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            CglsConfig(max_iter=max_iter)

    def test_x0_none_is_the_cold_start(self, rng):
        n = 12
        Abar, E, P = random_stable_instance(n, rng)
        pat = full_pattern(n)
        Z, rep = _lsq(Abar, E, P, pat)
        Z_none, rep_none = _lsq(Abar, E, P, pat, X0=None)
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
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        Z, rep = _lsq(Abar, model.E, P, pat, cfg=CglsConfig(tol=1e-5))
        Zex = dense_lyap(Abar, model.E, P, max_n=2000)
        e = metric_e(Z, sp.csr_matrix(Zex))
        print(f"heat 13x13 w=1 relative error: {e:.6f}")
        assert e <= 5e-2


class TestOperatorForm:
    def test_rule_on_real_counts(self):
        # fe-bilinear: at 13^2 the pattern is too dense for the factors from
        # step 1 on, and Abar, 4.8 % dense at step 1, is kept as CSR until
        # it fills in at step 2; at 29^2 step 1 the factors are built, until
        # Abar has dense rows
        model, prob = heat_problem((13, 13))
        n = model.n
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        assert not filled(Abar)
        Z, rep = _lsq(Abar, model.E, P, pat)
        assert rep.extra["operator_form"] == "dense"
        assert rep.stored_entries == 3 * n ** 2
        _F, Abar2, P2 = newton_step_matrices(Z, prob)
        assert filled(Abar2)
        op = GlOperator(Abar2, model.E, pat, P2)
        assert op.form == "dense-abar"
        assert op.stored_entries == 4 * n ** 2
        assert isinstance(op._Abar, np.ndarray)
        assert op._Abar.flags.c_contiguous and not hasattr(op, "_AbarT")
        model, prob = heat_problem((29, 29))
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        op = GlOperator(Abar, model.E, pat, P)
        assert op.form == "factors"
        assert op.stored_entries == op._K1.nnz + op._K2.nnz
        # a dense feedback F makes every row that B touches dense
        F = sp.csr_matrix(np.full((model.m, model.n), 1e-3))
        assert GlOperator(canonicalize(Abar - model.B @ F), model.E, pat,
                          P).form == "dense-abar"

    def test_k1_count_does_not_wrap(self):
        # scipy's index arrays are int32, whose dot product would wrap
        counts = np.full(3, 2**16, dtype=np.int32)
        assert _k1_nnz(counts, counts) == 3 * 2**32

    @pytest.mark.parametrize("nodes, discretization, corner", [
        ((45, 45), "fe-bilinear-2d", False), ((3000,), "fe-linear-1d", False),
        ((3000,), "fe-linear-1d", True)], ids=[
        "nodes0-fe-bilinear-2d", "nodes1-fe-linear-1d",
        "nodes2-fe-linear-1d-corner"])
    def test_factors_allocate_no_n_by_n_array(self, nodes, discretization,
                                              corner):
        # building the step-1 factors and one apply and adjoint need, beyond
        # what the operator keeps, scratch that scales with the CSR supports
        # Y = supp(Zpat Abar) and O plus the bounded block scratch, not with
        # n^2. At 45^2 that bound is 6.6 n^2 bytes, which an n x n float64
        # array alive beside the factors breaks (one the operator keeps or
        # an apply makes); in 1-D at n = 3000 it is 0.7 n^2 bytes, which
        # any n x n array breaks, wherever it is made. With the corner
        # entries E[0, n-1] and E[n-1, 0], E is not banded, and a lookup
        # table spanning the rows that E's rows reach would be n x n
        model, prob = heat_problem(nodes, discretization,
                                   dimension=len(nodes))
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        E, n = model.E, model.n
        if corner:
            E = canonicalize(E + sp.csr_matrix(
                (np.full(2, E[0, 0]), ([0, n - 1], [n - 1, 0])), shape=(n, n)))
        tracemalloc.start()
        try:
            op = GlOperator(Abar, E, pat, P)
            op @ np.ones(op.shape[1])
            op.rmatvec(np.ones(op.shape[0]))
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.form == "factors"
        kept = op.rhs.nbytes + sum(
            K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
            for K in (op._K1, op._K2))
        for space in (op.inputs, op.outputs):
            kept += sum(a.nbytes for a in (space.map, space._weight,
                                           space._value, space._upper,
                                           space._lower))
        # K1 has a row per entry of Y; a CSR takes 12 bytes an entry, and
        # a block's two int32 lookup tables and its arrays below 16 bytes
        # per table entry
        support = 12 * (op._K1.shape[0] + op.outputs.nnz)
        assert peak - kept < 1.5 * support + 16 * _TABLE_ENTRIES


class TestWorkingLayout:
    @pytest.mark.parametrize("form", FORMS)
    def test_layout_products_match_coordinates(self, form):
        # between lift and lower, apply and adjoint are the coordinate
        # products, on Newton step 2 and again after the refill to step 3
        # (a new operator for the factors, which do not refill); the
        # layout keeps coordinate norms
        E, pat, [_s1, (Abar2, P2), (Abar3, P3)] = _newton_steps_1_to_3()
        op = _in_form(form, Abar2, E, pat, P2)
        rng = np.random.default_rng(5)
        for step in (2, 3):
            if step == 3:
                assert op.refill(Abar3, P3) == (form != "factors")
                if form == "factors":
                    op = _in_form(form, Abar3, E, pat, P3)
            z = rng.standard_normal(op.shape[1])
            r = rng.standard_normal(op.shape[0])
            Z, R = op.lift(z, op.inputs), op.lift(r, op.outputs)
            assert np.linalg.norm(Z) == pytest.approx(np.linalg.norm(z),
                                                      rel=1e-14)
            for got, ref in (
                    (op.lower(op.apply(Z), op.outputs), op @ z),
                    (op.lower(op.adjoint(R), op.inputs), op.rmatvec(r))):
                assert (np.linalg.norm(got - ref)
                        <= 1e-13 * np.linalg.norm(ref))


def _newton_steps_1_to_3(nodes=(9, 9)):
    """E, the step-1 pattern and the (Abar, P) of Newton steps 1, 2 and 3."""
    model, prob = heat_problem(nodes)
    _F, Abar, P = newton_start(prob)
    pat = apriori_pattern(Abar, model.E, P, w=1)
    steps, Z = [(Abar, P)], None
    for _ in range(2):
        Z, _rep = _lsq(Abar, model.E, P, pat, X0=Z)
        _F, Abar, P = newton_step_matrices(Z, prob)
        steps.append((Abar, P))
    return model.E, pat, steps


def _same_operator(op, ref):
    """op and ref give the same spaces, rhs, apply and adjoint, bit for bit."""
    rng = np.random.default_rng(3)
    z, r = rng.standard_normal(ref.shape[1]), rng.standard_normal(ref.shape[0])
    return (op.shape == ref.shape and op.form == ref.form
            and op.stored_entries == ref.stored_entries
            and all(np.array_equal(getattr(op, s).map, getattr(ref, s).map)
                    for s in ("inputs", "outputs"))
            and np.array_equal(op.rhs, ref.rhs)
            and np.array_equal(op @ z, ref @ z)
            and np.array_equal(op.rmatvec(r), ref.rmatvec(r)))


def _holds(op, Abar, E, P):
    """op holds (Abar, E, P) bit for bit, sharing their arrays."""
    return all(bitwise_equal(M, ref) and np.shares_memory(M.data, ref.data)
               for M, ref in ((op.Abar, Abar), (op.E, E), (op.P, P)))


class TestRefill:
    # FILL_DIVISOR 1 makes no Abar filled, infinity every nonempty one
    @pytest.mark.parametrize("divisor, form", [(1, "dense"),
                                               (np.inf, "dense-abar")])
    def test_refill_equals_a_new_operator(self, monkeypatch, divisor, form):
        # fe 9^2: from Newton step 2 to 3 only the values change
        monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR", divisor)
        E, pat, [_s1, (Abar2, P2), (Abar3, P3)] = _newton_steps_1_to_3()
        op = GlOperator(Abar2, E, pat, P2)
        assert op.form == form and _holds(op, Abar2, E, P2)
        inputs, outputs = op.inputs, op.outputs
        assert op.refill(Abar3, P3)
        assert op.inputs is inputs and op.outputs is outputs
        assert _same_operator(op, GlOperator(Abar3, E, pat, P3))
        # the operator holds the new equation, on the arrays of the
        # canonical matrices it was given: GP's default first step and X3
        # start read it
        assert _holds(op, Abar3, E, P3)

    def test_support_change_rebuilds(self):
        E, pat, [(Abar1, P1), (Abar2, P2), (Abar3, P3)] = \
            _newton_steps_1_to_3()
        # step 1 to 2: Abar fills in
        op = GlOperator(Abar1, E, pat, P1)
        assert op.form != "factors"
        assert not op.refill(Abar2, P2)
        assert _same_operator(op, GlOperator(Abar1, E, pat, P1))
        # step 2 without one symmetric pair of P's entries, then step 3,
        # whose P has that pair (P is full at 9^2)
        assert P3.nnz == P3.shape[0] ** 2 and P2[0, 1] != 0
        P2m = P2.tolil()
        P2m[0, 1] = P2m[1, 0] = 0.0
        P2m = canonicalize(P2m)
        op = GlOperator(Abar2, E, pat, P2m)
        assert not op.refill(Abar3, P3)
        assert _same_operator(op, GlOperator(Abar2, E, pat, P2m))
        # the factors, which are always built anew
        factors = _in_form("factors", Abar2, E, pat, P2)
        assert not factors.refill(Abar3, P3)
        # a refused refill keeps the operator's equation
        assert _holds(factors, Abar2, E, P2)

    def test_refill_checks_its_arguments(self):
        E, pat, [_s1, (Abar2, P2), (Abar3, P3)] = _newton_steps_1_to_3()
        op = GlOperator(Abar2, E, pat, P2)
        with pytest.raises(ShapeMismatchError, match="incompatible shapes"):
            op.refill(Abar3, P3[:-1, :-1])
        with pytest.raises(ShapeMismatchError, match="^GlOperator.refill"):
            op.refill(Abar3[:, :-1], P3)
