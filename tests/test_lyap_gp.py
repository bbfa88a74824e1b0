"""Method 2: SPAI, spectrum bounds, quadrature, Faber expansion, gradient
projection."""

import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import bandlq.lyap_gp
import bandlq.lyap_lsq
from bandlq.control import NewtonConfig, metric_e, newton_start, solve_lyap
from bandlq.lyap_gp import (GpConfig, SpectrumBounds, UnstableMatrixError,
                            _collapses, _faber_constants, _spai_one_sided,
                            default_delta_bar, faber_basis,
                            faber_coefficients, faber_expm, initial_guess,
                            quadrature_nodes, solve_lyap_gp, spai,
                            spectrum_bounds, transformed_problem)
from bandlq.lyap_lsq import GlOperator
from bandlq.pattern import apriori_pattern, inverse_pattern
from bandlq.sparsecore import (ShapeMismatchError, binarize, canonicalize,
                               frobenius, identity, pattern_power_sum, project)
from bandlq.oracle import dense_expm, dense_lyap
from conftest import (bitwise_equal, full_pattern, heat_problem,
                      random_banded)


def _csr(M):
    return canonicalize(sp.csr_matrix(np.asarray(M, dtype=np.float64)))


def _gp(Abar, E, P, pat, X0, cfg=GpConfig()):
    """Method 2 from X0 through the matrix-level entry ``solve_lyap``."""
    return solve_lyap(Abar, E, P, pat, NewtonConfig(lyap_method="gp", gp=cfg),
                      X0=X0)


def _fe_mass(n, h=0.1):
    return canonicalize((h / 6.0) * sp.diags(
        [np.ones(n - 1), 4.0 * np.ones(n), np.ones(n - 1)],
        [-1, 0, 1], format="csr"))


def _heat_a1(nodes, k1=3):
    model, prob = heat_problem(nodes)
    _F, Abar, P = newton_start(prob)
    A1, _P1, _res = transformed_problem(Abar, model.E, P, k1=k1)
    return A1


def _per_node_faber(A1, t, bounds, cfg):
    """Reference: the projected recurrence run afresh for one node t."""
    n = A1.shape[0]
    _c1, c2, c3, c4 = _faber_constants(bounds.scaled(t))
    A2 = canonicalize((t * A1 - c4 * identity(n)) / np.sqrt(c3))
    pat = pattern_power_sum(binarize(A2), cfg.k2) if cfg.k2 < n else None
    a = faber_coefficients(c2, c3, c4, p=cfg.p)
    scale = np.sqrt(c3) / (2.0 * c2)
    K = a[0] * identity(n)
    T_prev, T_cur = identity(n), A2
    if cfg.p >= 1:
        K = canonicalize(K + a[1] * 2.0 * scale * T_cur)
    pw = scale
    for l in range(2, cfg.p + 1):
        T_next = 2.0 * (A2 @ T_cur) - T_prev
        T_next = project(T_next, pat) if pat is not None \
            else canonicalize(T_next)
        T_prev, T_cur = T_cur, T_next
        pw *= scale
        K = canonicalize(K + a[l] * 2.0 * pw * T_cur)
    return K


def _sparse_x3(Abar, E, P, cfg):
    """Reference: X3 accumulated as canonical CSR, one triple product per
    node."""
    A1, P1, _res = transformed_problem(Abar, E, P, cfg.k1)
    bounds = spectrum_bounds(A1)
    psi, nodes = quadrature_nodes(cfg.q, bounds)
    n = A1.shape[0]
    X3 = sp.csr_matrix((n, n))
    basis = None
    for t_j, omega_j in nodes:
        if basis is None and not _collapses(bounds.scaled(t_j)):
            basis = faber_basis(A1, bounds, cfg)
        K = faber_expm(A1, t_j, bounds, cfg, basis=basis)
        X3 = canonicalize(X3 - psi * omega_j * (K @ P1 @ K.T))
    return canonicalize(0.5 * (X3 + X3.T))


def _gp_coords(op, x0, cfg):
    """Reference: the gradient iteration on coordinates, one coordinate
    apply and adjoint of ``op`` per step. Returns z, J_history, stalled and
    whether J stagnated."""
    delta = bandlq.lyap_gp.default_delta_bar(op.Abar, op.E)
    p, z = op.rhs, x0
    r = p - op @ z
    J = float(r @ r)
    J_history = [J]
    window = bandlq.lyap_gp._STAGNATION_WINDOW
    rtol = bandlq.lyap_gp._STAGNATION_RTOL
    for _ in range(cfg.max_iter):
        g = -2.0 * op.rmatvec(r)
        z_try = z - delta * g
        r_try = p - op @ z_try
        J_try = float(r_try @ r_try)
        if not J_try <= J:
            return z, J_history, True, False
        z, r, J = z_try, r_try, J_try
        J_history.append(J)
        if len(J_history) > window:
            ref = J_history[-window - 1]
            if ref <= 0.0 or (ref - J) / ref < rtol:
                return z, J_history, False, True
    return z, J_history, False, False


def _spai_slicing(E, pat):
    """Reference: per-column least-squares blocks cut by scipy slicing."""
    n = E.shape[0]
    Ecsc, patc = E.tocsc(), pat.tocsc()
    X = sp.lil_matrix((n, n))
    for j in range(n):
        support = patc.indices[patc.indptr[j]:patc.indptr[j + 1]]
        if support.size == 0:
            continue
        sub = Ecsc[:, support]
        rows = np.unique(sub.tocoo().row)
        x, *_ = np.linalg.lstsq(np.asarray(sub[rows, :].todense()),
                                (rows == j).astype(np.float64), rcond=None)
        X[support, j] = x[:, None]
    return canonicalize(X)


class TestSpai:
    def test_identity(self):
        X, res = spai(identity(5), full_pattern(5))
        np.testing.assert_allclose(X.toarray(), np.eye(5), atol=1e-12)
        assert res <= 1e-12

    def test_non_square_pattern_rejected(self):
        # the message names the (n, n) of E and the shape received
        with pytest.raises(ShapeMismatchError, match=r"spai: incompatible "
                           r"shapes \(3, 3\) and \(3, 4\)"):
            spai(identity(3), _csr(np.ones((3, 4))))

    def test_diagonal(self):
        E = _csr(np.diag([2.0, 4.0]))
        X, res = spai(E, identity(2))
        np.testing.assert_allclose(X.toarray(), np.diag([0.5, 0.25]),
                                   atol=1e-14)

    def test_mass_matrix_residual_improves_with_k1(self):
        E = _fe_mass(30)
        res_prev = None
        for k1 in (1, 2, 3):
            _X, res = spai(E, inverse_pattern(E, k1))
            if res_prev is not None:
                assert res <= res_prev + 1e-14
            res_prev = res

    def test_matches_dense_per_column_lsq(self):
        E = _fe_mass(30)
        pat = inverse_pattern(E, 2)
        X, _res = spai(E, pat)
        Ed = E.toarray()
        # the column form reproduces the per-column optima
        Ref = np.zeros((30, 30))
        patc = pat.tocsc()
        for j in range(30):
            supp = patc.indices[patc.indptr[j]:patc.indptr[j + 1]]
            b = np.zeros(30)
            b[j] = 1.0
            x, *_ = np.linalg.lstsq(Ed[:, supp], b, rcond=None)
            Ref[supp, j] = x
        np.testing.assert_allclose(X.toarray(), Ref, atol=1e-10)

    @pytest.mark.parametrize("case", ["mass30-k1", "mass30-k2", "mass30-k3",
                                      "fe7x7", "empty-column", "zero-row"])
    def test_one_sided_matches_slicing_reference(self, case):
        if case.startswith("mass30"):
            E = _fe_mass(30)
            pat = inverse_pattern(E, int(case[-1]))
        elif case == "fe7x7":
            E = canonicalize(heat_problem((7, 7))[0].E)
            pat = inverse_pattern(E, 2)
        elif case == "zero-row":
            # E's row and column 5 are empty, so column 5's problem, on
            # the support {5}, has no rows
            E = _fe_mass(12).tolil()
            E[5, :] = 0.0
            E[:, 5] = 0.0
            E = canonicalize(E)
            pat = inverse_pattern(E, 1)
        else:
            E = _fe_mass(12)
            pat = inverse_pattern(E, 1).tolil()
            pat[:, 5] = 0.0
        pat = binarize(pat)
        assert case != "empty-column" or pat.getcol(5).nnz == 0
        assert case != "zero-row" or (
            pat.getcol(5).nonzero()[0].tolist() == [5]
            and (binarize(E) @ pat).getcol(5).nnz == 0)
        forms = []
        for Es, ps in ((E, pat), (E.T.tocsr(), pat.T.tocsr())):
            forms.append(_spai_one_sided(Es, ps))
            # a stacked QR per group of equal-shaped problems against one
            # lstsq per column: the same entries, equal to rounding
            X, ref = forms[-1], _spai_slicing(Es, ps)
            assert np.array_equal(X.indptr, ref.indptr)
            assert np.array_equal(X.indices, ref.indices)
            np.testing.assert_allclose(X.data, ref.data, rtol=0,
                                       atol=1e-14 * np.abs(ref.data).max())
        if case != "empty-column":
            # E and pat are symmetric, so the row form min ||I - X E||_F,
            # the transpose of forms[1], is the column form's transpose,
            # and spai returns the column form
            assert bitwise_equal(forms[1], forms[0])
            assert bitwise_equal(spai(E, pat)[0], forms[0])
        if case == "zero-row":
            # column 5 solves to 0, and e_5 stays in the residual
            assert forms[0].getcol(5).nnz == 0
            assert spai(E, pat)[1] > 1.0

    def test_rank_deficient_subproblem_no_failure(self):
        E = _csr([[1.0, 1.0], [1.0, 1.0]])     # singular
        X, res = spai(E, full_pattern(2))
        assert np.all(np.isfinite(X.toarray()))


class TestSpectrumBounds:
    def test_diagonal(self):
        b = spectrum_bounds(_csr(np.diag([-1.0, -2.0, -3.0])))
        assert b.lambda_RS == pytest.approx(-3.0)
        assert b.lambda_RL == pytest.approx(-1.0)
        assert b.lambda_IL == pytest.approx(0.0, abs=1e-12)

    def test_complex_pair(self):
        b = spectrum_bounds(_csr([[-1.0, 2.0], [-2.0, -1.0]]))
        assert b.lambda_RS == pytest.approx(-1.0)
        assert b.lambda_RL == pytest.approx(-1.0)
        assert b.lambda_IL == pytest.approx(2.0)

    def test_heat_model_bounds_bracket_dense_eigs(self):
        model, prob = heat_problem((10, 10))
        _F, Abar, P = newton_start(prob)
        A1, _P1, _res = transformed_problem(Abar, model.E, P, k1=3)
        b = spectrum_bounds(A1)
        lam = np.linalg.eigvals(A1.toarray())
        assert lam.real.min() >= b.lambda_RS - 1e-9
        assert lam.real.max() <= b.lambda_RL + 1e-9
        assert np.abs(lam.imag).max() <= b.lambda_IL + 1e-9

    def test_arpack_bounds_enclose_dense_bounds(self, monkeypatch):
        A1 = _heat_a1((10, 10))
        dense = spectrum_bounds(A1)
        monkeypatch.setattr(bandlq.lyap_gp, "_DENSE_EIG_LIMIT", 0)
        arpack = spectrum_bounds(A1)
        assert arpack.lambda_RS <= dense.lambda_RS
        assert arpack.lambda_RL >= dense.lambda_RL
        assert arpack.lambda_IL >= dense.lambda_IL

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            SpectrumBounds(-1.0, -2.0, 0.0)
        with pytest.raises(ValueError):
            SpectrumBounds(-2.0, -1.0, -0.5)

    @pytest.mark.parametrize("bounds", [(-2.0, np.nan, 0.0),
                                        (np.nan, -1.0, 0.0),
                                        (-2.0, -1.0, np.nan)])
    def test_nan_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            SpectrumBounds(*bounds)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan])
    def test_scale_not_above_0_rejected(self, t):
        with pytest.raises(ValueError, match="time scale"):
            SpectrumBounds(-2.0, -1.0, 0.0).scaled(t)


class TestQuadratureNodes:
    def test_psi_formula(self):
        psi, _nodes = quadrature_nodes(5, SpectrumBounds(-3.0, -1.5, 0.0))
        assert psi == pytest.approx(1.0)

    def test_center_node(self):
        q = 7
        psi, nodes = quadrature_nodes(q, SpectrumBounds(-3.0, -1.5, 0.0))
        t0, w0 = nodes[q]
        assert w0 == pytest.approx((2.0 * q) ** -0.5)
        assert t0 == pytest.approx(psi * np.log(1.0 + np.sqrt(2.0)))

    def test_independent_formula_evaluation(self):
        # re-derive the three formulas with a separate code path
        q = 40
        bounds = SpectrumBounds(-8.0, -2.0, 1.0)
        psi, nodes = quadrature_nodes(q, bounds)
        assert psi == pytest.approx(3.0 / (2.0 * 2.0))
        sq = np.sqrt(float(q))
        for idx, j in enumerate(range(-q, q + 1)):
            ej = np.exp(j / sq)
            w_ref = (q + q * np.exp(-2.0 * j / sq)) ** -0.5
            t_ref = np.log(ej + np.sqrt(1.0 + ej * ej))
            assert nodes[idx][1] == pytest.approx(w_ref, rel=1e-13)
            assert nodes[idx][0] == pytest.approx(psi * t_ref, rel=1e-13)

    def test_nodes_increasing_weights_positive(self):
        _psi, nodes = quadrature_nodes(12, SpectrumBounds(-5.0, -1.0, 0.0))
        ts = [t for t, _w in nodes]
        assert all(w > 0 for _t, w in nodes)
        assert np.all(np.diff(ts) > 0)

    def test_unstable_matrix_rejected(self):
        with pytest.raises(UnstableMatrixError):
            quadrature_nodes(5, SpectrumBounds(-1.0, 0.5, 0.0))

    def test_nan_real_part_rejected(self):
        # SpectrumBounds holds no NaN, so the bounds here are a stand-in
        bounds = types.SimpleNamespace(lambda_RS=-2.0, lambda_RL=np.nan,
                                       lambda_IL=0.0)
        with pytest.raises(UnstableMatrixError):
            quadrature_nodes(5, bounds)

    def test_no_node_rejected(self):
        with pytest.raises(ValueError, match="q must be >= 1"):
            quadrature_nodes(0, SpectrumBounds(-2.0, -1.0, 0.0))


class TestFaberCoefficients:
    def test_degenerate_ellipse_matches_chebyshev(self):
        # c3 = 4 c2^2 collapses the ellipse to [-2c2, 2c2] on the real axis
        c2 = 0.75
        c3 = 4.0 * c2 * c2
        a = faber_coefficients(c2, c3, 0.0, W=4096, p=20)
        theta = np.pi * (np.arange(2000) + 0.5) / 2000
        x = 2.0 * c2 * np.cos(theta)
        for l in range(21):
            ref = np.mean(np.exp(x) * np.cos(l * theta))
            assert a[l] == pytest.approx(ref, abs=1e-8)

    def test_constant_limit(self):
        # as the ellipse collapses to the origin, exp degenerates to the
        # constant 1: a_0 -> 1 and the higher coefficients vanish at the
        # rate of the ellipse radius
        a = faber_coefficients(1e-9, 1e-18, 0.0, W=2048, p=10)
        assert a[0] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.abs(a[1:]) <= 1e-8)

    def test_scalar_reconstruction_symmetric_case(self):
        # lambda_IL = 0: reconstructed series matches exp on [RS, RL]
        bounds = SpectrumBounds(-4.0, -0.5, 0.0)
        c1 = 0.5 * (bounds.lambda_RL - bounds.lambda_RS)
        c4 = 0.5 * (bounds.lambda_RL + bounds.lambda_RS)
        c2, c3 = 0.5 * c1, c1 * c1
        p = 30
        a = faber_coefficients(c2, c3, c4, W=2048, p=p)
        scale = np.sqrt(c3) / (2.0 * c2)       # = 1 in the symmetric case
        assert scale == pytest.approx(1.0)
        for x in np.linspace(bounds.lambda_RS, bounds.lambda_RL, 11):
            y = (x - c4) / np.sqrt(c3)
            acc = a[0]
            t_prev, t_cur = 1.0, y
            if p >= 1:
                acc += a[1] * 2.0 * scale * t_cur
            pw = scale
            for l in range(2, p + 1):
                t_prev, t_cur = t_cur, 2.0 * y * t_cur - t_prev
                pw *= scale
                acc += a[l] * 2.0 * pw * t_cur
            assert acc == pytest.approx(np.exp(x), abs=1e-6)

    def test_nan_c2_rejected(self):
        with pytest.raises(ValueError, match="c2"):
            faber_coefficients(np.nan, 1.0, 0.0)

    @pytest.mark.parametrize("key, value", [("p", np.nan), ("p", 2.5),
                                            ("k2", np.nan), ("k2", -1)])
    def test_config_rejects_a_count_not_a_nonnegative_integer(self, key,
                                                              value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            GpConfig(**{key: value})

    def test_config_bounds_p_by_the_dft_length(self):
        # the coefficients' DFT of length 2048 needs 4p < 2048
        with pytest.raises(ValueError, match="p must be <= 511"):
            GpConfig(p=512)
        assert GpConfig(p=511).p == 511


class TestFaberExpm:
    def test_diagonal_exponential(self):
        A1 = _csr(np.diag([-1.0, -2.0]))
        b = spectrum_bounds(A1)
        K = faber_expm(A1, 1.0, b, GpConfig(p=20, k2=2))
        np.testing.assert_allclose(K.toarray(),
                                   np.diag([np.exp(-1.0), np.exp(-2.0)]),
                                   atol=1e-8)

    def test_flat_ellipse_rejected(self):
        # an imaginary extent this large against the real one gives c3 < 0
        bounds = SpectrumBounds(-2.0, -1.0, 5.0)
        assert _faber_constants(bounds)[2] <= 0
        with pytest.raises(ValueError, match="invalid spectral ellipse"):
            faber_basis(-1.5 * identity(3), bounds)

    def test_symmetric_constants_identity(self):
        b = SpectrumBounds(-7.0, -0.25, 0.0)
        c1, c2, c3, c4 = _faber_constants(b)
        assert c2 == pytest.approx(c1 / 2.0, abs=1e-12)
        assert c3 == pytest.approx(c1 * c1, abs=1e-12)

    @pytest.mark.parametrize("bounds", [SpectrumBounds(-7.0, -0.25, 0.0),
                                        SpectrumBounds(-8.0, -2.0, 1.0),
                                        SpectrumBounds(-3.0, -1.0, 5.0)])
    def test_constants_scale_with_t(self, bounds):
        # c1, c2, c4 scale as t and c3 as t^2, so A2 and the weights
        # sqrt(c3)/(2 c2) of the Faber basis do not depend on t
        c = np.array(_faber_constants(bounds))
        for t in (1e-3, 0.37, 2.5, 40.0):
            ct = np.array(_faber_constants(bounds.scaled(t)))
            np.testing.assert_allclose(ct, c * [t, t, t * t, t],
                                       rtol=1e-13)

    @pytest.mark.parametrize("k2", [0, 1, 4, 100])
    @pytest.mark.parametrize("p", [0, 1, 30])
    def test_shared_basis_matches_per_node_recurrence(self, k2, p):
        # k2 = 0 leaves T_1 = A2 outside the projection pattern;
        # k2 = 100 >= n runs the recurrence without projection
        A1 = _heat_a1((8, 8))
        b = spectrum_bounds(A1)
        cfg = GpConfig(p=p, k2=k2)
        basis = faber_basis(A1, b, cfg)
        _psi, nodes = quadrature_nodes(40, b)
        for t, _w in nodes[::20]:
            ref = _per_node_faber(A1, t, b, cfg)
            for K in (faber_expm(A1, t, b, cfg, basis=basis),
                      faber_expm(A1, t, b, cfg)):
                assert frobenius(K - ref) <= 1e-12 * frobenius(ref)

    def test_heat_model_error_decreases_with_p(self):
        model, prob = heat_problem((8, 8))
        _F, Abar, P = newton_start(prob)
        A1, _P1, _res = transformed_problem(Abar, model.E, P, k1=3)
        b = spectrum_bounds(A1)
        t = 0.1
        ref = dense_expm(t * A1.toarray())
        rn = np.linalg.norm(ref)
        errs = []
        for p in (5, 10, 20, 30):
            K = faber_expm(A1, t, b, GpConfig(p=p, k2=4))
            errs.append(np.linalg.norm(K.toarray() - ref) / rn)
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi * (1.0 + 1e-8)      # sparsification may plateau

    def test_result_respects_projection_pattern(self):
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_start(prob)
        A1, _P1, _res = transformed_problem(Abar, model.E, P, k1=2)
        b = spectrum_bounds(A1)
        from bandlq.sparsecore import pattern_power_sum
        cfg = GpConfig(p=15, k2=1)
        K = faber_expm(A1, 0.05, b, cfg)
        A2pat = pattern_power_sum(binarize(A1), 1)
        assert K.nnz <= A2pat.nnz


class TestInitialGuess:
    def test_scalar_integral(self):
        X3, info = initial_guess(_csr([[-1.0]]), identity(1), _csr([[-2.0]]),
                                 cfg=GpConfig(q=40, p=20))
        assert abs(X3.toarray()[0, 0] - 1.0) < 0.05

    def test_decoupled_diagonal(self):
        X3, _info = initial_guess(_csr(np.diag([-1.0, -2.0])), identity(2),
                                  _csr(-np.eye(2)), cfg=GpConfig(q=40))
        d = np.diag(X3.toarray())
        assert abs(d[0] - 0.5) <= 0.05 * 0.5
        assert abs(d[1] - 0.25) <= 0.05 * 0.25

    def test_heat_model_error_decreases_with_q(self):
        model, prob = heat_problem((10, 10))
        _F, Abar, P = newton_start(prob)
        Zex = dense_lyap(Abar, model.E, P, max_n=2000)
        errs = []
        for q in (5, 10, 20, 40):
            X3, _info = initial_guess(Abar, model.E, P, cfg=GpConfig(q=q))
            errs.append(metric_e(X3, sp.csr_matrix(Zex)))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo < hi

    def test_quadrature_with_exact_expm_improves_with_q(self):
        # full-trust variant: exact dense exponentials isolate the
        # quadrature error, which must drop sharply from q = 5 to q = 20
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_start(prob)
        A1, P1, _res = transformed_problem(Abar, model.E, P, k1=3)
        bounds = spectrum_bounds(A1)
        Xex = dense_lyap(sp.csr_matrix(A1.toarray().T), identity(model.n),
                         P1, max_n=400)
        errs = []
        for q in (5, 20):
            psi, nodes = quadrature_nodes(q, bounds)
            X2 = np.zeros((model.n, model.n))
            for t_j, w_j in nodes:
                K = dense_expm(t_j * A1.toarray())
                X2 -= psi * w_j * (K @ P1.toarray() @ K.T)
            errs.append(np.linalg.norm(X2 - Xex) / np.linalg.norm(Xex))
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("case", ["heat-q5", "heat-q40", "scalar",
                                      "diagonal", "narrow", "heat-q5-csr"])
    def test_dense_accumulation_matches_sparse_reference(self, case,
                                                          monkeypatch):
        # each node's K is filled at these sizes, so its products run by
        # GEMM; "-csr" takes the CSR x dense products of an unfilled K
        if case.startswith("heat"):
            model, prob = heat_problem((10, 10))
            _F, Abar, P = newton_start(prob)
            E, cfg = model.E, GpConfig(q=int(case.split("-")[1][1:]))
            if case.endswith("csr"):
                monkeypatch.setattr(bandlq.lyap_gp, "filled", lambda M: False)
        elif case == "scalar":          # every node collapses
            Abar, E, P = _csr([[-1.0]]), identity(1), _csr([[-2.0]])
            cfg = GpConfig(q=40, p=20)
        elif case == "diagonal":
            Abar, E, P = _csr(np.diag([-1.0, -2.0])), identity(2), \
                _csr(-np.eye(2))
            cfg = GpConfig(q=40)
        else:                           # the first nodes collapse, the last not
            Abar, E, P = _csr(np.diag(-1.0 - 1e-12 * np.arange(3) / 2)), \
                identity(3), _csr(-np.eye(3))
            cfg = GpConfig(q=40)
            A1, _P1, _res = transformed_problem(Abar, E, P, cfg.k1)
            bounds = spectrum_bounds(A1)
            collapsed = [_collapses(bounds.scaled(t_j)) for t_j, _w
                         in quadrature_nodes(cfg.q, bounds)[1]]
            assert collapsed[0] and not collapsed[-1]
        X3, info = initial_guess(Abar, E, P, cfg=cfg)
        ref = _sparse_x3(Abar, E, P, cfg)
        assert X3.nnz == ref.nnz
        assert info["fill"] == ref.nnz / float(ref.shape[0] ** 2)
        assert frobenius(X3 - ref) <= 1e-13 * frobenius(ref)

    @pytest.mark.parametrize("q", [1, 5])
    def test_probed_functions_called_through_module(self, monkeypatch, q):
        # perfbench times X3 by wrapping these module-level names; inlining
        # one of them would leave its span empty
        import bandlq.lyap_gp as lyap_gp
        calls = {}
        for name in ("spai", "spectrum_bounds", "faber_expm"):
            def counted(*args, _f=getattr(lyap_gp, name), _n=name, **kw):
                calls[_n] = calls.get(_n, 0) + 1
                return _f(*args, **kw)
            monkeypatch.setattr(lyap_gp, name, counted)
        model, prob = heat_problem((4, 4))
        _F, Abar, P = newton_start(prob)
        initial_guess(Abar, model.E, P, cfg=GpConfig(q=q))
        assert calls == {"spai": 1, "spectrum_bounds": 1,
                         "faber_expm": 2 * q + 1}

    def test_unstable_input_rejected(self):
        with pytest.raises(UnstableMatrixError):
            initial_guess(_csr([[1.0]]), identity(1), _csr([[-2.0]]))


class TestSolveLyapGp:
    def test_scalar_converges(self):
        Z, rep = _gp(_csr([[-1.0]]), identity(1), _csr([[-2.0]]),
                     full_pattern(1),
                     canonicalize(sp.csr_matrix((1, 1))),
                     cfg=GpConfig(max_iter=4000))
        assert abs(Z.toarray()[0, 0] - 1.0) <= 1e-8

    def test_objective_nonincreasing(self, rng):
        n = 8
        A = _csr(random_banded(n, 1, rng) - 4.0 * np.eye(n))
        P0 = random_banded(n, 1, rng)
        P = _csr(P0 + P0.T)
        pat = apriori_pattern(A, identity(n), P, w=1)
        _Z, rep = _gp(A, identity(n), P, pat,
                      canonicalize(sp.csr_matrix((n, n))),
                      cfg=GpConfig(max_iter=300))
        J = rep.extra["J_history"]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(J, J[1:]))

    def test_iterates_inside_pattern(self, rng):
        n = 8
        A = _csr(random_banded(n, 1, rng) - 4.0 * np.eye(n))
        P0 = random_banded(n, 1, rng)
        P = _csr(P0 + P0.T)
        pat = apriori_pattern(A, identity(n), P, w=0)
        Z, _rep = _gp(A, identity(n), P, pat,
                      canonicalize(sp.csr_matrix(
                          rng.standard_normal((n, n)))),
                      cfg=GpConfig(max_iter=50))
        assert (binarize(Z) - pat.multiply(binarize(Z))).nnz == 0
        # on a heat model too, with or without iterations
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        X0 = canonicalize(sp.csr_matrix((model.n, model.n)))
        for max_iter in (0, 50):
            Z, rep = _gp(Abar, model.E, P, pat, X0,
                         cfg=GpConfig(max_iter=max_iter))
            assert rep.iterations == max_iter
            assert (binarize(Z) - pat.multiply(binarize(Z))).nnz == 0

    def test_factors_match_dense_form(self, monkeypatch):
        # fd-5point 9^2 runs on the factors; the dense form takes the same
        # steps to rounding
        model, prob = heat_problem((9, 9), discretization="fd-5point")
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        X0 = canonicalize(sp.csr_matrix((model.n, model.n)))
        cfg = GpConfig(max_iter=60)
        Z, rep = _gp(Abar, model.E, P, pat, X0, cfg=cfg)
        monkeypatch.setattr(bandlq.lyap_lsq, "_FACTOR_FILL", -1.0)
        monkeypatch.setattr(bandlq.lyap_lsq, "filled", lambda M: False)
        Zd, rep_d = _gp(Abar, model.E, P, pat, X0, cfg=cfg)
        assert rep.extra["operator_form"] == "factors"
        assert rep_d.extra["operator_form"] == "dense"
        assert rep.stored_entries < rep_d.stored_entries
        assert rep.iterations == rep_d.iterations == 60
        np.testing.assert_allclose(rep.extra["J_history"],
                                   rep_d.extra["J_history"], rtol=1e-12)
        assert frobenius(Z - Zd) <= 1e-12 * frobenius(Zd)

    def test_gradient_matches_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 10
            A = _csr(random_banded(n, 2, rng) - 5.0 * np.eye(n))
            E = _csr(random_banded(n, 1, rng) + 4.0 * np.eye(n))
            P0 = random_banded(n, 2, rng)
            P = _csr(P0 + P0.T)
            Zt = _csr(random_banded(n, 2, rng))

            def J_of(Zm):
                R = P.toarray() - E.toarray().T @ Zm @ A.toarray() \
                    - A.toarray().T @ Zm @ E.toarray()
                return np.linalg.norm(R) ** 2

            R = canonicalize(P - E.T @ Zt @ A - A.T @ Zt @ E)
            N = canonicalize(-2.0 * (E @ R @ A.T) - 2.0 * (A @ R @ E.T))
            Nd = N.toarray()
            h = 1e-6
            Z0 = Zt.toarray()
            scale = max(np.abs(Nd).max(), 1.0)
            for i, j in [(0, 0), (3, 4), (5, 5), (9, 7), (2, 8)]:
                Ep = Z0.copy()
                Em = Z0.copy()
                Ep[i, j] += h
                Em[i, j] -= h
                fd = (J_of(Ep) - J_of(Em)) / (2.0 * h)
                assert abs(fd - Nd[i, j]) <= 1e-5 * scale

    def test_heat_model_w1_with_x3_start(self, monkeypatch):
        # the pattern-constrained solve from the quadrature start reaches
        # a moderate relative error within the fixed iteration budget, at
        # 32 times the default step (still far below the bound 1/2 on
        # delta ||M||_2^2)
        model, prob = heat_problem((13, 13))
        _F, Abar, P = newton_start(prob)
        Zex = dense_lyap(Abar, model.E, P, max_n=2000)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        X0, _info = initial_guess(Abar, model.E, P)
        monkeypatch.setattr(bandlq.lyap_gp, "default_delta_bar",
                            lambda A, E: 32.0 * default_delta_bar(A, E))
        Z, rep = _gp(Abar, model.E, P, pat, project(X0, pat),
                     cfg=GpConfig(max_iter=4000))
        e = metric_e(Z, sp.csr_matrix(Zex))
        print(f"gp heat 13x13 w=1 relative error: {e:.4f}")
        assert not rep.extra["stalled"]
        assert e <= 0.3

    def test_converged_only_when_stagnated(self, monkeypatch):
        # on the scalar equation -2 Z = -2 from Z = 5, the cap and a stall
        # leave the solve unconverged, and only the stagnation rule counts
        # as converged
        args = (_csr([[-1.0]]), identity(1), _csr([[-2.0]]), full_pattern(1),
                canonicalize(sp.csr_matrix(np.array([[5.0]]))))
        _Z, capped = _gp(*args, cfg=GpConfig(max_iter=3))
        assert capped.iterations == 3 and not capped.extra["stalled"]
        assert not capped.converged
        _Z, done = _gp(*args, cfg=GpConfig(max_iter=4000))
        assert done.iterations < 4000 and not done.extra["stalled"]
        assert done.converged
        # a step far too long raises J, which stalls the solve at once
        monkeypatch.setattr(bandlq.lyap_gp, "default_delta_bar",
                            lambda A, E: 1e30)
        Z, stalled = _gp(*args, cfg=GpConfig(max_iter=5))
        assert stalled.iterations == 0 and stalled.extra["stalled"]
        assert not stalled.converged
        assert Z.toarray()[0, 0] == 5.0

    def test_non_finite_step_stalls_after_one_apply(self, monkeypatch):
        # a NaN start makes J non-finite: after the start's apply in
        # coordinates, the first step's one adjoint and one apply in the
        # working layout stall the solve, where a backtracking search would
        # try 61 steps
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_start(prob)
        op = GlOperator(Abar, model.E, apriori_pattern(Abar, model.E, P),
                        P)
        assert op.form == "dense-abar"
        calls = {"_matvec": 0, "_rmatvec": 0, "apply": 0, "adjoint": 0}
        for name in calls:
            def counted(self, z, _call=getattr(GlOperator, name),
                        _name=name):
                calls[_name] += 1
                return _call(self, z)
            monkeypatch.setattr(GlOperator, name, counted)
        x0 = np.full(op.shape[1], np.nan)
        _z, rep = solve_lyap_gp(op, x0, GpConfig(max_iter=50))
        assert calls == {"_matvec": 1, "_rmatvec": 0, "apply": 1,
                         "adjoint": 1}
        assert rep.extra["stalled"] and not rep.converged
        assert rep.iterations == 0

    @pytest.mark.parametrize("form", ["factors", "dense", "dense-abar"])
    @pytest.mark.parametrize("case", ["cap", "stagnation", "stall", "heat"])
    def test_layout_loop_matches_coordinate_reference(self, monkeypatch,
                                                      form, case):
        # the loop in the working layout takes the reference's steps to
        # rounding, and stops where and as it does: at the cap, on
        # stagnation and on a stall (the cases of
        # test_converged_only_when_stagnated), and on fe 6^2 from a
        # random start
        if case == "heat":
            model, prob = heat_problem((6, 6))
            _F, Abar, P = newton_start(prob)
            E, pat = model.E, apriori_pattern(Abar, model.E, P, w=1)
            X0, max_iter = None, 60
        else:
            Abar, E, P, pat = (_csr([[-1.0]]), identity(1), _csr([[-2.0]]),
                               full_pattern(1))
            X0 = canonicalize(sp.csr_matrix(np.array([[5.0]])))
            max_iter = {"cap": 3, "stagnation": 4000, "stall": 5}[case]
        if case == "stall":
            monkeypatch.setattr(bandlq.lyap_gp, "default_delta_bar",
                                lambda A, E: 1e30)
        monkeypatch.setattr(bandlq.lyap_lsq, "_FACTOR_FILL",
                            np.inf if form == "factors" else -1.0)
        monkeypatch.setattr(bandlq.lyap_lsq, "filled",
                            lambda M: form == "dense-abar")
        op = GlOperator(Abar, E, pat, P)
        assert op.form == form
        x0 = (1e-3 * np.random.default_rng(2).standard_normal(op.shape[1])
              if X0 is None else op.inputs.fold(X0))
        cfg = GpConfig(max_iter=max_iter)
        z, rep = solve_lyap_gp(op, x0, cfg)
        z_ref, J_ref, stalled, stagnated = _gp_coords(op, x0, cfg)
        np.testing.assert_allclose(rep.extra["J_history"], J_ref, rtol=1e-12)
        assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
        assert (rep.extra["stalled"], rep.converged) == (stalled, stagnated)
        assert rep.final_residual == pytest.approx(np.sqrt(J_ref[-1]),
                                                   rel=1e-12)
        expected = {"cap": (False, False), "stagnation": (False, True),
                    "stall": (True, False), "heat": (False, False)}[case]
        assert (stalled, stagnated) == expected

    @pytest.mark.parametrize("form", ["factors", "dense", "dense-abar"])
    @pytest.mark.parametrize("case", ["random-0", "random-1", "random-2",
                                      "fe-6", "fe-13"])
    def test_default_step_is_below_the_armijo_bound(self, monkeypatch,
                                                    form, case):
        # ||M||_2 <= 2 ||E||_F ||Abar||_F, so delta_bar ||M||_2^2 <= 1/2:
        # every step at delta_bar lowers J by at least delta_bar ||g||^2 / 2
        if case.startswith("random"):
            rng = np.random.default_rng(int(case[-1]))
            n = 10
            Abar = _csr(random_banded(n, 2, rng) - 5.0 * np.eye(n))
            E = _csr(random_banded(n, 1, rng) + 4.0 * np.eye(n))
            P0 = random_banded(n, 2, rng)
            P = _csr(P0 + P0.T)
        else:
            side = int(case[3:])
            model, prob = heat_problem((side, side))
            _F, Abar, P = newton_start(prob)
            E = model.E
        pat = apriori_pattern(Abar, E, P, w=1)
        # the factor bound picks the factors; FILL_DIVISOR infinity makes
        # Abar filled, 1 leaves it sparse
        monkeypatch.setattr(bandlq.lyap_lsq, "_FACTOR_FILL",
                            np.inf if form == "factors" else -1.0)
        monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR",
                            np.inf if form == "dense-abar" else 1)
        op = GlOperator(Abar, E, pat, P)
        assert op.form == form
        norm = spla.svds(op, k=1, return_singular_vectors=False)[0]
        assert default_delta_bar(op.Abar, op.E) * norm ** 2 <= 0.5

    def test_given_r0_saves_the_start_apply(self, monkeypatch, rng):
        # r0 = p - M x0 from the caller gives the run without it bit for
        # bit, one apply fewer, and the caller's r0 is left alone
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        op = GlOperator(Abar, model.E, pat, P)
        x0 = 1e-3 * rng.standard_normal(op.shape[1])
        r0 = op.rhs - op @ x0
        before = r0.copy()
        matvec, applies = GlOperator._matvec, []

        def counted(self, z):
            applies.append(z)
            return matvec(self, z)

        monkeypatch.setattr(GlOperator, "_matvec", counted)
        cfg = GpConfig(max_iter=30)
        z, rep = solve_lyap_gp(op, x0, cfg)
        own = len(applies)
        zr, given = solve_lyap_gp(op, x0, cfg, r0)
        assert len(applies) - own == own - 1
        assert given.iterations == rep.iterations == 30
        assert zr.tobytes() == z.tobytes()
        assert given.extra["J_history"] == rep.extra["J_history"]
        assert given.final_residual == rep.final_residual
        assert r0.tobytes() == before.tobytes()
