"""Inexact Newton Riccati solver, feedback, metrics, closed-loop simulation."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.control import (LqProblem, NewtonConfig, RiccatiDivergence,
                            feedback, metric_e, newton_step_matrices,
                            riccati_residual, simulate_closed_loop,
                            solve_lyap, solve_riccati)
from bandlq.lyap_gp import FaberConfig, GpConfig, initial_guess, solve_lyap_gp
from bandlq.lyap_lsq import CglsConfig, GlOperator, solve_lyap_lsq
from bandlq.oracle import dense_riccati, pencil_eigs
from bandlq.pattern import apriori_pattern
from bandlq.sparsecore import canonicalize, frobenius, identity
from conftest import (full_pattern, heat_problem, nan_lyap_solve_at,
                      random_banded, scalar_problem)

SQRT2M1 = np.sqrt(2.0) - 1.0


def _csr(M):
    return canonicalize(sp.csr_matrix(np.asarray(M, dtype=np.float64)))


class TestRiccatiResidual:
    def test_zero_argument(self):
        model, prob = heat_problem((4, 4))
        R = riccati_residual(canonicalize(sp.csr_matrix((16, 16))), prob)
        assert (R != prob.ctqc()).nnz == 0

    def test_scalar_root(self):
        _model, prob = scalar_problem()
        Z = _csr([[SQRT2M1]])
        assert frobenius(riccati_residual(Z, prob)) <= 1e-12

    def test_dense_oracle_solution_has_small_residual(self):
        model, prob = heat_problem((5, 4))
        Zex = dense_riccati(prob)
        R = riccati_residual(_csr(Zex), prob)
        assert frobenius(R) <= 1e-8

    def test_asymmetric_input_rejected(self):
        _model, prob = scalar_problem()
        model, prob2 = heat_problem((3, 3))
        bad = _csr(np.triu(np.ones((9, 9))))
        with pytest.raises(ValueError):
            riccati_residual(bad, prob2)


class TestFrechet:
    def test_newton_equation_identity(self):
        # the Newton step E^T Z Abar + Abar^T Z E = P is the rearranged
        # linearization D[Z_prev] + D'_{Z_prev}[Z - Z_prev] = 0
        rng = np.random.default_rng(5)
        model, prob = heat_problem((4, 2), seed=2)
        n = model.n
        Zp0 = random_banded(n, 2, rng)
        Z_prev = _csr(Zp0 + Zp0.T + 10.0 * np.eye(n))
        Zn0 = random_banded(n, 2, rng)
        Z_new = _csr(Zn0 + Zn0.T)
        _F, Abar, P = newton_step_matrices(Z_prev, prob)
        lhs = (model.E.T @ Z_new @ Abar + Abar.T @ Z_new @ model.E).toarray()
        E, A, B = model.E.toarray(), model.A.toarray(), model.B.toarray()
        Zp, Zn = Z_prev.toarray(), Z_new.toarray()
        Rinv = np.diag(1.0 / prob.R)
        ctqc = prob.ctqc().toarray()
        DZ = ctqc + E.T @ Zp @ A + A.T @ Zp @ E \
            - E.T @ Zp @ B @ Rinv @ B.T @ Zp @ E
        G = E.T @ Zp @ B @ Rinv @ B.T @ (Zn - Zp) @ E
        Dprime = E.T @ (Zn - Zp) @ A + A.T @ (Zn - Zp) @ E - G - G.T
        np.testing.assert_allclose(lhs - P.toarray(), DZ + Dprime, atol=1e-10)


def _bitwise_equal(X, Y):
    return all(np.array_equal(a, b) for a, b in
               ((X.indptr, Y.indptr), (X.indices, Y.indices),
                (X.data, Y.data)))


class TestSolveLyap:
    CGLS = CglsConfig(tol=1e-9)
    GP = GpConfig(max_iter=30, q=10)
    FABER = FaberConfig(p=10)

    @pytest.fixture(scope="class")
    def step1(self):
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_step_matrices(10.0 * identity(model.n), prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        return Abar, model.E, P, pat

    def _solve(self, step1, method, X0=None):
        return solve_lyap(*step1, method, X0=X0, cgls_cfg=self.CGLS,
                          gp_cfg=self.GP, faber_cfg=self.FABER)

    def test_lsq_from_zero_is_method_1(self, step1):
        Z, rep = self._solve(step1, "lsq")
        Zref, ref = solve_lyap_lsq(*step1, cfg=self.CGLS)
        assert _bitwise_equal(Z, Zref)
        assert rep.iterations == ref.iterations

    def test_gp_from_x3_is_method_2(self, step1):
        Abar, E, P, pat = step1
        Z, rep = self._solve(step1, "gp")
        X3, _info = initial_guess(Abar, E, P, cfg=self.GP, fcfg=self.FABER)
        Zref, ref = solve_lyap_gp(Abar, E, P, pat, X3, cfg=self.GP)
        assert _bitwise_equal(Z, Zref)
        assert rep.extra["J_history"] == ref.extra["J_history"]

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_given_start_is_used(self, step1, method):
        X0 = self._solve(step1, "lsq")[0]
        Z, _rep = self._solve(step1, method, X0=X0)
        if method == "lsq":
            Zref, _ = solve_lyap_lsq(*step1, cfg=self.CGLS, X0=X0)
        else:
            Zref, _ = solve_lyap_gp(*step1, X0, cfg=self.GP)
        assert _bitwise_equal(Z, Zref)

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_residual_2norm_is_the_gl_residual(self, step1, method):
        Abar, E, P, pat = step1
        Z, rep = self._solve(step1, method)
        op = GlOperator(Abar, E, pat, P)
        r = op.rhs - op @ op.restrict(Z)
        assert rep.extra["residual_2norm"] == pytest.approx(
            np.linalg.norm(r), rel=1e-12)

    def test_unknown_method_rejected(self, step1):
        with pytest.raises(ValueError, match="direct"):
            self._solve(step1, "direct")


class TestSolveRiccati:
    def test_scalar_converges_to_root(self):
        _model, prob = scalar_problem()
        Z, _reports, _F = solve_riccati(
            prob, cfg=NewtonConfig(N_max=20, residual_tol=1e-12),
            cgls_cfg=CglsConfig(tol=1e-12))
        assert abs(Z.toarray()[0, 0] - SQRT2M1) <= 1e-6

    def test_full_pattern_matches_dense_oracle(self):
        model, prob = heat_problem((5, 5))
        Z, _reports, _F = solve_riccati(
            prob,
            cfg=NewtonConfig(N_max=25, residual_tol=1e-10),
            cgls_cfg=CglsConfig(tol=1e-10),
            pattern=full_pattern(model.n))
        Zex = dense_riccati(prob)
        assert metric_e(Z, sp.csr_matrix(Zex)) <= 1e-5

    def test_feedback_matches_oracle_feedback(self):
        model, prob = heat_problem((5, 5))
        Z, _reports, F = solve_riccati(
            prob,
            cfg=NewtonConfig(N_max=25, residual_tol=1e-10),
            cgls_cfg=CglsConfig(tol=1e-10),
            pattern=full_pattern(model.n))
        assert _bitwise_equal(F, feedback(Z, prob))
        Zex = dense_riccati(prob)
        Fex = np.diag(1.0 / prob.R) @ model.B.toarray().T @ Zex \
            @ model.E.toarray()
        err = np.linalg.norm(F.toarray() - Fex)
        assert err <= 1e-4 * max(np.linalg.norm(Fex), 1.0)

    def test_pattern_solution_containment(self):
        model, prob = heat_problem((6, 6), discretization="fd-5point")
        cfg = NewtonConfig(N_max=6, residual_tol=1e-9, w=1)
        Z, reports, _F = solve_riccati(prob, cfg=cfg)
        assert frobenius(Z - Z.T) <= 1e-10 * max(frobenius(Z), 1.0)
        assert len(reports) <= 6

    def test_default_pattern_is_the_step_1_pattern(self):
        # without a pattern every step solves on the order-w pattern of
        # step 1; on fd-5point 6x6 the later steps' own patterns are wider
        model, prob = heat_problem((6, 6), discretization="fd-5point")
        cfg = NewtonConfig(N_max=4, residual_tol=0.0, w=1)
        _F, Abar, P = newton_step_matrices(
            canonicalize(cfg.Z0_scale * identity(model.n)), prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        Z, reports, F = solve_riccati(prob, cfg=cfg)
        Zp, given, Fp = solve_riccati(prob, cfg=cfg, pattern=pat)
        assert _bitwise_equal(Z, Zp) and _bitwise_equal(F, Fp)
        rows = [dataclasses.asdict(r) for r in reports + given]
        for row in rows:
            del row["wall_ms"]
        assert rows[:4] == rows[4:]

    def test_feedback_computed_once_per_iterate(self, monkeypatch):
        # Z_0 and each of the N new iterates get one feedback, which serves
        # both the report's nnz_F and the next step's GL equation
        import bandlq.control
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        fb = bandlq.control.feedback
        calls = []

        def counted(Z, prob):
            calls.append(Z)
            return fb(Z, prob)

        monkeypatch.setattr(bandlq.control, "feedback", counted)
        Z, reports, F = solve_riccati(
            prob, cfg=NewtonConfig(N_max=4, residual_tol=0.0))
        assert len(reports) == 4 and len(calls) == 5
        assert calls[-1] is Z
        # the returned F is the one the loop made for Z
        assert _bitwise_equal(F, fb(Z, prob))
        assert reports[-1].nnz_F == fb(Z, prob).nnz
        assert (Z != Z.T).nnz == 0

    def test_non_finite_residual_stops_the_loop(self, monkeypatch):
        _model, prob = heat_problem((4, 4))
        calls = nan_lyap_solve_at(monkeypatch, step=2)
        with pytest.raises(RiccatiDivergence, match="not finite") as exc:
            solve_riccati(prob, cfg=NewtonConfig(N_max=20, residual_tol=0.0))
        reports = exc.value.reports
        assert calls == [1, 2]
        assert [r.k for r in reports] == [1, 2]
        assert np.isfinite(reports[0].v_k) and np.isnan(reports[1].v_k)

    def test_warm_start_halves_inner_iterations(self, monkeypatch):
        # steps k >= 2 start CGLS from Z_{k-1}; the cold reference drops X0.
        # On fd-5point 6x6 the w = 1 pattern is truncated (584 of 1296
        # entries), so v_k levels off at the truncation error, far above the
        # inner tolerance, where both loops must agree
        import bandlq.control
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        cfg = NewtonConfig(N_max=8, residual_tol=1e-9, w=1)
        _Z, warm, _F = solve_riccati(prob, cfg=cfg)
        solve = bandlq.control.solve_lyap_lsq

        def cold_solve(*args, X0=None, **kwargs):
            return solve(*args, **kwargs)

        monkeypatch.setattr(bandlq.control, "solve_lyap_lsq", cold_solve)
        _Z, cold, _F = solve_riccati(prob, cfg=cfg)
        assert len(warm) == len(cold) == 8
        assert all(r.lyap_converged for r in warm + cold)
        warm_its = sum(r.lyap_iterations for r in warm)
        cold_its = sum(r.lyap_iterations for r in cold)
        assert warm_its <= cold_its / 2
        first = dataclasses.asdict(warm[0])
        first_cold = dataclasses.asdict(cold[0])
        del first["wall_ms"], first_cold["wall_ms"]
        assert first == first_cold
        for a, b in zip(warm, cold):
            assert a.v_k == pytest.approx(b.v_k, rel=1e-5)

    def test_feedback_sparsity_fraction_w0(self):
        # actuator-row selection of a banded Z keeps the feedback sparse
        model, prob = heat_problem((13, 13), discretization="fd-5point")
        cfg = NewtonConfig(N_max=8, residual_tol=1e-9, w=0)
        _Z, _reports, F = solve_riccati(prob, cfg=cfg)
        frac = F.nnz / float(F.shape[0] * F.shape[1])
        print(f"feedback fill at w=0: {100.0 * frac:.2f}%")
        assert frac < 0.15


class TestFeedbackAndMetric:
    def test_zero_gives_zero(self):
        _model, prob = scalar_problem()
        assert feedback(canonicalize(sp.csr_matrix((1, 1))), prob).nnz == 0

    def test_scalar_feedback(self):
        _model, prob = scalar_problem()
        F = feedback(_csr([[SQRT2M1]]), prob)
        assert F.toarray()[0, 0] == pytest.approx(SQRT2M1)

    def test_metric_trivial_cases(self, rng):
        Z = _csr(random_banded(6, 2, rng) + np.eye(6))
        assert metric_e(Z, Z) == 0.0
        assert metric_e(canonicalize(sp.csr_matrix((6, 6))), Z) == 1.0
        assert metric_e(canonicalize(1.1 * Z), Z) == pytest.approx(0.1,
                                                                   abs=1e-14)

    def test_metric_zero_reference_rejected(self):
        with pytest.raises(ZeroDivisionError):
            metric_e(identity(3), canonicalize(sp.csr_matrix((3, 3))))


class TestSimulateClosedLoop:
    def test_oracle_feedback_decays(self):
        model, prob = heat_problem((10, 10))
        Zex = dense_riccati(prob)
        F = _csr(np.diag(1.0 / prob.R) @ model.B.toarray().T @ Zex
                 @ model.E.toarray())
        lam = pencil_eigs(canonicalize(model.A - model.B @ F), model.E)
        assert lam.real.max() < 0
        x0 = np.ones(model.n)
        traj = simulate_closed_loop(prob, F, x0, dt=0.01, steps=2000)
        assert traj.state_norms[-1] < 1e-3 * np.linalg.norm(x0)

    def test_lq_cost_beats_zero_feedback(self):
        model, prob = heat_problem((7, 7))
        Zex = dense_riccati(prob)
        F = _csr(np.diag(1.0 / prob.R) @ model.B.toarray().T @ Zex
                 @ model.E.toarray())
        F0 = canonicalize(sp.csr_matrix((model.m, model.n)))
        rng = np.random.default_rng(17)
        for _ in range(3):
            x0 = rng.standard_normal(model.n)
            c_lq = simulate_closed_loop(prob, F, x0, dt=1e-3, steps=5000).cost
            c_open = simulate_closed_loop(prob, F0, x0, dt=1e-3,
                                          steps=5000).cost
            assert c_lq <= c_open * (1.0 + 1e-9)

    def test_invalid_dt(self):
        model, prob = heat_problem((3, 3))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        with pytest.raises(ValueError):
            simulate_closed_loop(prob, F, np.ones(9), dt=0.0, steps=10)

    def test_trajectory_downsampling(self):
        model, prob = heat_problem((3, 3))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        traj = simulate_closed_loop(prob, F, np.ones(9), dt=1e-3, steps=5000,
                                    max_rows=100)
        assert len(traj.times) <= 102


class TestLqProblemValidation:
    def test_negative_r_rejected(self):
        model, _prob = heat_problem((3, 3))
        with pytest.raises(ValueError):
            LqProblem(model, Q=np.ones(model.r), R=-np.ones(model.m))

    def test_negative_q_rejected(self):
        model, _prob = heat_problem((3, 3))
        with pytest.raises(ValueError):
            LqProblem(model, Q=-np.ones(model.r), R=np.ones(model.m))

    def test_wrong_lengths_rejected(self):
        model, _prob = heat_problem((3, 3))
        with pytest.raises(ValueError):
            LqProblem(model, Q=np.ones(model.r + 1), R=np.ones(model.m))


def test_newton_config_needs_a_step():
    with pytest.raises(ValueError, match="N_max"):
        NewtonConfig(N_max=0)
    assert NewtonConfig(N_max=1).N_max == 1
