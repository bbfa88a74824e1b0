"""Inexact Newton Riccati solver, feedback, metrics, closed-loop simulation."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import bandlq.lyap_gp

from bandlq.control import (LqProblem, NewtonConfig, RiccatiDivergence,
                            feedback, metric_e, newton_start,
                            newton_step_matrices, riccati_residual,
                            simulate_closed_loop, solve_lyap, solve_riccati)
from bandlq.lyap_gp import (GpConfig, default_delta_bar, initial_guess,
                            solve_lyap_gp)
from bandlq.lyap_lsq import CglsConfig, GlOperator, solve_lyap_lsq
from bandlq.modelgen import DescriptorModel
from bandlq.oracle import dense_riccati, pencil_eigs
from bandlq.pattern import apriori_pattern
from bandlq.report import SolveReport
from bandlq.sparsecore import (Permutation, ShapeMismatchError, canonicalize,
                               filled, frobenius, identity)
from conftest import (bitwise_equal, full_pattern, heat_problem,
                      nan_lyap_solve_at, random_banded, scalar_problem,
                      warm_cgls)

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

    def test_wrong_size_rejected(self):
        # the message names the model's (n, n) and the shape received
        _model, prob = heat_problem((3, 3))
        with pytest.raises(ShapeMismatchError, match=r"riccati_residual: "
                           r"incompatible shapes \(9, 9\) and \(4, 4\)"):
            riccati_residual(identity(4), prob)


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


    @pytest.mark.parametrize("nodes", [(4, 2), (9, 9)])
    def test_dense_and_sparse_p_agree(self, monkeypatch, nodes):
        # where F is filled P comes from a dense Gram product; the sparse
        # product gives the same support and the same values to rounding
        model, prob = heat_problem(nodes)
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        Z, _rep = solve_lyap(Abar, model.E, P, pat)
        runs = []
        # no F is filled at divisor 1, and every nonzero one at infinity
        for divisor in (1, np.inf):
            monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR", divisor)
            runs.append(newton_step_matrices(Z, prob))
        (Fs, Abar_s, Ps), (Fd, Abar_d, Pd) = runs
        assert bitwise_equal(Fs, Fd) and bitwise_equal(Abar_s, Abar_d)
        assert np.array_equal(Ps.indptr, Pd.indptr)
        assert np.array_equal(Ps.indices, Pd.indices)
        assert (Pd != Pd.T).nnz == 0
        np.testing.assert_allclose(Pd.data, Ps.data, rtol=1e-13,
                                   atol=1e-15 * abs(Ps.data).max())


class TestSolveLyap:
    CGLS = CglsConfig(tol=1e-9)
    GP = GpConfig(max_iter=30, q=10, p=10)

    @pytest.fixture(scope="class")
    def step1(self):
        model, prob = heat_problem((6, 6))
        _F, Abar, P = newton_start(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        return Abar, model.E, P, pat

    def _solve(self, step1, method, X0=None):
        cfg = NewtonConfig(lyap_method=method, cgls=self.CGLS, gp=self.GP)
        return solve_lyap(*step1, cfg, X0=X0)

    def _method(self, step1, method, X0=None):
        """Method 1 or 2 by hand on the step's operator: from zero, or for
        the correction to X0, from zero on X0's residual."""
        Abar, E, P, pat = step1
        op = GlOperator(Abar, E, pat, P)
        x0 = None if X0 is None else op.inputs.fold(X0)
        b = op.rhs if X0 is None else op.rhs - op @ x0
        if method == "lsq":
            d, rep = solve_lyap_lsq(op, b, self.CGLS)
        else:
            d, rep = solve_lyap_gp(op, b, self.GP)
        return op.inputs.to_csr(d if X0 is None else x0 + d), rep

    def test_lsq_from_zero_is_method_1(self, step1):
        Z, rep = self._solve(step1, "lsq")
        Zref, ref = self._method(step1, "lsq")
        assert bitwise_equal(Z, Zref)
        assert rep.iterations == ref.iterations

    def test_gp_from_x3_is_method_2(self, step1):
        Abar, E, P, pat = step1
        Z, rep = self._solve(step1, "gp")
        X3, _info = initial_guess(Abar, E, P, cfg=self.GP)
        Zref, ref = self._method(step1, "gp", X3)
        assert bitwise_equal(Z, Zref)
        assert rep.extra["J_history"] == ref.extra["J_history"]

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_given_start_is_used(self, step1, method):
        X0 = self._solve(step1, "lsq")[0]
        Z, _rep = self._solve(step1, method, X0=X0)
        Zref, _ = self._method(step1, method, X0)
        assert bitwise_equal(Z, Zref)

    def test_gp_defaults_its_first_step(self, step1, monkeypatch):
        # Method 2 steps by default_delta_bar of the Abar and E its
        # operator holds: its first iterate from zero is -delta g, to
        # rounding, as the dense forms step in n x n arrays, not in
        # coordinates
        Abar, E, P, pat = step1
        op = GlOperator(Abar, E, pat, P)
        calls = []

        def spy(*args):
            calls.append(args)
            return default_delta_bar(*args)

        monkeypatch.setattr(bandlq.lyap_gp, "default_delta_bar", spy)
        x, rep = solve_lyap_gp(op, op.rhs, dataclasses.replace(self.GP,
                                                               max_iter=1))
        assert len(calls) == 1
        assert calls[0][0] is op.Abar and calls[0][1] is op.E
        g = -2.0 * op.rmatvec(op.rhs)
        step = -default_delta_bar(op.Abar, op.E) * g
        assert rep.iterations == 1
        np.testing.assert_allclose(x, step, rtol=1e-14,
                                   atol=1e-14 * np.abs(x).max())

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_final_residual_is_the_gl_residual(self, step1, method):
        # both methods report ||p - M z||, not a normal-equation residual
        Abar, E, P, pat = step1
        Z, rep = self._solve(step1, method)
        op = GlOperator(Abar, E, pat, P)
        r = op.rhs - op @ op.inputs.fold(Z)
        assert "residual_2norm" not in rep.extra
        assert rep.final_residual == pytest.approx(
            np.linalg.norm(r), rel=1e-12)

    def test_unknown_method_rejected(self, step1):
        with pytest.raises(ValueError, match="direct"):
            self._solve(step1, "direct")


class TestSolveRiccati:
    def test_scalar_converges_to_root(self):
        _model, prob = scalar_problem()
        Z, _reports, _F = solve_riccati(
            prob, cfg=NewtonConfig(N_max=20, residual_tol=1e-12,
                                   cgls=CglsConfig(tol=1e-12)))
        assert abs(Z.toarray()[0, 0] - SQRT2M1) <= 1e-6

    def test_full_pattern_matches_dense_oracle(self):
        model, prob = heat_problem((5, 5))
        Z, _reports, _F = solve_riccati(
            prob,
            cfg=NewtonConfig(N_max=25, residual_tol=1e-10,
                             cgls=CglsConfig(tol=1e-10)),
            pattern=full_pattern(model.n))
        Zex = dense_riccati(prob)
        assert metric_e(Z, sp.csr_matrix(Zex)) <= 1e-5

    def test_feedback_matches_oracle_feedback(self):
        model, prob = heat_problem((5, 5))
        Z, _reports, F = solve_riccati(
            prob,
            cfg=NewtonConfig(N_max=25, residual_tol=1e-10,
                             cgls=CglsConfig(tol=1e-10)),
            pattern=full_pattern(model.n))
        assert bitwise_equal(F, feedback(Z, prob))
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
        _F, Abar, P = newton_start(prob, cfg)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        Z, reports, F = solve_riccati(prob, cfg=cfg)
        Zp, given, Fp = solve_riccati(prob, cfg=cfg, pattern=pat)
        assert bitwise_equal(Z, Zp) and bitwise_equal(F, Fp)
        rows = [dataclasses.asdict(r) for r in reports + given]
        for row in rows:
            del row["wall_ms"]
        assert rows[:4] == rows[4:]

    def test_newton_start_is_step_1(self, monkeypatch):
        # the GL equation of step 1 is the one newton_start builds, bit for
        # bit, from Z0 = cfg.Z0_scale I, and so is the operator it runs on
        import bandlq.control
        model, prob = heat_problem((5, 5))
        cfg = NewtonConfig(Z0_scale=3.0, N_max=1)
        solve = bandlq.control.inner_solve
        seen = []

        def recorded(op, x, *args):
            seen.append((op.Abar, op.P, x, op.rhs))
            return solve(op, x, *args)

        monkeypatch.setattr(bandlq.control, "inner_solve", recorded)
        solve_riccati(prob, cfg=cfg)
        F, Abar, P = newton_start(prob, cfg)
        (Abar1, P1, X0, rhs1), = seen
        assert X0 is None
        assert bitwise_equal(Abar1, Abar) and bitwise_equal(P1, P)
        Z0 = canonicalize(3.0 * identity(model.n))
        assert bitwise_equal(F, feedback(Z0, prob))
        pat = apriori_pattern(Abar, model.E, P, cfg.w)
        rhs = GlOperator(Abar, model.E, pat, P).rhs
        assert rhs1.dtype == rhs.dtype and np.array_equal(rhs1, rhs)

    def test_feedback_computed_once_per_iterate(self, monkeypatch):
        # Z_0 and each of the N new iterates get one feedback product, which
        # serves both the report's nnz_F and the next step's GL equation;
        # the loop's own iterates skip the public feedback's symmetry check
        import bandlq.control
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        fb, product = bandlq.control.feedback, bandlq.control._feedback
        calls = []

        def counted(Z, prob):
            calls.append(Z)
            return product(Z, prob)

        def checked(Z, prob):
            raise AssertionError("the loop called feedback")

        monkeypatch.setattr(bandlq.control, "_feedback", counted)
        monkeypatch.setattr(bandlq.control, "feedback", checked)
        Z, reports, F = solve_riccati(
            prob, cfg=NewtonConfig(N_max=4, residual_tol=0.0))
        assert len(reports) == 4 and len(calls) == 5
        assert calls[-1] is Z
        monkeypatch.undo()
        # the returned F is the one the loop made for Z
        assert bitwise_equal(F, fb(Z, prob))
        assert reports[-1].nnz_F == fb(Z, prob).nnz
        assert (Z != Z.T).nnz == 0

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    @pytest.mark.parametrize("nodes,discretization", [
        ((9, 9), "fe-bilinear-2d"), ((6, 6), "fd-5point")])
    def test_v_k_is_the_riccati_residual(self, monkeypatch, method, nodes,
                                         discretization):
        # v_k is read off the next step's operator; it is ||D[Z_k]||_F up to
        # rounding in units of v_1: on fe 9^2 the plateau v_k ~ 8.7e-7 of
        # both ways differ by cancellation in p - M z at 1e-10 relative
        import bandlq.control
        _model, prob = heat_problem(nodes, discretization=discretization)
        solve = bandlq.control.inner_solve
        iterates = []

        def recorded(op, *args):
            x, rep = solve(op, *args)
            iterates.append(op.inputs.to_csr(x))
            return x, rep

        monkeypatch.setattr(bandlq.control, "inner_solve", recorded)
        cfg = NewtonConfig(N_max=6, residual_tol=0.0, lyap_method=method,
                           gp=GpConfig(max_iter=30, q=10, p=10))
        _Z, reports, _F = solve_riccati(prob, cfg=cfg)
        assert len(iterates) == len(reports) >= 2
        v1 = reports[0].v_k
        for Z, rep in zip(iterates, reports):
            assert abs(rep.v_k - frobenius(riccati_residual(Z, prob))) \
                <= 1e-12 * v1

    def test_stops_at_the_fixed_point(self, monkeypatch):
        # the first warm-started step with 0 inner iterations returns its
        # start; a loop told it made 1 runs on to N_max and repeats it
        import bandlq.control
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        cfg = NewtonConfig(N_max=8, residual_tol=1e-9, w=1)
        Z, reports, F = solve_riccati(prob, cfg=cfg)
        solve = bandlq.control.inner_solve
        iterates = []

        def run_on(op, *args):
            x, rep = solve(op, *args)
            iterates.append(op.inputs.to_csr(x))
            return x, dataclasses.replace(
                rep, iterations=max(rep.iterations, 1))

        monkeypatch.setattr(bandlq.control, "inner_solve", run_on)
        _Z, ran_on, F_on = solve_riccati(prob, cfg=cfg)
        k = len(reports)
        assert k == 7 and len(ran_on) == 8
        assert reports[-1].lyap_iterations == 0
        assert all(r.lyap_iterations > 0 for r in reports[:-1])
        assert bitwise_equal(Z, iterates[k - 1])
        assert bitwise_equal(F, feedback(Z, prob))
        rows = [dataclasses.asdict(r) for r in reports + ran_on[:k]]
        for row in rows:
            del row["wall_ms"], row["lyap_iterations"]
        assert rows[:k] == rows[k:]
        assert [r.lyap_iterations for r in ran_on[:k - 1]] \
            == [r.lyap_iterations for r in reports[:-1]]
        # the steps after the fixed point repeat it bit for bit
        for Zj, rep in zip(iterates[k:], ran_on[k:]):
            assert bitwise_equal(Zj, Z)
            assert rep.v_k == reports[-1].v_k
        assert bitwise_equal(F_on, F)
        # a residual_tol met before the fixed point still ends the loop
        monkeypatch.undo()
        tol = reports[2].v_k / reports[0].v_k
        _Z, early, _F = solve_riccati(prob, cfg=dataclasses.replace(
            cfg, residual_tol=tol))
        assert len(early) == 3 and early[-1].lyap_iterations > 0

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_one_operator_per_step(self, monkeypatch, method):
        # each step's operator, built or refilled, serves its inner solve
        # and the previous step's v_k; the last one gives the last v_k
        import bandlq.control
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        init, refill = GlOperator.__init__, GlOperator.refill
        built, refilled = [], []

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_refill(self, *args):
            refilled.append(refill(self, *args))
            return refilled[-1]

        def forbidden(*args, **kwargs):
            raise AssertionError("the loop called riccati_residual")

        monkeypatch.setattr(GlOperator, "__init__", counted)
        monkeypatch.setattr(GlOperator, "refill", counted_refill)
        monkeypatch.setattr(bandlq.control, "riccati_residual", forbidden)
        cfg = NewtonConfig(N_max=4, residual_tol=0.0, lyap_method=method,
                           gp=GpConfig(max_iter=30, q=10, p=10))
        _Z, reports, _F = solve_riccati(prob, cfg=cfg)
        assert len(reports) == 4 and len(built) + sum(refilled) == 5

    @pytest.mark.parametrize("nodes", [(9, 9), (13, 13)])
    def test_refills_match_building_every_operator(self, monkeypatch, nodes):
        # the loop's refilled operators take the steps that operators
        # built anew take, bit for bit
        _model, prob = heat_problem(nodes)
        cfg = NewtonConfig(N_max=12, residual_tol=1e-9)
        refill, refilled = GlOperator.refill, []

        def recorded(op, *args):
            refilled.append(refill(op, *args))
            return refilled[-1]

        monkeypatch.setattr(GlOperator, "refill", recorded)
        Z, reports, F = solve_riccati(prob, cfg=cfg)
        assert any(refilled)
        monkeypatch.setattr(GlOperator, "refill", lambda op, *args: False)
        Zb, reports_b, Fb = solve_riccati(prob, cfg=cfg)
        assert bitwise_equal(Z, Zb) and bitwise_equal(F, Fb)
        for rep in reports + reports_b:
            rep.wall_ms = 0.0
        assert reports == reports_b

    def test_dense_abar_and_csr_abar_agree(self, monkeypatch):
        # at fe-bilinear 9^2 every operator is dense; with Abar held as CSR
        # and as an ndarray the loop takes the same steps to rounding
        import bandlq.control
        _model, prob = heat_problem((9, 9))
        runs = []
        for divisor in (1, np.inf):
            monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR", divisor)
            forms = []

            def recorded(*args, **kwargs):
                op = GlOperator(*args, **kwargs)
                forms.append(op.form)
                return op

            monkeypatch.setattr(bandlq.control, "GlOperator", recorded)
            runs.append((forms, solve_riccati(prob, cfg=NewtonConfig(
                N_max=6, residual_tol=1e-9))))
        (csr_forms, (Z, reports, F)), (dense_forms, (Zd, reports_d, Fd)) = runs
        assert set(csr_forms) == {"dense"} and set(dense_forms) == {
            "dense-abar"}
        # steps 1 and 2 build their operators; later steps refill step 2's
        assert len(csr_forms) == len(dense_forms) == 2
        assert ([r.lyap_iterations for r in reports]
                == [r.lyap_iterations for r in reports_d])
        assert frobenius(Z - Zd) <= 1e-12 * frobenius(Z)
        assert frobenius(F - Fd) <= 1e-12 * frobenius(F)

    def test_growth_names_the_rule_and_the_step(self, monkeypatch):
        # Z_k scaled by 1e3 from step 2 on keeps v_k above 10 v_1
        import bandlq.control
        _model, prob = heat_problem((4, 4))
        solve = bandlq.control.inner_solve
        calls = []

        def grown(op, *args):
            calls.append(len(calls) + 1)
            x, rep = solve(op, *args)
            return (x if calls[-1] == 1 else 1e3 * x), rep

        monkeypatch.setattr(bandlq.control, "inner_solve", grown)
        with pytest.raises(RiccatiDivergence, match=(
                r"^Riccati residual v_k > 10 v_1 for 3 consecutive Newton "
                r"steps, at step 4$")) as exc:
            solve_riccati(prob, cfg=NewtonConfig(N_max=20, residual_tol=0.0))
        reports = exc.value.reports
        assert calls == [1, 2, 3, 4] and exc.value.step == 4
        assert [r.k for r in reports] == [1, 2, 3, 4]
        assert all(r.lyap_iterations > 0 for r in reports)
        assert all(r.v_k > 10.0 * reports[0].v_k for r in reports[1:])

    @pytest.mark.parametrize("n_max", [3, 4, 5])
    def test_diverged_fixed_point(self, monkeypatch, n_max):
        # step 2 lands far from the solution (v_2 > 10 v_1) and step 3 is a
        # fixed point there. The loop raises exactly when a loop that runs
        # on through the repeats raises: at step 4 when N_max >= 4
        import bandlq.control
        _model, prob = heat_problem((4, 4))
        solve = bandlq.control.inner_solve

        def stuck(its):
            # steps 1 and 2 solve, step 2 then lands far away; every later
            # step returns its start and reports ``its`` iterations
            solved = []

            def inner(op, x0, *args):
                if len(solved) == 2:
                    return x0, dataclasses.replace(solved[-1], iterations=its)
                x, rep = solve(op, x0, *args)
                solved.append(rep)
                return (x if len(solved) == 1 else 1e3 * x), rep
            return inner

        def outcome(its):
            monkeypatch.setattr(bandlq.control, "inner_solve", stuck(its))
            try:
                Z, reports, _F = solve_riccati(prob, cfg=NewtonConfig(
                    N_max=n_max, residual_tol=0.0))
            except RiccatiDivergence as exc:
                return str(exc).split(":")[0], exc.step, exc.reports
            return None, Z, reports

        msg, stop, reports = outcome(0)
        msg_on, stop_on, ran_on = outcome(1)
        assert reports[1].lyap_iterations > 0
        assert reports[2].lyap_iterations == 0
        assert len(reports) == 3 and len(ran_on) == (3 if n_max == 3 else 4)
        assert reports[1].v_k > 10.0 * reports[0].v_k
        assert reports[2].v_k == ran_on[-1].v_k
        assert msg == msg_on
        if n_max == 3:
            assert msg is None and bitwise_equal(stop, stop_on)
        else:
            assert stop == stop_on == 4
            assert msg.endswith("at step 4")

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
        # steps k >= 2 solve for the correction to Z_{k-1}; the cold
        # reference drops that start.
        # The forcing term is off in both loops, so this measures the warm
        # start alone (test_forcing_saves_iterations_at_the_readme_size
        # measures the forcing term). On fd-5point 6x6 the w = 1 pattern is
        # truncated (584 of 1296 entries), so v_k levels off at the
        # truncation error, far above the inner tolerance, where both loops
        # must agree. The cold loop never makes 0 iterations and runs all 8
        # steps; the warm one reaches its fixed point at step 5 and stops
        import bandlq.control
        monkeypatch.setattr(bandlq.control, "_FORCING_MAX", 0.0)
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        cfg = NewtonConfig(N_max=8, residual_tol=1e-9, w=1)
        _Z, warm, _F = solve_riccati(prob, cfg=cfg)
        solve = bandlq.control.inner_solve

        def cold_solve(op, x, r, cfg, forcing):
            return solve(op, None, None, cfg, forcing)

        monkeypatch.setattr(bandlq.control, "inner_solve", cold_solve)
        _Z, cold, _F = solve_riccati(prob, cfg=cfg)
        assert len(warm) == 5 and len(cold) == 8
        assert warm[-1].lyap_iterations == 0
        assert all(r.lyap_iterations > 0 for r in warm[:-1])
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

    def test_warm_solves_reuse_the_residual_of_v_k(self, monkeypatch):
        # v_k's residual at x_k is the right-hand side of step k+1's
        # correction: a warm CGLS solve makes one apply per iteration and
        # 2 + it adjoints, a cold one 1 + it adjoints, and the loop one
        # apply per step for v_k
        import bandlq.control
        _model, prob = heat_problem((9, 9))
        matvec, rmatvec = GlOperator._matvec, GlOperator._rmatvec
        applies, adjoints, solves = [], [], []

        def counted(calls, f):
            def call(self, z):
                calls.append(z)
                return f(self, z)
            return call

        solve = bandlq.control.solve_lyap_lsq

        def recorded(op, b, *args):
            start = len(applies), len(adjoints)
            x, rep = solve(op, b, *args)
            solves.append((b is op.rhs, rep.iterations,
                           len(applies) - start[0], len(adjoints) - start[1]))
            return x, rep

        monkeypatch.setattr(GlOperator, "_matvec", counted(applies, matvec))
        monkeypatch.setattr(GlOperator, "_rmatvec",
                            counted(adjoints, rmatvec))
        monkeypatch.setattr(bandlq.control, "solve_lyap_lsq", recorded)
        _Z, reports, _F = solve_riccati(prob, cfg=NewtonConfig(
            N_max=12, residual_tol=1e-9))
        assert len(solves) == len(reports) >= 4
        assert [cold for cold, *_ in solves] == [True] + [False] * (
            len(solves) - 1)
        for cold, its, n_apply, n_adjoint in solves:
            assert n_apply == its
            assert n_adjoint == (1 if cold else 2) + its
        total = sum(its for _cold, its, *_ in solves)
        assert len(applies) == total + len(reports)
        assert len(adjoints) == total + 2 * len(reports) - 1

    @pytest.mark.parametrize("side,iterations", [
        (13, [68, 4, 5, 10, 22, 0]), (21, [107, 4, 6, 9, 22, 6, 0])])
    def test_corrections_take_the_warm_started_steps(self, monkeypatch, side,
                                                     iterations):
        # steps k >= 2 find the correction to x_{k-1} from zero on its
        # residual. On the README loop they take the steps of CGLS
        # warm-started at x_{k-1} (the reference below): the same
        # iterations, lyap_residual and v_k to rounding, for 1 + 2 it
        # operator calls cold and 2 + 2 it warm
        import bandlq.control
        _model, prob = heat_problem((side, side))
        cfg = NewtonConfig(N_max=12, residual_tol=1e-9, w=1,
                           cgls=CglsConfig(tol=1e-7))
        solve = bandlq.control.inner_solve
        calls, solves = [], []

        def counted(f):
            def call(self, z):
                calls.append(z)
                return f(self, z)
            return call

        def recorded(op, x, r, cfg, forcing):
            start = len(calls)
            x_new, rep = solve(op, x, r, cfg, forcing)
            solves.append((x is None, rep.iterations, len(calls) - start))
            return x_new, rep

        def warm_started(op, x, r, cfg, forcing):
            if x is None:
                return solve(op, x, r, cfg, forcing)
            z, its, history, rnorm = warm_cgls(
                op, op.rhs, x, r, cfg.cgls.tol, cfg.cgls.max_iter, forcing)
            target = max(cfg.cgls.tol, forcing * history[0])
            return z, SolveReport(method="lsq", n=op.n, iterations=its,
                                  final_residual=rnorm,
                                  converged=history[-1] <= target)

        for name in ("_matvec", "_rmatvec"):
            monkeypatch.setattr(GlOperator, name,
                                counted(getattr(GlOperator, name)))
        monkeypatch.setattr(bandlq.control, "inner_solve", recorded)
        _Z, reports, _F = solve_riccati(prob, cfg=cfg)
        monkeypatch.setattr(bandlq.control, "inner_solve", warm_started)
        _Z, ref, _F = solve_riccati(prob, cfg=cfg)
        assert [r.lyap_iterations for r in reports] == iterations
        assert [r.lyap_iterations for r in ref] == iterations
        assert [cold for cold, *_ in solves] == [True] + [False] * (
            len(solves) - 1)
        for cold, its, n_calls in solves:
            assert n_calls == (1 if cold else 2) + 2 * its
        for a, b in zip(reports, ref):
            assert a.lyap_converged and b.lyap_converged
            assert a.lyap_residual == pytest.approx(b.lyap_residual,
                                                    rel=1e-13)
            assert a.v_k == pytest.approx(b.v_k, rel=1e-13)

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_forcing_term_per_step(self, monkeypatch, method):
        # Method 1 runs step 1 unforced and step k with min(0.1, v_{k-1}/v_1);
        # Method 2 has no residual target
        import bandlq.control
        _model, prob = heat_problem((6, 6), discretization="fd-5point")
        solve = bandlq.control.inner_solve
        seen = []

        def recorded(op, x, r, cfg, forcing):
            seen.append(forcing)
            return solve(op, x, r, cfg, forcing)

        monkeypatch.setattr(bandlq.control, "inner_solve", recorded)
        cfg = NewtonConfig(N_max=6, residual_tol=0.0, lyap_method=method,
                           gp=GpConfig(max_iter=30, q=10, p=10))
        _Z, reports, _F = solve_riccati(prob, cfg=cfg)
        assert len(reports) >= 3
        assert [r.forcing for r in reports] == seen
        v = [r.v_k for r in reports]
        if method == "gp":
            assert seen == [0.0] * len(reports)
            return
        assert seen == [0.0] + [min(0.1, vk / v[0]) for vk in v[:-1]]
        assert seen[1] == 0.1 and 0.0 < seen[-1] < 0.1

    def test_forcing_saves_iterations_at_the_readme_size(self, monkeypatch):
        # on the README example the forced loop ends at the v_k of the
        # unforced one, for at most 70 % of its CGLS iterations
        import bandlq.control
        _model, prob = heat_problem((13, 13))
        cfg = NewtonConfig(N_max=12, residual_tol=1e-9, w=1,
                           cgls=CglsConfig(tol=1e-7))
        Z, forced, F = solve_riccati(prob, cfg=cfg)
        monkeypatch.setattr(bandlq.control, "_FORCING_MAX", 0.0)
        Zu, unforced, Fu = solve_riccati(prob, cfg=cfg)
        assert all(r.forcing == 0.0 for r in unforced)
        assert any(r.forcing > 0.0 for r in forced)
        assert all(r.lyap_converged for r in forced + unforced)
        assert forced[-1].v_k == pytest.approx(unforced[-1].v_k, rel=1e-4)
        its = sum(r.lyap_iterations for r in forced)
        assert its <= 0.7 * sum(r.lyap_iterations for r in unforced)
        assert Z.nnz == Zu.nnz and F.nnz == Fu.nnz

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

    def test_metric_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError, match=r"metric_e: "
                           r"incompatible shapes \(3, 3\) and \(4, 4\)"):
            metric_e(identity(3), identity(4))


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

    @pytest.mark.parametrize("shape", [(1, 0), (0, 1), (0, -1)])
    def test_feedback_of_another_shape_rejected(self, shape):
        # an F that is not m x n, such as one of another model, is named
        # as the shape error it is
        model, prob = heat_problem((5, 5))
        F = canonicalize(sp.csr_matrix((model.m + shape[0],
                                        model.n + shape[1])))
        with pytest.raises(ShapeMismatchError,
                           match="^simulate_closed_loop: incompatible"):
            simulate_closed_loop(prob, F, np.ones(model.n), dt=1e-3,
                                 steps=10)

    @pytest.mark.parametrize("shape", [(15,), (17,), (16, 2)])
    def test_initial_state_of_another_size_rejected(self, shape):
        # an x0 without n entries is named as the shape error it is, not
        # as a matmul error inside the first step
        model, prob = heat_problem((4, 4))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        msg = ("simulate_closed_loop: incompatible shapes (16,) and "
               f"({np.prod(shape)},)")
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(msg)}$"):
            simulate_closed_loop(prob, F, np.ones(shape), dt=1e-3, steps=10)

    def test_infinite_dt_rejected(self):
        # dt = inf would give a NaN cost and a RuntimeWarning
        model, prob = heat_problem((4, 4))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        with pytest.raises(ValueError,
                           match="^simulate_closed_loop: dt = inf is not"):
            simulate_closed_loop(prob, F, np.ones(model.n), dt=np.inf,
                                 steps=10)

    def test_invalid_dt(self):
        model, prob = heat_problem((3, 3))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        for dt, steps, max_rows in ((0.0, 10, 5), (1e-3, -5, 5),
                                    (1e-3, 0, 5), (1e-3, 10, 0)):
            with pytest.raises(ValueError):
                simulate_closed_loop(prob, F, np.ones(9), dt=dt, steps=steps,
                                     max_rows=max_rows)

    def test_nan_dt_rejected(self):
        # at 4^2 with F = 0, Abar = A is filled, so the steps would take the
        # LAPACK path, which returns NaN norms and cost without an error
        model, prob = heat_problem((4, 4))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        assert filled(model.A)
        with pytest.raises(ValueError, match="dt"):
            simulate_closed_loop(prob, F, np.ones(16), dt=np.nan, steps=10)

    @pytest.mark.parametrize("steps, max_rows", [
        (2000, 1000), (10, 3), (5, 3), (7, 2), (10, 1), (1, 1), (3, 10)])
    def test_at_most_max_rows(self, steps, max_rows):
        # every stride-th step and the last, or step 0 alone for one row
        model, prob = heat_problem((3, 3))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        traj = simulate_closed_loop(prob, F, np.ones(9), dt=1e-3, steps=steps,
                                    max_rows=max_rows)
        assert 1 <= len(traj.steps) <= max_rows
        assert traj.steps[0] == 0 and np.all(np.diff(traj.steps) > 0)
        if max_rows >= 2:
            assert traj.steps[-1] == steps

    def test_trajectory_downsampling(self):
        model, prob = heat_problem((3, 3))
        F = canonicalize(sp.csr_matrix((model.m, model.n)))
        traj = simulate_closed_loop(prob, F, np.ones(9), dt=1e-3, steps=5000,
                                    max_rows=100)
        assert len(traj.times) <= 102

    # FILL_DIVISOR 1 makes no matrix filled, infinity every nonempty one
    @pytest.mark.parametrize("divisor", [1, np.inf], ids=["splu", "lapack"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_singular_step_matrix(self, monkeypatch, divisor, n):
        # dt = 1/2 and Abar = A - B F with an eigenvalue 2 make E - dt Abar
        # exactly singular: 1 - 2 dt = 0 for the scalar model, and for the
        # filled 2 x 2 Abar = [[1, 1], [1, 1]] the LU's second pivot is 0
        monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR", divisor)
        if n == 1:
            _model, prob = scalar_problem()
            F = _csr([[-3.0]])
        else:
            eye = identity(2)
            model = DescriptorModel(E=eye, A=_csr(np.ones((2, 2))), B=eye,
                                    C=eye, permutation=Permutation.identity(2))
            prob = LqProblem(model, Q=np.ones(2), R=np.ones(2))
            F = canonicalize(sp.csr_matrix((2, 2)))
        with pytest.raises(RuntimeError, match=r"singular step matrix at dt="
                                               r"0\.5"):
            simulate_closed_loop(prob, F, np.ones(n), dt=0.5, steps=3)

    def test_lapack_and_splu_agree(self, monkeypatch):
        # the Newton F at fe-bilinear 9^2 fills Abar in; forced onto each
        # path, the simulation gives the same trajectory and cost
        model, prob = heat_problem((9, 9))
        _Z, _reports, F = solve_riccati(prob, cfg=NewtonConfig(N_max=3))
        assert filled(canonicalize(model.A - model.B @ F))
        runs = []
        for divisor in (1, np.inf):
            monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR", divisor)
            runs.append(simulate_closed_loop(prob, F, np.ones(model.n),
                                             dt=1e-3, steps=500, max_rows=50))
        splu, lapack = runs
        np.testing.assert_array_equal(splu.steps, lapack.steps)
        np.testing.assert_array_equal(splu.times, lapack.times)
        for name in ("state_norms", "inst_cost"):
            np.testing.assert_allclose(getattr(lapack, name),
                                       getattr(splu, name), rtol=1e-12)
        assert lapack.cost == pytest.approx(splu.cost, rel=1e-12)


def _per_step_simulation(prob, F, x0, dt, steps, max_rows, lapack):
    """The closed-loop simulation one step at a time: C x, F x and the
    cost of each state as it is reached."""
    model = prob.model
    S = canonicalize(model.E - dt * canonicalize(model.A - model.B @ F))
    if lapack:
        lu = scipy.linalg.lu_factor(S.toarray())

        def solve(b):
            return scipy.linalg.lu_solve(lu, b)
    else:
        solve = spla.splu(S.tocsc()).solve
    x = np.asarray(x0, dtype=np.float64).copy()
    # every stride-th step and the last, the first max_rows of them
    stride = -(-steps // max(1, max_rows - 1))
    rows, cost = [], 0.0
    for i in range(steps + 1):
        y, u = model.C @ x, -(F @ x)
        inst = float(y @ (prob.Q * y) + u @ (prob.R * u))
        if i < steps:
            cost += dt * inst
        if (i % stride == 0 or i == steps) and len(rows) < max_rows:
            rows.append((i, i * dt, float(np.linalg.norm(x)), inst))
        x = solve(model.E @ x)
    steps_, times, norms, insts = (np.array(c) for c in zip(*rows))
    return steps_, times, norms, insts, cost


class TestBlockSimulation:
    # a block of b = 7 states at n = 16
    BLOCK = 7

    @pytest.mark.parametrize("lapack", [False, True], ids=["splu", "lapack"])
    @pytest.mark.parametrize("max_rows", [3, 1000])
    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2000])
    def test_matches_per_step_loop(self, monkeypatch, lapack, max_rows,
                                   steps):
        import bandlq.control
        model, prob = heat_problem((4, 4))
        _Z, _reports, F = solve_riccati(prob, cfg=NewtonConfig(N_max=3))
        monkeypatch.setattr(bandlq.control, "_SIM_BLOCK_ENTRIES",
                            self.BLOCK * model.n + model.n - 1)
        # FILL_DIVISOR 1 makes no matrix filled, infinity every nonempty one
        monkeypatch.setattr("bandlq.sparsecore.FILL_DIVISOR",
                            np.inf if lapack else 1)
        x0 = np.random.default_rng(2).standard_normal(model.n)
        traj = simulate_closed_loop(prob, F, x0, dt=1e-3, steps=steps,
                                    max_rows=max_rows)
        ref = _per_step_simulation(prob, F, x0, 1e-3, steps, max_rows, lapack)
        for got, want in zip((traj.steps, traj.times, traj.state_norms),
                             ref[:3]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(traj.inst_cost, ref[3], rtol=1e-14)
        assert traj.cost == pytest.approx(ref[4], rel=1e-14)


class TestLqProblemValidation:
    def test_weights_are_copied_and_read_only(self):
        model, _prob = heat_problem((3, 3))
        Q, R = np.ones(model.r), np.ones(model.m)
        prob = LqProblem(model, Q=Q, R=R)
        ctqc, r_inv_bt = prob.ctqc().copy(), prob.r_inv_bt().copy()
        Q[:] = 5.0
        R[:] = 5.0
        assert bitwise_equal(prob.ctqc(), ctqc)
        assert bitwise_equal(prob.r_inv_bt(), r_inv_bt)
        assert np.all(prob.Q == 1.0) and np.all(prob.R == 1.0)
        with pytest.raises(ValueError, match="read-only"):
            prob.Q[0] = 5.0

    def test_negative_r_rejected(self):
        model, _prob = heat_problem((3, 3))
        with pytest.raises(ValueError):
            LqProblem(model, Q=np.ones(model.r), R=-np.ones(model.m))

    def test_negative_q_rejected(self):
        model, _prob = heat_problem((3, 3))
        with pytest.raises(ValueError):
            LqProblem(model, Q=-np.ones(model.r), R=np.ones(model.m))

    @pytest.mark.parametrize("weight", ["Q", "R"])
    def test_nan_weight_rejected(self, weight):
        model, _prob = heat_problem((3, 3))
        Q, R = np.ones(model.r), np.ones(model.m)
        (Q if weight == "Q" else R)[0] = np.nan
        with pytest.raises(ValueError, match=weight):
            LqProblem(model, Q=Q, R=R)

    def test_wrong_lengths_rejected(self):
        model, _prob = heat_problem((3, 3))
        with pytest.raises(ValueError):
            LqProblem(model, Q=np.ones(model.r + 1), R=np.ones(model.m))

    @pytest.mark.parametrize("weight", ["Q", "R"])
    def test_column_weight_rejected(self, weight):
        # a column of the right length is not a diagonal; it used to fail
        # later, inside sp.diags, with a message that named neither
        model, _prob = heat_problem((4, 4))
        weights = {"Q": np.ones(model.r), "R": np.ones(model.m)}
        weights[weight] = weights[weight][:, None]
        with pytest.raises(ValueError, match="^Q and R must be 1-D"):
            LqProblem(model, **weights)


def test_newton_config_needs_a_step():
    with pytest.raises(ValueError, match="N_max"):
        NewtonConfig(N_max=0)
    assert NewtonConfig(N_max=1).N_max == 1


@pytest.mark.parametrize("key, value", [("N_max", np.nan), ("N_max", 2.5),
                                        ("w", np.nan), ("w", 1.0),
                                        ("residual_tol", np.nan),
                                        ("residual_tol", -1.0)])
def test_newton_config_rejects_values_out_of_range(key, value):
    # a NaN tolerance or a negative one could never be met, and a count
    # that is not an integer fails only later, inside the loop
    with pytest.raises(ValueError, match=key):
        NewtonConfig(**{key: value})
    assert NewtonConfig(residual_tol=0.0).residual_tol == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_newton_config_rejects_a_non_finite_z0_scale(value):
    # step 1 would solve from Z0 = NaN I, stop at once and let the loop go
    # on from Z = 0
    with pytest.raises(ValueError, match="Z0_scale"):
        NewtonConfig(Z0_scale=value)


def test_newton_config_rejects_an_unknown_method():
    # so solve_lyap dispatches on a method that exists
    with pytest.raises(ValueError, match="direct"):
        NewtonConfig(lyap_method="direct")
    with pytest.raises(ValueError, match="direct"):
        dataclasses.replace(NewtonConfig(), lyap_method="direct")
