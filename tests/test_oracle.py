"""Dense reference solvers."""

import numpy as np
import pytest

from bandlq.oracle import (dense_expm, dense_lyap, dense_riccati,
                           dense_riccati_residual, kron_matrix, pencil_eigs)
from conftest import heat_problem, random_stable_instance, scalar_problem


class TestDenseLyap:
    def test_scalar(self):
        Z = dense_lyap(np.array([[-1.0]]), np.array([[1.0]]),
                       np.array([[-2.0]]))
        np.testing.assert_allclose(Z, [[1.0]], atol=1e-13)

    def test_diagonal(self):
        Z = dense_lyap(np.diag([-1.0, -2.0]), np.eye(2), -np.eye(2))
        np.testing.assert_allclose(Z, np.diag([0.5, 0.25]), atol=1e-13)

    def test_self_residual_small_kron_path(self, rng):
        Abar, E, P = random_stable_instance(30, rng)
        Z = dense_lyap(Abar, E, P)
        A, Em, Pm = Abar.toarray(), E.toarray(), P.toarray()
        res = np.linalg.norm(Em.T @ Z @ A + A.T @ Z @ Em - Pm)
        assert res <= 1e-10 * max(np.linalg.norm(Pm), 1.0)

    def test_self_residual_transformed_path(self, rng):
        # n > 60 exercises the substitution W = E^T Z E branch
        Abar, E, P = random_stable_instance(70, rng)
        Z = dense_lyap(Abar, E, P)
        A, Em, Pm = Abar.toarray(), E.toarray(), P.toarray()
        res = np.linalg.norm(Em.T @ Z @ A + A.T @ Z @ Em - Pm)
        assert res <= 1e-9 * max(np.linalg.norm(Pm), 1.0)

    def test_both_paths_agree(self, rng):
        Abar, E, P = random_stable_instance(40, rng)
        Z_kron = dense_lyap(Abar, E, P)
        # force the transformed path by shrinking the explicit-kron limit
        import bandlq.oracle as oracle
        old = oracle._KRON_LIMIT
        try:
            oracle._KRON_LIMIT = 1
            Z_schur = dense_lyap(Abar, E, P)
        finally:
            oracle._KRON_LIMIT = old
        assert np.linalg.norm(Z_kron - Z_schur) \
            <= 1e-8 * max(np.linalg.norm(Z_kron), 1.0)

    def test_cap_enforced(self, rng):
        Abar, E, P = random_stable_instance(12, rng)
        with pytest.raises(ValueError):
            dense_lyap(Abar, E, P, max_n=10)

class TestDenseRiccati:
    def test_scalar_root(self):
        _model, prob = scalar_problem()
        Z = dense_riccati(prob)
        np.testing.assert_allclose(Z, [[np.sqrt(2.0) - 1.0]], atol=1e-10)

    def test_self_residual(self):
        model, prob = heat_problem((5, 4))
        Z = dense_riccati(prob)
        res = np.linalg.norm(dense_riccati_residual(
            Z, model.E.toarray(), model.A.toarray(), model.B.toarray(),
            model.C.toarray(), prob.Q, prob.R))
        ref = np.linalg.norm(prob.ctqc().toarray())
        assert res <= 1e-10 * max(ref, 1.0)

    def test_cap_enforced(self):
        _model, prob = heat_problem((4, 4))
        with pytest.raises(ValueError, match="exceeds oracle cap 10"):
            dense_riccati(prob, max_n=10)

    def test_no_convergence_reported(self):
        # one Newton step from Z0 = 10 I is far from the 1e-11 tolerance
        _model, prob = heat_problem((3, 3))
        with pytest.raises(RuntimeError, match="no convergence in 1 "):
            dense_riccati(prob, max_iter=1)

    def test_positive_semidefinite(self):
        model, prob = heat_problem((4, 4))
        Z = dense_riccati(prob)
        assert np.linalg.eigvalsh(Z).min() >= -1e-10

    def test_conditioning_report(self):
        # condition numbers of the first-step system are finite and recorded
        from bandlq.control import newton_start
        model, prob = heat_problem((13, 13))
        _F, Abar, P = newton_start(prob)
        kE = np.linalg.cond(model.E.toarray())
        kA = np.linalg.cond(Abar.toarray())
        # the explicit Kronecker system is only affordable at a smaller grid
        small_model, small_prob = heat_problem((7, 7))
        _F2, Abar2, _P2 = newton_start(small_prob)
        M = kron_matrix(Abar2, small_model.E)
        kM = np.linalg.cond(M)
        print(f"cond(E)={kE:.3e} cond(Abar)={kA:.3e} cond(M)={kM:.3e}")
        assert np.isfinite(kE) and np.isfinite(kA) and np.isfinite(kM)


class TestDenseExpm:
    def test_zero(self):
        np.testing.assert_array_equal(dense_expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = dense_expm(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.e ** 2]),
                                   atol=1e-13)

    def test_group_inverse(self, rng):
        A = rng.standard_normal((20, 20)) * 0.3
        out = dense_expm(A) @ dense_expm(-A)
        np.testing.assert_allclose(out, np.eye(20), atol=1e-10)

    def test_scaling_square_identity(self, rng):
        A = rng.standard_normal((30, 30)) * 0.5
        lhs = dense_expm(A / 2.0) @ dense_expm(A / 2.0)
        rhs = dense_expm(A)
        assert np.linalg.norm(lhs - rhs) \
            <= 1e-9 * max(np.linalg.norm(rhs), 1.0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds oracle cap 2"):
            dense_expm(np.zeros((3, 3)), max_n=2)

    def test_overflow_rejected(self):
        # exp(1000) overflows; the overflow warning itself is silenced so
        # that the check after it runs
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError, match="non-finite"):
            dense_expm(np.array([[1000.0]]))


class TestPencilEigs:
    def test_identity_pencil(self):
        lam = pencil_eigs(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(sorted(lam.real), [-2.0, -1.0], atol=1e-12)

    def test_scaled_pencil(self):
        lam = pencil_eigs(-2.0 * np.eye(3), 2.0 * np.eye(3))
        np.testing.assert_allclose(lam, -np.ones(3), atol=1e-12)

    def test_closed_loop_heat_model_stable(self):
        model, prob = heat_problem((10, 10))
        Zex = dense_riccati(prob)
        F = np.diag(1.0 / prob.R) @ model.B.toarray().T @ Zex \
            @ model.E.toarray()
        lam = pencil_eigs(model.A.toarray() - model.B.toarray() @ F,
                          model.E.toarray())
        assert lam.real.max() < 0

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds oracle cap 2"):
            pencil_eigs(np.eye(3), np.eye(3), max_n=2)

    def test_singular_e_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            pencil_eigs(np.eye(2), np.diag([1.0, 0.0]))

    def test_small_entry_mass_matrix_not_flagged_singular(self):
        model, _prob = heat_problem((13, 13))
        lam = pencil_eigs(model.A, model.E)
        assert lam.real.max() < 0
