"""Heat-model generation, actuator/sensor placement, permutation."""

import numpy as np
import pytest
import scipy.linalg as sla

from bandlq.modelgen import (DescriptorModel, GridSpec, build_heat_model,
                             build_model, permute_model, place_io)
from bandlq.oracle import pencil_eigs
from bandlq.sparsecore import Permutation, bandwidth


class TestBuildHeatModel:
    def test_fe_1d_stencil(self):
        grid = GridSpec(dimension=1, nodes=(3,), lengths=(1.0,),
                        diffusivity=1.0, discretization="fe-linear-1d")
        E, A = build_heat_model(grid)
        # h = 0.25: E diag = h*4/6 = 1/6, off = h/6 = 1/24; A diag = -2/h = -8
        np.testing.assert_allclose(E.diagonal(), np.full(3, 1.0 / 6.0))
        np.testing.assert_allclose(E.toarray()[0, 1], 1.0 / 24.0)
        np.testing.assert_allclose(A.diagonal(), np.full(3, -8.0))
        np.testing.assert_allclose(A.toarray()[0, 1], 4.0)

    def test_fd_1d_stencil(self):
        grid = GridSpec(dimension=1, nodes=(3,), lengths=(1.0,),
                        diffusivity=1.0, discretization="fd-5point")
        E, A = build_heat_model(grid)
        np.testing.assert_array_equal(E.toarray(), np.eye(3))
        T = np.diag(np.full(3, -2.0)) + np.diag(np.ones(2), 1) \
            + np.diag(np.ones(2), -1)
        np.testing.assert_allclose(A.toarray(), 16.0 * T)

    def test_fd_2d_matches_kronecker_sum(self):
        grid = GridSpec(dimension=2, nodes=(4, 4), lengths=(1.0, 1.0),
                        diffusivity=2.0, discretization="fd-5point")
        E, A = build_heat_model(grid)
        h = 1.0 / 5.0
        T = np.diag(np.full(4, -2.0)) + np.diag(np.ones(3), 1) \
            + np.diag(np.ones(3), -1)
        ref = (2.0 / h ** 2) * (np.kron(np.eye(4), T) + np.kron(T, np.eye(4)))
        np.testing.assert_allclose(A.toarray(), ref, atol=1e-12)
        np.testing.assert_allclose(A.toarray(), A.toarray().T)
        np.testing.assert_array_equal(E.toarray(), np.eye(16))

    def test_fe_mass_is_spd(self):
        for disc, dim, nodes in (("fe-linear-1d", 1, (20,)),
                                 ("fe-bilinear-2d", 2, (6, 5))):
            grid = GridSpec(dimension=dim, nodes=nodes,
                            lengths=tuple(1.0 for _ in range(dim)),
                            diffusivity=1.0, discretization=disc)
            E, _A = build_heat_model(grid)
            assert np.linalg.eigvalsh(E.toarray()).min() > 0

    def test_open_loop_stable(self):
        for disc in ("fd-5point", "fe-bilinear-2d"):
            grid = GridSpec(dimension=2, nodes=(5, 5), lengths=(1.0, 1.0),
                            diffusivity=1.0, discretization=disc)
            E, A = build_heat_model(grid)
            lam = pencil_eigs(A, E)
            assert lam.real.max() < 0

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSpec(dimension=2, nodes=(3,), lengths=(1.0, 1.0),
                     diffusivity=1.0, discretization="fd-5point")
        with pytest.raises(ValueError):
            GridSpec(dimension=1, nodes=(5,), lengths=(1.0,),
                     diffusivity=-1.0, discretization="fd-5point")
        with pytest.raises(ValueError):
            GridSpec(dimension=1, nodes=(5,), lengths=(1.0,),
                     diffusivity=1.0, discretization="fe-quadratic")


class TestPlaceIo:
    def test_full_fraction_is_permuted_identity(self):
        B, C = place_io(6, 1.0, seed=0)
        assert B.shape == (6, 6)
        np.testing.assert_array_equal(np.sort(B.toarray().sum(axis=0)),
                                      np.ones(6))
        assert abs(np.linalg.det(B.toarray())) == 1.0

    def test_half_fraction_counts(self):
        B, C = place_io(168, 0.5, seed=1)
        assert B.shape == (168, 84)
        assert C.shape == (84, 168)
        # unit columns at distinct nodes
        assert B.nnz == 84
        assert np.unique(B.tocoo().row).size == 84

    def test_determinism(self):
        B1, C1 = place_io(50, 0.3, seed=42)
        B2, C2 = place_io(50, 0.3, seed=42)
        assert (B1 != B2).nnz == 0 and (C1 != C2).nnz == 0

    def test_different_seed_differs(self):
        B1, _ = place_io(50, 0.3, seed=1)
        B2, _ = place_io(50, 0.3, seed=2)
        assert (B1 != B2).nnz > 0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            place_io(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            place_io(10, 1.5, seed=0)


class TestPermuteModel:
    def test_banded_model_not_worsened(self):
        grid = GridSpec(dimension=1, nodes=(30,), lengths=(1.0,),
                        diffusivity=1.0, discretization="fe-linear-1d")
        model = build_model(grid, 0.5, seed=3)
        assert bandwidth(model.A) <= 1

    def test_recovers_shuffled_chain(self):
        grid = GridSpec(dimension=1, nodes=(32,), lengths=(1.0,),
                        diffusivity=1.0, discretization="fe-linear-1d")
        model = build_model(grid, 0.5, seed=3)
        rng = np.random.default_rng(8)
        shuffle = Permutation.from_order(rng.permutation(32))
        scrambled = DescriptorModel(
            E=shuffle.apply_symmetric(model.E),
            A=shuffle.apply_symmetric(model.A),
            B=shuffle.apply_rows(model.B),
            C=shuffle.apply_cols(model.C),
            permutation=Permutation.identity(32), grid=model.grid)
        recovered = permute_model(scrambled)
        assert bandwidth(recovered.A) == 1

    def test_impulse_response_invariant(self):
        grid = GridSpec(dimension=2, nodes=(4, 4), lengths=(1.0, 1.0),
                        diffusivity=1.0, discretization="fe-bilinear-2d")
        E, A = build_heat_model(grid)
        B, C = place_io(16, 0.5, seed=5)
        model = DescriptorModel(E=E, A=A, B=B, C=C,
                                permutation=Permutation.identity(16),
                                grid=grid)
        permuted = permute_model(model)

        def response(mdl, t=0.1):
            G = np.linalg.solve(mdl.E.toarray(), mdl.A.toarray())
            return mdl.C.toarray() @ sla.expm(t * G) @ mdl.B.toarray()

        np.testing.assert_allclose(response(model), response(permuted),
                                   atol=1e-10)

    def test_build_model_reproducible(self):
        grid = GridSpec(dimension=2, nodes=(5, 5), lengths=(1.0, 1.0),
                        diffusivity=1.0, discretization="fd-5point")
        m1 = build_model(grid, 0.5, seed=7)
        m2 = build_model(grid, 0.5, seed=7)
        for a, b in ((m1.E, m2.E), (m1.A, m2.A), (m1.B, m2.B), (m1.C, m2.C)):
            assert (a != b).nnz == 0

