"""Heat-model generation, actuator/sensor placement, permutation."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from bandlq.modelgen import (DISCRETIZATIONS, DescriptorModel, GridSpec,
                             build_heat_model, build_model, permute_model,
                             place_io)
from bandlq.oracle import pencil_eigs
from bandlq.sparsecore import Permutation, bandwidth, canonicalize, identity


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

    @pytest.mark.parametrize("dimension, nodes, message", [
        (2, (2.5, 3), "integers"), (2, (np.nan, 3), "integers"),
        (2.0, (3, 3), "dimension")])
    def test_non_integer_grid_rejected(self, dimension, nodes, message):
        # a float count would reach build_model as a slice bound
        with pytest.raises(ValueError, match=message):
            GridSpec(dimension=dimension, nodes=nodes, lengths=(1.0, 1.0),
                     diffusivity=1.0, discretization="fd-5point")

    @pytest.mark.parametrize("lengths, diffusivity", [
        ((1.0,), np.nan), ((np.nan,), 1.0)])
    def test_nan_grid_rejected(self, lengths, diffusivity):
        with pytest.raises(ValueError, match="positive"):
            GridSpec(dimension=1, nodes=(5,), lengths=lengths,
                     diffusivity=diffusivity, discretization="fd-5point")

    def test_fe_dimension_checks(self):
        # the grid owns which dimensions each discretization is defined
        # on: every allowed pair builds, and the others fail at GridSpec
        for disc, dims in DISCRETIZATIONS.items():
            for dim in (1, 2):
                spec = dict(dimension=dim, nodes=(3,) * dim,
                            lengths=(1.0,) * dim, diffusivity=1.0,
                            discretization=disc)
                if dim in dims:
                    E, A = build_heat_model(GridSpec(**spec))
                    assert E.shape == A.shape == (3**dim, 3**dim)
                    continue
                with pytest.raises(ValueError,
                                   match=f"^{disc} requires dimension "
                                         f"{3 - dim}$"):
                    GridSpec(**spec)
        assert {(disc, dim) for disc, dims in DISCRETIZATIONS.items()
                for dim in dims} == {("fd-5point", 1), ("fd-5point", 2),
                                     ("fe-linear-1d", 1),
                                     ("fe-bilinear-2d", 2)}

    @pytest.mark.parametrize("disc, nodes", [
        ("fd-5point", (2,)), ("fd-5point", (17,)), ("fe-linear-1d", (2,)),
        ("fe-linear-1d", (23,)), ("fd-5point", (2, 3)),
        ("fd-5point", (13, 7)), ("fe-bilinear-2d", (3, 2)),
        ("fe-bilinear-2d", (9, 14))])
    def test_matches_the_per_discretization_reference(self, disc, nodes):
        # the tensor-product construction against the former one branch per
        # discretization: bit for bit at kappa = 1; elsewhere kappa scales
        # the sum instead of each 1-D factor, one rounding apart
        for kappa in (1.0, 0.3, 2.5):
            lengths = (1.0, 0.7)[:len(nodes)]
            grid = GridSpec(dimension=len(nodes), nodes=nodes,
                            lengths=lengths, diffusivity=kappa,
                            discretization=disc)
            for M, ref in zip(build_heat_model(grid),
                              _reference_heat_model(grid)):
                assert np.array_equal(M.indptr, ref.indptr)
                assert np.array_equal(M.indices, ref.indices)
                if kappa == 1.0:
                    assert np.array_equal(M.data, ref.data)
                else:
                    np.testing.assert_allclose(M.data, ref.data, rtol=4e-16,
                                               atol=0)


def _reference_heat_model(grid):
    """build_heat_model as it was written before the tensor-product form."""
    def tridiag(n, lo, di, up):
        return sp.diags([np.full(n - 1, lo), np.full(n, di),
                         np.full(n - 1, up)], [-1, 0, 1], format="csr")

    def fe_1d_factors(nx, h, kappa):
        mass = (h / 6.0) * tridiag(nx, 1.0, 4.0, 1.0)
        stiff = (kappa / h) * tridiag(nx, 1.0, -2.0, 1.0)
        return canonicalize(mass), canonicalize(stiff)

    kappa = grid.diffusivity
    if grid.discretization == "fe-linear-1d":
        h = grid.lengths[0] / (grid.nodes[0] + 1)
        return fe_1d_factors(grid.nodes[0], h, kappa)
    if grid.discretization == "fd-5point":
        hs = [L / (nx + 1) for L, nx in zip(grid.lengths, grid.nodes)]
        if grid.dimension == 1:
            A = (kappa / hs[0]**2) * tridiag(grid.nodes[0], 1.0, -2.0, 1.0)
            return identity(grid.nodes[0]), canonicalize(A)
        nx, ny = grid.nodes
        hx, hy = hs
        Tx = tridiag(nx, 1.0, -2.0, 1.0)
        Ty = tridiag(ny, 1.0, -2.0, 1.0)
        A = (kappa / hx**2) * sp.kron(sp.identity(ny), Tx, format="csr") \
            + (kappa / hy**2) * sp.kron(Ty, sp.identity(nx), format="csr")
        return identity(nx * ny), canonicalize(A)
    nx, ny = grid.nodes
    hx = grid.lengths[0] / (nx + 1)
    hy = grid.lengths[1] / (ny + 1)
    Mx, Sx = fe_1d_factors(nx, hx, 1.0)
    My, Sy = fe_1d_factors(ny, hy, 1.0)
    E = sp.kron(My, Mx, format="csr")
    A = kappa * (sp.kron(My, Sx, format="csr") + sp.kron(Sy, Mx, format="csr"))
    return canonicalize(E), canonicalize(A)


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

    def test_fraction_placing_no_node_rejected(self):
        # floor(0.05 * 10) = 0 actuators
        with pytest.raises(ValueError, match="at least 1"):
            place_io(10, 0.05, seed=0)


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

    @pytest.mark.parametrize("disc, band, keeps_grid_order",
                             [("fd-5point", 40, False),
                              ("fe-bilinear-2d", 41, True)])
    def test_bandwidth_at_40x40(self, disc, band, keeps_grid_order):
        # RCM gives the 5-point stencil the grid's own band; it would widen
        # the 9-point FE stencil's, so that model keeps the grid ordering
        grid = GridSpec(dimension=2, nodes=(40, 40), lengths=(1.0, 1.0),
                        diffusivity=1.0, discretization=disc)
        model = build_model(grid, 0.1, seed=7)
        assert bandwidth(model.A) == band
        identity = np.array_equal(model.permutation.forward,
                                  np.arange(model.n))
        assert identity == keeps_grid_order

    def test_build_model_reproducible(self):
        grid = GridSpec(dimension=2, nodes=(5, 5), lengths=(1.0, 1.0),
                        diffusivity=1.0, discretization="fd-5point")
        m1 = build_model(grid, 0.5, seed=7)
        m2 = build_model(grid, 0.5, seed=7)
        for a, b in ((m1.E, m2.E), (m1.A, m2.A), (m1.B, m2.B), (m1.C, m2.C)):
            assert (a != b).nnz == 0

