"""Deterministic banded descriptor heat-equation models.

Structured-grid FD/FE discretizations of the heat equation with
homogeneous Dirichlet boundaries (interior nodes only), seeded actuator
and sensor placement, and RCM permutation into banded form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .sparsecore import (Permutation, bandwidth, binarize, canonicalize,
                         identity, rcm_order)

DISCRETIZATIONS = ("fd-5point", "fe-linear-1d", "fe-bilinear-2d")


@dataclass(frozen=True)
class GridSpec:
    dimension: int                    # 1 or 2
    nodes: tuple                      # interior nodes per axis
    lengths: tuple                    # domain length per axis (m)
    diffusivity: float                # m^2/s
    discretization: str

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if len(self.nodes) != self.dimension or len(self.lengths) != self.dimension:
            raise ValueError("nodes/lengths must match dimension")
        if any(nx < 2 for nx in self.nodes):
            raise ValueError("need at least 2 interior nodes per axis")
        if any(L <= 0 for L in self.lengths) or self.diffusivity <= 0:
            raise ValueError("lengths and diffusivity must be positive")
        if self.discretization not in DISCRETIZATIONS:
            raise ValueError(f"unsupported discretization {self.discretization!r}")

    @property
    def n(self):
        return int(np.prod(self.nodes))


@dataclass(frozen=True)
class DescriptorModel:
    E: sp.csr_matrix
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    permutation: Permutation
    grid: GridSpec | None = None

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def r(self):
        return self.C.shape[0]


def _tridiag(n, lo, di, up):
    return sp.diags([np.full(n - 1, lo), np.full(n, di), np.full(n - 1, up)],
                    [-1, 0, 1], format="csr", dtype=np.float64)


def _fd_1d(nx, h, kappa):
    A = (kappa / h**2) * _tridiag(nx, 1.0, -2.0, 1.0)
    return identity(nx), canonicalize(A)


def _fe_1d_factors(nx, h, kappa):
    mass = (h / 6.0) * _tridiag(nx, 1.0, 4.0, 1.0)
    stiff = (kappa / h) * _tridiag(nx, 1.0, -2.0, 1.0)
    return canonicalize(mass), canonicalize(stiff)


def build_heat_model(grid):
    """Mass/stiffness pair (E, A) of the Dirichlet heat model on grid.

    Interior nodes only, row-major numbering for 2D. FD gives E = I with the
    standard Laplacian stencil; FE gives the tridiagonal mass/stiffness
    factors in 1D and their tensor products in 2D.
    """
    kappa = grid.diffusivity
    if grid.discretization == "fe-linear-1d":
        if grid.dimension != 1:
            raise ValueError("fe-linear-1d requires dimension 1")
        h = grid.lengths[0] / (grid.nodes[0] + 1)
        return _fe_1d_factors(grid.nodes[0], h, kappa)
    if grid.discretization == "fd-5point":
        hs = [L / (nx + 1) for L, nx in zip(grid.lengths, grid.nodes)]
        if grid.dimension == 1:
            return _fd_1d(grid.nodes[0], hs[0], kappa)
        nx, ny = grid.nodes
        hx, hy = hs
        Tx = _tridiag(nx, 1.0, -2.0, 1.0)
        Ty = _tridiag(ny, 1.0, -2.0, 1.0)
        # row-major numbering: index = iy * nx + ix
        A = (kappa / hx**2) * sp.kron(sp.identity(ny), Tx, format="csr") \
            + (kappa / hy**2) * sp.kron(Ty, sp.identity(nx), format="csr")
        return identity(nx * ny), canonicalize(A)
    # fe-bilinear-2d: tensor products of the 1D mass/stiffness factors
    if grid.dimension != 2:
        raise ValueError("fe-bilinear-2d requires dimension 2")
    nx, ny = grid.nodes
    hx = grid.lengths[0] / (nx + 1)
    hy = grid.lengths[1] / (ny + 1)
    Mx, Sx = _fe_1d_factors(nx, hx, 1.0)
    My, Sy = _fe_1d_factors(ny, hy, 1.0)
    E = sp.kron(My, Mx, format="csr")
    A = kappa * (sp.kron(My, Sx, format="csr") + sp.kron(Sy, Mx, format="csr"))
    return canonicalize(E), canonicalize(A)


def place_io(n, fraction, seed):
    """Seeded placement of unit actuator columns (B) and sensor rows (C).

    m = floor(fraction * n) distinct nodes each, drawn from PCG64(seed);
    actuator and sensor nodes are drawn independently.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"io fraction {fraction} outside (0, 1]")
    m = int(np.floor(fraction * n))
    if m < 1:
        raise ValueError("fraction * n must be at least 1")
    rng = np.random.default_rng(seed)
    b_nodes = np.sort(rng.choice(n, size=m, replace=False))
    c_nodes = np.sort(rng.choice(n, size=m, replace=False))
    B = sp.csr_matrix((np.ones(m), (b_nodes, np.arange(m))), shape=(n, m))
    C = sp.csr_matrix((np.ones(m), (np.arange(m), c_nodes)), shape=(m, n))
    return canonicalize(B), canonicalize(C)


def build_model(grid, io_fraction, seed):
    """Full descriptor model (E, A, B, C) on grid, RCM-permuted to banded form."""
    E, A = build_heat_model(grid)
    B, C = place_io(grid.n, io_fraction, seed)
    model = DescriptorModel(E=E, A=A, B=B, C=C,
                            permutation=Permutation.identity(grid.n), grid=grid)
    return permute_model(model)


def permute_model(model):
    """RCM-permute the model on pattern(A) union pattern(E).

    One permutation relabels states for E and A two-sidedly, B by rows and
    C by columns. If RCM would increase the bandwidth of A the input
    ordering is kept.
    """
    graph = binarize(binarize(model.A) + binarize(model.E))
    perm = rcm_order(graph)
    A_new = perm.apply_symmetric(model.A)
    if bandwidth(A_new) > bandwidth(model.A):
        return replace(model, permutation=Permutation.identity(model.n))
    return DescriptorModel(
        E=perm.apply_symmetric(model.E),
        A=A_new,
        B=perm.apply_rows(model.B),
        C=perm.apply_cols(model.C),
        permutation=perm,
        grid=model.grid,
    )

