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

# each discretization and the grid dimensions it is defined on
DISCRETIZATIONS = {"fd-5point": (1, 2), "fe-linear-1d": (1,),
                   "fe-bilinear-2d": (2,)}


@dataclass(frozen=True)
class GridSpec:
    dimension: int                    # 1 or 2
    nodes: tuple                      # interior nodes per axis
    lengths: tuple                    # domain length per axis (m)
    diffusivity: float                # m^2/s
    discretization: str

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension not in (1, 2):
            raise ValueError("dimension must be the integer 1 or 2")
        if (not isinstance(self.discretization, str)
                or self.discretization not in DISCRETIZATIONS):
            raise ValueError(f"unsupported discretization {self.discretization!r}")
        if self.dimension not in DISCRETIZATIONS[self.discretization]:
            raise ValueError(f"{self.discretization} requires dimension "
                             f"{DISCRETIZATIONS[self.discretization][0]}")
        if len(self.nodes) != self.dimension or len(self.lengths) != self.dimension:
            raise ValueError("nodes/lengths must match dimension")
        if not all(isinstance(nx, int) for nx in self.nodes):
            raise ValueError("node counts must be integers")
        if any(nx < 2 for nx in self.nodes):
            raise ValueError("need at least 2 interior nodes per axis")
        if not (all(L > 0 for L in self.lengths) and self.diffusivity > 0):
            raise ValueError("lengths and diffusivity must be positive")

    @property
    def n(self):
        return int(np.prod(self.nodes))


@dataclass(frozen=True)
class DescriptorModel:
    E: sp.csr_matrix
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    # both None for a model read from a bundle
    permutation: Permutation | None = None
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
    return sp.diags([lo, di, up], [-1, 0, 1], shape=(n, n), format="csr")


def _axis_pair(nx, length, fd):
    """1-D (mass, stiffness) pair of one axis with nx interior nodes."""
    h, T = length / (nx + 1), _tridiag(nx, 1.0, -2.0, 1.0)
    if fd:
        return identity(nx), (1.0 / h**2) * T
    return (h / 6.0) * _tridiag(nx, 1.0, 4.0, 1.0), (1.0 / h) * T


def build_heat_model(grid):
    """Mass/stiffness pair (E, A) of the Dirichlet heat model on grid.

    Interior nodes only, row-major numbering for 2D. With T = tridiag(1, -2,
    1), each axis gives a 1-D pair (M, S): (I, T/h^2) for FD and
    ((h/6) tridiag(1, 4, 1), T/h) for linear FE. E = M and A = kappa S in
    1D; E = My (x) Mx and A = kappa (My (x) Sx + Sy (x) Mx) in 2D.
    """
    fd = grid.discretization == "fd-5point"
    pairs = [_axis_pair(nx, length, fd)
             for nx, length in zip(grid.nodes, grid.lengths)]
    if len(pairs) == 1:
        (E, S), = pairs
    else:
        (Mx, Sx), (My, Sy) = pairs
        E = sp.kron(My, Mx, format="csr")
        S = sp.kron(My, Sx, format="csr") + sp.kron(Sy, Mx, format="csr")
    return canonicalize(E), canonicalize(grid.diffusivity * S)


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

