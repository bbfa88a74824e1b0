"""Banded approximate solvers for generalized Lyapunov/Riccati equations
and sparse LQ feedback synthesis for discretized PDE descriptor models."""

from .control import (LqProblem, NewtonConfig, feedback, frechet_apply,
                      metric_e, riccati_residual, simulate_closed_loop,
                      solve_lyap, solve_riccati)
from .lyap_gp import (FaberConfig, GpConfig, SpectrumBounds, faber_coefficients,
                      faber_expm, initial_guess, quadrature_nodes, spai,
                      solve_lyap_gp, spectrum_bounds)
from .lyap_lsq import CglsConfig, GlOperator, solve_lyap_lsq
from .modelgen import (DescriptorModel, GridSpec, build_heat_model, build_model,
                       permute_model, place_io)
from .pattern import PatternConfig, apriori_pattern, inverse_pattern
from .sparsecore import (Permutation, bandwidth, binarize, frobenius,
                         pattern_power_sum, project, rcm_order)

__version__ = "0.1.0"
