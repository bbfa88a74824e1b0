"""Per-solve reporting records shared by the Lyapunov and Riccati drivers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolveReport:
    method: str
    n: int
    w: int = -1
    nnz_pattern: int = 0
    nnz_m1: int = 0
    iterations: int = 0
    final_residual: float = float("nan")
    e_k: float = float("nan")         # relative error vs dense oracle, if enabled
    wall_ms: float = 0.0
    converged: bool = True
    extra: dict = field(default_factory=dict)

    # fields whose values are reproducible bit-for-bit under a fixed seed;
    # wall-clock time is reported separately so CSV artifacts stay diffable
    DETERMINISTIC_FIELDS = ("method", "n", "w", "nnz_pattern", "nnz_m1",
                            "iterations", "final_residual", "e_k", "converged")

    def to_row(self, fields):
        vals = []
        for name in fields:
            v = getattr(self, name)
            if isinstance(v, float):
                vals.append(f"{v:.17g}")
            else:
                vals.append(str(v))
        return vals
