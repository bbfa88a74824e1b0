"""Per-solve reporting records shared by the Lyapunov and Riccati drivers,
and the cell format of every CSV report."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolveReport:
    method: str
    n: int
    nnz_pattern: int = 0
    stored_entries: int = 0           # the GL operator's storage
    iterations: int = 0
    final_residual: float = float("nan")
    e_k: float = float("nan")         # relative error vs dense oracle, if enabled
    wall_ms: float = 0.0              # the call, set by control.solve_lyap
    converged: bool = True
    extra: dict = field(default_factory=dict)

    # fields whose values are reproducible bit-for-bit under a fixed seed;
    # wall-clock time is reported separately so CSV artifacts stay diffable
    DETERMINISTIC_FIELDS = ("method", "n", "nnz_pattern", "stored_entries",
                            "iterations", "final_residual", "e_k", "converged")

    def to_row(self, fields):
        return [fmt(getattr(self, name)) for name in fields]


def fmt(v):
    """One CSV cell: floats with 17 significant digits, the rest as str."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)
