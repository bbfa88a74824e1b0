"""Command-line front end: model generation, pattern computation,
Lyapunov/Riccati solves, closed-loop simulation, and benchmark reports.

Matrices are written as Matrix Market files, with values in shortest
round-trip form, and reports as CSV, with floats to 17 significant digits.
Runs are reproducible: a manifest records the config hash, package
version, and seeds, and every artifact except timing files is
byte-identical across repeated runs with the same config.
"""

from __future__ import annotations

import os

# honor the thread cap before any numerics library spins up its pools
_threads = os.environ.get("BANDLQ_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import __version__, mmio
from .control import (LqProblem, NewtonConfig, RiccatiDivergence, metric_e,
                      newton_step_matrices, simulate_closed_loop, solve_lyap,
                      solve_riccati)
from .lyap_gp import FaberConfig, GpConfig
from .lyap_lsq import CglsConfig
# not called here; kept because perfbench/probes.py wraps them by name here
from .control import feedback  # noqa: F401
from .lyap_gp import initial_guess, solve_lyap_gp  # noqa: F401
from .lyap_lsq import solve_lyap_lsq  # noqa: F401
from .mmio import read_matrix, write_matrix, write_pattern
from .modelgen import DescriptorModel, GridSpec, build_model
from .oracle import dense_lyap
from .pattern import apriori_pattern, pattern_density
from .report import SolveReport, fmt
from .sparsecore import Permutation, bandwidth, canonicalize, identity


class ConfigError(ValueError):
    """Schema violation in a run configuration, with location context."""


def _section(raw, name, allowed, required=(), path=""):
    ctx = f"{path}{name}" if name else (path or "<root>")
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    missing = set(required) - set(raw)
    if missing:
        raise ConfigError(f"{ctx}: missing required keys {sorted(missing)}")
    return raw


@dataclass
class RunConfig:
    output_dir: str
    model: dict
    newton: NewtonConfig
    cgls: CglsConfig
    gp: GpConfig
    faber: FaberConfig
    q_weight: float
    r_weight: float
    sim: dict
    oracle_enabled: bool
    oracle_max_n: int
    bench: dict
    raw: dict = field(repr=False, default_factory=dict)


_MODEL_KEYS = ("kind", "dimension", "nodes", "lengths", "diffusivity",
               "discretization", "io_fraction", "seed")
_GP_KEYS = ("delta_bar", "zeta", "sigma", "max_iter", "q", "k1",
            "p", "k2", "W")


def parse_config(raw, source="<config>"):
    """Validate a parsed JSON object into a RunConfig; unknown keys fail."""
    _section(raw, "", ("output_dir", "model", "pattern", "lyap",
                       "riccati", "sim", "oracle", "bench"),
             required=("output_dir", "model"), path=f"{source}: ")
    path = f"{source}: "

    model = dict(_section(raw["model"], "model", _MODEL_KEYS, path=path))
    model.setdefault("kind", "heat")
    if model["kind"] not in ("heat", "scalar"):
        raise ConfigError(f"{source}: model.kind must be 'heat' or 'scalar'")
    if model["kind"] == "heat":
        for key in ("dimension", "nodes", "lengths", "discretization"):
            if key not in model:
                raise ConfigError(f"{source}: model.{key} is required "
                                  "for heat models")
        model.setdefault("diffusivity", 1.0)
        model.setdefault("io_fraction", 0.5)
        model.setdefault("seed", 0)

    pat_raw = _section(raw.get("pattern", {}), "pattern", ("w",), path=path)

    lyap_raw = dict(_section(raw.get("lyap", {}), "lyap",
                             ("method", "cgls_tol", "cgls_max_iter", "gp"),
                             path=path))
    # absent keys are left out, so they take the dataclass defaults
    method = lyap_raw.get("method", NewtonConfig.lyap_method)
    if method not in ("lsq", "gp"):
        raise ConfigError(f"{source}: lyap.method must be 'lsq' or 'gp'")
    cgls = CglsConfig(**{name: lyap_raw[key] for key, name in
                         (("cgls_tol", "tol"), ("cgls_max_iter", "max_iter"))
                         if key in lyap_raw})
    gp_raw = dict(_section(lyap_raw.get("gp", {}), "lyap.gp", _GP_KEYS,
                           path=path))
    faber = FaberConfig(**{key: gp_raw.pop(key) for key in ("p", "W", "k2")
                           if key in gp_raw})
    gp = GpConfig(**gp_raw)

    ric_raw = _section(raw.get("riccati", {}), "riccati",
                       ("Z0_scale", "N_max", "residual_tol",
                        "q_weight", "r_weight"), path=path)
    newton = {key: conv(ric_raw[key]) for key, conv in
              (("Z0_scale", float), ("N_max", int), ("residual_tol", float))
              if key in ric_raw}
    if "w" in pat_raw:
        newton["w"] = pat_raw["w"]

    sim = dict(_section(raw.get("sim", {}), "sim",
                        ("dt", "steps", "x0", "x0_seed", "max_rows"),
                        path=path))
    sim.setdefault("dt", 1e-3)
    sim.setdefault("steps", 2000)
    sim.setdefault("x0", "random")
    sim.setdefault("x0_seed", 0)
    sim.setdefault("max_rows", 1000)

    orc = _section(raw.get("oracle", {}), "oracle", ("enabled", "max_n"),
                   path=path)
    bench = dict(_section(raw.get("bench", {}), "bench",
                          ("sizes", "methods"), path=path))
    bench.setdefault("methods", ["lsq"])

    return RunConfig(
        output_dir=raw["output_dir"],
        model=model,
        newton=NewtonConfig(lyap_method=method, **newton),
        cgls=cgls, gp=gp, faber=faber,
        q_weight=float(ric_raw.get("q_weight", 1.0)),
        r_weight=float(ric_raw.get("r_weight", 1.0)),
        sim=sim,
        oracle_enabled=bool(orc.get("enabled", True)),
        oracle_max_n=int(orc.get("max_n", 400)),
        bench=bench,
        raw=raw,
    )


def load_config(path):
    try:
        with open(path) as f:
            text = f.read()
        raw = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return parse_config(raw, source=path)


def _config_hash(cfg):
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path, fields, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        writer.writerows(rows)


def _write_manifest(out, cfg, command):
    _write_json(os.path.join(out, "manifest.json"), {
        "command": command,
        "version": f"bandlq-{__version__}",
        "config_sha256": _config_hash(cfg),
        "seeds": {"model": cfg.model.get("seed"),
                  "x0": cfg.sim.get("x0_seed")},
    })


def _build_from_config(cfg):
    if cfg.model["kind"] == "scalar":
        one = canonicalize(sp.csr_matrix(np.array([[1.0]])))
        return DescriptorModel(E=one, A=canonicalize(-one), B=one, C=one,
                               permutation=Permutation.identity(1), grid=None)
    grid = GridSpec(dimension=int(cfg.model["dimension"]),
                    nodes=tuple(cfg.model["nodes"]),
                    lengths=tuple(cfg.model["lengths"]),
                    diffusivity=float(cfg.model["diffusivity"]),
                    discretization=cfg.model["discretization"])
    return build_model(grid, float(cfg.model["io_fraction"]),
                       int(cfg.model["seed"]))


def cmd_genmodel(cfg, out):
    """Write the model bundle E/A/B/C.mtx, perm.txt, model.json."""
    model = _build_from_config(cfg)
    os.makedirs(out, exist_ok=True)
    write_matrix(os.path.join(out, "E.mtx"), model.E)
    write_matrix(os.path.join(out, "A.mtx"), model.A)
    write_matrix(os.path.join(out, "B.mtx"), model.B)
    write_matrix(os.path.join(out, "C.mtx"), model.C)
    np.savetxt(os.path.join(out, "perm.txt"), model.permutation.forward,
               fmt="%d")
    meta = {
        "kind": cfg.model["kind"],
        "n": model.n, "m": model.m, "r": model.r,
        "nnz": {"E": model.E.nnz, "A": model.A.nnz,
                "B": model.B.nnz, "C": model.C.nnz},
        "bandwidth": {"E": bandwidth(model.E), "A": bandwidth(model.A)},
        "seed": cfg.model.get("seed"),
        "grid": None if model.grid is None else {
            "dimension": model.grid.dimension,
            "nodes": list(model.grid.nodes),
            "lengths": list(model.grid.lengths),
            "diffusivity": model.grid.diffusivity,
            "discretization": model.grid.discretization,
        },
    }
    _write_json(os.path.join(out, "model.json"), meta)
    _write_manifest(out, cfg, "genmodel")
    return 0


class DependencyError(RuntimeError):
    """A solve stage was invoked before its prerequisite artifacts exist."""


def _input(out, name, producer):
    """Path of the artifact ``name`` in ``out``, which ``producer`` writes."""
    path = os.path.join(out, name)
    if not os.path.exists(path):
        raise DependencyError(f"{out}: {name} not found; run {producer} first")
    return path


def _load_bundle(out):
    _input(out, "model.json", "genmodel")
    mats = {name: read_matrix(os.path.join(out, f"{name}.mtx"))
            for name in ("E", "A", "B", "C")}
    forward = np.loadtxt(os.path.join(out, "perm.txt"),
                         dtype=np.int64, ndmin=1)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size)
    return DescriptorModel(E=mats["E"], A=mats["A"], B=mats["B"], C=mats["C"],
                           permutation=Permutation(forward=forward,
                                                   inverse=inverse))


def _problem(cfg, model):
    return LqProblem(model, Q=np.full(model.r, cfg.q_weight),
                     R=np.full(model.m, cfg.r_weight))


def _read_pattern(out):
    # looked up in mmio at call time, where perfbench/probes.py wraps it
    return mmio.read_pattern(_input(out, "pattern.mtx", "--stage pattern"))


def _first_step(cfg, model):
    Z0 = canonicalize(cfg.newton.Z0_scale * identity(model.n))
    return newton_step_matrices(Z0, _problem(cfg, model))


def stage_pattern(cfg, out):
    model = _load_bundle(out)
    _F, Abar, P = _first_step(cfg, model)
    pat = apriori_pattern(Abar, model.E, P, cfg.newton.w)
    write_pattern(os.path.join(out, "pattern.mtx"), pat)
    _write_json(os.path.join(out, "density.json"), {
        "w": cfg.newton.w, "n": model.n, "nnz": int(pat.nnz),
        "density": pattern_density(pat),
    })
    return 0


def stage_lyap(cfg, out):
    model = _load_bundle(out)
    pat = _read_pattern(out)
    _F, Abar, P = _first_step(cfg, model)
    Z, rep = solve_lyap(Abar, model.E, P, pat, cfg.newton.lyap_method,
                        cgls_cfg=cfg.cgls, gp_cfg=cfg.gp, faber_cfg=cfg.faber)
    if cfg.oracle_enabled and model.n <= cfg.oracle_max_n:
        Zex = dense_lyap(Abar, model.E, P, max_n=cfg.oracle_max_n)
        rep.e_k = metric_e(Z, sp.csr_matrix(Zex))
    write_matrix(os.path.join(out, "Zhat.mtx"), Z)
    _write_csv(os.path.join(out, "lyap_report.csv"),
               SolveReport.DETERMINISTIC_FIELDS,
               [rep.to_row(SolveReport.DETERMINISTIC_FIELDS)])
    _write_json(os.path.join(out, "timings.json"),
                {"lyap_wall_ms": rep.wall_ms})
    return 0 if rep.converged else 2


def stage_riccati(cfg, out):
    model = _load_bundle(out)
    pat = _read_pattern(out)
    prob = _problem(cfg, model)
    try:
        Z, reports, F = solve_riccati(prob, cfg=cfg.newton,
                                      cgls_cfg=cfg.cgls, gp_cfg=cfg.gp,
                                      faber_cfg=cfg.faber, pattern=pat)
    except RiccatiDivergence as exc:
        reports = exc.reports
        Z = None
    if Z is not None:
        write_matrix(os.path.join(out, "Zricc.mtx"), Z)
        write_matrix(os.path.join(out, "F.mtx"), F)
    fields = ("k", "v_k", "lyap_residual", "nnz_Z", "nnz_F",
              "lyap_iterations", "lyap_converged")
    rows = [[fmt(getattr(r, f)) for f in fields] for r in reports]
    _write_csv(os.path.join(out, "newton_report.csv"), fields, rows)
    _write_json(os.path.join(out, "timings.json"),
                {"newton_wall_ms": [r.wall_ms for r in reports]})
    if Z is None:
        return 2
    converged = reports[-1].v_k <= cfg.newton.residual_tol * reports[0].v_k
    return 0 if converged else 2


def stage_simulate(cfg, out):
    model = _load_bundle(out)
    F = read_matrix(_input(out, "F.mtx", "--stage riccati"))
    prob = _problem(cfg, model)
    x0_spec = cfg.sim["x0"]
    if x0_spec == "random":
        rng = np.random.default_rng(int(cfg.sim["x0_seed"]))
        x0 = rng.standard_normal(model.n)
    elif x0_spec == "ones":
        x0 = np.ones(model.n)
    else:
        x0 = np.asarray(x0_spec, dtype=np.float64)
        if x0.size != model.n:
            raise ConfigError(f"sim.x0 has size {x0.size}, expected {model.n}")
    traj = simulate_closed_loop(prob, F, x0, dt=float(cfg.sim["dt"]),
                                steps=int(cfg.sim["steps"]),
                                max_rows=int(cfg.sim["max_rows"]))
    rows = [[fmt(int(s)), fmt(float(t)), fmt(float(nx)), fmt(float(c))]
            for s, t, nx, c in zip(traj.steps, traj.times,
                                   traj.state_norms, traj.inst_cost)]
    _write_csv(os.path.join(out, "trajectory.csv"),
               ("step", "time", "state_norm", "inst_cost"), rows)
    _write_json(os.path.join(out, "cost.json"), {"cost": traj.cost})
    return 0


_STAGES = {"pattern": stage_pattern, "lyap": stage_lyap,
           "riccati": stage_riccati, "simulate": stage_simulate}


def cmd_solve(cfg, out, stage):
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}; "
                          f"choose from {sorted(_STAGES)}")
    rc = _STAGES[stage](cfg, out)
    _write_manifest(out, cfg, f"solve --stage {stage}")
    return rc


def cmd_bench(cfg, out):
    """Per-size scaling rows; individual failures are recorded, not fatal."""
    sizes = cfg.bench.get("sizes")
    if not sizes:
        raise ConfigError("bench.sizes is required for the bench command")
    os.makedirs(out, exist_ok=True)
    w = str(cfg.newton.w)
    fields = ("n", "method", "w", "nnz", "iterations", "wall_ms", "status")
    rows = []
    for nodes in sizes:
        nodes = tuple(int(v) for v in np.atleast_1d(nodes))
        spec = {**cfg.model, "nodes": list(nodes)}
        try:
            sub = parse_config({**cfg.raw, "model": spec}, source="<bench>")
            model = _build_from_config(sub)
            _F, Abar, P = _first_step(sub, model)
            pat = apriori_pattern(Abar, model.E, P, sub.newton.w)
        except Exception as exc:            # per-size failure, keep going
            rows.append([str(int(np.prod(nodes))), "setup", w,
                         "0", "0", "0", f"error: {exc}"])
            continue
        n = model.n
        methods = list(cfg.bench["methods"])
        if cfg.oracle_enabled and n <= cfg.oracle_max_n:
            methods.append("oracle")
        for method in methods:
            try:
                t0 = time.perf_counter()
                if method == "oracle":
                    dense_lyap(Abar, model.E, P, max_n=cfg.oracle_max_n)
                    nnz, iters = n * n, 1
                else:
                    _Z, rep = solve_lyap(Abar, model.E, P, pat, method,
                                         cgls_cfg=cfg.cgls, gp_cfg=cfg.gp,
                                         faber_cfg=cfg.faber)
                    # the storage each solve needs: Method 2's peak nnz,
                    # Method 1's nnz(M1)
                    nnz = rep.extra.get("peak_nnz", rep.nnz_m1)
                    iters = rep.iterations
                wall = 1e3 * (time.perf_counter() - t0)
                rows.append([str(n), method, w, str(nnz), str(iters),
                             f"{wall:.17g}", "ok"])
            except Exception as exc:
                rows.append([str(n), method, w, "0", "0", "0",
                             f"error: {exc}"])
    _write_csv(os.path.join(out, "bench.csv"), fields, rows)
    _write_manifest(out, cfg, "bench")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bandlq",
        description="Banded approximate Lyapunov/Riccati solves and sparse "
                    "LQ feedback for descriptor heat models.")
    parser.add_argument("--version", action="version",
                        version=f"bandlq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("genmodel", "generate a model bundle"),
                       ("solve", "run a solve stage on an existing bundle"),
                       ("bench", "size-sweep scaling benchmark")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--oracle", choices=("on", "off"),
                       help="override the oracle.enabled flag")
        p.add_argument("--seed", type=int,
                       help="override the model seed")
        if name == "solve":
            p.add_argument("--stage", required=True,
                           choices=sorted(_STAGES))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.output_dir = args.out
        if args.oracle:
            cfg.oracle_enabled = args.oracle == "on"
        if args.seed is not None:
            cfg.model["seed"] = args.seed
        out = cfg.output_dir
        os.makedirs(out, exist_ok=True)
        if args.command == "genmodel":
            return cmd_genmodel(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out, args.stage)
        return cmd_bench(cfg, out)
    except (ConfigError, DependencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                    # numeric or IO failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
