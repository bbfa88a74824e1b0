"""Command-line front end: model generation, pattern computation,
Lyapunov/Riccati solves, closed-loop simulation, and benchmark reports.

Matrices are written as Matrix Market files, with values in shortest
round-trip form, and reports as CSV, with floats to 17 significant digits.
Runs are reproducible: a manifest records the config hash, package
version, and seeds, and every artifact except timing files is
byte-identical across repeated runs with the same config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import __version__, mmio
from .control import (LqProblem, NewtonConfig, RiccatiDivergence, metric_e,
                      newton_start, simulate_closed_loop, solve_lyap,
                      solve_riccati)
from .lyap_gp import GpConfig
from .lyap_lsq import CglsConfig
# not called here; kept because perfbench/probes.py wraps them by name here
from .control import feedback, newton_step_matrices  # noqa: F401
from .lyap_gp import initial_guess, solve_lyap_gp  # noqa: F401
from .lyap_lsq import solve_lyap_lsq  # noqa: F401
from .mmio import read_matrix, write_matrix, write_pattern
from .modelgen import DescriptorModel, GridSpec, build_model
from .oracle import DEFAULT_CAP, dense_lyap
from .pattern import apriori_pattern, pattern_density
from .report import SolveReport, fmt
from .sparsecore import Permutation, bandwidth, canonicalize


class ConfigError(ValueError):
    """Schema violation in a run configuration, with location context."""


@dataclass
class RunConfig:
    output_dir: str
    model: dict
    grid: GridSpec | None       # a heat model's grid; None for the scalar
    newton: NewtonConfig
    q_weight: float
    r_weight: float
    sim: dict
    oracle_enabled: bool
    oracle_max_n: int
    bench: dict
    raw: dict = field(repr=False, default_factory=dict)


# Each section's keys and defaults; a given value must be of its default's
# kind (_typed). A pair (config, field) is a key with that field's default
# and that config's range check; the other defaults live only here.
_SECTIONS = {
    "pattern": {"w": (NewtonConfig, "w")},
    "lyap": {"method": (NewtonConfig, "lyap_method"),
             "cgls_tol": (CglsConfig, "tol"),
             "cgls_max_iter": (CglsConfig, "max_iter"),
             "gp": {f.name: f.default for f in fields(GpConfig)}},
    "riccati": {**{key: (NewtonConfig, key)
                   for key in ("Z0_scale", "N_max", "residual_tol")},
                "q_weight": 1.0, "r_weight": 1.0},
    "sim": {"dt": 1e-3, "steps": 2000, "x0": "random", "x0_seed": 0,
            "max_rows": 1000},
    "oracle": {"enabled": True, "max_n": DEFAULT_CAP},
    "bench": {"sizes": [], "methods": ["lsq"]},
}
# A heat model must give the first four keys, whose values here only give
# their kinds; a scalar model's absent keys stay absent.
_MODEL = {"dimension": 2, "nodes": [], "lengths": [], "discretization": "",
          "kind": "heat", "diffusivity": 1.0, "io_fraction": 0.5, "seed": 0}


def _checked(where, cls, **values):
    """``cls(**values)``, with its range error raised as a ConfigError."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _typed(path, name, value, default):
    """``value`` as the kind of ``default``, or a ConfigError naming it.

    A bool default takes a JSON bool; an int one an integral number (4.0
    gives 4); a float one any finite number (not NaN or +-Infinity, which
    json.load reads), stored as float; any other default a value of its
    type. A pair (config, field) takes the field's kind, and the config
    checks the value's range alone.
    """
    if isinstance(default, tuple):
        value = _typed(path, name, value, getattr(*default))
        _checked(path + name, default[0], **{default[1]: value})
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        kind, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, int):
        kind, ok = "an integer", number and value % 1 == 0
    elif isinstance(default, float):
        kind = "a finite number"
        ok = number and abs(value) <= sys.float_info.max
    else:
        kind = {str: "a string", list: "a list", dict: "an object"}[
            type(default)]
        ok = isinstance(value, type(default))
        if name == "sim.x0":
            kind = "'random', 'ones' or a list"
            ok = isinstance(value, list) or value in ("random", "ones")
    if not ok:
        raise ConfigError(f"{path}{name} must be {kind}, "
                          f"got {json.dumps(value)}")
    if number:
        return int(value) if isinstance(default, int) else float(value)
    return value


def _read(raw, path, section, keys, required=(), fill=True):
    """The object ``raw`` typed by ``keys``, whose defaults fill the rest."""
    for problem, names in (("unknown", set(raw) - set(keys)),
                           ("missing required", set(required) - set(raw))):
        if names:
            raise ConfigError(f"{path}{section or '<root>'}: {problem} "
                              f"keys {sorted(names)}; allowed: {sorted(keys)}")
    given = {key: _typed(path, f"{section}.{key}" if section else key,
                         value, keys[key]) for key, value in raw.items()}
    return {**{key: getattr(*d) if isinstance(d, tuple) else d
               for key, d in keys.items() if fill}, **given}


def parse_config(raw, source="<config>"):
    """Validate a parsed JSON object into a RunConfig, so that a stage
    reads each value as it is; unknown keys fail."""
    path = f"{source}: "
    top = _read(_typed(path, "<root>", raw, {}), path, "",
                {"output_dir": "", "model": {}, **_SECTIONS},
                required=("output_dir", "model"), fill=False)
    heat = top["model"].get("kind", _MODEL["kind"]) == "heat"
    model = _read(top["model"], path, "model", _MODEL, fill=heat, required=(
        "dimension", "nodes", "lengths", "discretization") if heat else ())
    if model["kind"] not in ("heat", "scalar"):
        raise ConfigError(f"{path}model.kind must be 'heat' or 'scalar'")
    if heat:
        # the grid counts nodes in integers and measures lengths in numbers
        model["nodes"] = [_typed(path, f"model.nodes[{k}]", v, 0)
                          for k, v in enumerate(model["nodes"])]
        for k, v in enumerate(model["lengths"]):
            _typed(path, f"model.lengths[{k}]", v, 0.0)
    grid = _checked(
        f"{path}model", GridSpec, dimension=model["dimension"],
        nodes=tuple(model["nodes"]), lengths=tuple(model["lengths"]),
        diffusivity=model["diffusivity"],
        discretization=model["discretization"]) if heat else None
    sec, owned = {}, {NewtonConfig: {}, CglsConfig: {}}
    for name, keys in _SECTIONS.items():
        sec[name] = _read(top.get(name, {}), path, name, keys)
        for key, d in keys.items():
            if isinstance(d, tuple):
                owned[d[0]][d[1]] = sec[name][key]
    gp = _read(sec["lyap"]["gp"], path, "lyap.gp", _SECTIONS["lyap"]["gp"])
    newton = NewtonConfig(
        cgls=CglsConfig(**owned[CglsConfig]),
        gp=_checked(f"{path}lyap.gp", GpConfig, **gp),
        **owned[NewtonConfig])
    # each size is a grid's node count per axis, or one count for a 1-D grid
    sec["bench"]["sizes"] = [
        tuple(_typed(path, f"bench.sizes[{k}]", v, 0)
              for v in (size if isinstance(size, list) else [size]))
        for k, size in enumerate(sec["bench"]["sizes"])]
    for k, method in enumerate(sec["bench"]["methods"]):
        _typed(path, f"bench.methods[{k}]", method,
               (NewtonConfig, "lyap_method"))
    n = grid.n if heat else 1
    x0 = sec["sim"]["x0"]
    if isinstance(x0, list):
        sec["sim"]["x0"] = [_typed(path, f"sim.x0[{k}]", v, 0.0)
                            for k, v in enumerate(x0)]
    ric, orc = sec["riccati"], sec["oracle"]
    for bad, name, rule in (
            (isinstance(x0, list) and len(x0) != n, "sim.x0",
             f"'random', 'ones' or a list of n = {n} numbers"),
            (sec["sim"]["dt"] <= 0, "sim.dt", "a positive number"),
            (sec["sim"]["steps"] < 1, "sim.steps", "an integer >= 1"),
            (sec["sim"]["max_rows"] < 1, "sim.max_rows", "an integer >= 1"),
            (sec["sim"]["x0_seed"] < 0, "sim.x0_seed", "an integer >= 0"),
            (orc["max_n"] < 1, "oracle.max_n", "an integer >= 1"),
            (model.get("seed", 0) < 0, "model.seed", "an integer >= 0"),
            (ric["q_weight"] < 0, "riccati.q_weight", "a number >= 0"),
            (ric["r_weight"] <= 0, "riccati.r_weight", "a positive number"),
            (heat and not (0 < model["io_fraction"] <= 1
                           and np.floor(model["io_fraction"] * n) >= 1),
             "model.io_fraction",
             f"in (0, 1] with floor(io_fraction * n) >= 1 for n = {n}")):
        if bad:
            raise ConfigError(f"{path}{name} must be {rule}")
    return RunConfig(
        output_dir=top["output_dir"], model=model, grid=grid, newton=newton,
        q_weight=ric["q_weight"], r_weight=ric["r_weight"], sim=sec["sim"],
        oracle_enabled=orc["enabled"], oracle_max_n=orc["max_n"],
        bench=sec["bench"], raw=raw)


def load_config(path):
    try:
        with open(path) as f:
            raw = json.load(f)
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
                  "x0": cfg.sim["x0_seed"]},
    })


def _build_model(cfg, grid):
    """The configured heat model on ``grid``, or the scalar model if None."""
    if grid is None:
        one = canonicalize(sp.csr_matrix(np.array([[1.0]])))
        return DescriptorModel(E=one, A=canonicalize(-one), B=one, C=one,
                               permutation=Permutation.identity(1), grid=None)
    return build_model(grid, cfg.model["io_fraction"], cfg.model["seed"])


def cmd_genmodel(cfg, out):
    """Write the model bundle E/A/B/C.mtx, perm.txt, model.json. Every
    stage output in ``out`` belongs to the model it replaces and is
    deleted first."""
    for name in (name for _run, names in _STAGES.values() for name in names):
        Path(out, name).unlink(missing_ok=True)
    model = _build_model(cfg, cfg.grid)
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
        "grid": None if model.grid is None else asdict(model.grid),
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
    return DescriptorModel(**{m: read_matrix(os.path.join(out, f"{m}.mtx"))
                              for m in "EABC"})


def _problem(cfg, model):
    return LqProblem(model, Q=np.full(model.r, cfg.q_weight),
                     R=np.full(model.m, cfg.r_weight))


def _read_pattern(out, n):
    # looked up in mmio at call time, where perfbench/probes.py wraps it
    pat = mmio.read_pattern(_input(out, "pattern.mtx", "--stage pattern"))
    if pat.shape != (n, n):
        raise DependencyError(f"{out}: pattern.mtx is {pat.shape}, not the "
                              f"model's {(n, n)}; run --stage pattern again")
    return pat


def stage_pattern(cfg, out, prob):
    _F, Abar, P = newton_start(prob, cfg.newton)
    pat = apriori_pattern(Abar, prob.model.E, P, cfg.newton.w)
    write_pattern(os.path.join(out, "pattern.mtx"), pat)
    _write_json(os.path.join(out, "density.json"), {
        "w": cfg.newton.w, "n": prob.model.n, "nnz": int(pat.nnz),
        "density": pattern_density(pat),
    })
    return 0


def stage_lyap(cfg, out, prob):
    model = prob.model
    pat = _read_pattern(out, model.n)
    _F, Abar, P = newton_start(prob, cfg.newton)
    Z, rep = solve_lyap(Abar, model.E, P, pat, cfg.newton)
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


def stage_riccati(cfg, out, prob):
    pat = _read_pattern(out, prob.model.n)
    try:
        Z, reports, F = solve_riccati(prob, cfg=cfg.newton, pattern=pat)
    except RiccatiDivergence as exc:
        reports, converged = exc.reports, False
    else:
        write_matrix(os.path.join(out, "Zricc.mtx"), Z)
        write_matrix(os.path.join(out, "F.mtx"), F)
        converged = reports[-1].v_k <= cfg.newton.residual_tol * reports[0].v_k
    fields = ("k", "v_k", "lyap_residual", "nnz_Z", "nnz_F",
              "lyap_iterations", "lyap_converged", "forcing")
    rows = [[fmt(getattr(r, f)) for f in fields] for r in reports]
    _write_csv(os.path.join(out, "newton_report.csv"), fields, rows)
    _write_json(os.path.join(out, "timings.json"),
                {"newton_wall_ms": [r.wall_ms for r in reports]})
    return 0 if converged else 2


def stage_simulate(cfg, out, prob):
    F = read_matrix(_input(out, "F.mtx", "--stage riccati"))
    n = prob.model.n
    x0_spec = cfg.sim["x0"]
    if x0_spec == "random":
        x0 = np.random.default_rng(cfg.sim["x0_seed"]).standard_normal(n)
    elif x0_spec == "ones":
        x0 = np.ones(n)
    else:
        x0 = np.asarray(x0_spec, dtype=np.float64)
    traj = simulate_closed_loop(prob, F, x0, cfg.sim["dt"], cfg.sim["steps"],
                                cfg.sim["max_rows"])
    rows = [[fmt(int(s)), fmt(float(t)), fmt(float(nx)), fmt(float(c))]
            for s, t, nx, c in zip(traj.steps, traj.times,
                                   traj.state_norms, traj.inst_cost)]
    _write_csv(os.path.join(out, "trajectory.csv"),
               ("step", "time", "state_norm", "inst_cost"), rows)
    _write_json(os.path.join(out, "cost.json"), {"cost": traj.cost})
    return 0


_STAGES = {  # each solve stage and the artifacts it writes
    "pattern": (stage_pattern, ("pattern.mtx", "density.json")),
    "lyap": (stage_lyap, ("Zhat.mtx", "lyap_report.csv", "timings.json")),
    "riccati": (stage_riccati, ("Zricc.mtx", "F.mtx", "newton_report.csv",
                                "timings.json")),
    "simulate": (stage_simulate, ("trajectory.csv", "cost.json"))}


def cmd_solve(cfg, out, stage):
    """Run ``stage`` on the bundle in ``out``. Its outputs are deleted
    first, so that a failed run leaves no earlier result behind."""
    run, outputs = _STAGES[stage]
    for name in outputs:
        Path(out, name).unlink(missing_ok=True)
    rc = run(cfg, out, _problem(cfg, _load_bundle(out)))
    _write_manifest(out, cfg, f"solve --stage {stage}")
    return rc


def cmd_bench(cfg, out):
    """Per-size scaling rows; individual failures are recorded, not fatal."""
    if not cfg.bench["sizes"]:
        raise ConfigError("bench.sizes is required for the bench command")
    w = str(cfg.newton.w)
    fields = ("n", "method", "w", "nnz", "iterations", "wall_ms", "status")
    rows = []
    for nodes in cfg.bench["sizes"]:
        try:
            model = _build_model(cfg, None if cfg.grid is None
                                 else replace(cfg.grid, nodes=nodes))
            _F, Abar, P = newton_start(_problem(cfg, model), cfg.newton)
            pat = apriori_pattern(Abar, model.E, P, cfg.newton.w)
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
                    _Z, rep = solve_lyap(Abar, model.E, P, pat, replace(
                        cfg.newton, lyap_method=method))
                    nnz, iters = rep.stored_entries, rep.iterations
                wall = 1e3 * (time.perf_counter() - t0)
                rows.append([fmt(v) for v in (n, method, w, nnz, iters,
                                              wall, "ok")])
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
            if args.seed < 0:
                raise ConfigError("--seed must be an integer >= 0")
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
