"""Runs one workload through the bandlq CLI, checks it and reports metrics.

The user is simulated as a closed loop of one: the pipeline
``genmodel -> solve --stage ...`` runs in-process through
``bandlq.cli.main`` with ``--oracle off``, again and again, each pass
starting after the previous one ends. Outputs are checked against the dense
oracles and against each other outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import bandlq.cli as cli
from bandlq.control import (LqProblem, feedback, metric_e,
                            newton_step_matrices, simulate_closed_loop)
from bandlq.mmio import read_matrix
from bandlq.modelgen import DescriptorModel
from bandlq.oracle import dense_lyap, dense_riccati, pencil_eigs
from bandlq.sparsecore import Permutation, canonicalize, frobenius, identity

from probes import EXACT_COUNTS, Probes
from workloads import ORACLE_MAX_N

SRC = Path(cli.__file__).resolve().parent.parent
MIN_RUNS = 2               # the determinism check compares two runs
SETUP_REPEATS = 5
# spans whose own time is glue between layers, not a layer's work: the
# Newton loop and the Method-1 driver around assemble, cgls and scatter
GLUE_SPANS = frozenset({"control.solve_riccati", "lyap_lsq.solve"})
# The traced solve_s may lie outside the layer spans by this share, plus
# the fixed allowance: the CLI stages' own reading of the config and
# writing of reports, about 0.05 s a stage on a 2-core VM, which is most of
# solve_s on tiny grids.
UNCOVERED_SHARE = 0.05
UNCOVERED_FIXED_S = 0.3
# files whose bytes may differ between runs with the same config
VOLATILE = frozenset({"timings.json"})

# metric name -> unit, in the order BENCHMARK.json lists them
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from bandlq.cli import main; "
    "sys.exit(main(['genmodel', '--config', sys.argv[2], "
    "'--out', sys.argv[3], '--oracle', 'off']))")


def environment():
    """What results from different machines or builds need to be compared."""
    def blas_of(module):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            return "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(np),
        "scipy_blas": blas_of(scipy),
        "machine": platform.machine(),
    }


def measure_setup(cfg_path, work):
    """Seconds from a fresh process to a model bundle on disk, per repeat."""
    times = []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(cfg_path),
             str(out)])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not (out / "model.json").is_file():
            raise RuntimeError(f"genmodel exited {proc.returncode} in setup")
        shutil.rmtree(out)
    return times


def run_pipeline(wl, cfg_path, out, probes):
    """One pass of the user: genmodel, then the workload's solve stages.

    Returns the exit code of each stage and the wall time of the solve
    stages.
    """
    common = ["--config", str(cfg_path), "--out", str(out), "--oracle", "off"]
    rcs = {}
    with probes.span("cli.genmodel"):
        rcs["genmodel"] = cli.main(["genmodel", *common])
    t0 = time.perf_counter()
    for stage in wl.stages:
        with probes.span("cli." + stage):
            rcs[stage] = cli.main(["solve", "--stage", stage, *common])
    return rcs, time.perf_counter() - t0


def exit_code_problems(rcs):
    """Stages that failed. Exit 2 from lyap/riccati means the tolerance was
    not met, which is a status, not a failure."""
    return [f"{stage} exited {rc}" for stage, rc in rcs.items()
            if rc not in ((0, 2) if stage in ("lyap", "riccati") else (0,))]


def differing_files(a, b):
    names_a = {p.name for p in a.iterdir()} - VOLATILE
    names_b = {p.name for p in b.iterdir()} - VOLATILE
    diff = sorted(names_a ^ names_b)
    diff += sorted(n for n in names_a & names_b
                   if (a / n).read_bytes() != (b / n).read_bytes())
    return diff


def _load_problem(out):
    E, A, B, C = (read_matrix(out / f"{name}.mtx") for name in "EABC")
    model = DescriptorModel(E=E, A=A, B=B, C=C,
                            permutation=Permutation.identity(A.shape[0]))
    return LqProblem(model, Q=np.ones(model.r), R=np.ones(model.m))


def inspect_outputs(wl, cfg, out):
    """End-to-end figures of one run's artifacts and what is wrong with them.

    Returns (figures, problems, oracle seconds). For the Lyapunov workloads
    the feedback and closed-loop cost are those of F = R^-1 B^T Zhat E,
    computed here with the library's own functions.
    """
    needed = ["E.mtx", "A.mtx", "B.mtx", "C.mtx"] + (
        ["newton_report.csv", "Zricc.mtx", "F.mtx", "cost.json"]
        if wl.riccati else ["Zhat.mtx"])
    missing = [name for name in needed if not (out / name).is_file()]
    if missing:
        return {}, [f"missing outputs {missing}"], 0.0
    prob = _load_problem(out)
    model, n = prob.model, prob.model.n
    problems = []
    oracle_s = 0.0
    if wl.riccati:
        with open(out / "newton_report.csv") as f:
            v = [float(row["v_k"]) for row in csv.DictReader(f)]
        Z = read_matrix(out / "Zricc.mtx")
        F = read_matrix(out / "F.mtx")
        with open(out / "cost.json") as f:
            cost = json.load(f)["cost"]
        residual_rel = v[-1] / v[0]
        finite = np.all(np.isfinite(v))
        t0 = time.perf_counter()
        Zref = dense_riccati(prob, z0_scale=cfg["riccati"]["Z0_scale"],
                             max_n=ORACLE_MAX_N)
        oracle_s += time.perf_counter() - t0
    else:
        Z = read_matrix(out / "Zhat.mtx")
        Z0 = canonicalize(cfg["riccati"]["Z0_scale"] * identity(n))
        _F, Abar, P = newton_step_matrices(Z0, prob)
        R = P - model.E.T @ Z @ Abar - Abar.T @ Z @ model.E
        residual_rel = frobenius(R) / frobenius(P)
        F = feedback(Z, prob)
        cost = simulate_closed_loop(
            prob, F, np.ones(n), dt=cfg["sim"]["dt"],
            steps=cfg["sim"]["steps"]).cost
        finite = True
        t0 = time.perf_counter()
        Zref = dense_lyap(Abar, model.E, P, max_n=ORACLE_MAX_N)
        oracle_s += time.perf_counter() - t0
    error_rel = metric_e(Z, sp.csr_matrix(Zref))
    figures = {"residual_rel": residual_rel, "error_rel": error_rel,
               "solution_nnz": Z.nnz, "feedback_nnz": F.nnz,
               "closed_loop_cost": cost}
    finite = finite and np.all(np.isfinite(Z.data)) \
        and np.all(np.isfinite(F.data)) \
        and all(math.isfinite(x) for x in figures.values())
    if not finite:
        problems.append("non-finite output")
    if not error_rel <= wl.error_ceiling:
        problems.append(f"error_rel {error_rel:.3g} above the ceiling "
                        f"{wl.error_ceiling}")
    if n <= ORACLE_MAX_N and finite:
        t0 = time.perf_counter()
        lam = pencil_eigs(model.A - model.B @ F, model.E, max_n=ORACLE_MAX_N)
        oracle_s += time.perf_counter() - t0
        figures["closed_loop_max_real"] = float(lam.real.max())
        if not lam.real.max() < 0:
            problems.append("closed loop A - B F is not stable")
    return figures, problems, oracle_s


def layer_metrics(probes, run_id, oracle_s, overhead_s):
    incl, own, calls = probes.layer_times(run_id)
    c = probes.counts
    gp_trials = (probes.project_calls_in_gp(run_id) - c["lyap_gp.solves"]
                 - c["lyap_gp.iterations"] - c["lyap_gp.stalled"])
    steps = c["control.newton_steps"]
    return {
        "modelgen.build_s": incl["modelgen.build"],
        "sparsecore.rcm_s": incl["sparsecore.rcm"],
        "pattern.apriori_s": incl["pattern.apriori"],
        "pattern.nnz": c["pattern.nnz"],
        "pattern.density": c["pattern.density"],
        "lyap_lsq.solve_s": incl["lyap_lsq.solve"],
        "lyap_lsq.assemble_s": incl["lyap_lsq.assemble"],
        "lyap_lsq.scatter_s": incl["lyap_lsq.scatter"],
        "lyap_lsq.m1_nnz_max": c["lyap_lsq.m1_nnz_max"],
        "lyap_lsq.calls": calls["lyap_lsq.solve"],
        "cgls.solve_s": incl["cgls.solve"],
        "cgls.iterations": c["cgls.iterations"],
        "cgls.matvecs": c["cgls.matvecs"],
        "cgls.matvec_us": 1e6 * incl["cgls.solve"] / c["cgls.matvecs"]
        if c["cgls.matvecs"] else 0.0,
        "cgls.unconverged": c["cgls.unconverged"],
        "control.newton_steps": steps,
        "control.useful_step_ratio":
            c["control.useful_steps"] / steps if steps else 0.0,
        "control.step_matrices_s": incl["control.step_matrices"],
        "control.residual_s": incl["control.residual"],
        "control.feedback_s": incl["control.feedback"],
        "control.abar_nnz_max": c["control.abar_nnz_max"],
        "control.simulate_s": incl["control.simulate"],
        "lyap_gp.initial_guess_s": incl["lyap_gp.initial_guess"],
        "lyap_gp.spai_s": incl["lyap_gp.spai"],
        "lyap_gp.spectrum_s": incl["lyap_gp.spectrum"],
        "lyap_gp.faber_s": incl["lyap_gp.faber"],
        "lyap_gp.faber_calls": calls["lyap_gp.faber"],
        "lyap_gp.quadrature_s": own["lyap_gp.initial_guess"],
        "lyap_gp.x3_fill": c["lyap_gp.x3_fill"],
        "lyap_gp.solve_s": incl["lyap_gp.solve"],
        "lyap_gp.iterations": c["lyap_gp.iterations"],
        "lyap_gp.accepted_per_trial":
            c["lyap_gp.iterations"] / gp_trials if gp_trials > 0 else 0.0,
        "mmio.write_s": incl["mmio.write"],
        "mmio.read_s": incl["mmio.read"],
        "mmio.bytes_written": c["mmio.bytes_written"],
        "mmio.bytes_read": c["mmio.bytes_read"],
        "cli.self_s": sum(t for name, t in own.items()
                          if name.startswith("cli.")),
        "oracle.s": oracle_s,
        "trace.overhead_s": overhead_s,
    }


def uncovered_time(wl, probes, run_id, solve_s):
    """Traced solve time that no layer covers: the time outside every span
    plus the self time of the solve stages' CLI spans and of GLUE_SPANS."""
    _incl, own, _calls = probes.layer_times(
        run_id, roots={"cli." + s for s in wl.stages})
    outside = solve_s - sum(own.values())
    return outside + sum(t for name, t in own.items()
                         if name.startswith("cli.") or name in GLUE_SPANS)


def run_workload(wl, seed, seconds, trace, work):
    """Set up, run the closed loop, check everything; returns the result."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = wl.config(seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    setup_samples = measure_setup(cfg_path, work)

    runs = []

    def one_pass(probes):
        run_id = len(runs)
        out = work / f"run{run_id}"
        probes.start_run(run_id)
        rcs, solve_s = run_pipeline(wl, cfg_path, out, probes)
        rec = {"solve_s": solve_s, "exit_codes": rcs,
               "counts": {k: probes.counts[k] for k in EXACT_COUNTS},
               "traced": probes.timed, "problems": exit_code_problems(rcs)}
        if run_id > 0:
            first = runs[0]
            diff = differing_files(work / "run0", out)
            if diff:
                rec["problems"].append(f"artifacts differ from run 0: {diff}")
            if rec["counts"] != first["counts"]:
                rec["problems"].append(
                    f"non-deterministic counts {rec['counts']} vs run 0 "
                    f"{first['counts']}")
            shutil.rmtree(out)
        runs.append(rec)

    t_start = time.perf_counter()
    with Probes(timed=False) as counter:
        while (len(runs) < MIN_RUNS
               or time.perf_counter() - t_start < seconds):
            one_pass(counter)
    if trace:
        with Probes(timed=True) as tracer:
            one_pass(tracer)

    figures, quality, oracle_s = inspect_outputs(wl, cfg, work / "run0")
    for rec in runs:
        rec["problems"] += quality
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(), "config": cfg,
        "setup_samples_s": setup_samples, "runs": runs, "figures": figures,
    }
    if trace:
        untraced = statistics.median(r["solve_s"] for r in runs[:-1])
        traced = runs[-1]["solve_s"]
        metrics = layer_metrics(tracer, len(runs) - 1, oracle_s,
                                traced - untraced)
        uncovered = uncovered_time(wl, tracer, len(runs) - 1, traced)
        if uncovered > UNCOVERED_SHARE * traced + UNCOVERED_FIXED_S:
            runs[-1]["problems"].append(
                f"layer spans leave {uncovered:.4f} s of the traced solve_s "
                f"{traced:.4f} s uncovered")
        result["uncovered_s"] = uncovered
        result["spans"] = tracer.spans
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(r["solve_s"] for r in runs),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **figures,
        }
        if figures:
            # accuracy as digits, -log10 of the relative figure: across
            # placements the relative figures spread by 40% on the Riccati
            # workload, their logarithms by 6%
            metrics["residual_digits"] = -math.log10(figures["residual_rel"])
            metrics["error_digits"] = -math.log10(figures["error_rel"])
        units = END_TO_END
    result["attempted"] = len(runs)
    result["failed"] = sum(1 for rec in runs if rec["problems"])
    result["correct"] = result["failed"] == 0
    result["metrics"] = {k: {"value": float(metrics[k]), "unit": units[k]}
                         for k in units if k in metrics}
    return result


def write_result(result, out_dir):
    """Result file (and the spans, one JSON object a line) under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as f:
            for name, t0, t1, parent, run_id in spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "run": run_id}) + "\n")
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
