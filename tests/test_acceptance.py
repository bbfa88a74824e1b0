"""Acceptance criteria: one test per criterion, each printing a pass/fail
line with the measured quantity."""

import time

import numpy as np
import scipy.sparse as sp

from bandlq.cli import main
from bandlq.control import (NewtonConfig, metric_e, newton_step_matrices,
                            simulate_closed_loop, solve_riccati)
from bandlq.lyap_gp import (FaberConfig, GpConfig, faber_expm, initial_guess,
                            solve_lyap_gp, spai, spectrum_bounds,
                            transformed_problem)
from bandlq.lyap_lsq import CglsConfig, assemble_reduced, solve_lyap_lsq
from bandlq.oracle import (dense_expm, dense_lyap, dense_riccati, kron_matrix,
                           pencil_eigs)
from bandlq.pattern import apriori_pattern, inverse_pattern
from bandlq.sparsecore import binarize, canonicalize, identity
from conftest import (full_pattern, heat_problem, random_stable_instance,
                      scalar_problem)

SQRT2M1 = np.sqrt(2.0) - 1.0


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _first_step(prob):
    return newton_step_matrices(10.0 * identity(prob.model.n), prob)


def test_criterion_01_scalar_ground_truth():
    t0 = time.perf_counter()
    _model, prob = scalar_problem()
    Z, _reports, F = solve_riccati(
        prob, cfg=NewtonConfig(N_max=20, residual_tol=1e-12),
        cgls_cfg=CglsConfig(tol=1e-12))
    elapsed = time.perf_counter() - t0
    z_err = abs(Z.toarray()[0, 0] - SQRT2M1)
    f_err = abs(F.toarray()[0, 0] - SQRT2M1)
    _report(1, z_err <= 1e-6 and f_err <= 1e-6 and elapsed < 1.0,
            f"|Z - (sqrt(2)-1)| = {z_err:.2e}, |F - (sqrt(2)-1)| = "
            f"{f_err:.2e}, runtime {elapsed:.3f} s")


def test_criterion_02_lyapunov_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(5, 51))
        Abar, E, P = random_stable_instance(n, rng)
        Z, _rep = solve_lyap_lsq(Abar, E, P, full_pattern(n),
                                 cfg=CglsConfig(tol=1e-10))
        e = metric_e(Z, sp.csr_matrix(dense_lyap(Abar, E, P)))
        worst = max(worst, e)
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-6 and elapsed < 30.0,
            f"worst relative error over 20 instances = {worst:.2e}, "
            f"total runtime {elapsed:.1f} s")


def test_criterion_03_kronecker_assembly_exactness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 9))
        Abar, E, P = random_stable_instance(n, rng, band=1)
        if rng.random() < 0.5:
            pat = full_pattern(n)
        else:
            pat = binarize(identity(n)
                           + sp.csr_matrix(rng.random((n, n)) < 0.4))
        rs = assemble_reduced(Abar, E, P, pat)
        M = kron_matrix(Abar, E)
        cols = rs.column_map[:, 1] * n + rs.column_map[:, 0]
        diff = np.abs(rs.M1.toarray() - M[np.ix_(rs.row_map, cols)]).max()
        worst = max(worst, diff)
    _report(3, worst <= 1e-15,
            f"max entrywise deviation from explicit M over 50 instances "
            f"= {worst:.2e}")


def test_criterion_04_pattern_fidelity():
    model, prob = heat_problem((13, 13), discretization="fd-5point")
    _F, Abar, P = _first_step(prob)
    Zex = dense_lyap(Abar, model.E, P, max_n=2000)
    pat = apriori_pattern(Abar, model.E, P, w=2)
    total = np.linalg.norm(Zex) ** 2
    captured = np.linalg.norm(Zex * pat.toarray()) ** 2
    mass = captured / total
    _report(4, mass >= 0.80,
            f"w=2 pattern captures {100.0 * mass:.2f}% of the Frobenius "
            f"mass at n = {model.n} (threshold 80%)")


def test_criterion_05_accuracy_vs_w_monotonicity():
    summary = []
    ok = True
    for nodes in ((13, 13), (29, 29)):
        model, prob = heat_problem(nodes, discretization="fd-5point")
        _F, Abar, P = _first_step(prob)
        Zex = sp.csr_matrix(dense_lyap(Abar, model.E, P, max_n=2000))
        errs = []
        for w in (0, 1, 2, 3):
            pat = apriori_pattern(Abar, model.E, P, w=w)
            Z, _rep = solve_lyap_lsq(Abar, model.E, P, pat,
                                     cfg=CglsConfig(tol=1e-7))
            errs.append(metric_e(Z, Zex))
        for lo, hi in zip(errs[1:], errs[:-1]):
            ok = ok and lo <= 1.05 * hi
        summary.append(f"n={model.n}: " +
                       " -> ".join(f"{e:.3f}" for e in errs))
    _report(5, ok, "e over w=0..3 " + "; ".join(summary))


def test_criterion_06_newton_residual_trend():
    model, prob = heat_problem((13, 13))
    finals = []
    for w in (0, 1, 2):
        cfg = NewtonConfig(N_max=12, residual_tol=1e-9, w=w)
        _Z, reports, _F = solve_riccati(prob, cfg=cfg,
                                        cgls_cfg=CglsConfig(tol=1e-7))
        finals.append(reports[-1].v_k)
    trend_ok = all(b <= a * (1.0 + 1e-9)
                   for a, b in zip(finals, finals[1:]))

    small_model, small_prob = heat_problem((5, 5))
    _Z, reports, _F = solve_riccati(
        small_prob, cfg=NewtonConfig(N_max=25, residual_tol=1e-10),
        cgls_cfg=CglsConfig(tol=1e-10),
        pattern=full_pattern(small_model.n))
    drop = reports[0].v_k / reports[-1].v_k
    _report(6, trend_ok and drop >= 1e3,
            f"final v_k over w=0,1,2: "
            + ", ".join(f"{v:.3e}" for v in finals)
            + f"; full-pattern drop v_1/v_last = {drop:.1e} at n = 25")


def test_criterion_07_gradient_correctness():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 10
        from conftest import random_banded
        A = canonicalize(sp.csr_matrix(
            random_banded(n, 2, rng) - 5.0 * np.eye(n)))
        E = canonicalize(sp.csr_matrix(
            random_banded(n, 1, rng) + 4.0 * np.eye(n)))
        P0 = random_banded(n, 2, rng)
        P = canonicalize(sp.csr_matrix(P0 + P0.T))
        Zt = canonicalize(sp.csr_matrix(random_banded(n, 2, rng)))
        R = canonicalize(P - E.T @ Zt @ A - A.T @ Zt @ E)
        N = (-2.0 * (E @ R @ A.T) - 2.0 * (A @ R @ E.T)).toarray()

        def J_of(Zm):
            Rm = P.toarray() - E.toarray().T @ Zm @ A.toarray() \
                - A.toarray().T @ Zm @ E.toarray()
            return np.linalg.norm(Rm) ** 2

        h = 1e-6
        Z0 = Zt.toarray()
        scale = np.abs(N).max()
        for i in range(n):
            for j in range(n):
                Zp, Zm_ = Z0.copy(), Z0.copy()
                Zp[i, j] += h
                Zm_[i, j] -= h
                fd = (J_of(Zp) - J_of(Zm_)) / (2.0 * h)
                worst = max(worst, abs(fd - N[i, j]) / scale)
    _report(7, worst <= 1e-5,
            f"max relative gradient deviation from central differences "
            f"over 5 seeds = {worst:.2e}")


def test_criterion_08_faber_and_quadrature_convergence():
    t0 = time.perf_counter()
    model, prob = heat_problem((8, 8))
    _F, Abar, P = _first_step(prob)
    A1, _P1, _res = transformed_problem(Abar, model.E, P, k1=3)
    b = spectrum_bounds(A1)
    t = 0.1
    ref = dense_expm(t * A1.toarray())
    rn = np.linalg.norm(ref)
    p_errs = []
    for p in (5, 10, 20, 30):
        K = faber_expm(A1, t, b, FaberConfig(p=p, k2=4))
        p_errs.append(np.linalg.norm(K.toarray() - ref) / rn)
    faber_ok = all(lo <= hi * (1.0 + 1e-8)
                   for hi, lo in zip(p_errs, p_errs[1:]))
    faber_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    model, prob = heat_problem((10, 10))
    _F, Abar, P = _first_step(prob)
    Zex = sp.csr_matrix(dense_lyap(Abar, model.E, P, max_n=2000))
    q_errs = []
    for q in (5, 10, 20, 40):
        X3, _info = initial_guess(Abar, model.E, P, cfg=GpConfig(q=q))
        q_errs.append(metric_e(X3, Zex))
    x3_ok = all(lo < hi for hi, lo in zip(q_errs, q_errs[1:]))
    x3_s = time.perf_counter() - t0
    _report(8, faber_ok and x3_ok and faber_s < 60.0 and x3_s < 60.0,
            "faber errors over p=5,10,20,30: "
            + ", ".join(f"{e:.2e}" for e in p_errs)
            + f" ({faber_s:.1f} s); X3 errors over q=5,10,20,40: "
            + ", ".join(f"{e:.3f}" for e in q_errs)
            + f" ({x3_s:.1f} s)")


def test_criterion_09_spai_quality():
    ok = True
    details = []
    for nodes, dim, disc in (((30,), 1, "fe-linear-1d"),
                             ((7, 7), 2, "fe-bilinear-2d")):
        model, _prob = heat_problem(nodes, discretization=disc,
                                    dimension=dim)
        E = model.E
        n = E.shape[0]
        residuals = []
        for k1 in (1, 2, 3):
            X, res = spai(E, inverse_pattern(E, k1))
            residuals.append(res)
        ok = ok and all(b <= a + 1e-12
                        for a, b in zip(residuals, residuals[1:]))
        # per-column optimality of the winning one-sided form at k1 = 2
        pat = inverse_pattern(E, 2)
        X, _res = spai(E, pat)
        Ed = E.toarray()
        r_right = np.linalg.norm(np.eye(n) - Ed @ X.toarray())
        r_left = np.linalg.norm(np.eye(n) - X.toarray() @ Ed)
        target = Ed if r_right <= r_left else Ed.T
        Xd = X.toarray() if r_right <= r_left else X.toarray().T
        patc = (pat if r_right <= r_left else binarize(pat.T)).tocsc()
        worst = 0.0
        for j in range(n):
            supp = patc.indices[patc.indptr[j]:patc.indptr[j + 1]]
            bvec = np.zeros(n)
            bvec[j] = 1.0
            x, *_ = np.linalg.lstsq(target[:, supp], bvec, rcond=None)
            worst = max(worst, np.abs(Xd[supp, j] - x).max())
        ok = ok and worst <= 1e-10
        details.append(f"n={n}: residuals "
                       + " -> ".join(f"{r:.4f}" for r in residuals)
                       + f", column deviation {worst:.1e}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_closed_loop_performance():
    model, prob = heat_problem((13, 13))
    cfg = NewtonConfig(N_max=12, residual_tol=1e-9, w=0)
    Zw0, _reports, Fw0 = solve_riccati(prob, cfg=cfg,
                                       cgls_cfg=CglsConfig(tol=1e-7))
    Zex = dense_riccati(prob, max_n=500)
    Fex = canonicalize(sp.csr_matrix(
        np.diag(1.0 / prob.R) @ model.B.toarray().T @ Zex
        @ model.E.toarray()))
    lam = pencil_eigs(canonicalize(model.A - model.B @ Fw0), model.E,
                      max_n=500)
    stable = lam.real.max() < 0
    rng = np.random.default_rng(10)
    worst_excess = 0.0
    for _ in range(5):
        x0 = rng.standard_normal(model.n)
        c_hat = simulate_closed_loop(prob, Fw0, x0, dt=1e-3, steps=6000).cost
        c_ex = simulate_closed_loop(prob, Fex, x0, dt=1e-3, steps=6000).cost
        worst_excess = max(worst_excess, c_hat / c_ex - 1.0)
    _report(10, stable and worst_excess <= 0.10,
            f"closed loop stable (max Re = {lam.real.max():.2f}); worst "
            f"LQ cost excess over 5 initial states = "
            f"{100.0 * worst_excess:.3f}% (threshold 10%)")


def test_criterion_11_scaling_property():
    ratios = []
    peaks_ok = True
    details = []
    for nodes in ((13, 13), (29, 29), (61, 61)):
        model, prob = heat_problem(nodes, discretization="fd-5point")
        _F, Abar, P = _first_step(prob)
        pat = apriori_pattern(Abar, model.E, P, w=1)
        rs = assemble_reduced(Abar, model.E, P, pat)
        ratios.append(rs.M1.nnz / model.n)
        X0 = canonicalize(sp.csr_matrix((model.n, model.n)))
        _Z, rep = solve_lyap_gp(Abar, model.E, P, pat, X0,
                                cfg=GpConfig(max_iter=60))
        peak = rep.extra["peak_nnz"]
        peaks_ok = peaks_ok and peak < rs.M1.nnz
        details.append(f"n={model.n}: nnz(M1)/n = {rs.M1.nnz / model.n:.1f},"
                       f" gp peak {peak} < nnz(M1) {rs.M1.nnz}")
    spread = max(ratios) / min(ratios)
    _report(11, spread < 3.0 and peaks_ok,
            f"nnz(M1)/n spread = {spread:.2f}x across n = 169, 841, 3721; "
            + "; ".join(details))


def test_criterion_12_determinism(tmp_path):
    import json
    files = ("E.mtx", "A.mtx", "B.mtx", "C.mtx", "pattern.mtx", "Zhat.mtx",
             "lyap_report.csv", "Zricc.mtx", "F.mtx", "newton_report.csv")
    blobs = {}
    for run in ("r1", "r2"):
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(tmp_path / run),
            "model": {"kind": "heat", "dimension": 2, "nodes": [5, 5],
                      "lengths": [1.0, 1.0], "diffusivity": 1.0,
                      "discretization": "fe-bilinear-2d",
                      "io_fraction": 0.5, "seed": 7},
            "pattern": {"w": 1},
            "lyap": {"method": "lsq", "cgls_tol": 1e-9},
            "riccati": {"N_max": 6, "residual_tol": 1e-6},
        }))
        assert main(["genmodel", "--config", str(cfg_path)]) == 0
        assert main(["solve", "--config", str(cfg_path),
                     "--stage", "pattern"]) == 0
        assert main(["solve", "--config", str(cfg_path),
                     "--stage", "lyap"]) == 0
        main(["solve", "--config", str(cfg_path), "--stage", "riccati"])
        blobs[run] = {f: (tmp_path / run / f).read_bytes() for f in files}
    identical = all(blobs["r1"][f] == blobs["r2"][f] for f in files)
    _report(12, identical,
            f"all {len(files)} Matrix Market and CSV artifacts "
            f"byte-identical across two runs")
