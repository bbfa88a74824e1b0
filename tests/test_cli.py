"""CLI: config validation, stages, artifacts, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.cli import ConfigError, main, parse_config
from bandlq.control import NewtonConfig
from bandlq.lyap_gp import FaberConfig, GpConfig
from bandlq.lyap_lsq import CglsConfig
from bandlq.mmio import read_matrix, write_pattern
from conftest import nan_lyap_solve_at


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _scalar_config(tmp_path, out="run_scalar"):
    return _write_config(tmp_path, "scalar.json", {
        "output_dir": str(tmp_path / out),
        "model": {"kind": "scalar"},
        "lyap": {"method": "lsq", "cgls_tol": 1e-12},
        "riccati": {"Z0_scale": 10.0, "N_max": 30, "residual_tol": 1e-10},
        "sim": {"dt": 0.01, "steps": 100, "x0": "ones"},
    })


def _heat_config(tmp_path, out="run_heat", nodes=(5, 5), **overrides):
    cfg = {
        "output_dir": str(tmp_path / out),
        "model": {"kind": "heat", "dimension": 2, "nodes": list(nodes),
                  "lengths": [1.0, 1.0], "diffusivity": 1.0,
                  "discretization": "fe-bilinear-2d",
                  "io_fraction": 0.5, "seed": 7},
        "pattern": {"w": 1},
        "lyap": {"method": "lsq", "cgls_tol": 1e-9},
        "riccati": {"N_max": 8, "residual_tol": 1e-6},
        "sim": {"dt": 0.001, "steps": 300, "x0": "random", "x0_seed": 3},
    }
    cfg.update(overrides)
    return _write_config(tmp_path, f"heat_{out}.json", cfg)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                          "typo_section": {}})

    def test_unknown_nested_key(self):
        # the pattern is decided once, so there is no freeze option
        for pattern in ({"width": 2}, {"freeze_after_newton_iter": 1}):
            with pytest.raises(ConfigError, match="unknown keys"):
                parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                              "pattern": pattern})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config({"model": {"kind": "scalar"}})

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="lyap.method"):
            parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                          "lyap": {"method": "direct"}})

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = parse_config({"output_dir": "x", "model": {"kind": "scalar"}})
        assert cfg.cgls == CglsConfig()
        assert cfg.gp == GpConfig()
        assert cfg.faber == FaberConfig()
        assert cfg.newton == NewtonConfig()

    def test_given_keys_override_the_defaults(self):
        cfg = parse_config({
            "output_dir": "x", "model": {"kind": "scalar"},
            "pattern": {"w": 3},
            "lyap": {"method": "gp", "cgls_tol": 1e-5, "cgls_max_iter": 9,
                     "gp": {"max_iter": 7, "p": 10, "W": 64, "k2": 2}},
            "riccati": {"Z0_scale": 2, "N_max": 4.0, "residual_tol": 1}})
        assert cfg.cgls == CglsConfig(tol=1e-5, max_iter=9)
        assert cfg.gp == GpConfig(max_iter=7)
        assert cfg.faber == FaberConfig(p=10, W=64, k2=2)
        assert cfg.newton == NewtonConfig(Z0_scale=2.0, N_max=4, w=3,
                                          residual_tol=1.0, lyap_method="gp")
        assert type(cfg.newton.N_max) is int
        assert type(cfg.newton.Z0_scale) is float

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        rc = main(["genmodel", "--config", str(path)])
        assert rc == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestGenmodel:
    def test_fd_1d_tridiagonal_nnz(self, tmp_path):
        cfg = _write_config(tmp_path, "fd1d.json", {
            "output_dir": str(tmp_path / "out"),
            "model": {"kind": "heat", "dimension": 1, "nodes": [3],
                      "lengths": [1.0], "discretization": "fd-5point",
                      "io_fraction": 0.5, "seed": 0},
        })
        assert main(["genmodel", "--config", cfg]) == 0
        A = read_matrix(tmp_path / "out" / "A.mtx")
        assert A.nnz == 7

    def test_bundle_files_written(self, tmp_path):
        cfg = _heat_config(tmp_path)
        assert main(["genmodel", "--config", cfg]) == 0
        out = tmp_path / "run_heat"
        for name in ("E.mtx", "A.mtx", "B.mtx", "C.mtx", "perm.txt",
                     "model.json", "manifest.json"):
            assert (out / name).exists()
        meta = json.loads((out / "model.json").read_text())
        assert meta["n"] == 25 and meta["m"] == 12

    def test_13x13_scale(self, tmp_path):
        cfg = _heat_config(tmp_path, out="run13", nodes=(13, 13))
        assert main(["genmodel", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "run13" / "model.json").read_text())
        assert meta["n"] == 169

    def test_seed_override_flag(self, tmp_path):
        cfg = _heat_config(tmp_path, out="runseed")
        assert main(["genmodel", "--config", cfg, "--seed", "99"]) == 0
        B1 = read_matrix(tmp_path / "runseed" / "B.mtx")
        assert main(["genmodel", "--config", cfg]) == 0
        B2 = read_matrix(tmp_path / "runseed" / "B.mtx")
        assert (B1 != B2).nnz > 0


class TestSolveStages:
    def test_scalar_end_to_end(self, tmp_path):
        cfg = _scalar_config(tmp_path)
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        assert main(["solve", "--config", cfg, "--stage", "riccati"]) == 0
        F = read_matrix(tmp_path / "run_scalar" / "F.mtx")
        assert abs(F.toarray()[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-6

    def test_lyap_stage_oracle_column(self, tmp_path):
        cfg = _heat_config(tmp_path, out="run_oracle")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        assert main(["solve", "--config", cfg, "--stage", "lyap"]) == 0
        out = tmp_path / "run_oracle"
        lines = (out / "lyap_report.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        e_k = float(row[header.index("e_k")])
        assert np.isfinite(e_k)

    def test_full_pattern_small_model_high_accuracy(self, tmp_path):
        cfg = _heat_config(tmp_path, out="run_full", nodes=(4, 4),
                          pattern={"w": 6})
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        assert main(["solve", "--config", cfg, "--stage", "lyap"]) == 0
        lines = (tmp_path / "run_full" / "lyap_report.csv") \
            .read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert float(row[header.index("e_k")]) <= 1e-6

    @pytest.mark.parametrize("method", ["lsq", "gp"])
    def test_report_counts_pattern_entries(self, tmp_path, method):
        # the operator has one unknown per entry on or above the diagonal,
        # but the report counts every entry of the pattern
        cfg = _heat_config(tmp_path, out=f"run_nnz_{method}",
                           lyap={"method": method, "cgls_tol": 1e-9,
                                 "gp": {"max_iter": 50}})
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        assert main(["solve", "--config", cfg, "--stage", "lyap"]) == 0
        out = tmp_path / f"run_nnz_{method}"
        nnz = json.loads((out / "density.json").read_text())["nnz"]
        header, row = [ln.split(",") for ln in
                       (out / "lyap_report.csv").read_text().splitlines()]
        assert row[header.index("method")] == method
        assert int(row[header.index("nnz_pattern")]) == nnz

    @pytest.mark.parametrize("stage", ["lyap", "riccati"])
    def test_missing_prerequisite_exit_code(self, tmp_path, capsys, stage):
        cfg = _heat_config(tmp_path, out=f"run_dep_{stage}")
        assert main(["genmodel", "--config", cfg]) == 0
        rc = main(["solve", "--config", cfg, "--stage", stage])
        assert rc == 1
        assert "run --stage pattern" in capsys.readouterr().err

    def test_riccati_solves_on_the_pattern_file(self, tmp_path):
        # a hand-written tridiagonal pattern, narrower than the w = 1 one,
        # bounds the support of the Riccati solution
        cfg = _heat_config(tmp_path, out="run_band")
        assert main(["genmodel", "--config", cfg]) == 0
        out = tmp_path / "run_band"
        band = sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(25, 25))
        write_pattern(out / "pattern.mtx", band)
        main(["solve", "--config", cfg, "--stage", "riccati"])
        rows, cols = read_matrix(out / "Zricc.mtx").nonzero()
        assert rows.size > 0 and np.all(np.abs(rows - cols) <= 1)

    def test_missing_model_exit_code(self, tmp_path, capsys):
        cfg = _heat_config(tmp_path, out="run_nomodel")
        rc = main(["solve", "--config", cfg, "--stage", "pattern"])
        assert rc == 1
        assert "genmodel" in capsys.readouterr().err

    def test_nonconverged_exit_code_two(self, tmp_path):
        # an unreachable Newton tolerance on a truncated pattern
        cfg = _heat_config(tmp_path, out="run_nc",
                           riccati={"N_max": 4, "residual_tol": 1e-14})
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        rc = main(["solve", "--config", cfg, "--stage", "riccati"])
        assert rc == 2
        assert (tmp_path / "run_nc" / "newton_report.csv").exists()

    def test_non_finite_residual_exit_code_two(self, tmp_path, monkeypatch):
        cfg = _heat_config(tmp_path, out="run_nan")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        calls = nan_lyap_solve_at(monkeypatch, step=2)
        rc = main(["solve", "--config", cfg, "--stage", "riccati"])
        assert rc == 2 and calls == [1, 2]
        out = tmp_path / "run_nan"
        rows = (out / "newton_report.csv").read_text().splitlines()
        assert rows[0].startswith("k,v_k,") and len(rows) == 3
        assert rows[2].split(",")[1] == "nan"
        assert not (out / "Zricc.mtx").exists()
        assert not (out / "F.mtx").exists()

    def test_zero_newton_steps_rejected(self, tmp_path, capsys):
        cfg = _heat_config(tmp_path, out="run_n0")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        cfg = _heat_config(tmp_path, out="run_n0", riccati={"N_max": 0})
        rc = main(["solve", "--config", cfg, "--stage", "riccati"])
        assert rc == 1
        assert "N_max" in capsys.readouterr().err
        out = tmp_path / "run_n0"
        for name in ("Zricc.mtx", "F.mtx", "newton_report.csv"):
            assert not (out / name).exists()

    def test_newton_report_records_inner_solves(self, tmp_path):
        cfg = _heat_config(tmp_path, out="run_nr")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        main(["solve", "--config", cfg, "--stage", "riccati"])
        with open(tmp_path / "run_nr" / "newton_report.csv") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["k", "v_k", "lyap_residual", "nnz_Z",
                                 "nnz_F", "lyap_iterations",
                                 "lyap_converged"]
        assert int(rows[0]["lyap_iterations"]) > 0
        assert all(r["lyap_converged"] == "True" for r in rows)

    def test_simulate_stage(self, tmp_path):
        cfg = _heat_config(tmp_path, out="run_sim")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        main(["solve", "--config", cfg, "--stage", "riccati"])
        assert main(["solve", "--config", cfg, "--stage", "simulate"]) == 0
        out = tmp_path / "run_sim"
        cost = json.loads((out / "cost.json").read_text())["cost"]
        assert cost > 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,time,state_norm,inst_cost"
        assert len(lines) > 10


class TestBench:
    def test_bench_rows_and_oracle_cap(self, tmp_path):
        cfg = _heat_config(
            tmp_path, out="run_bench",
            lyap={"method": "lsq", "cgls_tol": 1e-9, "gp": {"max_iter": 50}},
            bench={"sizes": [[4, 4], [6, 6]], "methods": ["lsq", "gp"]},
            oracle={"enabled": True, "max_n": 30})
        assert main(["bench", "--config", cfg]) == 0
        lines = (tmp_path / "run_bench" / "bench.csv") \
            .read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        by = {(r[0], r[1]): r for r in rows}
        # oracle row present only for n = 16 (cap 30 excludes n = 36)
        assert ("16", "oracle") in by
        assert ("36", "oracle") not in by
        assert by[("16", "lsq")][6] == "ok"
        # GP is capped by lyap.gp.max_iter, as in solve --stage lyap
        assert 0 < int(by[("16", "gp")][4]) <= 50
        # Method 2 peak storage below the reduced-system size at equal w
        assert int(by[("16", "gp")][3]) < int(by[("16", "lsq")][3])

    def test_bench_gp_cap_is_the_lyap_section(self):
        # bench runs what solve --stage lyap runs, with lyap.gp.max_iter
        with pytest.raises(ConfigError, match="gp_max_iter"):
            parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                          "bench": {"sizes": [[4, 4]], "gp_max_iter": 50}})

    def test_bench_requires_sizes(self, tmp_path, capsys):
        cfg = _heat_config(tmp_path, out="run_nobench")
        rc = main(["bench", "--config", cfg])
        assert rc == 1
        assert "bench.sizes" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        files = ("E.mtx", "A.mtx", "B.mtx", "C.mtx", "perm.txt",
                 "pattern.mtx", "Zhat.mtx", "lyap_report.csv",
                 "Zricc.mtx", "F.mtx", "newton_report.csv",
                 "trajectory.csv", "cost.json")
        blobs = {}
        for run in ("d1", "d2"):
            cfg = _heat_config(tmp_path, out=run)
            assert main(["genmodel", "--config", cfg]) == 0
            assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
            assert main(["solve", "--config", cfg, "--stage", "lyap"]) == 0
            main(["solve", "--config", cfg, "--stage", "riccati"])
            assert main(["solve", "--config", cfg,
                         "--stage", "simulate"]) == 0
            blobs[run] = {f: (tmp_path / run / f).read_bytes()
                          for f in files}
        for f in files:
            assert blobs["d1"][f] == blobs["d2"][f], f
