"""CLI: config validation, stages, artifacts, exit codes, determinism."""

import csv
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bandlq.cli import _STAGES, ConfigError, main, parse_config
from bandlq.control import NewtonConfig, newton_start
from bandlq.lyap_gp import GpConfig
from bandlq.lyap_lsq import CglsConfig, GlOperator
from bandlq.mmio import read_matrix, read_pattern, write_pattern
from bandlq.pattern import apriori_pattern
from conftest import heat_problem, nan_lyap_solve_at


ROOT = Path(__file__).parents[1]


def _readme_config():
    """The example config of the README, parsed from its JSON block."""
    readme = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


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


# a heat model section that loads, for cases that change one key of it
_HEAT_MODEL = {"kind": "heat", "dimension": 2, "nodes": [5, 5],
               "lengths": [1.0, 1.0], "discretization": "fe-bilinear-2d"}


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
        assert cfg.newton == NewtonConfig()
        assert cfg.newton.cgls == CglsConfig()
        assert cfg.newton.gp == GpConfig()
        # the plain sections take their literal defaults, and a scalar
        # model's absent keys stay absent
        assert cfg.sim == {"dt": 1e-3, "steps": 2000, "x0": "random",
                           "x0_seed": 0, "max_rows": 1000}
        assert cfg.oracle_enabled is True and cfg.oracle_max_n == 400
        assert cfg.bench["methods"] == ["lsq"]
        assert cfg.q_weight == cfg.r_weight == 1.0
        assert cfg.model == {"kind": "scalar"}

    def test_given_keys_override_the_defaults(self):
        cfg = parse_config({
            "output_dir": "x", "model": {"kind": "scalar"},
            "pattern": {"w": 3},
            "lyap": {"method": "gp", "cgls_tol": 1e-5, "cgls_max_iter": 9,
                     "gp": {"max_iter": 7, "p": 10, "k2": 2}},
            "riccati": {"Z0_scale": 2, "N_max": 4.0, "residual_tol": 1}})
        assert cfg.newton == NewtonConfig(
            Z0_scale=2.0, N_max=4, w=3, residual_tol=1.0, lyap_method="gp",
            cgls=CglsConfig(tol=1e-5, max_iter=9),
            gp=GpConfig(max_iter=7, p=10, k2=2))
        assert type(cfg.newton.N_max) is int
        assert type(cfg.newton.Z0_scale) is float

    def test_integral_numbers_load_as_int(self):
        cfg = parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                            "lyap": {"gp": {"max_iter": 4.0}},
                            "riccati": {"N_max": 4.0}})
        for value in (cfg.newton.N_max, cfg.newton.gp.max_iter):
            assert value == 4 and type(value) is int
        cfg = parse_config({"output_dir": "x",
                            "model": _HEAT_MODEL | {"nodes": [5.0, 5]},
                            "bench": {"sizes": [[4.0, 4], 6]}})
        assert cfg.grid.nodes == (5, 5)
        assert cfg.bench["sizes"] == [(4, 4), (6,)]
        for value in (*cfg.grid.nodes, *cfg.bench["sizes"][0]):
            assert type(value) is int

    @pytest.mark.parametrize("raw, names", [
        ({"sim": {"x0": "zeros"}}, ("sim.x0",)),
        ({"sim": {"dt": 0}}, ("sim.dt",)),
        ({"sim": {"dt": -1e-3}}, ("sim.dt",)),
        ({"lyap": {"gp": {"max_iter": 2.5}}}, ("lyap.gp", "max_iter")),
        ({"lyap": {"gp": {"max_iter": -1}}}, ("lyap.gp", "max_iter")),
        ({"lyap": {"gp": {"q": 0}}}, ("lyap.gp", "q must")),
        ({"lyap": {"gp": {"k1": 1.5}}}, ("lyap.gp", "k1")),
        ({"riccati": {"N_max": 2.5}}, ("riccati.N_max",)),
        ({"riccati": {"N_max": "12"}}, ("riccati.N_max",)),
        ({"riccati": {"N_max": True}}, ("riccati.N_max",)),
        ({"riccati": {"N_max": 0}}, ("riccati.N_max",)),
        ({"pattern": {"w": "1"}}, ("pattern.w",)),
        ({"pattern": {"w": 1.5}}, ("pattern.w",)),
        ({"pattern": {"w": -1}}, ("pattern.w",)),
        ({"lyap": {"cgls_max_iter": 2.5}}, ("lyap.cgls_max_iter",)),
        ({"lyap": {"cgls_max_iter": -1}}, ("lyap.cgls_max_iter",)),
        ({"lyap": {"cgls_tol": "1e-7"}}, ("lyap.cgls_tol",)),
        ({"lyap": {"cgls_tol": 0}}, ("lyap.cgls_tol",)),
        ({"riccati": {"residual_tol": "1e-9"}}, ("riccati.residual_tol",)),
        ({"riccati": {"q_weight": "2"}}, ("riccati.q_weight",)),
        ({"sim": {"steps": 2.5}}, ("sim.steps",)),
        ({"oracle": {"max_n": "400"}}, ("oracle.max_n",)),
        ({"oracle": {"enabled": "no"}}, ("oracle.enabled",)),
        ({"sim": {"steps": -5}}, ("sim.steps",)),
        ({"sim": {"steps": 0}}, ("sim.steps",)),
        ({"sim": {"max_rows": 0}}, ("sim.max_rows",)),
        ({"model": _HEAT_MODEL | {"nodes": [2.5, 3]}}, ("model.nodes[0]",)),
        ({"model": _HEAT_MODEL | {"nodes": ["a", 3]}}, ("model.nodes[0]",)),
        ({"model": _HEAT_MODEL | {"nodes": [3, True]}}, ("model.nodes[1]",)),
        ({"model": _HEAT_MODEL | {"lengths": [1.0, "1"]}},
         ("model.lengths[1]",)),
        ({"bench": {"sizes": [[4, 4.5]]}}, ("bench.sizes[0]",)),
        ({"bench": {"sizes": [4, 4.5]}}, ("bench.sizes[1]",)),
        ({"bench": {"sizes": [[["a"]]]}}, ("bench.sizes[0]",)),
        ({"riccati": {"r_weight": 0}}, ("riccati.r_weight",)),
        ({"riccati": {"r_weight": -1.0}}, ("riccati.r_weight",)),
        ({"riccati": {"q_weight": -0.5}}, ("riccati.q_weight",)),
        ({"model": _HEAT_MODEL | {"io_fraction": 1.5}},
         ("model.io_fraction",)),
        ({"model": _HEAT_MODEL | {"io_fraction": 0}}, ("model.io_fraction",)),
        ({"model": _HEAT_MODEL | {"io_fraction": 0.02}},
         ("model.io_fraction", "n = 25")),
        ({"sim": {"x0": [1, 2, 3]}}, ("sim.x0", "n = 1 numbers")),
        ({"sim": {"x0": ["a"]}}, ("sim.x0[0]",)),
        ({"sim": {"x0": [True]}}, ("sim.x0[0]",)),
        ({"model": _HEAT_MODEL, "sim": {"x0": [1.0] * 24}},
         ("sim.x0", "n = 25 numbers")),
        ({"bench": {"methods": ["lsq", "foo", "oracle"]}},
         ("bench.methods[1]", "lyap_method")),
        ({"bench": {"methods": ["oracle"]}}, ("bench.methods[0]",)),
        ({"bench": {"methods": [1]}}, ("bench.methods[0]",)),
        # Method 2 takes its step without a line search, whose settings
        # are unknown keys now
        ({"lyap": {"gp": {"delta_bar": 1e-3}}},
         ("lyap.gp", "unknown", "delta_bar")),
        ({"lyap": {"gp": {"zeta": 0.5}}}, ("lyap.gp", "unknown", "zeta")),
        ({"lyap": {"gp": {"sigma": 1e-4}}}, ("lyap.gp", "unknown", "sigma")),
        ({"riccati": {"residual_tol": -1.0}}, ("riccati.residual_tol",)),
        # the Faber DFT length is a constant, not a setting
        ({"lyap": {"gp": {"W": 2048}}}, ("lyap.gp", "unknown", "W")),
        ({"lyap": {"gp": {"p": 512}}}, ("lyap.gp", "p must be <= 511")),
        ({"oracle": {"max_n": 0}}, ("oracle.max_n",)),
        ({"oracle": {"max_n": -5}}, ("oracle.max_n",)),
        ({"model": {"kind": "wave"}}, ("model.kind", "'heat' or 'scalar'")),
        ({"model": _HEAT_MODEL | {"discretization": "fe-linear-1d"}},
         ("model", "fe-linear-1d requires dimension 1"))])
    def test_bad_values_fail_at_load(self, raw, names):
        with pytest.raises(ConfigError) as exc:
            parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                          **raw})
        assert all(name in str(exc.value) for name in names)

    @pytest.mark.parametrize("key, value", [
        ("sim.x0", "zeros"), ("pattern.w", -1), ("oracle.enabled", "no"),
        ("sim.steps", 2.5), ("sim.steps", -5), ("sim.max_rows", 0),
        ("model", {"nodes": (1, 1)}), ("model", {"nodes": (2.5, 3)}),
        ("model", {"nodes": ("a", 3)}), ("bench.sizes", [[4, 4.5]]),
        ("riccati.r_weight", 0), ("riccati.q_weight", -1),
        ("model.io_fraction", 1.5), ("model.io_fraction", 0.01),
        ("sim.x0", [1, 2, 3]), ("sim.x0[0]", ["a"]),
        ("bench.methods[1]", ["lsq", "foo"]),
        # json.load reads NaN and +-Infinity, which pass a check x <= 0
        *((key, value) for value in (np.nan, np.inf, -np.inf)
          for key in ("lyap.cgls_tol", "riccati.residual_tol",
                      "riccati.Z0_scale", "sim.dt", "model.diffusivity")),
        # settings of the line search Method 2 no longer has
        *(("lyap.gp", {key: v}) for key, v in (
            ("delta_bar", 1e-3), ("zeta", 0.5), ("sigma", 1e-4))),
        ("riccati.N_max", np.inf), ("sim.x0[0]", [np.nan] * 25),
        ("model.seed", -3), ("sim.x0_seed", -1),
        # the quadrature needs q >= 1, and the Faber DFT 4 p < 2048
        ("lyap.gp", {"q": 0}), ("lyap.gp", {"p": 512}),
        ("riccati.residual_tol", -1),
        # the Faber DFT length is a constant, not a setting
        ("lyap.gp", {"W": 2048}), ("oracle.max_n", 0),
        # the grid's dimension and its discretization disagree
        ("model",
         {"model": _HEAT_MODEL | {"discretization": "fe-linear-1d"}})])
    def test_bad_value_stops_before_any_stage(self, tmp_path, capsys, key,
                                              value):
        # a bare section name gives _heat_config's own overrides, and a
        # model key changes one key of its heat model
        section, _, name = key.partition(".")
        name = name.partition("[")[0]
        base = _HEAT_MODEL if section == "model" else {}
        overrides = {section: base | {name: value}} if name else value
        cfg = _heat_config(tmp_path, out="run_bad", **overrides)
        rc = main(["genmodel", "--config", cfg])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run_bad").exists()

    def test_negative_seed_flag_stops_before_any_stage(self, tmp_path,
                                                       capsys):
        cfg = _heat_config(tmp_path, out="run_bad")
        assert main(["genmodel", "--config", cfg, "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "run_bad").exists()

    def test_readme_example_loads(self):
        # the README's example config, so that the example cannot go stale
        cfg = parse_config(_readme_config())
        assert cfg.newton == NewtonConfig(N_max=12, residual_tol=1e-9, w=1,
                                          cgls=CglsConfig(tol=1e-7))
        assert cfg.sim == {"dt": 1e-3, "steps": 2000, "x0": "ones",
                           "x0_seed": 0, "max_rows": 1000}

    def test_readme_example_is_the_benchmark_config(self, monkeypatch):
        # the benchmark's workloads start from the README example, which
        # perfbench/workloads.py copies; the two must not drift apart
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while it runs
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        assert _readme_config() == workloads.README_CONFIG

    def test_unreadable_config_path(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["genmodel", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: cannot read config: ")

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
        # but the report counts every entry of the pattern, and the storage
        # of the operator it solved on. GP stops at its cap of 50 before it
        # stagnates, which is not converged: exit 2
        rc = {"lsq": 0, "gp": 2}[method]
        cfg = _heat_config(tmp_path, out=f"run_nnz_{method}",
                           lyap={"method": method, "cgls_tol": 1e-9,
                                 "gp": {"max_iter": 50}})
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        assert main(["solve", "--config", cfg, "--stage", "lyap"]) == rc
        out = tmp_path / f"run_nnz_{method}"
        nnz = json.loads((out / "density.json").read_text())["nnz"]
        header, row = [ln.split(",") for ln in
                       (out / "lyap_report.csv").read_text().splitlines()]
        assert header == ["method", "n", "nnz_pattern", "stored_entries",
                          "iterations", "final_residual", "e_k", "converged"]
        assert row[header.index("method")] == method
        assert int(row[header.index("nnz_pattern")]) == nnz
        assert row[header.index("converged")] == str(rc == 0)
        model, prob = heat_problem((5, 5))
        _F, Abar, P = newton_start(prob)
        op = GlOperator(Abar, model.E, read_pattern(out / "pattern.mtx"), P)
        assert int(row[header.index("stored_entries")]) == op.stored_entries

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

    def test_failed_rerun_leaves_no_stale_result(self, tmp_path, monkeypatch,
                                                 capsys):
        # a rerun that diverges removes the earlier run's Zricc.mtx and F.mtx,
        # so simulate cannot run on a stale feedback
        cfg = _heat_config(tmp_path, out="run_rerun")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        main(["solve", "--config", cfg, "--stage", "riccati"])
        out = tmp_path / "run_rerun"
        assert (out / "Zricc.mtx").exists() and (out / "F.mtx").exists()
        nan_lyap_solve_at(monkeypatch, step=2)
        assert main(["solve", "--config", cfg, "--stage", "riccati"]) == 2
        assert not (out / "Zricc.mtx").exists()
        assert not (out / "F.mtx").exists()
        capsys.readouterr()
        assert main(["solve", "--config", cfg, "--stage", "simulate"]) == 1
        assert "--stage riccati" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, outputs", [
        ("pattern", ("pattern.mtx", "density.json")),
        ("lyap", ("Zhat.mtx", "lyap_report.csv", "timings.json")),
        ("riccati", ("Zricc.mtx", "F.mtx", "newton_report.csv",
                     "timings.json")),
        ("simulate", ("trajectory.csv", "cost.json"))])
    def test_failed_rerun_deletes_the_stage_outputs(self, tmp_path, capsys,
                                                    stage, outputs):
        # every solve stage deletes its outputs before it reads the bundle,
        # so a rerun that fails on a corrupt E.mtx leaves none behind
        cfg = _heat_config(tmp_path, out="run_stale")
        out = tmp_path / "run_stale"
        assert main(["genmodel", "--config", cfg]) == 0
        for s in ("pattern", "lyap", "riccati", "simulate"):
            assert main(["solve", "--config", cfg, "--stage", s]) == 0
        assert all((out / name).exists() for name in outputs)
        (out / "E.mtx").write_text("not a matrix\n")
        capsys.readouterr()
        assert main(["solve", "--config", cfg, "--stage", stage]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {out / 'E.mtx'}: ")
        assert err.endswith("Missing banner.\n")
        assert not any((out / name).exists() for name in outputs)

    @pytest.mark.parametrize("stage", ["lyap", "riccati"])
    def test_pattern_of_another_model_is_named(self, tmp_path, capsys, stage):
        # a pattern.mtx of the 5^2 model, put back beside the 6^2 model
        # that replaced it, does not fit, and the error says which stage to
        # rerun
        cfg = _heat_config(tmp_path, out="run_resized")
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        pattern = tmp_path / "run_resized" / "pattern.mtx"
        old = pattern.read_bytes()
        cfg = _heat_config(tmp_path, out="run_resized", nodes=(6, 6))
        assert main(["genmodel", "--config", cfg]) == 0
        pattern.write_bytes(old)
        capsys.readouterr()
        assert main(["solve", "--config", cfg, "--stage", stage]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'run_resized'}: pattern.mtx is (25, 25), "
            "not the model's (36, 36); run --stage pattern again\n")

    def test_new_model_deletes_the_old_models_outputs(self, tmp_path,
                                                      capsys):
        # genmodel 6^2 over a finished 5^2 run leaves no output of the 5^2
        # model, so simulate names the missing F.mtx and its stage instead
        # of multiplying the 5^2 feedback into the 6^2 model
        cfg = _heat_config(tmp_path, out="run_regen")
        out = tmp_path / "run_regen"
        assert main(["genmodel", "--config", cfg]) == 0
        for s in ("pattern", "lyap", "riccati", "simulate"):
            assert main(["solve", "--config", cfg, "--stage", s]) == 0
        cfg = _heat_config(tmp_path, out="run_regen", nodes=(6, 6))
        assert main(["genmodel", "--config", cfg]) == 0
        stale = [name for _run, outputs in _STAGES.values()
                 for name in outputs if (out / name).exists()]
        assert stale == []
        capsys.readouterr()
        assert main(["solve", "--config", cfg, "--stage", "simulate"]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: F.mtx not found; run --stage riccati first\n")

    def test_grid_mismatch_keeps_the_old_outputs(self, tmp_path, capsys):
        # a 1-D discretization on a 2-D grid fails at load, so every
        # command exits before genmodel deletes the bundle's outputs
        cfg = _heat_config(tmp_path, out="run_keep")
        out = tmp_path / "run_keep"
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad = _heat_config(tmp_path, out="run_keep", model=_HEAT_MODEL | {
            "discretization": "fe-linear-1d"})
        capsys.readouterr()
        for argv in (["genmodel"], ["bench"],
                     *(["solve", "--stage", s] for s in _STAGES)):
            assert main([*argv, "--config", bad]) == 1
            assert capsys.readouterr().err == (
                f"error: {bad}: model: fe-linear-1d requires dimension 1\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert "pattern.mtx" in before

    def test_readme_lists_each_stage_outputs(self):
        # the README's artifact paragraph names, under each solve stage,
        # the outputs that the stage deletes before it runs
        readme = (ROOT / "README.md").read_text()
        start = readme.index("Artifacts written per stage:")
        end = readme.index("(bench)", start) + len("(bench)")
        text = readme[start:end]
        listed = {}
        for item in text.partition(":")[2].split(";"):
            files, stage = re.fullmatch(r"(.*)\((\w+)\)", item.strip(),
                                        re.S).groups()
            listed[stage] = set(re.findall(r"`([^`]+)`", files))
        for stage, (_run, outputs) in _STAGES.items():
            assert listed[stage] == set(outputs), stage

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
                                 "lyap_converged", "forcing"]
        assert int(rows[0]["lyap_iterations"]) > 0
        assert float(rows[0]["forcing"]) == 0.0
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

    def test_simulate_from_a_listed_x0(self, tmp_path):
        # the scalar closed loop is linear, so x0 = [2] doubles every state
        # norm of x0 = "ones" and quadruples the cost, exactly
        cfg = _scalar_config(tmp_path)
        raw = json.loads(Path(cfg).read_text())
        raw["sim"]["x0"] = [2.0]
        listed = _write_config(tmp_path, "listed.json", raw)
        out = tmp_path / "run_scalar"
        assert main(["genmodel", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--stage", "pattern"]) == 0
        assert main(["solve", "--config", cfg, "--stage", "riccati"]) == 0
        runs = []
        for c in (cfg, listed):
            assert main(["solve", "--config", c, "--stage", "simulate"]) == 0
            with open(out / "trajectory.csv") as f:
                norms = [float(r["state_norm"]) for r in csv.DictReader(f)]
            cost = json.loads((out / "cost.json").read_text())["cost"]
            runs.append((np.array(norms), cost))
        (ones, cost1), (twos, cost2) = runs
        assert ones.size > 10
        np.testing.assert_array_equal(twos, 2.0 * ones)
        assert cost2 == 4.0 * cost1 > 0


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
        # both methods run on one GL operator, and each row gives its
        # storage
        model, prob = heat_problem((4, 4))
        _F, Abar, P = newton_start(prob)
        op = GlOperator(Abar, model.E, apriori_pattern(Abar, model.E, P, 1),
                        P)
        for method in ("lsq", "gp"):
            assert int(by[("16", method)][3]) == op.stored_entries

    def test_bench_records_failures_and_keeps_going(self, tmp_path,
                                                    monkeypatch):
        # a 1 x 1 grid fails at the model build and a failing method gets
        # its own row; the next size and the next method still run
        import bandlq.cli
        solve_lyap = bandlq.cli.solve_lyap

        def failing_gp(Abar, E, P, pat, cfg):
            if cfg.lyap_method == "gp":
                raise RuntimeError("gp failed")
            return solve_lyap(Abar, E, P, pat, cfg)

        monkeypatch.setattr(bandlq.cli, "solve_lyap", failing_gp)
        cfg = _heat_config(tmp_path, out="run_bench_fail",
                           bench={"sizes": [[1, 1], [4, 4]],
                                  "methods": ["gp", "lsq"]},
                           oracle={"enabled": False})
        assert main(["bench", "--config", cfg]) == 0
        with open(tmp_path / "run_bench_fail" / "bench.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert rows[0] == ["1", "setup", "1", "0", "0", "0",
                           "error: need at least 2 interior nodes per axis"]
        assert rows[1] == ["16", "gp", "1", "0", "0", "0", "error: gp failed"]
        assert rows[2][:3] == ["16", "lsq", "1"] and rows[2][6] == "ok"
        assert len(rows) == 3

    def test_bench_gp_cap_is_the_lyap_section(self):
        # bench runs what solve --stage lyap runs, with lyap.gp.max_iter
        with pytest.raises(ConfigError, match="gp_max_iter"):
            parse_config({"output_dir": "x", "model": {"kind": "scalar"},
                          "bench": {"sizes": [[4, 4]], "gp_max_iter": 50}})

    def test_bench_requires_sizes(self, tmp_path, capsys):
        # the command fails before the output directory is created
        cfg = _heat_config(tmp_path, out="run_nobench")
        rc = main(["bench", "--config", cfg])
        assert rc == 1
        assert "bench.sizes" in capsys.readouterr().err
        assert not (tmp_path / "run_nobench").exists()


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
