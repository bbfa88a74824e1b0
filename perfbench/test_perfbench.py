"""Smoke test of the benchmark harness: every workload on a 5 x 5 grid,
with tracing off and on, in a few seconds."""

import dataclasses

import pytest

import bandlq.lyap_gp
import bandlq.lyap_lsq
import harness
from probes import Probes
from workloads import WORKLOADS

# per workload: a layer it must exercise and one it must bypass
EXERCISED = {
    "lyap-lsq-29": ("cgls.iterations", "lyap_gp.iterations"),
    "lyap-gp-13": ("lyap_gp.faber_calls", "cgls.iterations"),
    "readme-riccati-13": ("control.newton_steps", "lyap_gp.faber_calls"),
}


def test_benchmark_json_lists_the_workloads():
    assert ({w["name"] for w in harness.BENCHMARK["workloads"]}
            == set(WORKLOADS))


def test_uncovered_time_counts_what_no_layer_span_covers():
    probes = Probes(timed=True)
    probes.spans = [                 # name, start, end, parent, run id
        ["cli.genmodel", 0.0, 1.0, -1, 0],       # before solve_s
        ["cli.lyap", 1.0, 11.0, -1, 0],          # 2 s of its own
        ["lyap_lsq.solve", 2.0, 10.0, 1, 0],     # glue: 2 s of its own
        ["cgls.solve", 3.0, 5.0, 2, 0],
        ["lyap_lsq.assemble", 5.0, 9.0, 2, 0],
    ]
    # solve_s is 0.5 s longer than the stage spans
    uncovered = harness.uncovered_time(WORKLOADS["lyap-lsq-29"], probes, 0,
                                       10.5)
    assert uncovered == pytest.approx(4.5)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload(name, trace, tmp_path):
    wl = dataclasses.replace(WORKLOADS[name], nodes=(5, 5))
    originals = (bandlq.lyap_lsq.cgls, bandlq.lyap_gp.project)
    result = harness.run_workload(wl, seed=7, seconds=0, trace=trace,
                                  work=tmp_path)
    assert (bandlq.lyap_lsq.cgls, bandlq.lyap_gp.project) == originals
    assert result["correct"], [r["problems"] for r in result["runs"]]
    assert result["attempted"] == 2 + trace and result["failed"] == 0
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    if trace:
        used, bypassed = EXERCISED[name]
        assert result["metrics"][used]["value"] > 0
        assert result["metrics"][bypassed]["value"] == 0
