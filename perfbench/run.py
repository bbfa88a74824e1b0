"""Benchmark command of bandlq.

    python3 perfbench/run.py --workload lyap-lsq-29 --seed 7 --seconds 10 --trace 0

Runs one workload of ``workloads.py`` from the root of a source checkout,
checks its outputs and prints, as the last line of standard output, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``. The full result,
with the environment and the spans, goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"


def cap_blas_threads():
    """One BLAS thread, set before numpy loads its pools."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "BANDLQ_THREADS"):
        os.environ[var] = BLAS_THREADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandlq" / "cli.py").is_file():
        print(f"error: no bandlq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    work = OUT / f"work-{os.getpid()}"
    try:
        result = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                      args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = {k: result[k] for k in ("correct", "attempted", "failed",
                                   "metrics")}
    harness.write_result(result, OUT)
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    cap_blas_threads()
    sys.exit(main())
