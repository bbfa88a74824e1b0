"""Spans and counters recorded around the calls into each bandlq layer.

A probe replaces a public function in the module namespace its caller looks
it up in (``bandlq.lyap_lsq.cgls`` is the ``cgls`` that ``solve_lyap_lsq``
calls), records a span and, through a hook on the return value, the layer's
counters. Nothing under ``src/`` changes; leaving the ``Probes`` context puts
every original function back.

Spans (name, start, end, parent, run id) stay in memory until the caller
writes them out. With ``timed=False`` only the probes that feed the
repeat-exactly counters are installed, and they read no clock.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _pattern(c, res, args):
    c["pattern.nnz"] = res.nnz
    c["pattern.density"] = res.nnz / float(res.shape[0] * res.shape[1])


def _assemble(c, res, args):
    c["lyap_lsq.m1_nnz_max"] = max(c["lyap_lsq.m1_nnz_max"], res.M1.nnz)


def _cgls(c, res, args):
    c["cgls.iterations"] += res.iterations
    # cgls() applies M or M^T three times before its loop and twice per
    # iteration
    c["cgls.matvecs"] += 3 + 2 * res.iterations
    c["cgls.unconverged"] += 0 if res.converged else 1


def _newton(c, res, args):
    v = [r.v_k for r in res[1]]
    c["control.newton_steps"] += len(v)
    # step 1 has nothing to improve on and counts as useful
    c["control.useful_steps"] += sum(
        1 for k in range(len(v)) if k == 0 or v[k] < v[k - 1] * (1 - 1e-12))


def _step_matrices(c, res, args):
    c["control.abar_nnz_max"] = max(c["control.abar_nnz_max"], res[1].nnz)


def _initial_guess(c, res, args):
    c["lyap_gp.x3_fill"] = res[1]["fill"]


def _gp(c, res, args):
    c["lyap_gp.iterations"] += res[1].iterations
    c["lyap_gp.solves"] += 1
    c["lyap_gp.stalled"] += 1 if res[1].extra["stalled"] else 0


def _written(c, res, args):
    c["mmio.bytes_written"] += os.path.getsize(args[0])


def _read(c, res, args):
    c["mmio.bytes_read"] += os.path.getsize(args[0])


# (module, attribute, span name, counter hook, feeds a repeat-exactly count)
PROBES = (
    ("bandlq.cli", "build_model", "modelgen.build", None, False),
    ("bandlq.modelgen", "rcm_order", "sparsecore.rcm", None, False),
    ("bandlq.cli", "write_matrix", "mmio.write", _written, False),
    ("bandlq.cli", "write_pattern", "mmio.write", _written, False),
    ("bandlq.cli", "read_matrix", "mmio.read", _read, False),
    ("bandlq.mmio", "read_pattern", "mmio.read", _read, False),
    ("bandlq.cli", "apriori_pattern", "pattern.apriori", _pattern, True),
    ("bandlq.control", "apriori_pattern", "pattern.apriori", _pattern, True),
    ("bandlq.cli", "newton_step_matrices", "control.step_matrices",
     _step_matrices, False),
    ("bandlq.control", "newton_step_matrices", "control.step_matrices",
     _step_matrices, False),
    ("bandlq.cli", "solve_riccati", "control.solve_riccati", _newton, True),
    ("bandlq.control", "riccati_residual", "control.residual", None, False),
    ("bandlq.cli", "feedback", "control.feedback", None, False),
    ("bandlq.control", "feedback", "control.feedback", None, False),
    ("bandlq.cli", "simulate_closed_loop", "control.simulate", None, False),
    ("bandlq.cli", "solve_lyap_lsq", "lyap_lsq.solve", None, False),
    ("bandlq.control", "solve_lyap_lsq", "lyap_lsq.solve", None, False),
    ("bandlq.lyap_lsq", "assemble_reduced", "lyap_lsq.assemble", _assemble,
     True),
    ("bandlq.lyap_lsq", "scatter_solution", "lyap_lsq.scatter", None, False),
    ("bandlq.lyap_lsq", "cgls", "cgls.solve", _cgls, True),
    ("bandlq.cli", "initial_guess", "lyap_gp.initial_guess", _initial_guess,
     False),
    ("bandlq.control", "initial_guess", "lyap_gp.initial_guess",
     _initial_guess, False),
    ("bandlq.lyap_gp", "spai", "lyap_gp.spai", None, False),
    ("bandlq.lyap_gp", "spectrum_bounds", "lyap_gp.spectrum", None, False),
    ("bandlq.lyap_gp", "faber_expm", "lyap_gp.faber", None, False),
    ("bandlq.cli", "solve_lyap_gp", "lyap_gp.solve", _gp, True),
    ("bandlq.control", "solve_lyap_gp", "lyap_gp.solve", _gp, True),
    ("bandlq.lyap_gp", "project", "lyap_gp.project", None, False),
)

# counts that must repeat exactly between runs of one invocation
EXACT_COUNTS = ("cgls.iterations", "control.newton_steps",
                "lyap_lsq.m1_nnz_max", "pattern.nnz", "lyap_gp.iterations")


class Probes:
    """Installs the probes on enter and restores the originals on exit."""

    def __init__(self, timed):
        self.timed = timed
        self.spans = []         # [name, start, end, parent index, run id]
        self.counts = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for mod_name, attr, name, hook, exact in PROBES:
            if self.timed or exact:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def start_run(self, run_id):
        """Begin a pipeline run: counters restart, spans carry run_id."""
        self.run_id = run_id
        self.counts = defaultdict(float)

    @contextmanager
    def span(self, name):
        if not self.timed:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        def probe(*args, **kwargs):
            with self.span(name):
                res = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, res, args)
            return res
        return probe

    def layer_times(self, run_id, roots=None):
        """Per span name: (inclusive seconds, self seconds, calls) in run_id.

        ``roots`` limits the sums to the trees under root spans of those
        names. Self time is a span's duration minus its children's.
        """
        child = defaultdict(float)
        for _name, t0, t1, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        keep = {}
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, t0, t1, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            keep[i] = keep[parent] if parent >= 0 else (
                roots is None or name in roots)
            if keep[i]:
                incl[name] += t1 - t0
                own[name] += t1 - t0 - child[i]
                calls[name] += 1
        return incl, own, calls

    def project_calls_in_gp(self, run_id):
        """Calls to lyap_gp.project made directly by solve_lyap_gp."""
        return sum(1 for name, _t0, _t1, parent, rid in self.spans
                   if rid == run_id and name == "lyap_gp.project"
                   and parent >= 0 and self.spans[parent][0] == "lyap_gp.solve")
