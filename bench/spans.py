"""Spans recorded around calls into regimelq's public functions.

The benchmark never edits the library: it replaces a public name with a
timing wrapper in the namespace where callers look it up (for example
``regimelq.cli.solve_esre``, the name the CLI calls) and puts the
original back afterwards.  A span holds its name, layer, start, end,
parent span and operation id; spans stay in memory and are written out
once, when the run ends.

A layer's self time is the time of its spans minus the time of their
child spans.  Time in a function that is not wrapped is charged to the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter


def _result(args, kwargs, out):
    return out


def _mc(n_paths_index, policies):
    """Paths x policies of a Monte Carlo call, and its estimate."""
    def extract(args, kwargs, out):
        n = kwargs["n_paths"] if "n_paths" in kwargs else args[n_paths_index]
        return {"paths": int(n) * policies, "result": out}
    return extract


def _jumps(args, kwargs, out):
    return len(out[0])


def _file_bytes(args, kwargs, out):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# (module, attribute, span name, layer, extractor).  The module is where
# callers look the name up, so a function imported into several modules is
# wrapped in each.  An extractor keeps what the metrics need from a call.
# CAPTURE is all an untraced run wraps: the solves and Monte Carlo calls
# whose results feed solve_s, the answer record and the checks.
CAPTURE = (
    ("regimelq.esre", "solve_esre", "esre.solve_esre", "esre", _result),
    ("regimelq.cli", "solve_esre", "esre.solve_esre", "esre", _result),
    ("regimelq.cli", "mc_cost", "control.mc_cost", "control", _mc(4, 1)),
    ("regimelq.cli", "optimality_gap", "control.optimality_gap", "control", _mc(3, 2)),
)
FULL = CAPTURE + (
    ("regimelq.esre", "direct_coupled_oracle", "esre.direct_coupled_oracle", "esre", None),
    ("regimelq.esre", "solve_p0", "esre.solve_p0", "esre", None),
    ("regimelq.esre", "picard_step", "esre.picard_step", "esre", None),
    ("regimelq.cli", "solve_p0", "esre.solve_p0", "esre", None),
    ("regimelq.fbsde", "picard_step", "esre.picard_step", "esre", None),
    ("regimelq.esre", "validate_assumptions", "model.validate_assumptions", "model", None),
    ("regimelq.model", "CoefficientField.sample_times", "model.sample_times", "model", None),
    ("regimelq.matcore", "project_psd", "matcore.project_psd", "matcore", None),
    ("regimelq.matcore", "sym_inverse", "matcore.sym_inverse", "matcore", None),
    ("regimelq.config", "parse_config", "config.parse_config", "config", None),
    ("regimelq.control", "feedback_gain", "control.feedback_gain", "control", None),
    ("regimelq.cli", "feedback_gain", "control.feedback_gain", "control", None),
    ("regimelq.fbsde", "feedback_gain", "control.feedback_gain", "control", None),
    ("regimelq.control", "predicted_gap", "control.predicted_gap", "control", None),
    ("regimelq.control", "path_substream", "regime_chain.path_substream",
     "regime_chain", None),
    ("regimelq.fbsde", "path_substream", "regime_chain.path_substream",
     "regime_chain", None),
    ("regimelq.control", "sample_jumps", "regime_chain.sample_jumps",
     "regime_chain", _jumps),
    ("regimelq.cli", "ypx_residual", "fbsde.ypx_residual", "fbsde", None),
    ("regimelq.cli", "xinv_product_check", "fbsde.xinv_product_check", "fbsde", None),
    ("regimelq.cli", "tree_fbsde_oracle", "fbsde.tree_fbsde_oracle", "fbsde", None),
    ("regimelq.cli", "run_command", "cli.run_command", "cli", None),
    ("regimelq.cli", "write_solution_csv", "cli.write_solution_csv", "cli", _file_bytes),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    A span is a list ``[name, layer, start, end, parent, op, data]``:
    ``parent`` indexes ``spans`` (None at top level), ``op`` is the id of
    the operation that was current when the span began, and ``data`` is
    what the target's extractor returned.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def begin(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0,
               self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        return rec

    def end(self, rec: list):
        rec[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if extract is not None:
                rec[6] = extract(args, kwargs, out)
            return out

        return wrapper

    def install(self, targets):
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module, path, name, layer, extract in targets:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, extract))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> list:
        """Self time of every span: its duration minus its children's."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                out[s[4]] -= s[3] - s[2]
        return out

    def write(self, path):
        """Dump every span as JSON, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"id": i, "name": s[0], "layer": s[1], "start": s[2] - t0,
             "end": s[3] - t0, "parent": s[4], "op": s[5],
             "data": s[6] if isinstance(s[6], (int, float)) else None}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows}))
