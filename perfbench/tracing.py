"""Spans and counts at discordlab's layer boundaries, recorded from outside the package.

`Tracer.install` replaces public functions at the module attribute their
callers resolve (for example `states.hermitian_eigenvalues`, which
`states.validate` calls, beside `linalg.hermitian_eigenvalues`, which
`measures` and `linalg.trace_norm` call) and `Tracer.uninstall` puts the
originals back.  Each call becomes a span (name, start, end, parent);
spans stay in memory as flat arrays until `write` saves them.  A span's
self time is its duration minus the time of its child spans.

Two hooks reach below the public surface, because the oracle's two
phases are not separate public calls: `measures._d1_objective` on more
than one axis is the lattice scan ("oracle_grid"), and the scipy
`minimize` that `measures` imports is the refinement ("oracle_refine").
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module name, attribute, layer)
LAYERS = (
    ("linalg", "hermitian_eigenvalues", "linalg.eig"),
    ("states", "hermitian_eigenvalues", "linalg.eig"),
    ("states", "validate", "states.validate"),
    ("states", "bloch", "states.bloch"),
    ("states", "read_state_file", "states.io"),
    ("measures", "d2_closed", "measures.d2_closed"),
    ("measures", "negativity", "measures.negativity"),
    ("measures", "d1_x_with_method", "measures.d1_closed"),
    ("measures", "d1_oracle", "measures.oracle"),
    ("dynamics", "apply_channel", "dynamics.apply_channel"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "lindblad_rhs", "dynamics.lindblad_rhs"),
    ("families", "d1_timeseries_A", "families.series"),
    ("families", "d1_timeseries_B", "families.series"),
    ("families", "d2_timeseries_A", "families.series"),
    ("families", "d2_timeseries_B", "families.series"),
    ("families", "regime", "families.regime"),
    ("families", "find_critical_w", "families.critical"),
    ("cli", "main", "cli"),
)


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # name -> imported discordlab submodule
        self.names = []
        self.ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # [span index, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.grid_min = None
        self.saved = []

    def _open(self, layer):
        if layer not in self.ids:
            self.ids[layer] = len(self.names)
            self.names.append(layer)
        idx = len(self.span_start)
        self.span_name.append(self.ids[layer])
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        self.stack.append([idx, 0.0])
        return idx, t0

    def _close(self, layer, idx, t0):
        t1 = time.perf_counter()
        _, child = self.stack.pop()
        self.span_end[idx] = t1
        dur = t1 - t0
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def span(self, layer, fn):
        def traced(*args, **kwargs):
            idx, t0 = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, idx, t0)

        return traced

    def _grid(self, fn):
        def traced(rho, axes):
            if len(axes) == 1:  # a refinement step, timed by oracle_refine
                return fn(rho, axes)
            idx, t0 = self._open("measures.oracle_grid")
            try:
                vals = fn(rho, axes)
            finally:
                self._close("measures.oracle_grid", idx, t0)
            self.grid_min = float(np.min(vals))
            return vals

        return traced

    def _refine(self, fn):
        traced = self.span("measures.oracle_refine", fn)

        def counted(*args, **kwargs):
            res = traced(*args, **kwargs)
            self.counts["measures.oracle_refine.iters"] += int(res.nit)
            # the oracle keeps the refined point only when it beats the grid
            if self.grid_min is not None and res.fun < self.grid_min:
                self.counts["measures.oracle_refine.improved"] += 1
            return res

        return counted

    def install(self):
        m = self.modules
        hooks = [(m[mod], attr, self.span(layer, getattr(m[mod], attr)))
                 for mod, attr, layer in LAYERS]
        hooks.append((m["measures"], "_d1_objective", self._grid(m["measures"]._d1_objective)))
        hooks.append((m["measures"], "minimize", self._refine(m["measures"].minimize)))
        for module, attr, wrapper in hooks:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
