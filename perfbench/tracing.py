"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of stochattn by a timing
wrapper in every stochattn module that holds it, which is where its callers
look it up (``stochattn.attention.swa_forward``, the names ``cli`` imports,
...). Spans nest: a layer's self time is its span's duration minus the
durations of the wrapped calls made inside it. Counts (score cells, unmasked
cells, bytes) are taken after the clock stops; the parent counts that time
as its child's, so it lands in no span's self time.

Only traced runs install it; timed runs never do.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

PACKAGE = "stochattn"


def _softmax_counts(args, kwargs, out):
    scores = kwargs.get("scores", args[0] if args else None)
    mask = kwargs.get("mask", args[1] if len(args) > 1 else None)
    return {"cells": int(np.size(scores)), "useful_cells": int(np.count_nonzero(mask))}


def _window_mask_counts(args, kwargs, out):
    return {"cells": int(np.size(out))}


def _permute_rows_counts(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _attention_forward_counts(args, kwargs, out):
    inp = kwargs.get("inp", args[0] if args else None)
    return {"cells": int(inp.q.shape[0]) * int(inp.k.shape[0])}


LAYERS = {
    "numerics": ("masked_row_softmax", "as_matrix"),
    "masks": ("build_window_mask", "build_stochastic_mask", "intersect_causal"),
    "permute": ("sample_permutation", "permute_rows"),
    "attention": ("dual_path_layer", "rope_apply", "swa_forward", "sa_forward",
                  "attention_forward", "attention_backward", "gated_fusion"),
    "graphs": ("simulate_reachability", "connection_probability_mc", "smallworld_metrics",
               "graph_path_length", "graph_clustering", "multilayer_mixing"),
    "stats": ("sa_bias_mc", "sa_variance_mc", "fusion_bv_decompose"),
}
# span -> (count names, counter over (args, kwargs, result))
COUNTERS = {
    "numerics.masked_row_softmax": (("cells", "useful_cells"), _softmax_counts),
    "masks.build_window_mask": (("cells",), _window_mask_counts),
    "permute.permute_rows": (("bytes",), _permute_rows_counts),
    "attention.attention_forward": (("cells",), _attention_forward_counts),
}
# Peak bytes allocated inside this span, from tracemalloc started at its entry.
ALLOC_SPAN = "attention.dual_path_layer"


class Tracer:
    """Span collector. ``install`` wraps; ``span`` times a block of the
    benchmark itself (one verify check, for example)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak_alloc = 0
        self._child_s: list[float] = []

    def _enter(self) -> float:
        self._child_s.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float, stop: float) -> None:
        child = self._child_s.pop()
        self.calls[name] += 1
        self.total_s[name] += stop - start
        self.self_s[name] += stop - start - child

    def _charge_parent(self, start: float) -> None:
        # The parent sees this call, its counting included, as child time.
        if self._child_s:
            self._child_s[-1] += time.perf_counter() - start

    def wrap(self, name: str, fn, counter=None):
        alloc = name == ALLOC_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            start = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                stop = time.perf_counter()
                self._exit(name, start, stop)
                if alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.counts[f"{name}.{key}"] += value
            self._charge_parent(start)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start, time.perf_counter())
            self._charge_parent(start)

    def install(self) -> None:
        """Wrap every listed function wherever a stochattn module holds it."""
        modules = [module for name, module in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for owner, functions in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{owner}"]
            for fn_name in functions:
                name = f"{owner}.{fn_name}"
                original = getattr(home, fn_name)
                wrapped = self.wrap(name, original, COUNTERS.get(name, ((), None))[1])
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def per_layer_metrics(tracer: Tracer, check_names, overhead_s: float) -> dict:
    """Flatten a tracer into the per-layer metrics of BENCHMARK.json."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for owner, functions in LAYERS.items():
        for fn_name in functions:
            name = f"{owner}.{fn_name}"
            put(f"{name}.calls", tracer.calls[name], "count")
            put(f"{name}.self_ms", tracer.self_s[name] * 1e3, "ms")
            for key in COUNTERS.get(name, ((), None))[0]:
                put(f"{name}.{key}", tracer.counts[f"{name}.{key}"],
                    "B" if key == "bytes" else "count")
    cells = tracer.counts["numerics.masked_row_softmax.cells"]
    useful = tracer.counts["numerics.masked_row_softmax.useful_cells"]
    put("numerics.masked_row_softmax.useful_ratio", useful / cells if cells else 0.0, "ratio")
    put(f"{ALLOC_SPAN}.peak_alloc_mb", tracer.peak_alloc / 2**20, "MB")
    for check in check_names:
        put(f"cli.verify.{check}.ms", tracer.total_s[f"cli.verify.{check}"] * 1e3, "ms")
    put("trace.overhead_s", overhead_s, "s")
    return metrics
