"""Spans and counters recorded from outside the library.

The benchmark times calls into each xccy layer without changing ``src/``:
top-level calls go through :meth:`Tracer.call`, and the nested layers
(``normal_block`` inside ``simulate``, ``simulate`` inside
``solve_endogenous``, and every ``RateCurve.integral``) are wrapped by
:meth:`Tracer.patched` and restored when it exits. Spans are kept in memory
as (name, start, end) and reduced to per-layer numbers by
:func:`layer_metrics`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager

import xccy.bsde
import xccy.simulation
from xccy.curves import RateCurve

# span names, one per layer; the workloads pass these to Tracer.call
MODEL_LOAD = "model.load"
SIMULATE = "simulation.simulate"
NORMAL_BLOCK = "rng.normal_block"
COLLATERAL = "collateral.build"
PRICING = "pricing.price"
BSDE_SOLVE = "bsde.solve"
DIAGNOSTICS = "diagnostics"


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _simulate_counts(tr, scenario):
    n_drivers = len(scenario.model.driver_labels)
    tr.add("simulation.stored_bytes", scenario.n_paths * len(scenario.grid.times) * n_drivers * 8)


def _normal_counts(tr, z):
    n_paths, n_steps, n_drivers = z.shape
    tr.add("rng.normals", z.size)
    # normal_block reads one 4-word Philox block per (path, step, 4 drivers)
    tr.add("rng.words", n_paths * n_steps * 4 * max(1, -(-n_drivers // 4)))


def _bsde_counts(tr, result):
    tr.add("bsde.picard_iters", sum(result.picard_counts))


def _z_test_counts(tr, reports):
    reports = reports if isinstance(reports, list) else [reports]
    tr.add("diagnostics.z_tests", sum(len(r.checkpoints) for r in reports))


# counts taken from a layer's return value, keyed by span name
_ON_RETURN = {
    SIMULATE: _simulate_counts,
    NORMAL_BLOCK: _normal_counts,
    BSDE_SOLVE: _bsde_counts,
    DIAGNOSTICS: _z_test_counts,
}


class Tracer:
    """Records a span per call and counts per layer; safe across worker threads."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        with self._lock:
            self.spans.append((name, start, end))
        hook = _ON_RETURN.get(name)
        if hook is not None:
            hook(self, out)
        return out

    @contextmanager
    def patched(self):
        """Wrap the nested layers for the duration of the block."""
        normal_block = xccy.simulation.normal_block
        inner_simulate = xccy.bsde.simulate
        integral = RateCurve.integral

        def counted_integral(curve, t0, t1):
            self.add("curves.integral_calls")
            return integral(curve, t0, t1)

        xccy.simulation.normal_block = lambda *a, **k: self.call(NORMAL_BLOCK, normal_block, *a, **k)
        xccy.bsde.simulate = lambda *a, **k: self.call(SIMULATE, inner_simulate, *a, **k)
        RateCurve.integral = counted_integral
        try:
            yield self
        finally:
            xccy.simulation.normal_block = normal_block
            xccy.bsde.simulate = inner_simulate
            RateCurve.integral = integral


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans, parent: str, child: str) -> float:
    """Time in ``parent`` spans not covered by the ``child`` spans they contain.

    Children on worker threads overlap each other, so their union is
    subtracted, not their sum.
    """
    total = 0.0
    for name, start, end in spans:
        if name == parent:
            inner = [(s, e) for n, s, e in spans if n == child and start <= s and e <= end]
            total += (end - start) - _covered(inner)
    return total


def busy_time(spans, name: str) -> float:
    """Summed duration of every span of one layer, over all threads."""
    return sum(end - start for n, start, end in spans if n == name)


COUNTS = ("rng.normals", "curves.integral_calls", "bsde.picard_iters", "diagnostics.z_tests")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced run of a workload.

    Layers a workload does not call read 0.
    """
    spans, counts = tracer.spans, tracer.counts
    words = counts["rng.words"]
    return {
        "rng.busy_s": busy_time(spans, NORMAL_BLOCK),
        "rng.normals": counts["rng.normals"],
        "rng.useful_frac": counts["rng.normals"] / words if words else 0.0,
        "simulation.self_s": self_time(spans, SIMULATE, NORMAL_BLOCK),
        "simulation.stored_mb": counts["simulation.stored_bytes"] / 1e6,
        "curves.integral_calls": counts["curves.integral_calls"],
        "collateral.build_s": busy_time(spans, COLLATERAL),
        "pricing.price_s": busy_time(spans, PRICING),
        "bsde.self_s": self_time(spans, BSDE_SOLVE, SIMULATE),
        "bsde.picard_iters": counts["bsde.picard_iters"],
        "diagnostics.suite_s": busy_time(spans, DIAGNOSTICS),
        "diagnostics.z_tests": counts["diagnostics.z_tests"],
    }
