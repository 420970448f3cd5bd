"""In-memory spans around the program's public functions.

kcmlab modules import each other's functions by name (``from .kcm import
batch_tau0``), so a wrapper must replace the name in the module that calls
it, not only where it is defined.  A :class:`Tracer` patches such names,
records call counts and durations in memory, and restores the originals on
exit.  Spans nest through a stack: a span's self time is its duration minus
the time of the spans it encloses.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.nested_calls = defaultdict(int)  # (parent span, span) -> calls
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, on_result=None, wrap_arg=None):
        """``fn`` timed as span ``name``.  ``on_result(tracer, args, result)``
        runs after the span closes; ``wrap_arg = (index, name, on_result)``
        wraps a callable positional argument as a child span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if wrap_arg is not None:
                index, child, child_result = wrap_arg
                args = list(args)
                args[index] = tracer.wrap(child, args[index], child_result)
                args = tuple(args)
            stack = tracer._stack
            tracer.calls[name] += 1
            tracer.nested_calls[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def patch(self, module, attr, name, on_result=None, wrap_arg=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result, wrap_arg))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False


PER_LAYER = {
    "kcm.hitting_s": "s",
    "kcm.rings": "count",
    "kcm.legal_updates": "count",
    "kcm.legal_fraction": "ratio",
    "kcm.rings_per_s": "1/s",
    "kcm.dynamics_build_s": "s",
    "kcm.observe_s": "s",
    "kcm.observe_segments": "count",
    "harness.sweep_self_s": "s",
    "harness.bytes_written": "bytes",
    "bootstrap.grid_steps": "count",
    "bootstrap.grid_step_s": "s",
    "bootstrap.cells_per_s": "1/s",
    "bootstrap.closure_calls": "count",
    "bootstrap.closure_s": "s",
    "bootstrap.closure_sites_per_s": "1/s",
    "droplets.passes": "count",
    "droplets.pass_self_s": "s",
    "droplets.closures_per_pass": "ratio",
    "droplets.b2_windows": "count",
    "droplets.b2_s": "s",
    "exact.build_s": "s",
    "exact.states": "count",
    "exact.nnz": "count",
    "exact.gap_s": "s",
    "exact.dense_bytes": "bytes",
    "exact.hitting_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(tr: Tracer, rounds: int) -> dict:
    """Per-layer metrics, as totals per traced round.  Layers a workload
    does not reach read 0.  ``exact.dense_bytes`` is computed from the
    largest ergodic component (size^2 x 8 bytes), not measured."""
    per = 1.0 / rounds
    c, t, s = tr.counts, tr.total, tr.self_time
    passes = tr.calls["droplets.pass"]
    return {
        "kcm.hitting_s": t["kcm.hitting"] * per,
        "kcm.rings": c["kcm.rings"] * per,
        "kcm.legal_updates": c["kcm.legal"] * per,
        "kcm.legal_fraction": _ratio(c["kcm.legal"], c["kcm.rings"]),
        "kcm.rings_per_s": _ratio(c["kcm.rings"], s["kcm.hitting"]),
        "kcm.dynamics_build_s": t["kcm.dynamics_build"] * per,
        "kcm.observe_s": s["kcm.observe"] * per,
        "kcm.observe_segments": tr.calls["kcm.observer"] * per,
        "harness.sweep_self_s": s["harness.run_sweep"] * per,
        "harness.bytes_written": c["harness.bytes"] * per,
        "bootstrap.grid_steps": tr.calls["bootstrap.grid_step"] * per,
        "bootstrap.grid_step_s": t["bootstrap.grid_step"] * per,
        "bootstrap.cells_per_s": _ratio(c["bootstrap.cells"], t["bootstrap.grid_step"]),
        "bootstrap.closure_calls": tr.calls["bootstrap.closure"] * per,
        "bootstrap.closure_s": t["bootstrap.closure"] * per,
        "bootstrap.closure_sites_per_s": _ratio(c["bootstrap.closure_sites"], t["bootstrap.closure"]),
        "droplets.passes": passes * per,
        "droplets.pass_self_s": s["droplets.pass"] * per,
        "droplets.closures_per_pass": _ratio(tr.nested_calls[("droplets.pass", "bootstrap.closure")], passes),
        "droplets.b2_windows": tr.nested_calls[("droplets.b2", "bootstrap.closure")] * per,
        "droplets.b2_s": t["droplets.b2"] * per,
        "exact.build_s": t["exact.build"] * per,
        "exact.states": c["exact.states"] * per,
        "exact.nnz": c["exact.nnz"] * per,
        "exact.gap_s": t["exact.gap"] * per,
        "exact.dense_bytes": c["exact.dense_bytes"],
        "exact.hitting_s": t["exact.hitting"] * per,
    }
