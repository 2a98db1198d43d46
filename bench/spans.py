"""Per-layer tracing from outside the package.

Each layer is one or more module attributes that their callers look up
at call time (``quadvpc.ocp._reduced_model`` is called through the
``quadvpc.ocp`` globals, ``rk4_jacobians`` through ``quadvpc.ocp`` where
it was imported).  ``Tracer.install`` replaces them with wrappers that
push a span on a stack, so each layer gets its call count, total time
and self time (total minus the time of its traced children).  Spans are
kept only inside the root layer, the closed loop itself, so set-up work
outside the ticks is not counted.  An attribute that no longer exists
marks its layer absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

ROOT = "simulator.run_closed_loop"

# layer -> the (module, attribute) pairs its callers look up
LAYERS = {
    ROOT: [("quadvpc.scenarios", "run_closed_loop")],
    "simulator.observe": [("quadvpc.simulator", "observe")],
    "simulator.plant_step": [("quadvpc.simulator", "plant_step")],
    "scenarios.reference": [("quadvpc.scenarios", "make_reference_from_waypoint")],
    "ocp.solve": [("quadvpc.ocp", "solve")],
    "ocp.warm_shift": [("quadvpc.ocp", "shift_warm_start")],
    "ocp.reduced_model": [("quadvpc.ocp", "_reduced_model")],
    "ocp.kkt_residual": [("quadvpc.ocp", "kkt_residual_arrays")],
    "ocp.stage_jacobians": [("quadvpc.ocp", "_stage_jacobians")],
    "ocp.stage_outputs": [("quadvpc.ocp", "_stage_outputs")],
    "ocp.step_qp": [("quadvpc.ocp", "_solve_step_qp")],
    "ocp.rollout": [("quadvpc.ocp", "_rollout")],
    "dynamics.rk4_jacobians": [("quadvpc.ocp", "rk4_jacobians")],
    "dynamics.rk4_flat": [("quadvpc.ocp", "_rk4_flat"), ("quadvpc.dynamics", "_rk4_flat")],
}


class LayerStats:
    __slots__ = ("calls", "total", "self_time", "parents")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.parents = Counter()

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "parents": {str(k): v for k, v in self.parents.items()},
        }


class Tracer:
    """Span stack over the wrapped layers; ``on_result`` hooks see return values."""

    def __init__(self, on_result=None):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.absent = []
        self._on_result = on_result or {}
        self._stack = []  # [layer, child time] per open span
        self._originals = []

    def _wrap(self, layer, fn):
        stack = self._stack
        rec = self.stats[layer]
        hook = self._on_result.get(layer)

        def traced(*args, **kwargs):
            if not stack and layer != ROOT:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                stack.pop()
                rec.calls += 1
                rec.total += total
                rec.self_time += total - frame[1]
                if stack:
                    stack[-1][1] += total
                    rec.parents[stack[-1][0]] += 1
                else:
                    rec.parents[None] += 1
            if hook is not None:
                hook(out)
            return out

        return traced

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            found = False
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
                found = True
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
