"""Timing taken from outside the ``deepo`` package.

``StepClock`` stamps every ``SwitchingPlant.step`` call; the gaps between a
step returning and the next step being entered are the controller's
decisions, timed on the wall clock and in the process's CPU time.
``Tracer`` records one span per call of every public function of the
``deepo`` modules (name, start, end, parent).  ``engine`` and the other
modules import names directly (``from .lqr_core import gradient``), so each
wrapper replaces the name in every ``deepo`` namespace that holds it.  Spans
stay in memory until the caller reads and clears them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("numerics", "realization", "lqr_core", "engine", "plant", "harness")

# Spans that mark the activation sample and the closed loop around decisions.
ACTIVATION_SPANS = ("engine.offline_init", "engine.offline_init_direct")
LOOP_SPANS = ("engine.run_online", "bench.closed_loop")
PLANT_SPAN = "plant.step"

_now = time.perf_counter_ns
_cpu = time.process_time_ns


def _deepo_namespaces():
    return [mod for name, mod in sys.modules.items() if name == "deepo" or name.startswith("deepo.")]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class StepClock:
    """Stamps each ``SwitchingPlant.step`` call.

    Records ``(plant t, enter ns, exit ns, enter cpu ns, exit cpu ns)``: wall
    clock and the process's CPU time.
    """

    def __init__(self):
        self.calls: list[tuple[int, int, int, int, int]] = []
        self._patches = _Patches()

    def __enter__(self):
        from deepo.plant import SwitchingPlant

        inner = SwitchingPlant.step
        calls = self.calls

        def step(plant, u):
            t = plant.t
            enter, enter_cpu = _now(), _cpu()
            y = inner(plant, u)
            exit_cpu = _cpu()
            calls.append((t, enter, _now(), enter_cpu, exit_cpu))
            return y

        self._patches.set(SwitchingPlant, "step", step)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Tracer:
    """Span recorder wrapping the public functions of the ``deepo`` modules.

    Each span is ``[name, parent index, start ns, end ns, result]``; the
    result is kept only for ``numerics.spectral_radius`` (feasibility trials
    are judged by it).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    def _wrap(self, name, fn, keep_result=False):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            spans.append(span)
            stack.append(idx)
            span[2] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _now()
                stack.pop()
            if keep_result:
                span[4] = result
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own code."""
        span = [name, self._stack[-1] if self._stack else -1, _now(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = _now()
            self._stack.pop()

    def __enter__(self):
        namespaces = _deepo_namespaces()
        for layer in LAYERS:
            module = importlib.import_module(f"deepo.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, keep_result=name == "numerics.spectral_radius")
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        self._patches.set(ns, attr, wrapper)
        from deepo.plant import SwitchingPlant

        self._patches.set(SwitchingPlant, "step", self._wrap(PLANT_SPAN, SwitchingPlant.step))
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

