"""Per-layer self time for the traced benchmark run.

The traced run (``--trace 1``) wraps the entry points of every layer of the
estimation stack with a timer, at class level and only inside the measuring
process.  Each wrapped call adds its *self time* (its duration minus the
time spent in wrapped calls it made) to its layer, so layer totals never
overlap; ``wall - sum(layers)`` is the time outside every layer (the
benchmark loop, asyncio scheduling, the serve coalescing window).  Native
code (NumPy, the C lane kernels) counts toward the layer that called it.

Timers, not a stack sampler: a sampling thread only gets the interpreter
lock when the measured thread releases it, which NumPy and the C kernels do
constantly and pure-Python testbench code never does, so samples pile up in
the observer and the testbench layer reads zero.  A timer costs about a
microsecond per call instead, which matters on the testbench layer (three
calls of a few microseconds per lane-cycle).  :meth:`LayerTracer.calibrate`
measures that cost on a no-op, and :meth:`LayerTracer.self_s` subtracts it
per call: the part inside a timer from the called layer, the part outside
from the calling one.  ``traced_lane_cycles_per_s`` against the untraced
run shows what the timers cost.

Spans are aggregated per thread, not recorded one by one: a buffered span
per testbench call would cost more than the work it measures.  A target
that does not exist (a layer refactored away or renamed) is skipped, so its
layer reads zero instead of breaking the run.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import types
from threading import get_ident
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

#: layer names in report order; "other" is the time outside every layer
LAYERS: Tuple[str, ...] = (
    "api", "build", "loop", "testbench", "kernel", "observe", "report",
)

#: (module, class, methods, layer) — the entry points of each layer
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    # the public entry points: spec checks, testbench construction, results
    ("repro.api.estimators", "RTLEstimatorAdapter",
     ("estimate", "estimate_many", "warm"), "api"),
    # building simulators, lane programs, kernels and observers
    ("repro.sim.batch", "BatchSimulator", ("__init__",), "build"),
    ("repro.sim.engine", "Simulator", ("__init__",), "build"),
    ("repro.power.rtl_estimator", "RTLPowerEstimator", ("__init__",), "build"),
    ("repro.power.lane_estimator", "_MacromodelObserver", ("__init__",), "build"),
    # the estimators' cycle loops: per-lane dispatch, budgets, bookkeeping
    ("repro.power.lane_estimator", "BatchRTLPowerEstimator", ("estimate_all",), "loop"),
    ("repro.power.rtl_estimator", "RTLPowerEstimator", ("estimate",), "loop"),
    ("repro.sim.engine", "Simulator", ("run",), "loop"),
    # testbenches: building registry testbenches (inputs and golden
    # outputs), the array driver of spec-backed lanes, and the testbench
    # methods (TESTBENCH_METHODS, wrapped per workload)
    ("repro.designs.registry", "BenchmarkDesign", ("make_testbench",), "testbench"),
    ("repro.stim.driver", "BatchStimulusDriver", ("__init__", "apply"), "testbench"),
    # the simulation kernel: combinational settle and the clock edge
    ("repro.sim.batch", "BatchSimulator", ("settle", "clock_edge"), "kernel"),
    ("repro.sim.engine", "Simulator", ("settle", "clock_edge"), "kernel"),
    # per-cycle power macromodel observation
    ("repro.power.lane_estimator", "_MacromodelObserver", ("observe",), "observe"),
    ("repro.power.rtl_estimator", "_MacromodelObserver", ("on_cycle",), "observe"),
    # power reports and results
    ("repro.power.lane_estimator", "BatchRTLPowerEstimator",
     ("_build_lane_report",), "report"),
    ("repro.power.rtl_estimator", "RTLPowerEstimator", ("_build_report",), "report"),
    ("repro.api.estimators", "_EngineAdapter", ("_finish",), "report"),
)

#: testbench methods wrapped on the workload's testbench classes
TESTBENCH_METHODS: Tuple[str, ...] = ("bind", "drive", "check", "finished")


class _ThreadTotals:
    """One thread's open-call stack and counters (only it writes them)."""

    __slots__ = ("stack", "self_s", "calls", "children", "testbench_calls")

    def __init__(self) -> None:
        #: open calls, innermost last: [time in wrapped callees, layer]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: wrapped calls per layer
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: wrapped calls made *from* each layer
        self.children: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.testbench_calls = 0


class LayerTracer:
    """Class-level timing wrappers plus per-layer self-time totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: thread ident -> that thread's totals
        self._threads: Dict[int, _ThreadTotals] = {}
        self._installed: List[Tuple[type, str, object]] = []
        #: timer cost per call charged to the called / the calling layer
        self.inside_s = 0.0
        self.outside_s = 0.0

    # ------------------------------------------------------------ results
    def _sum(self, field: str, keys: Iterable[str]) -> Dict[str, float]:
        with self._lock:
            totals = list(self._threads.values())
        return {k: sum(getattr(t, field)[k] for t in totals) for k in keys}

    def self_s(self) -> Dict[str, float]:
        """Self time per layer, with the timers' own cost taken out."""
        raw = self._sum("self_s", LAYERS)
        calls = self._sum("calls", LAYERS)
        children = self._sum("children", LAYERS)
        return {
            layer: max(0.0, raw[layer] - calls[layer] * self.inside_s
                       - children[layer] * self.outside_s)
            for layer in LAYERS
        }

    def overhead_s(self) -> float:
        """Total time the timers added to the traced calls."""
        calls = sum(self._sum("calls", LAYERS).values())
        return calls * (self.inside_s + self.outside_s)

    def testbench_calls(self) -> int:
        with self._lock:
            return sum(t.testbench_calls for t in self._threads.values())

    def reset(self) -> None:
        with self._lock:
            self._threads.clear()

    def _this_thread(self) -> _ThreadTotals:
        with self._lock:
            return self._threads.setdefault(get_ident(), _ThreadTotals())

    # ------------------------------------------------------------ wrapping
    def install(self, testbench_classes: Iterable[type] = ()) -> None:
        for module_name, class_name, methods, layer in TARGETS:
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                continue
            for method in methods:
                self._wrap(owner, method, layer, counts_testbench=False)
        for owner in testbench_classes:
            for method in TESTBENCH_METHODS:
                self._wrap(owner, method, "testbench", counts_testbench=True)

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._installed):
            if original is None:
                delattr(owner, method)
            else:
                setattr(owner, method, original)
        self._installed.clear()

    def calibrate(self, n: int = 20000) -> None:
        """Measure the per-call timer cost on a wrapped no-op."""

        class Probe:
            def noop(self):
                return None

        probe = Probe()
        bare = _time_calls(probe.noop, n)
        self._wrap(Probe, "noop", "api", counts_testbench=False)
        self.reset()
        wrapped = _time_calls(probe.noop, n)
        totals = self._this_thread()
        inside = totals.self_s["api"] / totals.calls["api"]
        self.reset()
        self.inside_s = inside
        self.outside_s = max(0.0, wrapped - bare - inside)

    def _wrap(self, owner: type, method: str, layer: str,
              counts_testbench: bool) -> None:
        try:
            fn = inspect.getattr_static(owner, method)
        except AttributeError:
            return
        if not isinstance(fn, types.FunctionType):
            return  # static/class methods and slot wrappers stay untimed
        threads = self._threads
        this_thread = self._this_thread

        def timed(*args, **kwargs):
            totals = threads.get(get_ident()) or this_thread()
            stack = totals.stack
            parent = stack[-1] if stack else None
            entry = [0.0, layer]
            stack.append(entry)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                totals.self_s[layer] += elapsed - entry[0]
                totals.calls[layer] += 1
                if parent is not None:
                    parent[0] += elapsed
                    totals.children[parent[1]] += 1
                if counts_testbench:
                    totals.testbench_calls += 1

        timed.__name__ = fn.__name__
        timed.__qualname__ = fn.__qualname__
        self._installed.append((owner, method, owner.__dict__.get(method)))
        setattr(owner, method, timed)


def _time_calls(fn, n: int) -> float:
    """Mean seconds per call of ``fn()`` over ``n`` calls (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (perf_counter() - start) / n)
    return best
