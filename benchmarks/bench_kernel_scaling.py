"""Multi-core kernel scale-out: native-kernel throughput vs thread count.

The native C kernels split the lane dimension into 128-lane blocks and fan
them over OpenMP threads when the compiler accepts ``-fopenmp``; otherwise
they run serially and the thread count has no effect (see
``repro.sim.kernels.native``).  A call runs at most one worker per lane
block, so at 256 lanes a 4-thread cell runs 2 workers.  Lanes are
data-parallel and every lane block writes disjoint store columns, so any
thread count is bit-identical to the serial kernel.

Two paths are measured, because they fan out at different grains:

* ``step`` — the per-cycle path: ``settle`` and ``clock_edge``, one kernel
  call (and one fan-out) each per cycle (``BatchSimulator.step``);
* ``run`` — the fused path: one ``run`` call per stimulus segment drives,
  settles, observes and clocks each lane block (the wall time of the
  kernel calls of a spec-driven ``BatchRTLPowerEstimator.estimate_all``,
  its ``phase_s["run_s"]``).

The harness records lane-cycles/second for every design x lane count x
path x thread count (``REPRO_BENCH_SCALING_DESIGNS``/``_LANES``/``_THREADS``,
``REPRO_BENCH_SCALING_CYCLES`` cycles, best of ``REPEATS``) plus the host
core count.  ``kernel_threads="auto"`` is chosen from this table (see
``repro.sim.kernels.resolve_kernel_threads``).
Bit-identity across thread counts is asserted always; the >= 2x speedup
floor at 4 threads (vs 1 thread, >= 1024 lanes, the step path) only binds
on hosts with >= 4 cores.

Writes ``benchmarks/results/kernel_scaling.txt`` and the repo-root
``BENCH_kernel_scaling.json`` trajectory artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.designs.registry import build_flat
from repro.power import BatchRTLPowerEstimator
from repro.sim import BatchSimulator
from repro.sim.kernels import find_compiler, usable_cpu_count
from repro.sim.kernels.native import threading_mode
from repro.stim import SpecTestbench, StimulusSpec

from conftest import write_result

LANES = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_SCALING_LANES", "256,512,1024").split(",")
)
N_CYCLES = int(os.environ.get("REPRO_BENCH_SCALING_CYCLES", "256"))
THREADS = tuple(
    int(t) for t in os.environ.get("REPRO_BENCH_SCALING_THREADS", "1,2,4").split(",")
)
DESIGNS = tuple(
    os.environ.get("REPRO_BENCH_SCALING_DESIGNS", "HVPeakF,Vld,DCT").split(",")
)
REPEATS = 5
N_CORES = usable_cpu_count()

#: the speedup floor only binds where scaling is possible: a compiled
#: threaded kernel, >= 1024 lanes and enough physical cores to scale onto
ASSERT_SPEEDUP = 4 in THREADS and N_CORES >= 4 and find_compiler() is not None

#: (design, lanes, path) -> {n_threads: lane-cycles/s}
_ROWS = {}


def _native_simulator(design_name: str, n_lanes: int, n_threads: int) -> BatchSimulator:
    simulator = BatchSimulator(
        build_flat(design_name), n_lanes, kernel_backend="native",
        kernel_threads=n_threads,
    )
    if simulator.kernel_backend != "native":
        pytest.skip(f"no C compiler: native kernel unavailable "
                    f"({simulator.kernel_fallback})")
    return simulator


def _step_seconds(design_name: str, n_lanes: int, n_threads: int) -> float:
    simulator = _native_simulator(design_name, n_lanes, n_threads)
    simulator.step(cycles=8)  # warm the kernel cache and the thread pool
    best = float("inf")
    for _ in range(REPEATS):
        simulator.reset()
        start = time.perf_counter()
        simulator.step(cycles=N_CYCLES)
        best = min(best, time.perf_counter() - start)
    return best


def _run_seconds(design_name: str, n_lanes: int, n_threads: int) -> float:
    _native_simulator(design_name, n_lanes, n_threads)  # skips without a compiler
    spec = StimulusSpec(n_cycles=N_CYCLES, seed=0)
    estimator = BatchRTLPowerEstimator(
        build_flat(design_name), kernel_backend="native", kernel_threads=n_threads)
    best = float("inf")
    for _ in range(REPEATS + 1):  # the first call warms the pool
        estimator.estimate_all([SpecTestbench(spec, seed=s) for s in range(n_lanes)],
                               keep_cycle_trace=False)
        best = min(best, estimator.last_phase_s["run_s"])
    return best


def _format_table() -> str:
    lines = [
        "Native-kernel thread scaling — lane-cycles/s vs worker threads",
        f"({N_CYCLES} cycles; host: {N_CORES} core(s), pool: {threading_mode()}; "
        f"step = settle + clock_edge per cycle, run = one fused call per segment)",
        "",
        f"{'design':10s} {'lanes':>6s} {'path':>5s} "
        + " ".join(f"{f'{t} thr':>13s}" for t in THREADS)
        + f" {'best x':>7s}",
    ]
    for (name, lanes, path), row in _ROWS.items():
        cells = " ".join(f"{row[t]:>13,.0f}" for t in THREADS)
        best = max(row[t] / row[THREADS[0]] for t in THREADS)
        lines.append(f"{name:10s} {lanes:>6d} {path:>5s} {cells} {best:>6.2f}x")
    return "\n".join(lines)


def _metrics() -> dict:
    metrics = {
        "n_cycles": N_CYCLES,
        "host_cores": N_CORES,
        "threading_mode": threading_mode(),
    }
    for (name, lanes, path), row in _ROWS.items():
        for t in THREADS:
            metrics[f"lane_cycles_per_s_{name}_{path}_{lanes}l_{t}thr"] = round(row[t], 1)
    return metrics


@pytest.mark.parametrize("n_lanes", LANES)
@pytest.mark.parametrize("design_name", DESIGNS)
def test_kernel_thread_scaling(design_name, n_lanes):
    for path, seconds in (("step", _step_seconds), ("run", _run_seconds)):
        _ROWS[design_name, n_lanes, path] = row = {
            t: n_lanes * N_CYCLES / seconds(design_name, n_lanes, t) for t in THREADS
        }
        # every cell updates the trajectory artifact, so partial runs still
        # leave a complete summary behind
        write_result("kernel_scaling.txt", _format_table(), metrics=_metrics(),
                     bench_name="kernel_scaling")
        if ASSERT_SPEEDUP and path == "step" and n_lanes >= 1024:
            assert row[4] >= 2.0 * row[THREADS[0]], (
                f"{design_name}: 4-thread native kernel below the 2x floor on a "
                f"{N_CORES}-core host ({row[4]:,.0f} vs {row[THREADS[0]]:,.0f} "
                f"lane-cycles/s)"
            )


@pytest.mark.parametrize("design_name", DESIGNS)
def test_kernel_thread_bit_identity(design_name):
    """Any thread count leaves a bit-identical value store."""
    n_lanes = max(LANES)
    stores = {}
    for n_threads in THREADS:
        simulator = _native_simulator(design_name, n_lanes, n_threads)
        simulator.reset()
        simulator.step(cycles=32)
        stores[n_threads] = simulator._v.copy()
    reference = stores[THREADS[0]]
    for n_threads in THREADS[1:]:
        assert np.array_equal(reference, stores[n_threads]), (
            f"{design_name}: {n_threads}-thread store differs from "
            f"{THREADS[0]}-thread store"
        )
