"""Multi-core kernel scale-out: native-kernel throughput vs thread count.

The native C kernels split the lane dimension into blocks and fan the settle
and clock-edge loops over a persistent thread pool (OpenMP when the
toolchain supports it, a hand-rolled pthread pool otherwise — see
``repro.sim.kernels.native``).  Lanes are data-parallel and every lane block
writes disjoint store columns, so any thread count is bit-identical to the
serial kernel.

This harness steps designs for ``REPRO_BENCH_SCALING_CYCLES`` cycles at a
``REPRO_BENCH_SCALING_LANES`` x ``REPRO_BENCH_SCALING_THREADS`` matrix and
records lane-cycles/second per cell, plus the host core count the numbers
were measured on.  Bit-identity across thread counts is asserted always;
the >= 2x speedup floor at 4 threads (vs 1 thread, >= 1024 lanes, a Fig. 3
design) only binds on hosts with >= 4 physical cores — single-core CI
runners still measure and record the matrix, they just cannot exhibit
parallel speedup.

Writes ``benchmarks/results/kernel_scaling.txt`` and the repo-root
``BENCH_kernel_scaling.json`` trajectory artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.designs.registry import build_flat
from repro.sim import BatchSimulator
from repro.sim.kernels import find_compiler, usable_cpu_count
from repro.sim.kernels.native import threading_mode

from conftest import write_result

N_LANES = int(os.environ.get("REPRO_BENCH_SCALING_LANES", "1024"))
N_CYCLES = int(os.environ.get("REPRO_BENCH_SCALING_CYCLES", "192"))
THREADS = tuple(
    int(t) for t in os.environ.get("REPRO_BENCH_SCALING_THREADS", "1,2,4").split(",")
)
DESIGNS = tuple(
    os.environ.get("REPRO_BENCH_SCALING_DESIGNS", "Bubble_Sort,HVPeakF").split(",")
)
N_CORES = usable_cpu_count()

#: the speedup floor only binds in the regime the issue names: a compiled
#: threaded kernel, >= 1024 lanes and enough physical cores to scale onto
ASSERT_SPEEDUP = (
    N_LANES >= 1024 and 4 in THREADS and N_CORES >= 4 and find_compiler() is not None
)

#: design -> {n_threads: lane-cycles/s}
_ROWS = {}


def _native_simulator(design_name: str, n_threads: int) -> BatchSimulator:
    module = build_flat(design_name)
    simulator = BatchSimulator(
        module, N_LANES, kernel_backend="native", kernel_threads=n_threads
    )
    if simulator.kernel_backend != "native":
        pytest.skip(f"no C compiler: native kernel unavailable "
                    f"({simulator.kernel_fallback})")
    return simulator


def _lane_cycles_per_s(design_name: str, n_threads: int) -> float:
    simulator = _native_simulator(design_name, n_threads)
    simulator.step(cycles=8)  # warm the kernel cache and the thread pool
    best = float("inf")
    for _ in range(3):
        simulator.reset()
        start = time.perf_counter()
        simulator.step(cycles=N_CYCLES)
        best = min(best, time.perf_counter() - start)
    return N_LANES * N_CYCLES / best


def _format_table() -> str:
    lines = [
        "Native-kernel thread scaling — lane-cycles/s vs worker threads",
        f"({N_LANES} lanes x {N_CYCLES} cycles; host: {N_CORES} core(s), "
        f"pool: {threading_mode() or 'n/a'})",
        "",
        f"{'design':16s} " + " ".join(f"{f'{t} thr':>14s}" for t in THREADS)
        + f" {'best x':>8s}",
    ]
    for name, row in _ROWS.items():
        cells = " ".join(f"{row[t]:>14,.0f}" for t in THREADS)
        best = max(row[t] / row[THREADS[0]] for t in THREADS)
        lines.append(f"{name:16s} {cells} {best:>7.2f}x")
    return "\n".join(lines)


def _metrics() -> dict:
    metrics = {
        "n_lanes": N_LANES,
        "n_cycles": N_CYCLES,
        "host_cores": N_CORES,
        "threading_mode": threading_mode() or "n/a",
    }
    for name, row in _ROWS.items():
        metrics[f"lane_cycles_per_s_{name}_1thr"] = round(row[THREADS[0]], 1)
        for t in THREADS[1:]:
            metrics[f"speedup_{name}_{t}thr"] = round(row[t] / row[THREADS[0]], 2)
    return metrics


@pytest.mark.parametrize("design_name", DESIGNS)
def test_kernel_thread_scaling(benchmark, design_name):
    row = {t: _lane_cycles_per_s(design_name, t) for t in THREADS}
    _ROWS[design_name] = row

    benchmark.pedantic(
        lambda: _lane_cycles_per_s(design_name, THREADS[-1]), rounds=1, iterations=1
    )
    benchmark.extra_info.update({
        "host_cores": N_CORES,
        **{f"speedup_{t}thr": round(row[t] / row[THREADS[0]], 2)
           for t in THREADS[1:]},
    })
    # every design updates the trajectory artifact, so partial runs still
    # leave a complete summary behind
    write_result("kernel_scaling.txt", _format_table(), metrics=_metrics(),
                 bench_name="kernel_scaling")

    if ASSERT_SPEEDUP:
        assert row[4] >= 2.0 * row[THREADS[0]], (
            f"{design_name}: 4-thread native kernel below the 2x floor on a "
            f"{N_CORES}-core host ({row[4]:,.0f} vs {row[THREADS[0]]:,.0f} "
            f"lane-cycles/s)"
        )


@pytest.mark.parametrize("design_name", DESIGNS)
def test_kernel_thread_bit_identity(design_name):
    """Any thread count leaves a bit-identical value store."""
    stores = {}
    for n_threads in THREADS:
        simulator = _native_simulator(design_name, n_threads)
        simulator.reset()
        simulator.step(cycles=32)
        stores[n_threads] = simulator._v.copy()
    reference = stores[THREADS[0]]
    for n_threads in THREADS[1:]:
        assert np.array_equal(reference, stores[n_threads]), (
            f"{design_name}: {n_threads}-thread store differs from "
            f"{THREADS[0]}-thread store"
        )
