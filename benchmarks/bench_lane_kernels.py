"""Lane-kernel throughput: the native C kernel vs the per-op NumPy batch path.

The batch backend's per-cycle cost is NumPy per-op dispatch — ~1 µs per
fused expression per cycle, independent of lane count.  The kernel subsystem
(:mod:`repro.sim.kernels`) collapses each module's settle and clock-edge
phases into one call each: a C per-lane loop compiled via cffi (``native``).

This harness steps Fig. 3 designs for ``REPRO_BENCH_KERNEL_CYCLES`` cycles
at ``REPRO_BENCH_KERNEL_LANES`` lanes and measures simulated
lane-cycles/second for ``off`` (the per-op batch path) and ``native``.  It
also runs the multi-seed power estimator — spec-driven stimulus tensors,
vectorized macromodel observation — on both backends and asserts the
reports are bit-identical.

Acceptance (at >= 1024 lanes, C compiler available): the native kernel
reaches >= 3x lane-cycles/sec over the per-op batch path on the measured
Fig. 3 designs.  Writes ``benchmarks/results/lane_kernels.txt`` and the
repo-root ``BENCH_lane_kernels.json`` trajectory artifact.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.designs.registry import build_flat, get_design
from repro.power import build_seed_library
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.sim import BatchSimulator
from repro.sim.kernels import find_compiler
from repro.stim import SpecTestbench

from conftest import write_result

N_LANES = int(os.environ.get("REPRO_BENCH_KERNEL_LANES", "1024"))
N_CYCLES = int(os.environ.get("REPRO_BENCH_KERNEL_CYCLES", "256"))
DESIGNS = tuple(
    os.environ.get("REPRO_BENCH_KERNEL_DESIGNS", "Bubble_Sort,HVPeakF,DCT").split(",")
)
BACKENDS = ("off", "native")

#: the acceptance floor only binds in the regime the issue names
ASSERT_SPEEDUP = N_LANES >= 1024 and find_compiler() is not None

#: design -> {backend: lane-cycles/s}
_ROWS = {}


def _lane_cycles_per_s(design_name: str, backend: str) -> float:
    module = build_flat(design_name)
    simulator = BatchSimulator(module, N_LANES, kernel_backend=backend)
    if backend == "native" and simulator.kernel_backend != "native":
        pytest.skip("no C compiler: native kernel unavailable")
    simulator.step(cycles=8)  # warm the kernel caches
    best = float("inf")
    for _ in range(3):
        simulator.reset()
        start = time.perf_counter()
        simulator.step(cycles=N_CYCLES)
        best = min(best, time.perf_counter() - start)
    return N_LANES * N_CYCLES / best


def _format_table() -> str:
    lines = [
        "Lane-kernel throughput — native C kernel vs per-op NumPy batch path",
        f"({N_LANES} lanes x {N_CYCLES} simulated cycles per backend)",
        "",
        f"{'design':16s} {'batch lc/s':>12s} {'native':>12s} {'native x':>9s}",
    ]
    for name, row in _ROWS.items():
        native = row.get("native")
        native_lcs = "{:,.0f}".format(native) if native else "n/a"
        native_speedup = "{:.2f}x".format(native / row["off"]) if native else "n/a"
        lines.append(
            f"{name:16s} {row['off']:>12,.0f} {native_lcs:>12s} "
            f"{native_speedup:>9s}"
        )
    return "\n".join(lines)


def _metrics() -> dict:
    metrics = {"n_lanes": N_LANES, "n_cycles": N_CYCLES}
    for name, row in _ROWS.items():
        metrics[f"lane_cycles_per_s_{name}_off"] = round(row["off"], 1)
        if row.get("native"):
            metrics[f"speedup_native_{name}"] = round(row["native"] / row["off"], 2)
    return metrics


@pytest.mark.parametrize("design_name", DESIGNS)
def test_lane_kernel_throughput(benchmark, design_name):
    row = {"off": _lane_cycles_per_s(design_name, "off")}
    if find_compiler() is not None:
        row["native"] = _lane_cycles_per_s(design_name, "native")
    _ROWS[design_name] = row

    benchmark.pedantic(
        lambda: _lane_cycles_per_s(design_name, "off"), rounds=1, iterations=1
    )
    benchmark.extra_info.update({
        "lane_cycles_per_s_off": round(row["off"], 1),
        **(
            {"speedup_native": round(row["native"] / row["off"], 2)}
            if row.get("native")
            else {}
        ),
    })
    # every design updates the trajectory artifact, so partial runs (CI
    # smoke, -k selections) still leave a complete summary behind
    write_result("lane_kernels.txt", _format_table(), metrics=_metrics(),
                 bench_name="lane_kernels")

    if ASSERT_SPEEDUP and row.get("native"):
        assert row["native"] >= 3.0 * row["off"], (
            f"{design_name}: native kernel below the 3x floor "
            f"({row['native']:,.0f} vs {row['off']:,.0f} lane-cycles/s)"
        )


def test_lane_kernel_reports_bit_identical():
    """Multi-seed power estimation: identical reports on every backend."""
    library = build_seed_library()
    spec = get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=64)
    per_backend = {}
    for backend in BACKENDS:
        estimator = BatchRTLPowerEstimator(
            build_flat("HVPeakF"), library=library, kernel_backend=backend
        )
        per_backend[backend] = estimator.estimate_all(
            [SpecTestbench(spec, seed=seed) for seed in range(8)],
            keep_cycle_trace=True,
        )
    reference = per_backend["off"]
    for expected, actual in zip(reference, per_backend["native"]):
        assert expected.total_energy_fj == actual.total_energy_fj
        assert expected.cycles == actual.cycles
        assert expected.cycle_energy_fj == actual.cycle_energy_fj
