"""Stimulus driving throughput: array driver vs per-lane LaneView loop.

The per-lane Python drive loop is the piece ROADMAP.md named as bounding
lane-sweep speedup at low lane counts: every cycle it calls ``drive()`` once
per lane, walks the returned dict, masks and writes each value — ``O(n_lanes
× n_ports)`` interpreter work before any simulation happens.  Spec-backed
testbenches compile into chunked lane tensors instead
(:mod:`repro.stim.compile`) and the lane power estimator writes them as one
NumPy row per port per cycle, independent of lane count.

This harness runs the *same* :class:`~repro.stim.testbench.SpecTestbench`
set through :class:`~repro.power.lane_estimator.BatchRTLPowerEstimator`
twice — ``use_array_driver=True`` vs ``False`` — so the simulation and
macromodel work is identical and only the drive path differs.  Results are
exactly equal either way (asserted); the acceptance floor is that the array
driver wins at *low* lane counts (≤ 32 lanes), where the old loop's
per-lane overhead used to be amortized worst.

It also times stimulus generation alone: ``CompiledStimulus(...).tensor()``
at 256 lanes for each port kind, driving every input of the design, reported
as ``<kind>_lane_cycles_per_s``.

Writes ``benchmarks/results/stimulus_throughput.txt`` and the repo-root
``BENCH_stimulus.json`` trajectory artifact.  ``REPRO_BENCH_STIM_CYCLES``
overrides the driver workload length (CI smoke runs use a small value); the
per-kind runs always generate 256 cycles, so their rates compare across
runs whatever the driver length.
"""

from __future__ import annotations

import os
import time

from repro.designs.registry import build_flat, get_design
from repro.power import build_seed_library
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.stim import (
    BurstSpec,
    CompiledStimulus,
    ConstantSpec,
    MarkovSpec,
    MixtureSpec,
    ReplaySpec,
    SpecTestbench,
    StimulusSpec,
    UniformSpec,
)

from conftest import write_result

N_CYCLES = int(os.environ.get("REPRO_BENCH_STIM_CYCLES", "384"))
DESIGN = "HVPeakF"
LANE_COUNTS = (8, 16, 32)
KIND_LANES = 256
KIND_CYCLES = 256
KINDS = {
    "uniform": UniformSpec(),
    "constant": ConstantSpec(1),
    "burst": BurstSpec(active=3, idle=5, hold=2, phase=1),
    "markov": MarkovSpec(p01=0.2, p10=0.3),
    "mixture": MixtureSpec(
        components=((0.7, UniformSpec(hold=2)), (0.3, BurstSpec(active=3, idle=3))),
    ),
    "replay": ReplaySpec(values=tuple(range(100)), repeat=True),
}


def _testbenches(spec, n_lanes):
    return [SpecTestbench(spec, seed=seed) for seed in range(n_lanes)]


def _time_path(estimator, spec, n_lanes, use_array_driver):
    best = float("inf")
    reports = None
    for _ in range(3):
        start = time.perf_counter()
        reports = estimator.estimate_all(
            _testbenches(spec, n_lanes),
            keep_cycle_trace=False,
            use_array_driver=use_array_driver,
        )
        best = min(best, time.perf_counter() - start)
    return best, reports


def _kind_rates():
    """Lane-cycles/s of generating each kind's full stimulus tensor (best of 3)."""
    ports = build_flat(DESIGN).ports
    widths = {name: port.width for name, port in ports.items() if port.is_input}
    rates = {}
    for kind, port_spec in KINDS.items():
        spec = StimulusSpec(n_cycles=KIND_CYCLES, default=port_spec)
        seeds = range(KIND_LANES)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            CompiledStimulus(spec, widths, seeds).tensor()
            best = min(best, time.perf_counter() - start)
        rates[kind] = KIND_LANES * KIND_CYCLES / best
    return rates


def test_stimulus_driver_throughput(benchmark):
    spec = get_design(DESIGN).make_stimulus_spec().replace(n_cycles=N_CYCLES)
    estimator = BatchRTLPowerEstimator(build_flat(DESIGN), library=build_seed_library())
    # warm the batch compilation and stimulus machinery once
    estimator.estimate_all(_testbenches(spec.replace(n_cycles=8), 2))

    rows = {}
    for n_lanes in LANE_COUNTS:
        t_array, array_reports = _time_path(estimator, spec, n_lanes, True)
        t_loop, loop_reports = _time_path(estimator, spec, n_lanes, False)
        # identical lane machinery, identical streams: exactly equal results
        for a, b in zip(array_reports, loop_reports):
            assert a.total_energy_fj == b.total_energy_fj
            assert a.cycles == b.cycles
        rows[n_lanes] = {
            "array_s": t_array,
            "laneview_s": t_loop,
            "array_lane_cycles_per_s": n_lanes * N_CYCLES / t_array,
            "laneview_lane_cycles_per_s": n_lanes * N_CYCLES / t_loop,
            "speedup": t_loop / t_array,
        }

    kind_rates = _kind_rates()

    benchmark.pedantic(
        lambda: estimator.estimate_all(
            _testbenches(spec, LANE_COUNTS[-1]), keep_cycle_trace=False
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {f"speedup_{n}_lanes": round(row["speedup"], 2) for n, row in rows.items()}
    )

    lines = [
        f"Stimulus driving throughput — array driver vs per-lane LaneView loop",
        f"({DESIGN}, {N_CYCLES}-cycle spec stimulus; identical per-lane reports)",
        "",
        f"{'lanes':>5s} {'loop lane-cyc/s':>16s} {'array lane-cyc/s':>17s} {'speedup':>9s}",
    ]
    for n_lanes, row in rows.items():
        lines.append(
            f"{n_lanes:5d} {row['laneview_lane_cycles_per_s']:16,.0f} "
            f"{row['array_lane_cycles_per_s']:17,.0f} {row['speedup']:8.2f}x"
        )
    lines += [
        "",
        f"Stimulus generation alone — CompiledStimulus.tensor(), {KIND_LANES} lanes "
        f"x {KIND_CYCLES} cycles, every input on one kind",
        "",
        f"{'kind':>8s} {'lane-cyc/s':>14s}",
    ]
    lines += [f"{kind:>8s} {rate:14,.0f}" for kind, rate in kind_rates.items()]
    write_result(
        "stimulus_throughput.txt",
        "\n".join(lines),
        metrics={
            "design": DESIGN,
            "n_cycles": N_CYCLES,
            **{f"speedup_{n}_lanes": round(r["speedup"], 2) for n, r in rows.items()},
            "n_kind_lanes": KIND_LANES,
            "n_kind_cycles": KIND_CYCLES,
            **{f"{kind}_lane_cycles_per_s": round(r) for kind, r in kind_rates.items()},
        },
        bench_name="stimulus",
    )

    # acceptance: the array driver beats the per-lane loop at every low lane
    # count (the regime the ROADMAP called out)
    for n_lanes, row in rows.items():
        assert row["speedup"] > 1.0, (
            f"array driver slower than the LaneView loop at {n_lanes} lanes: "
            f"{row['speedup']:.2f}x"
        )
