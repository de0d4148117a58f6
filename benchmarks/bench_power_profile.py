"""Windowed power-profile overhead: telemetry must be ~free on the hot path.

The profiling contract of :mod:`repro.power.profile` on the batch lane
path is that the collector adds **no per-cycle Python work**: per-component
energies accumulate into one ``(n_components, n_lanes)`` matrix exactly as
before, and the collector commits snapshot deltas at window boundaries
only.  This harness verifies the contract empirically:

* runs a ``REPRO_PROFILE_BENCH_LANES``-lane
  :class:`~repro.power.lane_estimator.BatchRTLPowerEstimator` for
  ``REPRO_PROFILE_BENCH_CYCLES`` cycles with profiling off and with the
  default :class:`~repro.power.profile.ProfileConfig`, interleaved
  best-of-N, and **asserts the profiled run stays under 5% slower** — the
  issue's acceptance ceiling (a hard test failure, deliberately stronger
  than the ratio-based perf gate);
* checks the profiled run actually produced per-lane profiles whose sums
  match the reports (telemetry that dropped data would be "fast" for the
  wrong reason).

The perf gate tracks this bench through its throughput metric
(``lane_cycles_per_s_profiled``); the overhead percentage rides along as
context.  Writes ``benchmarks/results/power_profile.txt`` and the
repo-root ``BENCH_power_profile.json`` trajectory artifact.
"""

from __future__ import annotations

import os
import time

from conftest import write_result
from repro.designs import get_design
from repro.power import BatchRTLPowerEstimator, ProfileConfig

N_LANES = int(os.environ.get("REPRO_PROFILE_BENCH_LANES", "256"))
N_CYCLES = int(os.environ.get("REPRO_PROFILE_BENCH_CYCLES", "384"))
REPEATS = int(os.environ.get("REPRO_PROFILE_BENCH_REPEATS", "5"))
DESIGN = os.environ.get("REPRO_PROFILE_BENCH_DESIGN", "HVPeakF")

#: the issue's acceptance ceiling for profiled-vs-off hot-path delta
MAX_OVERHEAD_PCT = 5.0


def _estimate_seconds(estimator, entry, profile):
    testbenches = [entry.make_testbench(seed) for seed in range(N_LANES)]
    start = time.perf_counter()
    estimator.estimate_all(
        testbenches, max_cycles=N_CYCLES, keep_cycle_trace=False,
        profile=profile,
    )
    return time.perf_counter() - start


def test_power_profile_overhead_under_budget():
    entry = get_design(DESIGN)
    estimator = BatchRTLPowerEstimator(entry.build(), kernel_backend="off")
    # warm the program caches
    estimator.estimate_all(
        [entry.make_testbench(0)], max_cycles=8, keep_cycle_trace=False
    )
    best = {"off": float("inf"), "profiled": float("inf")}
    # interleave the two configurations so drift (thermal, page cache)
    # hits both equally; keep each configuration's best time
    for _ in range(REPEATS):
        best["off"] = min(best["off"], _estimate_seconds(estimator, entry, None))
        best["profiled"] = min(
            best["profiled"],
            _estimate_seconds(estimator, entry, ProfileConfig()),
        )
    # the timed profiled run's telemetry is real: per-lane window sums
    # reproduce each lane's reported total energy
    profiles = estimator.last_profiles
    assert profiles is not None and len(profiles) == N_LANES
    reports = estimator.estimate_all(
        [entry.make_testbench(seed) for seed in range(N_LANES)],
        max_cycles=N_CYCLES, keep_cycle_trace=False, profile=ProfileConfig(),
    )
    for report, profile in zip(reports, estimator.last_profiles):
        assert abs(profile.total_energy_fj() - report.total_energy_fj) <= (
            1e-9 * max(report.total_energy_fj, 1.0)
        )

    overhead_pct = (best["profiled"] - best["off"]) / best["off"] * 100.0
    lane_cycles = N_LANES * N_CYCLES
    metrics = {
        "n_lanes": N_LANES,
        "n_cycles": N_CYCLES,
        "lane_cycles_per_s_off": round(lane_cycles / best["off"], 1),
        "lane_cycles_per_s_profiled": round(lane_cycles / best["profiled"], 1),
        "power_profile_overhead_pct": round(overhead_pct, 3),
        "n_windows": profiles[0].n_windows,
        "window_cycles": profiles[0].window_cycles,
    }
    table = "\n".join([
        "Power-profile overhead — profiling off vs default ProfileConfig",
        f"({DESIGN}: {N_LANES} lanes x {N_CYCLES} cycles, best of {REPEATS})",
        "",
        f"off       {best['off'] * 1e3:10.2f} ms "
        f"({metrics['lane_cycles_per_s_off']:,.0f} lane-cycles/s)",
        f"profiled  {best['profiled'] * 1e3:10.2f} ms "
        f"({metrics['lane_cycles_per_s_profiled']:,.0f} lane-cycles/s)",
        f"overhead  {overhead_pct:+10.3f} %   (budget < {MAX_OVERHEAD_PCT}%)",
        "",
        f"profile   {metrics['n_windows']} windows x "
        f"{metrics['window_cycles']} cycles per lane, "
        f"{len(profiles[0].component_names)} components",
    ])
    write_result("power_profile.txt", table, metrics=metrics)
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"profiled batch hot path is {overhead_pct:.2f}% slower than "
        f"profiling off (budget {MAX_OVERHEAD_PCT}%)"
    )
