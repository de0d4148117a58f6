"""Observability overhead: the obs layer must be ~free on the hot path.

The instrumentation contract of :mod:`repro.obs` is that nothing is ever
recorded per simulated cycle: counters and spans fire per *build*, per
*estimate*, per *job* — the ``BatchSimulator`` lane loop itself carries no
obs calls.  This harness verifies the contract empirically:

* steps a ``REPRO_OBS_BENCH_LANES``-lane :class:`~repro.sim.BatchSimulator`
  for ``REPRO_OBS_BENCH_CYCLES`` cycles with observability in its default
  state (metrics on) and fully ``disable()``d, interleaved best-of-N, and
  **asserts the enabled/disabled delta stays under 2%** — the issue's
  acceptance ceiling (a hard test failure, deliberately stronger than the
  ratio-based perf gate, which skips near-zero percentages as noise);
* measures the primitive disabled-path costs — a counter ``inc()`` with the
  registry disabled and a ``span()`` with tracing off — in ns/op, to show
  even a hypothetical per-cycle call site would cost ~nothing.

The perf gate tracks this bench through its throughput metric
(``lane_cycles_per_s_enabled``); the percentages ride along as context.
Writes ``benchmarks/results/obs_overhead.txt`` and the repo-root
``BENCH_obs_overhead.json`` trajectory artifact.
"""

from __future__ import annotations

import os
import time

from conftest import write_result
from repro import obs
from repro.designs.registry import build_flat
from repro.sim import BatchSimulator

N_LANES = int(os.environ.get("REPRO_OBS_BENCH_LANES", "1024"))
N_CYCLES = int(os.environ.get("REPRO_OBS_BENCH_CYCLES", "192"))
REPEATS = int(os.environ.get("REPRO_OBS_BENCH_REPEATS", "5"))
DESIGN = os.environ.get("REPRO_OBS_BENCH_DESIGN", "HVPeakF")

#: the issue's acceptance ceiling for enabled-vs-disabled hot-path delta
MAX_OVERHEAD_PCT = 2.0


def _step_seconds(simulator: BatchSimulator) -> float:
    simulator.reset()
    start = time.perf_counter()
    simulator.step(cycles=N_CYCLES)
    return time.perf_counter() - start


def _measure_hot_path() -> dict:
    module = build_flat(DESIGN)
    simulator = BatchSimulator(module, N_LANES, kernel_backend="off")
    simulator.step(cycles=8)  # warm the program caches
    best = {"enabled": float("inf"), "disabled": float("inf")}
    try:
        # interleave the two configurations so drift (thermal, page cache)
        # hits both equally; keep each configuration's best time
        for _ in range(REPEATS):
            obs.enable(tracing=False)  # the default: metrics on, tracing off
            best["enabled"] = min(best["enabled"], _step_seconds(simulator))
            obs.disable()
            best["disabled"] = min(best["disabled"], _step_seconds(simulator))
    finally:
        obs.disable()
        obs.enable(tracing=False)  # restore the process default
    return best


def _ns_per_op(fn, n: int = 200_000) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n * 1e9


def _measure_primitives() -> dict:
    counter = obs.REGISTRY.counter("repro_obs_bench_scratch_total", "")
    try:
        obs.disable()
        disabled_inc_ns = _ns_per_op(counter.inc)
        noop_span_ns = _ns_per_op(lambda: obs.span("bench.noop").end())
    finally:
        obs.enable(tracing=False)
    return {"disabled_inc_ns": disabled_inc_ns, "noop_span_ns": noop_span_ns}


def test_obs_overhead_under_budget():
    best = _measure_hot_path()
    primitives = _measure_primitives()
    overhead_pct = (best["enabled"] - best["disabled"]) / best["disabled"] * 100.0
    lane_cycles = N_LANES * N_CYCLES
    metrics = {
        "n_lanes": N_LANES,
        "n_cycles": N_CYCLES,
        "lane_cycles_per_s_enabled": round(lane_cycles / best["enabled"], 1),
        "lane_cycles_per_s_disabled": round(lane_cycles / best["disabled"], 1),
        "obs_overhead_pct": round(overhead_pct, 3),
        "disabled_counter_inc_ns": round(primitives["disabled_inc_ns"], 1),
        "noop_span_ns": round(primitives["noop_span_ns"], 1),
    }
    table = "\n".join([
        "Observability overhead — obs enabled (default) vs disable()d",
        f"({DESIGN}: {N_LANES} lanes x {N_CYCLES} cycles, best of {REPEATS})",
        "",
        f"enabled   {best['enabled'] * 1e3:10.2f} ms "
        f"({metrics['lane_cycles_per_s_enabled']:,.0f} lane-cycles/s)",
        f"disabled  {best['disabled'] * 1e3:10.2f} ms "
        f"({metrics['lane_cycles_per_s_disabled']:,.0f} lane-cycles/s)",
        f"overhead  {overhead_pct:+10.3f} %   (budget < {MAX_OVERHEAD_PCT}%)",
        "",
        f"disabled counter.inc()  {primitives['disabled_inc_ns']:8.1f} ns/op",
        f"no-op span()            {primitives['noop_span_ns']:8.1f} ns/op",
    ])
    write_result("obs_overhead.txt", table, metrics=metrics)
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"obs-enabled hot path is {overhead_pct:.2f}% slower than disabled "
        f"(budget {MAX_OVERHEAD_PCT}%)"
    )
