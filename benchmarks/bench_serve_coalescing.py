"""Serving throughput: request coalescing vs serial job submission.

N concurrent clients submit compatible RunSpecs to a :class:`PowerServer`;
the coalescer merges every burst into one shared BatchRTLPowerEstimator
lane block — one lane-program compile, one kernel build, one settle per
cycle for the whole burst.  The baseline is the same jobs *without*
coalescing: submitted to the same server one at a time, so every job is
its own drain (dispatched as soon as the loop goes quiet, with no window
to wait out), its own lane run and its own per-cycle settle loop.  The
concurrent/serial ratio is therefore exactly the work the coalescer
amortizes.

Measures jobs/s and the per-burst compile counts at 1, 8 and 32 concurrent
clients.  Each level first runs cold (lane programs dropped — the compile
counters show the burst shared exactly one program + kernel build), then
warm (steady-state jobs/s).  A plain serial ``repro.api.estimate`` loop is
reported as a reference line.  Writes
``benchmarks/results/serve_coalescing.txt`` and the repo-root
``BENCH_serve_coalescing.json`` perf-trajectory artifact.

``REPRO_BENCH_SERVE_LEVELS`` overrides the concurrency levels (CI smoke
runs use a smaller set).
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.api import RunSpec, estimate
from repro.serve import Client, PowerServer, build_counts
from repro.sim import batch

from conftest import write_result

DESIGN = "binary_search"
LEVELS = tuple(
    int(level)
    for level in os.environ.get("REPRO_BENCH_SERVE_LEVELS", "1,8,32").split(",")
)
BASELINE_N = 8
WINDOW_S = 0.02


def _spec(seed: int) -> RunSpec:
    # the native kernel, named explicitly: every burst must show exactly one
    # kernel build whatever REPRO_KERNEL_BACKEND says
    return RunSpec(design=DESIGN, seed=seed, kernel_backend="native")


async def _concurrent_burst(
    server: PowerServer, n_clients: int, seed0: int = 0
):
    """One burst of n compatible jobs from concurrent clients, timed."""
    specs = [_spec(seed0 + seed) for seed in range(n_clients)]
    before = build_counts()
    start = time.perf_counter()
    results = await Client(server).estimate_all(specs)
    elapsed = time.perf_counter() - start
    after = build_counts()
    assert len(results) == n_clients
    return elapsed, {key: after[key] - before[key] for key in before}


def _measure_level(n_clients: int) -> dict:
    async def go():
        async with PowerServer(coalesce_window_s=WINDOW_S) as server:
            batch._BATCH_CACHE.clear()  # the cold burst pays (and counts)
            _, built = await _concurrent_burst(server, n_clients)
            # fresh seeds: the warm burst simulates (no result-cache hits)
            # on warm programs — steady-state serving
            elapsed, _ = await _concurrent_burst(
                server, n_clients, seed0=1000
            )
            assert server.n_cache_hits == 0
            return elapsed, built

    elapsed, built = asyncio.run(go())
    return {
        "n_clients": n_clients,
        "elapsed_s": elapsed,
        "jobs_per_s": n_clients / elapsed,
        "program_builds": built["program_builds"],
        "kernel_builds": built["kernel_builds"],
    }


def _measure_serial_submission() -> float:
    """The no-coalescing baseline: the same jobs submitted one at a time."""

    async def go():
        async with PowerServer(coalesce_window_s=WINDOW_S) as server:
            client = Client(server)
            # warm the singleton lane program with a seed outside the run
            await client.estimate(_spec(999))
            start = time.perf_counter()
            for seed in range(BASELINE_N):
                await client.estimate(_spec(seed))
            elapsed = time.perf_counter() - start
            assert server.n_cache_hits == 0
            return elapsed

    return asyncio.run(go())


def test_serve_coalescing_throughput(benchmark):
    serial_s = _measure_serial_submission()
    serial_jobs_per_s = BASELINE_N / serial_s

    # reference: the clients skipping the server entirely (warm scalar loop)
    estimate(_spec(0))
    start = time.perf_counter()
    for seed in range(BASELINE_N):
        estimate(_spec(seed))
    standalone_jobs_per_s = BASELINE_N / (time.perf_counter() - start)

    rows = [_measure_level(level) for level in LEVELS]
    benchmark.pedantic(lambda: _measure_level(8), rounds=1, iterations=1)

    speedup_8 = None
    for row in rows:
        if row["n_clients"] == 8:
            speedup_8 = row["jobs_per_s"] / serial_jobs_per_s

    lines = [
        "repro.serve request coalescing — concurrent bursts vs serial submission",
        f"({DESIGN}, native kernel, dispatch on quiet, "
        f"{WINDOW_S * 1000:.0f} ms cap on the first job's wait)",
        "",
        f"serial submission baseline: {BASELINE_N} jobs one at a time "
        f"= {serial_jobs_per_s:.2f} jobs/s",
        f"(reference: {standalone_jobs_per_s:.2f} jobs/s for a plain serial "
        f"repro.api.estimate loop)",
        "",
        f"{'clients':>8s} {'jobs/s':>8s} {'vs serial':>10s} "
        f"{'program builds':>15s} {'kernel builds':>14s}",
    ]
    metrics = {
        "serial_jobs_per_s": round(serial_jobs_per_s, 3),
        "standalone_jobs_per_s": round(standalone_jobs_per_s, 3),
        "baseline_n": BASELINE_N,
    }
    for row in rows:
        ratio = row["jobs_per_s"] / serial_jobs_per_s
        lines.append(
            f"{row['n_clients']:8d} {row['jobs_per_s']:8.2f} {ratio:9.1f}x "
            f"{row['program_builds']:15d} {row['kernel_builds']:14d}"
        )
        metrics[f"jobs_per_s_{row['n_clients']}"] = round(row["jobs_per_s"], 3)
        metrics[f"builds_{row['n_clients']}"] = row["program_builds"]
    if speedup_8 is not None:
        metrics["speedup_8_clients"] = round(speedup_8, 2)
        lines += [
            "",
            f"8 coalesced clients vs 8 serial submissions: {speedup_8:.1f}x",
        ]

    benchmark.extra_info.update(metrics)
    write_result("serve_coalescing.txt", "\n".join(lines), metrics=metrics)

    # every coalesced burst shared exactly one lane-program + kernel build
    for row in rows:
        assert row["program_builds"] == 1, row
        assert row["kernel_builds"] == 1, row
    # the acceptance floor: coalescing must at least double served
    # throughput over serial submission (local measurements are well above)
    if speedup_8 is not None:
        assert speedup_8 >= 2.0, (
            f"8 coalesced clients only {speedup_8:.2f}x the serial baseline"
        )
