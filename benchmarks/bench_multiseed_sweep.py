"""Multi-seed RTL power sweep: batch lanes vs per-seed scalar estimation.

The ROADMAP's named next workload — wire ``BatchSimulator`` into the RTL
estimator for multi-seed power sweeps — lands in ``repro.api.sweep``: all
seeds of one (design, ``rtl``) group advance together as simulator lanes,
with each component's macromodel evaluated once per cycle over ``(n_seeds,)``
port-value arrays instead of once per seed.

Lane results are bit-identical to scalar per-seed runs (see
``tests/test_api.py``), so this harness measures pure execution speed: the
same seeds through ``RTLEstimatorAdapter.estimate_many`` (lanes) against a
per-seed scalar loop.  Writes ``benchmarks/results/multiseed_sweep.txt``.

``REPRO_BENCH_SEEDS`` overrides the seed count (CI smoke runs use a small
value).
"""

from __future__ import annotations

import os
import time

from repro.api import RunSpec
from repro.api.estimators import RTLEstimatorAdapter

from conftest import write_result

N_SEEDS = int(os.environ.get("REPRO_BENCH_SEEDS", "16"))

#: warm-up blocks per design at most: enough for a background kernel
#: compile to finish, bounded for a host where it never binds
WARM_TRIES = 100

#: designs with per-seed stimulus variation and moderate cycle counts
_DESIGNS = ["binary_search", "HVPeakF", "Ispq"]


def _specs(design: str):
    return [RunSpec(design=design, engine="rtl", seed=seed) for seed in range(N_SEEDS)]


def _warm_lanes(adapter, specs) -> None:
    """Run the timed block's lane count until its kernel decision no longer
    says the native kernel is compiling or arrived mid-run, so the timed
    block starts on whatever the host settles on (on ``auto`` with a C
    compiler: the native kernel)."""
    for _ in range(WARM_TRIES):
        decision = adapter.estimate_many(specs)[0].metadata["kernel_decision"]
        if "compiling" not in decision and " from cycle " not in decision:
            return
        time.sleep(0.05)


def test_multiseed_sweep_throughput(benchmark):
    adapter = RTLEstimatorAdapter()
    rows = {}
    total_scalar = 0.0
    total_batch = 0.0
    for design in _DESIGNS:
        # warm both paths: flatten/schedule/codegen caches for this module,
        # and the lane kernel at the timed lane count, which ``auto``
        # compiles in the background while its first blocks run on NumPy;
        # the per-seed loop names the compiled engine, which ``auto`` would
        # leave for one-lane kernel blocks once their background build is in
        _warm_lanes(adapter, _specs(design))
        adapter.estimate(_specs(design)[0].replace(backend="compiled"))

        start = time.perf_counter()
        batched = adapter.estimate_many(_specs(design))
        t_batch = time.perf_counter() - start

        start = time.perf_counter()
        scalars = [adapter.estimate(spec.replace(backend="compiled"))
                   for spec in _specs(design)]
        t_scalar = time.perf_counter() - start

        cycles = sum(r.report.cycles for r in scalars)
        rows[design] = {
            "kernel_decision": batched[0].metadata["kernel_decision"],
            "scalar_s": t_scalar,
            "batch_s": t_batch,
            "scalar_cycles_per_s": cycles / t_scalar,
            "batch_cycles_per_s": cycles / t_batch,
            "speedup": t_scalar / t_batch,
        }
        total_scalar += t_scalar
        total_batch += t_batch
        # the comparison is equal work: identical energies either way
        for a, b in zip(batched, scalars):
            assert abs(a.report.total_energy_fj - b.report.total_energy_fj) < 1e-6

    aggregate = total_scalar / total_batch

    def sweep_once():
        for design in _DESIGNS:
            adapter.estimate_many(_specs(design))

    benchmark.pedantic(sweep_once, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "n_seeds": N_SEEDS,
            "aggregate_speedup": round(aggregate, 2),
            **{f"speedup_{k}": round(v["speedup"], 2) for k, v in rows.items()},
        }
    )

    lines = [
        "Multi-seed RTL power sweep — BatchSimulator lanes vs per-seed scalar runs",
        f"({N_SEEDS} stimulus seeds per design; identical per-seed reports)",
        "",
        f"{'design':14s} {'scalar cyc/s':>13s} {'lane cyc/s':>12s} {'speedup':>9s}"
        f"  lane kernel",
    ]
    for design, row in rows.items():
        lines.append(
            f"{design:14s} {row['scalar_cycles_per_s']:13,.0f} "
            f"{row['batch_cycles_per_s']:12,.0f} {row['speedup']:8.1f}x"
            f"  {row['kernel_decision']}"
        )
    lines += ["", f"aggregate speedup (sum of scalar / sum of lanes): {aggregate:.1f}x"]
    write_result(
        "multiseed_sweep.txt",
        "\n".join(lines),
        metrics={
            "n_seeds": N_SEEDS,
            "aggregate_speedup": round(aggregate, 2),
            **{f"speedup_{k}": round(v["speedup"], 2) for k, v in rows.items()},
        },
    )

    # the lane path must not regress below the scalar loop (modest floor so
    # CI jitter cannot flake the job; local measurements are well above it)
    assert aggregate > 1.2, f"multi-seed lane sweep slower than scalar: {aggregate:.2f}x"
