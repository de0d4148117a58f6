"""A traced multi-worker sweep: one Chrome-trace timeline, every process.

``repro.obs`` gives the whole estimation stack two primitives — a
process-wide metrics registry (counters/gauges/histograms, rendered as
Prometheus text) and structured trace spans exported as Chrome
``trace_event`` JSON.  This example turns tracing on, fans a sweep across
two shard-pool workers, and shows what comes back:

* a ``traced_sweep.json`` you can drop into https://ui.perfetto.dev or
  ``chrome://tracing`` — the parent's ``sweep`` span with each worker's
  ``task.run`` → ``program.build`` → ``kernel.compile`` → ``lanes.simulate``
  spans merged onto the same wall-clock timeline under their own pid rows
  (workers ship their spans home inside the result envelope);
* a per-span-name timing table (the same aggregation as
  ``python -m repro obs summarize traced_sweep.json``);
* the per-result phase breakdown every estimate carries in
  ``EstimateResult.metadata["phase_s"]`` — no tracing required;
* the metrics registry, counting builds/retries/cache traffic since import.

The CLI spells the same thing ``python -m repro sweep ... --trace out.json``.

Run from the repository root:

    PYTHONPATH=src python examples/traced_sweep.py
"""

from __future__ import annotations

from repro import obs
from repro.api import SweepSpec, sweep


def main() -> None:
    obs.enable(tracing=True)  # metrics are already on by default

    spec = SweepSpec(
        designs=("binary_search", "DCT"),
        engines=("rtl",),
        seeds=tuple(range(4)),
        max_cycles=96,
        n_workers=2,
    )
    result = sweep(spec)
    print(result.summary())

    n_spans = obs.write_chrome_trace("traced_sweep.json")
    print(f"\nwrote traced_sweep.json ({n_spans} spans) — open it in "
          f"Perfetto (ui.perfetto.dev) or chrome://tracing")

    summary = obs.summarize_trace("traced_sweep.json")
    print(f"\n{summary['n_spans']} spans across {summary['n_processes']} "
          f"process(es), {summary['wall_ms']:.1f} ms wall:")
    for name, row in summary["by_name"].items():
        pids = ",".join(str(pid) for pid in row["pids"])
        print(f"  {name:20s} x{row['count']:<3d} {row['total_ms']:9.2f} ms "
              f"total  (pids {pids})")

    # every estimate also carries its own phase breakdown — even untraced
    first = result.results[0]
    print(f"\nphase_s of {first.report.design} seed "
          f"{first.spec.seed}: {first.metadata['phase_s']}")

    print("\nmetrics registry (builds since import):")
    for line in obs.render_prometheus().splitlines():
        if line.startswith(("repro_program", "repro_kernel", "repro_task")):
            print(f"  {line}")


if __name__ == "__main__":
    main()
