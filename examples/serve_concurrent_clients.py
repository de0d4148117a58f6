"""Concurrent clients against the power-estimation service, coalesced.

Eight independent clients each submit one ``RunSpec`` to a running
:class:`~repro.serve.PowerServer` — the same design with different stimulus
seeds, as eight users (or CI shards) would.  The server drains its queue
once an event-loop turn brings no new submission (``coalesce_window_s`` caps
the first job's wait while arrivals keep coming).  Because the
submissions are all queued by then and agree on the coalescing key
(:func:`repro.api.coalesce_key`), the server merges them into a single
shared ``BatchRTLPowerEstimator`` lane block: one lane-program compile, one
kernel build, one settle per cycle for all eight jobs.  The process-wide
compile counters prove it, and each client still receives its own
``EstimateResult`` — bit-identical to what a standalone
``repro.api.estimate`` call would have produced.

An *incompatible* job (a different cycle budget) rides along to show
isolation: it executes as its own group without disturbing the merged one.

One more client streams its job's structured progress events
(queued → coalesced → compiling → simulating → done) as they happen — and,
being compatible, lands in the shared lane block too.

Run from the repository root:

    PYTHONPATH=src python examples/serve_concurrent_clients.py

The same flow works across processes with the network front end — start
``PYTHONPATH=src python -m repro serve`` and point ``python -m repro
submit``/``status`` at it.  Requests from other processes arrive apart, so
the server holds their drain open for the whole coalescing window
(``--coalesce-window``) and merges every compatible request that lands in
it.
"""

from __future__ import annotations

import asyncio

from repro.api import RunSpec, coalesce_key, estimate
from repro.serve import Client, PowerServer, build_counts

DESIGN = "binary_search"
N_CLIENTS = 8
MAX_CYCLES = 200


def _spec(seed: int, max_cycles: int = MAX_CYCLES) -> RunSpec:
    return RunSpec(design=DESIGN, seed=seed, max_cycles=max_cycles)


async def client(server: PowerServer, seed: int):
    """One independent client: submit, then await the demuxed result."""
    return await Client(server).estimate(_spec(seed))


async def watch_events(server: PowerServer, seed: int) -> None:
    """A client that streams its job's progress instead of just waiting."""
    job_client = Client(server)
    job_id = await job_client.submit(_spec(seed))
    async for event in job_client.events(job_id):
        facts = ", ".join(
            f"{key}={value}" for key, value in sorted(event.detail.items())
            if value not in (None, {}, [])
        )
        print(f"  [{job_id}] {event.seq}: {event.state:10s} {facts}")


async def main() -> None:
    async with PowerServer(coalesce_window_s=0.05) as server:
        before = build_counts()

        # eight compatible clients + one incompatible rider, all concurrent
        tasks = [client(server, seed) for seed in range(N_CLIENTS)]
        tasks.append(Client(server).estimate(_spec(0, max_cycles=64)))
        results = await asyncio.gather(*tasks, watch_events(server, 99))

        built = {k: build_counts()[k] - before[k] for k in before}
        merged, rider = results[:N_CLIENTS], results[N_CLIENTS]

        print()
        print(f"coalescing key shared by the merged jobs:\n"
              f"  {coalesce_key(_spec(0))}")
        group_size = merged[0].metadata["group_size"]
        print(f"\n{N_CLIENTS} compatible clients + the event watcher -> one "
              f"shared lane block of {group_size}; the incompatible rider "
              f"ran alone (group size {rider.metadata['group_size']})")
        print(f"builds for all {N_CLIENTS + 2} jobs: "
              f"{built['program_builds']} lane programs / "
              f"{built['kernel_builds']} kernels — one for the merged block, "
              f"one for the rider")

        print("\nper-client results (each lane demuxed to its own job):")
        for seed, result in enumerate(merged):
            alone = estimate(_spec(seed).replace(backend="batch"))
            match = "bit-identical" if (
                result.report.average_power_mw
                == alone.report.average_power_mw
            ) else "MISMATCH"
            print(f"  seed {seed}: {result.report.average_power_mw:8.4f} mW "
                  f"over {result.report.cycles} cycles "
                  f"(job {result.metadata['job_id']}, {match} to a "
                  f"standalone estimate)")

        stats = server.stats()
        print(f"\nserver: {stats['jobs_submitted']} jobs, "
              f"{stats['coalesced_jobs']} coalesced into shared batches, "
              f"{stats['groups']} execution groups")


if __name__ == "__main__":
    asyncio.run(main())
