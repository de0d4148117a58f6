"""Tests for the repro.serve power-estimation service.

Covers the issue's acceptance surface: concurrent compatible jobs coalesce
into exactly one shared build (counter-asserted), served results are
bit-identical to standalone ``repro.api`` estimates, incompatible jobs do
not merge, a poisoned lane-group member fails alone with a structured
error while its siblings succeed, and a stopped server leaves a consistent
persistent job store (the Ctrl-C contract).  Plus the coalescing queue,
the sweep-shared result cache, and the HTTP/stdio front ends.
"""

from __future__ import annotations

import asyncio
import io
import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.api import RunSpec, coalesce_key, estimate, is_coalescable
from repro.api.estimators import RTLEstimatorAdapter
from repro.api.sweep import CACHE_NAMESPACE, SweepSpec, sweep
from repro.serve import (
    Client,
    CoalescingQueue,
    HttpFrontend,
    JobFailed,
    JobStore,
    PowerServer,
    build_counts,
    run_stdio,
)
from repro.serve.protocol import JobRecord
from repro.sim import batch, kernels

needs_cc = pytest.mark.skipif(
    kernels.find_compiler() is None, reason="no C compiler on this host"
)

DESIGN = "binary_search"
MAX_CYCLES = 96


def _spec(seed=0, **overrides):
    """A cheap lane-friendly spec on the plain batch path (no C toolchain
    needed); tests that count kernel builds ask for ``native`` explicitly."""
    overrides.setdefault("design", DESIGN)
    overrides.setdefault("max_cycles", MAX_CYCLES)
    overrides.setdefault("kernel_backend", "off")
    return RunSpec(seed=seed, **overrides)


def _fresh_programs():
    """Drop cached lane programs so the next group compiles exactly once."""
    batch._BATCH_CACHE.clear()


# ------------------------------------------------------------ coalesce key


def test_coalesce_key_ignores_lane_free_fields():
    base = _spec(seed=0)
    for variant in (
        _spec(seed=7),
        _spec(seed=None),
        _spec(seed=0, keep_cycle_trace=True),
        _spec(seed=0, compare_to_rtl=True),
        _spec(seed=0, timeout_s=30.0, max_retries=2),
    ):
        assert coalesce_key(variant) == coalesce_key(base)


def test_coalesce_key_separates_machine_shaping_fields():
    base = _spec(seed=0)
    assert coalesce_key(_spec(seed=0, max_cycles=97)) != coalesce_key(base)
    assert coalesce_key(_spec(seed=0, design="DCT")) != coalesce_key(base)
    assert coalesce_key(
        _spec(seed=0, kernel_backend="native")
    ) != coalesce_key(base)
    assert coalesce_key(
        _spec(seed=0, kernel_threads=2)
    ) != coalesce_key(base)


def test_coalesce_key_normalizes_auto_and_batch_backends():
    assert coalesce_key(_spec(backend="auto")) == coalesce_key(
        _spec(backend="batch")
    )


def test_is_coalescable_only_for_rtl_lane_backends():
    assert is_coalescable(_spec())
    assert is_coalescable(_spec(backend="batch"))
    assert not is_coalescable(_spec(backend="compiled"))
    assert not is_coalescable(_spec(backend="interp"))
    assert not is_coalescable(RunSpec(design=DESIGN, engine="gate"))


def test_estimate_many_accepts_lane_free_variation():
    adapter = RTLEstimatorAdapter()
    results = adapter.estimate_many(
        [_spec(seed=0), _spec(seed=1, keep_cycle_trace=True)]
    )
    assert len(results) == 2
    assert results[1].report.cycle_energy_fj


# -------------------------------------------------------- coalescing queue


def test_coalescing_queue_groups_by_key_in_arrival_order():
    queue = CoalescingQueue()
    a0 = JobRecord(job_id="a0", spec=_spec(seed=0))
    b0 = JobRecord(job_id="b0", spec=_spec(seed=0, max_cycles=97))
    a1 = JobRecord(job_id="a1", spec=_spec(seed=1))
    solo = JobRecord(job_id="solo", spec=_spec(seed=2, backend="compiled"))
    for record in (a0, b0, a1, solo):
        queue.push(record)
    assert len(queue) == 4
    groups = queue.drain()
    assert len(queue) == 0
    assert [group.job_ids for group in groups] == [
        ["a0", "a1"], ["b0"], ["solo"]
    ]
    assert groups[0].key == coalesce_key(a0.spec)
    assert groups[1].key == coalesce_key(b0.spec)
    assert groups[2].key is None  # non-coalescable: always a singleton


# ------------------------------------------------- coalesced execution


@needs_cc
def test_concurrent_compatible_jobs_share_one_build():
    """8 concurrent clients, one program compile, one kernel build."""
    _fresh_programs()
    specs = [_spec(seed=s, kernel_backend="native") for s in range(8)]

    async def go():
        async with PowerServer(coalesce_window_s=0.05) as server:
            before = build_counts()
            results = await Client(server).estimate_all(specs)
            return server, before, results

    server, before, results = asyncio.run(go())
    after = build_counts()
    assert after["program_builds"] - before["program_builds"] == 1
    assert after["kernel_builds"] - before["kernel_builds"] == 1

    assert server.n_groups == 1
    assert server.n_coalesced_jobs == 8
    for job in server.store.jobs():
        assert job.state == "done"
        assert job.group_size == 8
        assert [e.state for e in job.events] == [
            "queued", "coalesced", "compiling", "simulating", "done"
        ]

    # served results are bit-identical to standalone repro.api estimates
    for spec, served in zip(specs, results):
        alone = estimate(spec.replace(backend="batch"))
        assert served.report.cycles == alone.report.cycles
        assert served.report.average_power_mw == alone.report.average_power_mw
        assert served.report.total_energy_fj == alone.report.total_energy_fj

    # per-job metadata names the job and its shared lane block
    job_ids = [job.job_id for job in server.store.jobs()]
    assert [r.metadata["job_id"] for r in results] == job_ids
    assert all(r.metadata["group_size"] == 8 for r in results)
    assert all(r.backend == "batch[8]" for r in results)


def _coalesced(job):
    return next(e for e in job.events if e.state == "coalesced").detail


def test_burst_dispatches_once_arrivals_go_quiet():
    """A burst drains as soon as it is queued, not after the window."""
    dispatches = obs.REGISTRY.counter("repro_serve_dispatch_total")
    waits = obs.REGISTRY.histogram("repro_serve_coalesce_wait_seconds")
    quiet_before = dispatches.value(reason="quiet")
    waits_before = waits.count()
    specs = [_spec(seed=s) for s in range(16)]

    async def go():
        async with PowerServer(coalesce_window_s=60.0) as server:
            await asyncio.wait_for(
                Client(server).estimate_all(specs), timeout=30.0
            )
            return server

    server = asyncio.run(go())
    assert server.n_groups == 1
    for job in server.store.jobs():
        detail = _coalesced(job)
        assert detail["group_size"] == 16
        assert detail["reason"] == "quiet"
        assert 0.0 <= detail["coalesce_wait_s"] < 30.0
    assert dispatches.value(reason="quiet") == quiet_before + 1
    assert waits.count() == waits_before + 1


def test_staggered_submissions_join_one_group():
    """One loop turn between arrivals is not quiet: they share a drain."""

    async def go():
        async with PowerServer(coalesce_window_s=60.0) as server:
            job_ids = []
            for seed in range(16):
                job_ids.append(await server.submit(_spec(seed=seed)))
                await asyncio.sleep(0)
            for job_id in job_ids:
                await server.wait(job_id)
            return server

    server = asyncio.run(go())
    assert server.n_groups == 1
    assert all(job.group_size == 16 for job in server.store.jobs())
    assert _coalesced(server.store.jobs()[0])["reason"] == "quiet"


def test_window_caps_the_first_jobs_wait():
    """Arrivals every loop turn drain once the window is spent."""
    dispatches = obs.REGISTRY.counter("repro_serve_dispatch_total")
    window_before = dispatches.value(reason="window")

    async def go():
        async with PowerServer(coalesce_window_s=0.0) as server:
            job_ids = []
            for seed in range(4):
                job_ids.append(await server.submit(_spec(seed=seed)))
                await asyncio.sleep(0)
            for job_id in job_ids:
                await server.wait(job_id)
            return server

    server = asyncio.run(go())
    first = _coalesced(server.store.jobs()[0])
    assert first["reason"] == "window"
    # the cap ended the first drain while later submissions kept coming
    assert first["group_size"] < 4
    assert server.n_groups > 1
    assert dispatches.value(reason="window") >= window_before + 1


def test_remote_submissions_hold_the_drain_for_the_window():
    """HTTP clients arriving 100 ms apart still merge within the window."""

    async def go():
        async with PowerServer(coalesce_window_s=1.0) as server:
            http = HttpFrontend(server, port=0)
            await http.start()
            try:
                job_ids = []
                for seed in range(3):
                    _, body = await asyncio.to_thread(
                        _http, f"{http.url}/jobs", _spec(seed=seed).to_dict()
                    )
                    job_ids.append(body["job_id"])
                    await asyncio.sleep(0.1)
                for job_id in job_ids:
                    await server.wait(job_id)
            finally:
                await http.stop()
            return server

    server = asyncio.run(go())
    assert server.n_groups == 1
    for job in server.store.jobs():
        detail = _coalesced(job)
        assert detail["group_size"] == 3
        assert detail["reason"] == "window"
        assert detail["coalesce_wait_s"] >= 0.9


def test_group_hands_each_phase_to_the_loop_in_one_hop(monkeypatch):
    """16 jobs, 3 worker-to-loop hops: compiling, simulating, done."""
    hops = []
    real = asyncio.run_coroutine_threadsafe

    def counting(coro, loop):
        hops.append(coro)
        return real(coro, loop)

    monkeypatch.setattr(asyncio, "run_coroutine_threadsafe", counting)
    specs = [_spec(seed=s) for s in range(16)]

    async def go():
        async with PowerServer() as server:
            await Client(server).estimate_all(specs)
            return server

    server = asyncio.run(go())
    assert server.n_groups == 1
    assert len(hops) == 3
    for job in server.store.jobs():
        assert [e.state for e in job.events] == [
            "queued", "coalesced", "compiling", "simulating", "done"
        ]
        assert [e.seq for e in job.events] == list(range(5))
        for event in job.events[1:]:
            assert event.detail["phase_s"] >= 0.0
        assert job.events[-1].detail["total_s"] > 0.0


def test_incompatible_jobs_do_not_merge():
    specs = [
        _spec(seed=0),
        _spec(seed=1),
        _spec(seed=0, max_cycles=97),
        _spec(seed=1, max_cycles=97),
    ]

    async def go():
        async with PowerServer(coalesce_window_s=0.05) as server:
            await Client(server).estimate_all(specs)
            return server

    server = asyncio.run(go())
    assert server.n_groups == 2
    sizes = [job.group_size for job in server.store.jobs()]
    assert sorted(sizes) == [2, 2, 2, 2]
    by_cycles = {}
    for job in server.store.jobs():
        key = job.events[1].detail["coalesce_key"]
        by_cycles.setdefault(job.spec.max_cycles, set()).add(key)
    # the two max_cycles populations landed in two distinct lane blocks
    assert len(by_cycles) == 2
    keys = set().union(*by_cycles.values())
    assert len(keys) == 2


class _PoisonedAdapter(RTLEstimatorAdapter):
    """Raises while resolving the testbench of one specific seed."""

    POISONED_SEED = 13

    def _resolve_testbench(self, spec):
        if spec.seed == self.POISONED_SEED:
            raise RuntimeError(f"poisoned stimulus for seed {spec.seed}")
        return super()._resolve_testbench(spec)


def test_poisoned_group_member_fails_alone():
    specs = [_spec(seed=0), _spec(seed=_PoisonedAdapter.POISONED_SEED),
             _spec(seed=2)]

    async def go():
        server = PowerServer(coalesce_window_s=0.05)
        server._adapters["rtl"] = _PoisonedAdapter()
        async with server:
            client = Client(server)
            job_ids = [await client.submit(spec) for spec in specs]
            records = [await server.wait(job_id) for job_id in job_ids]
            healthy = [
                await server.result(job_id)
                for job_id, record in zip(job_ids, records)
                if record.state == "done"
            ]
            return server, records, healthy

    server, records, healthy = asyncio.run(go())
    assert [r.state for r in records] == ["done", "failed", "done"]
    # all three coalesced into one group before the poison struck
    assert all(r.group_size == 3 for r in records)

    failed = records[1]
    assert failed.error is not None
    assert failed.error["kind"] == "exception"
    assert failed.error["error_type"] == "RuntimeError"
    assert "poisoned stimulus" in failed.error["message"]
    assert failed.error["attempts"] == 2  # group attempt + solo re-run
    assert "RuntimeError" in failed.error["traceback"]

    # siblings were re-run alone and still produced bit-identical results
    assert len(healthy) == 2
    for spec, served in zip((specs[0], specs[2]), healthy):
        alone = estimate(spec.replace(backend="batch"))
        assert served.report.average_power_mw == alone.report.average_power_mw
    assert all(
        r.events[-1].detail.get("solo_fallback") for r in records
        if r.state == "done"
    )

    async def expect_failure():
        server2 = PowerServer(coalesce_window_s=0.0)
        server2._adapters["rtl"] = _PoisonedAdapter()
        async with server2:
            job_id = await server2.submit(
                _spec(seed=_PoisonedAdapter.POISONED_SEED)
            )
            with pytest.raises(JobFailed, match="RuntimeError"):
                await server2.result(job_id)

    asyncio.run(expect_failure())


# ----------------------------------------------- persistence + shutdown


def test_stop_marks_unfinished_jobs_interrupted(tmp_path):
    """The Ctrl-C contract: stopping leaves a consistent on-disk ledger."""
    cache_dir = str(tmp_path)

    async def first_session():
        async with PowerServer(cache_dir=cache_dir) as server:
            done_id = await Client(server).submit(_spec(seed=0))
            await server.wait(done_id)
            return done_id

    done_id = asyncio.run(first_session())

    async def interrupted_session():
        # nothing below yields to the loop before the assert, so the
        # dispatcher has not run a turn and both submissions stay queued
        async with PowerServer(
            cache_dir=cache_dir, coalesce_window_s=60.0
        ) as server:
            stuck = [await server.submit(_spec(seed=s)) for s in (1, 2)]
            records = {job_id: server.status(job_id) for job_id in stuck}
            assert all(r.state == "queued" for r in records.values())
            return stuck
        # __aexit__ ran server.stop() here

    stuck = asyncio.run(interrupted_session())

    # a fresh store (a restarted server / `repro status`) sees every job
    # terminal: the completed one done with its result, the rest interrupted
    store = JobStore(cache_dir)
    loaded = {record.job_id: record for record in store.load_persisted()}
    assert set(loaded) == {done_id, *stuck}
    assert loaded[done_id].state == "done"
    assert store.get_result(loaded[done_id]) is not None
    for job_id in stuck:
        assert loaded[job_id].state == "interrupted"
        final = loaded[job_id].events[-1].detail
        assert final["reason"] == "server stopped"
        # the obs span layer stamps how long the job sat queued
        assert final["phase_s"] >= 0.0

    async def interrupted_result():
        async with PowerServer(cache_dir=cache_dir) as server:
            with pytest.raises(JobFailed, match="interrupted"):
                await server.result(stuck[0])

    asyncio.run(interrupted_result())


def test_cached_result_short_circuits_without_simulating(tmp_path):
    cache_dir = str(tmp_path)
    spec = _spec(seed=5)

    async def go():
        async with PowerServer(cache_dir=cache_dir) as server:
            client = Client(server)
            cold = await client.estimate(spec)
            before = build_counts()
            job_id = await client.submit(spec)
            warm = await client.result(job_id)
            record = server.status(job_id)
            return server, cold, warm, record, before

    server, cold, warm, record, before = asyncio.run(go())
    assert build_counts() == before  # no compile, no simulation
    assert record.cached
    assert [e.state for e in record.events] == ["queued", "done"]
    assert record.events[-1].detail["cached"] is True
    assert server.n_cache_hits == 1
    assert warm.report.average_power_mw == cold.report.average_power_mw


def test_server_and_sweep_share_one_result_store(tmp_path):
    """A swept spec is served from cache; a served spec warms the sweep."""
    cache_dir = str(tmp_path)
    swept = sweep(
        SweepSpec(
            designs=(DESIGN,),
            seeds=(0,),
            max_cycles=MAX_CYCLES,
            kernel_backend="off",
            cache_dir=cache_dir,
        )
    )

    async def go():
        async with PowerServer(cache_dir=cache_dir) as server:
            client = Client(server)
            served = await client.estimate(_spec(seed=0))
            fresh = await client.estimate(_spec(seed=1))
            return server, served, fresh

    server, served, fresh = asyncio.run(go())
    assert server.n_cache_hits == 1
    assert server.status(served.metadata["job_id"]).cached
    assert (
        served.report.average_power_mw
        == swept.results[0].report.average_power_mw
    )

    # ...and the sweep picks the served seed-1 result up from the same store
    again = sweep(
        SweepSpec(
            designs=(DESIGN,),
            seeds=(0, 1),
            max_cycles=MAX_CYCLES,
            kernel_backend="off",
            cache_dir=cache_dir,
        )
    )
    assert again.cache_hits == 2
    assert (
        again.results[1].report.average_power_mw
        == fresh.report.average_power_mw
    )


def test_job_store_persists_records_across_instances(tmp_path):
    store = JobStore(str(tmp_path))
    record = store.create(_spec(seed=3))
    record.state = "done"
    record.group_size = 4
    store.save(record)

    other = JobStore(str(tmp_path))
    loaded = other.load_persisted()
    assert [r.job_id for r in loaded] == [record.job_id]
    assert loaded[0].state == "done"
    assert loaded[0].group_size == 4
    assert loaded[0].spec == record.spec
    # records live in the job namespace of the shared cache directory
    assert any(p.name.startswith("job-") for p in tmp_path.iterdir())


def test_memory_store_stats_count_current_result_bytes():
    store = JobStore()
    payloads = {seed: {"seed": seed, "trace": list(range(seed))}
                for seed in range(3)}
    for seed, payload in payloads.items():
        store.put_result(_spec(seed=seed), payload)
    # overwriting a key replaces that key's bytes
    payloads[1] = {"seed": 1, "trace": list(range(50))}
    store.put_result(_spec(seed=1), payloads[1])
    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["bytes"] == sum(
        len(json.dumps(p)) for p in payloads.values()
    )


def test_unknown_job_id_raises_key_error():
    async def go():
        async with PowerServer() as server:
            with pytest.raises(KeyError, match="unknown job id"):
                server.status("jdeadbeef")

    asyncio.run(go())


# ------------------------------------------------------------- front ends


def _http(url, payload=None):
    request = urllib.request.Request(
        url,
        data=(json.dumps(payload).encode() if payload is not None else None),
        headers={"Content-Type": "application/json"},
        method="POST" if payload is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def test_http_frontend_end_to_end():
    async def go():
        async with PowerServer(coalesce_window_s=0.02) as server:
            http = HttpFrontend(server, port=0)
            await http.start()
            try:
                url = http.url
                status, body = await asyncio.to_thread(
                    _http, f"{url}/jobs", _spec(seed=0).to_dict()
                )
                assert status == 202
                job_id = body["job_id"]

                status, result = await asyncio.to_thread(
                    _http, f"{url}/jobs/{job_id}/result"
                )
                assert status == 200
                assert result["report"]["cycles"] > 0
                assert result["metadata"]["job_id"] == job_id

                status, record = await asyncio.to_thread(
                    _http, f"{url}/jobs/{job_id}"
                )
                assert status == 200
                assert record["state"] == "done"
                states = [e["state"] for e in record["events"]]
                assert states[0] == "queued" and states[-1] == "done"

                status, listing = await asyncio.to_thread(
                    _http, f"{url}/jobs"
                )
                assert status == 200
                assert [j["job_id"] for j in listing["jobs"]] == [job_id]

                status, stats = await asyncio.to_thread(
                    _http, f"{url}/stats"
                )
                assert status == 200
                assert stats["jobs_submitted"] == 1
                assert "program_builds" in stats

                status, error = await asyncio.to_thread(
                    _http, f"{url}/jobs/jnope"
                )
                assert status == 404
                status, error = await asyncio.to_thread(
                    _http, f"{url}/nope"
                )
                assert status == 404
                status, error = await asyncio.to_thread(
                    _http, f"{url}/jobs", {"design": "no_such_design"}
                )
                assert status == 400
            finally:
                await http.stop()

    asyncio.run(go())


def test_http_events_stream_is_ndjson():
    async def go():
        async with PowerServer(coalesce_window_s=0.02) as server:
            http = HttpFrontend(server, port=0)
            await http.start()
            try:
                _, body = await asyncio.to_thread(
                    _http, f"{http.url}/jobs", _spec(seed=0).to_dict()
                )
                job_id = body["job_id"]

                def stream():
                    request = urllib.request.Request(
                        f"{http.url}/jobs/{job_id}/events"
                    )
                    with urllib.request.urlopen(request, timeout=120) as resp:
                        assert resp.headers["Content-Type"] == (
                            "application/x-ndjson"
                        )
                        return [
                            json.loads(line)
                            for line in resp.read().decode().splitlines()
                        ]

                events = await asyncio.to_thread(stream)
                assert [e["state"] for e in events] == [
                    "queued", "coalesced", "compiling", "simulating", "done"
                ]
                assert [e["seq"] for e in events] == list(range(5))
            finally:
                await http.stop()

    asyncio.run(go())


def test_stdio_frontend_round_trip():
    spec = _spec(seed=0)
    stdin = io.StringIO(
        "\n".join(
            [
                json.dumps({"op": "submit", "spec": spec.to_dict()}),
                json.dumps({"op": "bogus"}),
                json.dumps({"op": "stats"}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        + "\n"
    )
    stdout = io.StringIO()

    async def go():
        async with PowerServer(coalesce_window_s=0.02) as server:
            await run_stdio(server, input_stream=stdin, output_stream=stdout)
            # drain the submitted job before the server stops
            job_id = server.store.jobs()[0].job_id
            await server.wait(job_id)
            return await server.result(job_id)

    result = asyncio.run(go())
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert replies[0]["ok"] and replies[0]["job_id"]
    assert not replies[1]["ok"] and "unknown op" in replies[1]["error"]
    assert replies[2]["ok"] and replies[2]["stats"]["jobs_submitted"] == 1
    assert replies[3] == {"ok": True, "op": "shutdown"}
    assert result.report.cycles > 0
