"""Tests for repro.obs — the unified tracing + metrics layer.

Covers the observability issue's acceptance surface: registry semantics
(labels, kinds, essential counters under ``disable()``), Prometheus text
rendering that a scraper can parse, Chrome-trace round trips (write →
load → summarize, span nesting, error annotation), cross-process span and
counter-delta merging through a real 2-worker sweep, the re-homed
``PROGRAM_BUILD_COUNT``/``KERNEL_BUILD_COUNT`` module aliases, per-phase
timings in ``EstimateResult.metadata``, phase durations on serve progress
events, the ``GET /metrics`` endpoint, and the ``repro obs`` CLI.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro import obs
from repro.api import RunSpec, estimate
from repro.api.cli import main as cli_main
from repro.api.sweep import SweepSpec, sweep
from repro.bench.cache import ResultCache
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.serve import HttpFrontend, PowerServer
from repro.sim import batch, kernels

needs_cc = pytest.mark.skipif(
    kernels.find_compiler() is None, reason="no C compiler on this host"
)

DESIGN = "binary_search"
MAX_CYCLES = 64


def _spec(seed=0, **overrides):
    overrides.setdefault("design", DESIGN)
    overrides.setdefault("max_cycles", MAX_CYCLES)
    overrides.setdefault("kernel_backend", "off")
    return RunSpec(seed=seed, **overrides)


@pytest.fixture
def tracing():
    """Span tracing on for the test, restored to defaults afterwards."""
    obs.drain_spans()
    obs.enable(tracing=True)
    yield
    obs.disable()
    obs.enable(tracing=False)  # metrics back on (the default), tracing off
    obs.drain_spans()


# ----------------------------------------------------------------- registry
def test_counter_labels_and_total():
    registry = MetricsRegistry()
    counter = registry.counter("jobs_total", "jobs")
    counter.inc()
    counter.inc(2, state="done")
    counter.inc(state="failed")
    assert counter.value() == 1
    assert counter.value(state="done") == 2
    assert counter.total() == 4
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_gauge_and_histogram():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth", "queue depth")
    gauge.set(5)
    gauge.dec(2)
    assert gauge.value() == 3
    histogram = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    assert histogram.count() == 3
    assert histogram.sum() == pytest.approx(5.55)
    # observe_many adds in order under one key: buckets, sum and count equal
    # one observe per value, including a value no bucket takes
    values = (0.05, 0.5, 5.0, 0.1, float("nan"), 1e-17)
    one_by_one = MetricsRegistry().histogram("lat", "", buckets=(0.1, 1.0))
    for value in values:
        one_by_one.observe(value, engine="rtl")
    batched = MetricsRegistry().histogram("lat", "", buckets=(0.1, 1.0))
    batched.observe_many(values, engine="rtl")
    assert batched.render() == one_by_one.render()
    assert batched.count(engine="rtl") == len(values)


def test_kind_clash_and_name_validation():
    registry = MetricsRegistry()
    registry.counter("x_total", "")
    with pytest.raises(MetricError):
        registry.gauge("x_total", "")
    with pytest.raises(MetricError):
        registry.counter("bad name!", "")


def test_essential_counters_survive_disable():
    registry = MetricsRegistry()
    essential = registry.counter("builds_total", "", essential=True)
    plain = registry.counter("extras_total", "")
    registry.set_enabled(False)
    essential.inc()
    plain.inc()
    assert essential.total() == 1
    assert plain.total() == 0
    registry.set_enabled(True)


def test_prometheus_render_parses():
    registry = MetricsRegistry()
    registry.counter("runs_total", "completed runs").inc(3, engine="rtl")
    registry.gauge("depth", "queue depth").set(2)
    registry.histogram("lat_seconds", "latency", buckets=(1.0,)).observe(0.5)
    text = registry.render_prometheus()
    lines = text.splitlines()
    assert '# TYPE runs_total counter' in lines
    assert 'runs_total{engine="rtl"} 3' in lines
    assert "depth 2" in lines
    assert 'lat_seconds_bucket{le="1"} 1' in lines
    assert 'lat_seconds_bucket{le="+Inf"} 1' in lines
    assert "lat_seconds_count 1" in lines
    # every sample line is "name{labels} value" with a float-parseable value
    for line in lines:
        if line and not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])


def test_counter_delta_merge_roundtrip():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "")
    counter.inc(2, kind="a")
    baseline = registry.counters_snapshot()
    counter.inc(3, kind="a")
    counter.inc(1, kind="b")
    deltas = registry.counter_deltas(baseline)
    target = MetricsRegistry()
    target.counter("c_total", "").inc(10, kind="a")
    target.merge_counter_deltas(deltas)
    assert target.counter("c_total", "").value(kind="a") == 13
    assert target.counter("c_total", "").value(kind="b") == 1


# -------------------------------------------------------------------- spans
def test_trace_roundtrip_and_summary(tracing, tmp_path):
    with obs.span("outer", design=DESIGN):
        with obs.span("inner") as inner:
            inner.set(n_items=3)
    with pytest.raises(RuntimeError):
        with obs.span("broken"):
            raise RuntimeError("boom")
    path = tmp_path / "trace.json"
    n_spans = obs.write_chrome_trace(str(path))
    assert n_spans == 3
    trace = obs.load_trace(str(path))
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    by_name = {e["name"]: e for e in events}
    assert set(by_name) == {"outer", "inner", "broken"}
    assert by_name["inner"]["args"]["n_items"] == 3
    assert by_name["broken"]["args"]["error"] == "RuntimeError"
    assert all(e["dur"] >= 1 for e in events)
    summary = obs.summarize_trace(str(path))
    assert summary["n_spans"] == 3
    assert summary["n_processes"] == 1
    assert summary["by_name"]["outer"]["count"] == 1


def test_span_noop_when_tracing_off(tmp_path):
    assert not obs.tracing_enabled()
    with obs.span("invisible"):
        pass
    assert obs.drain_spans() == []
    # start_span still measures a duration even with tracing off
    span = obs.start_span("measured")
    assert span.end() >= 0.0


@needs_cc
def test_build_count_aliases_still_increment():
    before = batch.PROGRAM_BUILD_COUNT, kernels.KERNEL_BUILD_COUNT
    batch._BATCH_CACHE.clear()
    estimate(_spec(seed=0, backend="batch", kernel_backend="native"))
    assert batch.PROGRAM_BUILD_COUNT == before[0] + 1
    assert kernels.KERNEL_BUILD_COUNT == before[1] + 1


def test_estimate_metadata_has_phase_timings():
    result = estimate(_spec(seed=1))
    phases = result.metadata["phase_s"]
    assert phases["total_s"] > 0
    assert "setup_s" in phases
    assert "simulate_s" in phases or "lane_build_s" in phases


def test_cache_counters_register_hits_and_misses(tmp_path):
    hits = obs.REGISTRY.counter("repro_cache_hits_total", "")
    misses = obs.REGISTRY.counter("repro_cache_misses_total", "")
    namespace = "obs-test"
    cache = ResultCache(str(tmp_path), namespace=namespace)
    h0, m0 = hits.value(namespace=namespace), misses.value(namespace=namespace)
    assert cache.get("k") is None
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    assert misses.value(namespace=namespace) == m0 + 1
    assert hits.value(namespace=namespace) == h0 + 1


# ---------------------------------------------------- cross-process merging
@needs_cc
def test_sweep_trace_merges_worker_pids(tracing, tmp_path):
    spec = SweepSpec(
        designs=(DESIGN, "DCT"),
        engines=("rtl",),
        seeds=(0, 1),
        max_cycles=MAX_CYCLES,
        kernel_backend="native",
        n_workers=2,
    )
    result = sweep(spec)
    assert len(result.results) == 4
    path = tmp_path / "sweep_trace.json"
    obs.write_chrome_trace(str(path))
    summary = obs.summarize_trace(str(path))
    # the two shard workers' spans landed on the parent timeline
    assert summary["n_processes"] >= 2
    names = set(summary["by_name"])
    assert {"sweep", "task.run", "program.build", "kernel.compile"} <= names
    worker_pids = set(summary["by_name"]["task.run"]["pids"])
    parent_pids = set(summary["by_name"]["sweep"]["pids"])
    assert worker_pids - parent_pids  # real subprocess spans, not re-labels


def test_worker_counter_deltas_merge_into_parent():
    counter = obs.REGISTRY.counter("repro_program_builds_total", "")
    before = counter.total()
    batch._BATCH_CACHE.clear()
    spec = SweepSpec(
        designs=(DESIGN,),
        engines=("rtl",),
        seeds=(0, 1),
        max_cycles=MAX_CYCLES,
        kernel_backend="off",
        n_workers=2,
    )
    sweep(spec)
    # the lane-batch task compiled its program (in a worker when the pool
    # sharded, locally when it short-circuited) — either way the registry
    # reflects the build
    assert counter.total() >= before + 1


# ------------------------------------------------------------------- serve
def test_serve_events_carry_phase_durations_and_metrics_endpoint():
    async def go():
        async with PowerServer(coalesce_window_s=0.02) as server:
            http = HttpFrontend(server, port=0)
            await http.start()
            try:
                job_ids = [await server.submit(_spec(seed=s)) for s in (0, 1)]
                for job_id in job_ids:
                    await server.wait(job_id)
                record = server.status(job_ids[0])
                states = [event.state for event in record.events]
                assert states == [
                    "queued", "coalesced", "compiling", "simulating", "done",
                ]
                # every event after the first carries the previous phase's
                # wall-clock duration, measured by the span layer
                for event in record.events[1:]:
                    assert event.detail["phase_s"] >= 0.0
                assert record.events[-1].detail["total_s"] > 0.0

                def scrape():
                    with urllib.request.urlopen(
                        http.url + "/metrics", timeout=120
                    ) as response:
                        assert response.status == 200
                        kind = response.headers["Content-Type"]
                        assert kind.startswith("text/plain")
                        return response.read().decode()

                return await asyncio.to_thread(scrape)
            finally:
                await http.stop()

    text = asyncio.run(go())

    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    assert samples["repro_serve_jobs_submitted_total"] >= 2
    assert samples['repro_serve_jobs_total{state="done"}'] >= 2
    assert samples["repro_serve_groups_total"] >= 1
    assert samples["repro_serve_coalesced_jobs_total"] >= 2
    assert samples["repro_serve_job_latency_seconds_count"] >= 2
    assert any(name.startswith("repro_kernel_builds_total") for name in samples)
    assert "repro_program_builds_total" in samples


# --------------------------------------------------------------------- CLI
def test_obs_cli_dump_reset_summarize(tmp_path, capsys, tracing):
    with obs.span("cli.smoke"):
        pass
    trace_path = tmp_path / "t.json"
    obs.write_chrome_trace(str(trace_path))

    assert cli_main(["obs", "dump"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE" in out and "repro_program_builds_total" in out

    json_path = tmp_path / "summary.json"
    assert cli_main(
        ["obs", "summarize", str(trace_path), "--json", str(json_path)]
    ) == 0
    summary = json.loads(json_path.read_text())
    assert "cli.smoke" in summary["by_name"]
    capsys.readouterr()

    assert cli_main(["obs", "summarize", str(tmp_path / "missing.json")]) == 2

    assert cli_main(["obs", "reset"]) == 0
    assert "reset" in capsys.readouterr().out
    assert obs.REGISTRY.counter("repro_program_builds_total", "").total() == 0


def test_run_cli_trace_flag(tmp_path, capsys):
    trace_path = tmp_path / "run.json"
    code = cli_main([
        "run", "--design", DESIGN, "--max-cycles", str(MAX_CYCLES),
        "--kernel-backend", "off", "--trace", str(trace_path),
    ])
    # the flag must not leave tracing on for later tests
    obs.disable()
    obs.enable(tracing=False)
    obs.drain_spans()
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    summary = obs.summarize_trace(str(trace_path))
    assert "estimate" in summary["by_name"]
    assert summary["n_spans"] >= 3
