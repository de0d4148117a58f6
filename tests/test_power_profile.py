"""Tests for windowed power telemetry (repro.power.profile).

The load-bearing property: the windowed energy matrix is the *same*
accumulation every engine already performs, just bucketed — so window sums
must match ``total_energy_fj`` to 1e-9 relative on every registry design
and every engine/backend path, window geometry must not change totals, and
the bounded-memory coalescing must preserve sums exactly.  Plus the
artifact surface: JSON round-trip, hotspot reports, the always-populated
``peak_power_mw`` on no-trace paths, trace counter events, and the serve
``GET /jobs/<id>/profile`` route.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.api import EstimateResult, RunSpec, estimate
from repro.api.estimators import RTLEstimatorAdapter
from repro.core import EmulationPlatform, InstrumentationConfig, instrument
from repro.designs import all_designs, get_design
from repro.power import (
    BatchRTLPowerEstimator,
    PowerProfile,
    ProfileConfig,
    RTLPowerEstimator,
    WindowedEnergyCollector,
    build_seed_library,
)
from repro.power.profile import DEFAULT_MAX_WINDOWS
from repro.sim import Simulator
from repro.sim.engine import SimulationObserver

REL_TOL = 1e-9


def _assert_parity(result: EstimateResult) -> None:
    profile = result.profile
    assert profile is not None
    assert profile.cycles == result.report.cycles
    total = result.report.total_energy_fj
    assert profile.total_energy_fj() == pytest.approx(total, rel=REL_TOL)
    # per-component window sums match the report's component totals
    by_component = profile.component_energy_fj()
    for name, component in result.report.components.items():
        assert by_component[name] == pytest.approx(
            component.energy_fj, rel=REL_TOL, abs=1e-6
        )
    assert profile.mean_power_mw() == pytest.approx(
        result.report.average_power_mw, rel=REL_TOL
    )


# --------------------------------------------------------- collector unit
def _stream(collectors, energies):
    """Feed per-cycle ``(cycles, components)`` energies as running totals."""
    running = np.add.accumulate(energies, axis=0)
    for totals in running:
        for collector in collectors:
            collector.advance(1, totals[:, None])


def test_collector_bounded_memory_preserves_sums_exactly():
    rng = np.random.default_rng(7)
    energies = rng.uniform(0.0, 5.0, size=(1000, 3))
    collector = WindowedEnergyCollector(
        ["a", "b", "c"], ["adder", "adder", "register"],
        window_cycles=1, max_windows=8,
    )
    _stream([collector], energies)
    # bounded: never more than max_windows (+ the open partial window)
    assert collector.n_windows <= 8 + 1
    # width doubled to a power of two covering the run
    assert collector.window_cycles % 2 == 0
    assert collector.window_cycles * 8 >= 1000
    matrix = collector.matrix()[:, :, 0]
    # pairwise merging is pure addition: sums stay exact per component
    np.testing.assert_allclose(
        matrix.sum(axis=0), energies.sum(axis=0), rtol=1e-12
    )
    [profile] = collector.profiles("unit", "test", 100.0, [collector.cycles])
    assert profile.n_windows == collector.n_windows
    assert profile.total_energy_fj() == pytest.approx(
        float(energies.sum()), rel=1e-12
    )


def test_collector_window_geometry_and_partial_last_window():
    collector = WindowedEnergyCollector(
        ["a"], ["adder"], window_cycles=4, max_windows=512
    )
    _stream([collector], np.arange(10.0)[:, None])
    [profile] = collector.profiles("unit", "test", 200.0, [10])
    assert profile.n_windows == 3  # 4 + 4 + 2 cycles
    assert profile.window_bounds(2) == (8, 10)
    assert profile.component_series("a") == [
        pytest.approx(0 + 1 + 2 + 3),
        pytest.approx(4 + 5 + 6 + 7),
        pytest.approx(8 + 9),
    ]
    with pytest.raises(KeyError):
        profile.component_series("nope")
    # the last (2-cycle) window normalizes power by its actual span
    powers = profile.window_power_mw()
    assert powers[2] == pytest.approx(17 / 2 * 200.0 * 1e-6)


def test_profile_rebin_matches_coarse_collection():
    rng = np.random.default_rng(11)
    energies = rng.uniform(0.0, 2.0, size=(37, 2))
    fine = WindowedEnergyCollector(["a", "b"], ["x", "y"], window_cycles=1)
    coarse = WindowedEnergyCollector(["a", "b"], ["x", "y"], window_cycles=5)
    _stream([fine, coarse], energies)
    rebinned = fine.profiles("u", "t", 100.0, [37])[0].rebin(5)
    direct = coarse.profiles("u", "t", 100.0, [37])[0]
    assert rebinned.n_windows == direct.n_windows
    np.testing.assert_allclose(
        np.asarray(rebinned.energy_fj), np.asarray(direct.energy_fj),
        rtol=1e-12,
    )
    with pytest.raises(ValueError):
        direct.rebin(7)  # not a multiple
    assert direct.rebin(5) is direct  # no-op


def test_profile_json_roundtrip():
    profile = PowerProfile(
        design="d", estimator="e", clock_mhz=250.0, cycles=7,
        window_cycles=4, component_names=["a", "b"],
        component_types=["adder", "register"],
        energy_fj=[[1.5, 2.5], [0.5, 3.0]], notes={"k": 1},
    )
    clone = PowerProfile.from_json(profile.to_json())
    assert clone == profile
    # EstimateResult carries the profile through its own round-trip
    spec = RunSpec(design="DCT", engine="rtl", seed=1, max_cycles=32,
                   power_profile=True)
    result = estimate(spec)
    clone = EstimateResult.from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    assert clone.profile == result.profile
    # and tolerates absent profiles
    spec2 = RunSpec(design="DCT", engine="rtl", seed=1, max_cycles=32)
    result2 = estimate(spec2)
    assert result2.profile is None
    assert EstimateResult.from_dict(result2.to_dict()).profile is None


# ------------------------------------------------------ engine-path parity
@pytest.mark.parametrize("design", sorted(all_designs()))
def test_profile_sums_match_total_on_every_design(design):
    spec = RunSpec(design=design, engine="rtl", seed=3, max_cycles=48,
                   power_profile=True)
    _assert_parity(estimate(spec))


@pytest.mark.parametrize("backend,kernel_backend", [
    ("compiled", "auto"),
    ("interp", "auto"),
    ("batch", "off"),
    ("batch", "native"),
])
def test_profile_parity_across_backends(backend, kernel_backend):
    spec = RunSpec(design="HVPeakF", engine="rtl", seed=5, max_cycles=64,
                   backend=backend, kernel_backend=kernel_backend,
                   power_profile=True, profile_window=8)
    result = estimate(spec)
    _assert_parity(result)
    assert result.profile.window_cycles == 8


@pytest.mark.parametrize("design", ["binary_search", "Bubble_Sort"])
def test_profile_parity_gate_level(design):
    spec = RunSpec(design=design, engine="gate", seed=2, max_cycles=32,
                   power_profile=True)
    result = estimate(spec)
    _assert_parity(result)
    # gate-mapped and macromodelled components both appear
    assert result.profile.notes["n_gate_mapped"] >= 1


def test_profile_parity_emulation_and_default_strobe_window():
    spec = RunSpec(design="HVPeakF", engine="emulation", seed=4,
                   max_cycles=64, power_profile=True)
    result = estimate(spec)
    _assert_parity(result)
    # emulation's natural window is the strobe period
    assert (result.profile.window_cycles
            == result.profile.notes["strobe_period"])
    # satellite: peak_power_mw is populated even though emulation never
    # keeps a per-cycle trace
    assert result.report.peak_power_mw > 0.0
    assert result.report.peak_power_mw == pytest.approx(
        result.profile.peak_power_mw(), rel=REL_TOL
    )


def test_emulation_peak_populated_without_profile_request():
    spec = RunSpec(design="binary_search", engine="emulation", seed=1,
                   max_cycles=48)
    result = estimate(spec)
    assert result.profile is None
    assert result.report.peak_power_mw > 0.0


class _CumulativeReadback(SimulationObserver):
    """Reference readback: cumulative samples, every other one dropped when full.

    Samples the accumulators at multiples of the interval; on reaching
    ``max_windows`` samples it keeps those on multiples of the doubled
    interval.  Each window is the difference of consecutive samples, the
    last one taken at the end of the run.
    """

    def __init__(self, instrumented, interval, max_windows=DEFAULT_MAX_WINDOWS):
        self.instrumented = instrumented
        self.interval = interval
        self.max_windows = max_windows
        self.readings = []

    def _read(self, simulator):
        energies = self.instrumented.component_energies_fj(simulator)
        return np.asarray([energies[name] for name in self.instrumented.accumulator_map])

    def on_cycle(self, simulator, cycle):
        if cycle and cycle % self.interval == 0:
            self.readings.append(self._read(simulator))
            if len(self.readings) >= self.max_windows:
                self.readings = self.readings[1::2]
                self.interval *= 2

    def on_finish(self, simulator):
        self.readings.append(self._read(simulator))

    def windows(self):
        start = np.zeros_like(self.readings[0])
        return np.diff(np.vstack([start] + self.readings), axis=0)


@pytest.mark.parametrize("design,cycles,window", [
    ("Bubble_Sort", 2000, 1),  # coalesces twice
    ("HVPeakF", 64, None),     # the strobe period, never coalesces
])
def test_emulation_readback_matches_cumulative_reference(design, cycles, window):
    entry = get_design(design)
    instrumented = instrument(entry.build(), build_seed_library(), InstrumentationConfig())
    result = EmulationPlatform().run(instrumented, entry.make_testbench(1),
                                     max_cycles=cycles, profile_window=window)
    reference = _CumulativeReadback(
        instrumented, window or instrumented.config.strobe_period)
    simulator = Simulator(instrumented.module)
    simulator.add_observer(reference)
    simulator.run(entry.make_testbench(1), max_cycles=cycles)
    profile = result.power_profile
    assert profile.window_cycles == reference.interval
    assert profile.n_windows == len(reference.readings)
    assert profile.notes["readback_transactions"] == len(reference.readings)
    if window is None:
        assert profile.energy_fj == reference.windows().tolist()
    else:
        assert profile.window_cycles > window
        np.testing.assert_allclose(profile.energy_fj, reference.windows(), rtol=1e-15)


def test_gate_and_rtl_profiles_use_the_same_default_window():
    rtl, gate = (
        estimate(RunSpec(design="Bubble_Sort", engine=engine, seed=3, max_cycles=640,
                         power_profile=True)).profile
        for engine in ("rtl", "gate")
    )
    assert rtl.window_cycles == gate.window_cycles == 10
    assert rtl.n_windows == gate.n_windows == 64


def test_window_size_does_not_change_totals():
    totals = []
    for window in (1, 4, 16):
        spec = RunSpec(design="DCT", engine="rtl", seed=7, max_cycles=48,
                       power_profile=True, profile_window=window)
        result = estimate(spec)
        _assert_parity(result)
        totals.append(result.profile.total_energy_fj())
    assert totals[0] == pytest.approx(totals[1], rel=1e-12)
    assert totals[1] == pytest.approx(totals[2], rel=1e-12)


# ------------------------------------------------- batch lanes / no-trace
def test_batch_per_lane_profiles_match_scalar_runs():
    entry = get_design("HVPeakF")
    module = entry.build()
    seeds = [0, 1, 2, 3]
    batch = BatchRTLPowerEstimator(module)
    reports = batch.estimate_all(
        [entry.make_testbench(seed) for seed in seeds],
        max_cycles=48, profile=ProfileConfig(),
    )
    assert batch.last_profiles is not None
    assert len(batch.last_profiles) == len(seeds)
    for seed, report, profile in zip(seeds, reports, batch.last_profiles):
        assert profile.total_energy_fj() == pytest.approx(
            report.total_energy_fj, rel=REL_TOL
        )
        scalar = RTLPowerEstimator(entry.build())
        scalar_report = scalar.estimate(
            entry.make_testbench(seed), max_cycles=48,
            profile=ProfileConfig(),
        )
        assert profile.total_energy_fj() == pytest.approx(
            scalar.last_profile.total_energy_fj(), rel=REL_TOL
        )
        assert report.peak_power_mw == pytest.approx(
            scalar_report.peak_power_mw, rel=REL_TOL
        )


def test_no_cycle_trace_keeps_peak_and_bounds_memory():
    entry = get_design("DCT")
    estimator = RTLPowerEstimator(entry.build())
    traced = estimator.estimate(entry.make_testbench(9), max_cycles=64)
    estimator2 = RTLPowerEstimator(entry.build())
    untraced = estimator2.estimate(
        entry.make_testbench(9), max_cycles=64, keep_cycle_trace=False
    )
    # satellite: no per-cycle list is accumulated, yet the peak is the
    # same running maximum the traced path reports
    assert untraced.cycle_energy_fj == []
    assert traced.cycle_energy_fj != []
    assert untraced.peak_power_mw == pytest.approx(
        traced.peak_power_mw, rel=REL_TOL
    )
    assert untraced.total_energy_fj == pytest.approx(
        traced.total_energy_fj, rel=REL_TOL
    )


def test_estimate_many_mixed_profile_lane_mates():
    adapter = RTLEstimatorAdapter()
    specs = [
        RunSpec(design="binary_search", engine="rtl", seed=seed,
                max_cycles=48, power_profile=(seed % 2 == 0),
                profile_window=4 if seed == 2 else None)
        for seed in range(4)
    ]
    results = adapter.estimate_many(specs)
    for spec, result in zip(specs, results):
        if spec.power_profile:
            _assert_parity(result)
            assert result.profile.window_cycles == (spec.profile_window or 1)
        else:
            assert result.profile is None


@pytest.mark.parametrize("kernel_backend", ["native", "off"])
@pytest.mark.parametrize("windows, max_cycles", [((3, 4), 64), ((None, 5), 256)])
def test_lane_mates_with_different_windows_get_their_own(kernel_backend, windows,
                                                         max_cycles):
    """Each lane's profile equals its scalar run's, whatever its lane-mates ask."""
    specs = [
        RunSpec(design="HVPeakF", engine="rtl", seed=seed, max_cycles=max_cycles,
                power_profile=True, profile_window=window,
                kernel_backend=kernel_backend)
        for seed, window in zip((1, 2), windows)
    ]
    lanes = RTLEstimatorAdapter().estimate_many(specs)
    for spec, lane in zip(specs, lanes):
        scalar = estimate(spec.replace(backend="compiled")).profile
        assert lane.profile.window_cycles == scalar.window_cycles
        assert lane.profile.energy_fj == scalar.energy_fj
    assert [lane.profile.window_cycles for lane in lanes] == [
        window or -(-max_cycles // 64) for window in windows]


# ------------------------------------------------------ hotspots / trace
def test_hotspot_report_structure():
    spec = RunSpec(design="DCT", engine="rtl", seed=1, max_cycles=48,
                   power_profile=True)
    profile = estimate(spec).profile
    hotspots = profile.hotspots(top_k=3)
    assert hotspots["design"] == "DCT"
    assert len(hotspots["top_components"]) == 3
    shares = [c["share"] for c in hotspots["top_components"]]
    assert shares == sorted(shares, reverse=True)
    assert all(0.0 < s <= 1.0 for s in shares)
    peak = hotspots["peak_windows"][0]
    assert peak["power_mw"] == pytest.approx(hotspots["peak_power_mw"])
    assert peak["top_component"] in profile.component_names
    assert sum(hotspots["energy_by_type"].values()) == pytest.approx(
        hotspots["total_energy_fj"], rel=REL_TOL
    )
    # JSON-serializable end to end, and the ASCII rendering holds together
    json.dumps(hotspots)
    text = profile.table(top_k=3)
    assert "power over time" in text
    assert "peak" in text


def test_profile_counter_events_on_trace_timeline():
    spec = RunSpec(design="DCT", engine="rtl", seed=2, max_cycles=32,
                   power_profile=True)
    obs.drain_spans()
    obs.enable(tracing=True)
    try:
        estimate(spec)
        events = obs.drain_spans()
    finally:
        obs.disable()
        obs.enable(tracing=False)  # tracing off, metrics back on
    counters = [e for e in events if isinstance(e, dict)
                and e.get("ph") == "C"]
    assert counters, "profiled estimate should emit counter events"
    assert counters[0]["name"] == "power_mw:DCT"
    assert counters[0]["cat"] == "repro.power"
    # timestamps are monotonic and the series closes at zero
    timestamps = [e["ts"] for e in counters]
    assert timestamps == sorted(timestamps)
    assert all(v == 0.0 for v in counters[-1]["args"].values())


def test_obs_power_gauges_track_last_run():
    spec = RunSpec(design="DCT", engine="rtl", seed=1, max_cycles=32)
    result = estimate(spec)
    peak = obs.REGISTRY.gauge("repro_power_last_peak_mw", "").value(
        design="DCT", engine="rtl"
    )
    mean = obs.REGISTRY.gauge("repro_power_last_mean_mw", "").value(
        design="DCT", engine="rtl"
    )
    assert peak == pytest.approx(result.report.peak_power_mw)
    assert mean == pytest.approx(result.report.average_power_mw)


# ----------------------------------------------------------------- serve
def _http(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def test_serve_profile_route_end_to_end():
    from repro.serve import HttpFrontend, PowerServer

    async def go():
        async with PowerServer(coalesce_window_s=0.02) as server:
            http = HttpFrontend(server, port=0)
            await http.start()
            try:
                spec = {"design": "DCT", "engine": "rtl", "seed": 1,
                        "max_cycles": 48, "power_profile": True,
                        "profile_window": 4}
                status, body = await asyncio.to_thread(
                    _http, f"{http.url}/jobs", spec
                )
                assert status == 202
                job_id = body["job_id"]
                status, payload = await asyncio.to_thread(
                    _http, f"{http.url}/jobs/{job_id}/profile"
                )
                assert status == 200
                profile = PowerProfile.from_dict(payload)
                assert profile.design == "DCT"
                assert profile.window_cycles == 4
                assert profile.total_energy_fj() > 0
                # the done event streams a bounded windowed-power summary
                status, record = await asyncio.to_thread(
                    _http, f"{http.url}/jobs/{job_id}"
                )
                done = [e for e in record["events"]
                        if e["state"] == "done"][0]
                summary = done["detail"]["profile"]
                assert summary["n_windows"] == profile.n_windows
                assert len(summary["window_power_mw"]) <= 32
                assert summary["peak_power_mw"] == pytest.approx(
                    profile.peak_power_mw(), abs=1e-5
                )
                assert done["detail"]["peak_power_mw"] > 0
                # a job without power_profile has no profile: 404
                status, body = await asyncio.to_thread(
                    _http, f"{http.url}/jobs",
                    {"design": "DCT", "engine": "rtl", "seed": 2,
                     "max_cycles": 32},
                )
                job_id = body["job_id"]
                status, _ = await asyncio.to_thread(
                    _http, f"{http.url}/jobs/{job_id}/result"
                )
                assert status == 200
                status, body = await asyncio.to_thread(
                    _http, f"{http.url}/jobs/{job_id}/profile"
                )
                assert status == 404
                assert "no power profile" in body["error"]
            finally:
                await http.stop()

    asyncio.run(go())


# ------------------------------------------------------------------- CLI
def test_cli_profile_subcommand(tmp_path, capsys):
    from repro.api.cli import main

    artifact = tmp_path / "profile.json"
    code = main([
        "profile", "--design", "binary_search", "--max-cycles", "32",
        "--power-profile", str(artifact),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "power profile — binary_search" in out
    payload = json.loads(artifact.read_text())
    profile = PowerProfile.from_dict(payload)
    assert profile.design == "binary_search"
    assert profile.cycles == 32
