"""Multi-core scale-out invariants: none of the levers may change results.

The scale-out work trades nothing for speed, and these tests pin that down:

* **Thread invariance** — the threaded native kernel partitions lanes into
  disjoint blocks, so any ``kernel_threads`` count must leave a bit-identical
  value store, for every registry design, under driven input sequences and
  under compiled spec stimulus alike; ``auto`` runs one worker.  A call
  runs at most one worker per lane block, and the serial tier (a compiler
  without OpenMP) gives the same results at any requested count.
* **Run-to-completion lane blocks** — a native lane block driven by a
  stimulus spec or by registry stream testbenches runs in one ``run``
  kernel call per segment; its reports, cycle traces and profiles (and the
  testbenches' check counts) equal the per-cycle loop's on the ``off``
  backend at every lane count around the 128-lane block and at 1 and 2
  workers, with segments cut by stimulus chunks, profile windows and trace
  buffers.
* **Limb-store parity** — 61..240-bit nets live in int64 limb arrays; the
  limb path must reproduce the exact-int ``interp`` oracle cycle for cycle,
  and the lane power estimator must match the scalar estimator on a
  limb-store design.
* **Sharded characterization** — fanning ``characterize_many`` over worker
  processes (one warm engine per worker) must return the same models and
  metrics as the in-process serial loop.
"""

from __future__ import annotations

import dataclasses
import os
import random
from collections import Counter

import numpy as np
import pytest

from repro.designs.registry import all_designs, build_flat, get_design
from repro.netlist import flatten
from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier
from repro.netlist import NetlistBuilder
from repro.power import (
    CharacterizationEngine,
    ProfileConfig,
    build_seed_library,
    characterize_many,
)
from repro.power import block as power_block
from repro.power import lane_estimator
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.sim import BatchSimulator, Simulator, declarative
from repro.sim.batch import compile_module_batch
from repro.sim.kernels import (
    BLOCK_LANES,
    find_compiler,
    resolve_kernel_threads,
    usable_cpu_count,
    worker_count,
)
from repro.sim.kernels import native
from repro.stim import SpecTestbench, StimulusSpec
from repro.stim.driver import BatchStimulusDriver

from stim_loop import drive_to_end

needs_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on this host"
)

#: 1 = the serial reference; 2 and 8 exercise even and lane-remainder splits
THREAD_COUNTS = (1, 2, 8)
#: deliberately not a multiple of any thread count (remainder lane blocks)
N_LANES = 65
N_CYCLES = 16

SPEC_DESIGNS = sorted(
    name for name in all_designs() if get_design(name).stimulus is not None
)


def _input_sequences(module, rng, n_lanes=N_LANES, n_cycles=N_CYCLES):
    return {
        name: rng.integers(
            0, 1 << min(port.net.width, 16), size=(n_cycles, n_lanes), dtype=np.int64
        )
        for name, port in module.ports.items()
        if port.is_input
    }


def _native_simulator(design_name, n_threads, n_lanes=N_LANES):
    simulator = BatchSimulator(
        build_flat(design_name), n_lanes,
        kernel_backend="native", kernel_threads=n_threads,
    )
    if simulator.kernel_backend != "native":
        pytest.skip(f"native kernel unavailable ({simulator.kernel_fallback})")
    simulator.reset()
    return simulator


# ---------------------------------------------------------------------------
# Thread-count invariance.
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("design_name", sorted(all_designs()))
def test_thread_count_bit_invariance(design_name):
    """Driven runs: every thread count leaves a bit-identical value store."""
    rng = np.random.default_rng(hash(design_name) % (2**32))
    sequences = _input_sequences(build_flat(design_name), rng)

    def run(n_threads):
        simulator = _native_simulator(design_name, n_threads)
        for cycle in range(N_CYCLES):
            simulator.set_inputs({name: sequences[name][cycle] for name in sequences})
            simulator.settle()
            simulator.clock_edge()
        simulator.settle()
        return simulator._v.copy()

    reference = run(THREAD_COUNTS[0])
    for n_threads in THREAD_COUNTS[1:]:
        assert np.array_equal(reference, run(n_threads)), (
            f"{design_name}: {n_threads}-thread store differs from serial"
        )


@needs_cc
@pytest.mark.parametrize("design_name", SPEC_DESIGNS)
def test_thread_count_invariance_under_spec_stimulus(design_name):
    """Spec-driven runs (the lane-sweep path) are thread-count invariant too."""
    spec = get_design(design_name).make_stimulus_spec().replace(n_cycles=N_CYCLES)

    def run(n_threads):
        simulator = _native_simulator(design_name, n_threads, n_lanes=8)
        drive_to_end(BatchStimulusDriver(simulator, spec))
        return simulator._v.copy()

    reference = run(THREAD_COUNTS[0])
    for n_threads in THREAD_COUNTS[1:]:
        assert np.array_equal(reference, run(n_threads)), (
            f"{design_name}: {n_threads}-thread spec-driven store differs "
            f"from serial"
        )


#: enough lanes for 3 BLOCK_LANES=128 blocks (the last one a remainder), so
#: the threaded kernel genuinely splits work across workers
N_LANES_WIDE = 300


def _numpy_reference_simulator(design_name, n_lanes=N_LANES_WIDE):
    """The plain per-op NumPy batch path, the oracle every kernel must match."""
    simulator = BatchSimulator(
        build_flat(design_name), n_lanes, kernel_backend="off"
    )
    assert simulator.kernel_backend == "off"
    simulator.reset()
    return simulator


@needs_cc
@pytest.mark.parametrize("design_name", sorted(all_designs()))
def test_numpy_thread_count_bit_invariance(design_name):
    """Driven runs across 3 lane blocks: every thread count of the native
    kernel leaves the same value store as the plain NumPy batch path."""
    rng = np.random.default_rng(hash(design_name) % (2**32))
    sequences = _input_sequences(
        build_flat(design_name), rng, n_lanes=N_LANES_WIDE, n_cycles=8
    )

    def run(simulator):
        for cycle in range(8):
            simulator.set_inputs(
                {name: sequences[name][cycle] for name in sequences}
            )
            simulator.settle()
            simulator.clock_edge()
        simulator.settle()
        return simulator._v.copy()

    reference = run(_numpy_reference_simulator(design_name))
    for n_threads in THREAD_COUNTS:
        simulator = _native_simulator(design_name, n_threads, N_LANES_WIDE)
        assert simulator.kernel_threads == n_threads
        assert np.array_equal(reference, run(simulator)), (
            f"{design_name}: {n_threads}-thread native store differs from "
            f"the NumPy batch path"
        )


@needs_cc
@pytest.mark.parametrize("design_name", SPEC_DESIGNS)
def test_numpy_thread_invariance_under_spec_stimulus(design_name):
    """Spec-driven runs across 2 lane blocks match the NumPy batch path at
    every thread count too."""
    spec = get_design(design_name).make_stimulus_spec().replace(n_cycles=8)

    def run(simulator):
        drive_to_end(BatchStimulusDriver(simulator, spec))
        return simulator._v.copy()

    reference = run(_numpy_reference_simulator(design_name, n_lanes=200))
    for n_threads in THREAD_COUNTS:
        simulator = _native_simulator(design_name, n_threads, n_lanes=200)
        assert np.array_equal(reference, run(simulator)), (
            f"{design_name}: {n_threads}-thread native spec-driven store "
            f"differs from the NumPy batch path"
        )


@needs_cc
def test_threads_resolve_from_environment(monkeypatch):
    """REPRO_KERNEL_THREADS sets the worker count of the native kernel."""
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
    simulator = _native_simulator("binary_search", None, N_LANES_WIDE)
    assert simulator.kernel_threads == 2
    assert simulator.kernel.max_threads >= 2


def test_auto_threads_count_only_usable_cpus(monkeypatch):
    """``usable_cpu_count`` counts the CPUs the process may run on, not the
    machine's, and ``auto`` asks for one worker however many there are: a
    second worker measured slower on small hosts (BENCH_kernel_scaling.json)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpu_count() == 1
    assert resolve_kernel_threads("auto") == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert usable_cpu_count() == 3
    assert resolve_kernel_threads("auto") == 1
    assert resolve_kernel_threads(3) == 3


@needs_cc
def test_thread_switch_roundtrip_is_bit_identical():
    """One simulator flipping threaded -> serial keeps producing the same
    store as a never-threaded run (mode switches can't corrupt state)."""
    rng = np.random.default_rng(11)
    sequences = _input_sequences(
        build_flat("binary_search"), rng, n_lanes=N_LANES_WIDE, n_cycles=12
    )

    def run(thread_schedule):
        simulator = _native_simulator(
            "binary_search", thread_schedule[0], N_LANES_WIDE
        )
        for cycle in range(12):
            simulator.kernel_threads = thread_schedule[cycle % len(thread_schedule)]
            simulator.set_inputs(
                {name: sequences[name][cycle] for name in sequences}
            )
            simulator.settle()
            simulator.clock_edge()
        simulator.settle()
        return simulator._v.copy()

    assert np.array_equal(run((1,)), run((2, 1, 3)))


class _ThreadSpy:
    """Wraps a kernel's cffi library; records the worker count of each call
    (for the phase entry points) and counts the calls of each entry point."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls = []
        self.names = Counter()

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def call(*args):
            self.calls.append(args[-1])  # a phase entry's last argument
            self.names[name] += 1
            return function(*args)

        return call


@needs_cc
def test_simulators_sharing_a_kernel_keep_their_own_thread_counts():
    """Simulators of one program share its kernel, yet each runs with, and
    reports, its own worker count, and both give bit-identical results."""
    module = build_flat("HVPeakF")
    n_lanes = 256
    sequences = _input_sequences(
        module, np.random.default_rng(23), n_lanes=n_lanes, n_cycles=N_CYCLES
    )
    first = BatchSimulator(module, n_lanes, kernel_backend="native", kernel_threads=2)
    second = BatchSimulator(module, n_lanes, kernel_backend="native", kernel_threads=1)
    if first.kernel_backend != "native":
        pytest.skip(f"native kernel unavailable ({first.kernel_fallback})")
    assert first.kernel is second.kernel
    spy = _ThreadSpy(first.kernel._lib)
    first.kernel._lib = spy
    stores = {}
    try:
        for simulator, n_threads in ((first, 2), (second, 1), (first, 2)):
            assert simulator.kernel_threads == n_threads
            spy.calls.clear()
            simulator.reset()
            for cycle in range(N_CYCLES):
                simulator.step({name: sequences[name][cycle] for name in sequences})
            simulator.settle()
            assert set(spy.calls) == {n_threads}
            stores.setdefault(n_threads, []).append(simulator._v.copy())
    finally:
        first.kernel._lib = spy._lib
    reference = stores[1][0]
    assert all(np.array_equal(reference, store) for store in stores[2])


class _FakeLib:
    """Stands in for a kernel's cffi library and never calls into C: records
    each call's entry point, worker count and the kernel's scratch size."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.calls = []

    def __getattr__(self, name):
        def call(*args):
            # settle, clock_edge and run take (v, S, M, W, L, nt, ...)
            self.calls.append((name, args[5], self.kernel._scratch.size))

        return call


def test_worker_count_is_one_per_lane_block_at_most():
    assert worker_count(10**6, 256) == 2
    assert worker_count(8, 129) == 2
    assert worker_count(2, 128) == 1
    assert worker_count(3, 1) == 1
    assert worker_count(1, 1000) == 1
    assert worker_count(3, 1000) == 3


@needs_cc
def test_kernel_calls_cap_workers_at_the_lane_block_count(monkeypatch):
    """Any requested count reaches the kernel as at most one worker per lane
    block, and the kernel and observe scratch are sized for that; the
    simulator and estimator keep the count they were given.  The library is
    faked before the huge count is used, so no C code runs with it."""
    evaluators = []

    class Recording(power_block.NativeEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

    monkeypatch.setattr(lane_estimator, "NativeEvaluator", Recording)
    entry = get_design("binary_search")  # its kernel has SSA scratch rows
    module = entry.build()  # a fresh module: a kernel of its own
    spec = entry.make_stimulus_spec().replace(n_cycles=8)
    benches = [SpecTestbench(spec, seed=s) for s in range(256)]
    estimator = BatchRTLPowerEstimator(module, kernel_backend="native",
                                       kernel_threads=1)
    estimator.estimate_all(benches)  # compiles the kernel
    if estimator.last_kernel_backend != "native":
        pytest.skip("native kernel unavailable")
    kernel = compile_module_batch(estimator.module, 256)._kernel
    assert kernel.max_threads == 1
    fake = kernel._lib = _FakeLib(kernel)
    per_worker = native.scratch_rows(kernel.ir) * BLOCK_LANES
    assert per_worker > 0

    simulator = BatchSimulator(estimator.module, 256, kernel_backend="native",
                               kernel_threads=10**6)
    assert simulator.kernel is kernel
    assert simulator.kernel_threads == 10**6
    simulator.step()
    assert fake.calls == [("settle", 2, 2 * per_worker),  # the reset
                          ("settle", 2, 2 * per_worker),
                          ("clock_edge", 2, 2 * per_worker)]

    fake.calls.clear()
    estimator.kernel_threads = 10**6
    estimator.estimate_all(benches)
    assert estimator.last_kernel_threads == 10**6
    assert "run_s" in estimator.last_phase_s  # the fused path ran
    assert fake.calls == [("settle", 2, 2 * per_worker),
                          ("run", 2, 2 * per_worker)]
    assert kernel.max_threads == 2
    assert evaluators[-1]._arrays["toggles"].shape[0] == 2
    assert evaluators[-1]._arrays["toggled"].shape[0] == 2


@needs_cc
def test_serial_tier_runs_every_thread_count_alike(monkeypatch):
    """A compiler without OpenMP builds serial kernels, which take any worker
    count and run it on one thread.  The tier is part of the library cache
    key, so forcing it builds a library of its own, compiled without
    ``-fopenmp``; at 300 lanes (three blocks) its 2-worker calls leave the
    1-worker store, and a fused run at 2 workers gives the ``off`` reports."""
    commands = []
    run = native.subprocess.run

    def recording(command, *args, **kwargs):
        commands.append(list(command))
        return run(command, *args, **kwargs)

    monkeypatch.setattr(native, "threading_mode", lambda: "serial")
    monkeypatch.setattr(native.subprocess, "run", recording)
    module = get_design("HVPeakF").build()  # fresh: its kernel compiles now
    sequences = _input_sequences(module, np.random.default_rng(29),
                                 n_lanes=N_LANES_WIDE, n_cycles=N_CYCLES)
    stores = []
    for n_threads in (1, 2):
        simulator = BatchSimulator(module, N_LANES_WIDE, kernel_backend="native",
                                   kernel_threads=n_threads)
        if simulator.kernel_backend != "native":
            pytest.skip(f"native kernel unavailable ({simulator.kernel_fallback})")
        simulator.reset()
        for cycle in range(N_CYCLES):
            simulator.step({name: sequences[name][cycle] for name in sequences})
        simulator.settle()
        stores.append(simulator._v.copy())
    assert commands and not any("-fopenmp" in command for command in commands)
    assert np.array_equal(stores[0], stores[1])

    spec = _fused_spec("HVPeakF")
    want = _spec_lane_run(get_design("HVPeakF").build(), spec, N_LANES_WIDE, "off")[:2]
    *got, estimator = _spec_lane_run(
        get_design("HVPeakF").build(), spec, N_LANES_WIDE, "native", 2)
    assert "run_s" in estimator.last_phase_s  # the fused path ran
    assert not any("-fopenmp" in command for command in commands)
    assert got == list(want)


# ---------------------------------------------------------------------------
# Limb-store parity against the interp oracle and the scalar estimator.
# ---------------------------------------------------------------------------


def test_limb_store_matches_interp_oracle():
    """The int64 limb path reproduces the exact-int interpreter cycle by cycle."""
    rng = np.random.default_rng(17)
    words = rng.integers(0, 1 << 48, size=(24, 4), dtype=np.int64)
    simulator = BatchSimulator(flatten(get_design("Wide_Checksum").build()), words.shape[1])
    assert simulator._v.dtype == np.int64
    assert simulator.program.limbs_of  # the 168-bit state really is limbed
    oracles = [Simulator(flatten(get_design("Wide_Checksum").build()), backend="interp")
               for _ in range(words.shape[1])]
    for cycle, row in enumerate(words):
        simulator.set_inputs({"data": row, "valid": 1})
        simulator.settle()
        actual = simulator.get_outputs()
        for lane, oracle in enumerate(oracles):
            oracle.set_inputs({"data": int(row[lane]), "valid": 1})
            oracle.settle()
            for port, value in oracle.get_outputs().items():
                assert int(actual[port][lane]) == value, (
                    f"cycle {cycle} lane {lane} output {port!r}: limb store "
                    f"diverged from the interp oracle"
                )
            oracle.clock_edge()
        simulator.clock_edge()


@pytest.mark.parametrize(
    "backend", ["off"] + (["native"] if find_compiler() else [])
)
def test_wide_checksum_estimator_parity_vs_scalar(backend):
    """Lane power reports on a limb-store design match the scalar estimator."""
    design = get_design("Wide_Checksum")
    spec = design.make_stimulus_spec().replace(n_cycles=48)
    library = build_seed_library()
    scalar = RTLPowerEstimator(
        flatten(design.build()), library=library
    ).estimate(SpecTestbench(spec, seed=3))
    estimator = BatchRTLPowerEstimator(
        flatten(design.build()), library=library, kernel_backend=backend
    )
    lane = estimator.estimate_all([SpecTestbench(spec, seed=3)])[0]
    assert lane.cycles == scalar.cycles
    assert lane.total_energy_fj == pytest.approx(scalar.total_energy_fj, rel=1e-12)
    assert np.allclose(lane.cycle_energy_fj, scalar.cycle_energy_fj, rtol=1e-12)
    for name, component in scalar.components.items():
        assert lane.components[name].energy_fj == pytest.approx(
            component.energy_fj, rel=1e-12
        ), f"component {name!r} energy diverged on backend {backend!r}"


# ---------------------------------------------------------------------------
# Run-to-completion lane blocks: one kernel call per segment, same results.
# ---------------------------------------------------------------------------

#: one lane, a partial block, a whole block, one lane over, two blocks
FUSED_LANES = (1, 127, 128, 129, 256)
#: past one 256-cycle stimulus chunk
FUSED_CYCLES = 300
#: per-lane budgets, cycled over the lanes: before, at and past the end
FUSED_BUDGETS = (FUSED_CYCLES, 17, 256, 299, None, 1000)
#: per-lane profiles: 37-cycle windows straddle the chunk boundary at 256,
#: 5-cycle windows coalesce mid-run, and some lanes collect none
FUSED_PROFILES = (ProfileConfig(window_cycles=37, max_windows=16),
                  ProfileConfig(window_cycles=5, max_windows=4), None)
#: elements per trace buffer: 20 rows at 256 lanes, 40 at 1-128 lanes
FUSED_TRACE_ELEMENTS = 40 * 128


def _fused_spec(design_name):
    if design_name == "HVPeakF":
        return get_design(design_name).make_stimulus_spec().replace(n_cycles=FUSED_CYCLES)
    return StimulusSpec(n_cycles=FUSED_CYCLES, seed=11)


def _spec_lane_run(module, spec, n_lanes, backend, n_threads=1):
    """Every lane's report (wall time zeroed) and profile, and the estimator."""
    estimator = BatchRTLPowerEstimator(
        module, kernel_backend=backend, kernel_threads=n_threads)
    benches = [SpecTestbench(spec, seed=lane) for lane in range(n_lanes)]
    for lane, bench in enumerate(benches):
        bench.max_cycles = FUSED_BUDGETS[lane % len(FUSED_BUDGETS)]
    reports = estimator.estimate_all(
        benches,
        profile=[FUSED_PROFILES[lane % len(FUSED_PROFILES)] for lane in range(n_lanes)])
    assert estimator.last_kernel_backend == backend
    reports = [dataclasses.replace(r, estimation_time_s=0.0) for r in reports]
    return reports, estimator.last_profiles, estimator


@needs_cc
@pytest.mark.parametrize("n_lanes", FUSED_LANES)
@pytest.mark.parametrize("design_name", ["HVPeakF", "Vld"])
def test_fused_run_equals_cycle_loop(monkeypatch, design_name, n_lanes):
    monkeypatch.setattr(power_block, "BLOCK_ELEMENTS", FUSED_TRACE_ELEMENTS)
    spec = _fused_spec(design_name)
    want = _spec_lane_run(build_flat(design_name), spec, n_lanes, "off")[:2]
    for n_threads in (1, 2):
        *got, estimator = _spec_lane_run(
            build_flat(design_name), spec, n_lanes, "native", n_threads)
        assert "run_s" in estimator.last_phase_s  # the fused path ran
        assert got[0] == want[0], (design_name, n_lanes, n_threads)
        assert got[1] == want[1], (design_name, n_lanes, n_threads)


@needs_cc
def test_fused_run_makes_one_kernel_call_per_segment():
    """A segment ends at the chunk end, a profile window boundary or the end
    of the trace buffer, and is one ``run`` call: no per-cycle kernel call."""
    module = build_flat("HVPeakF")
    spec = get_design("HVPeakF").make_stimulus_spec()
    assert spec.n_cycles == 256
    estimator = BatchRTLPowerEstimator(module, kernel_backend="native")
    estimator.estimate_all([SpecTestbench(spec, seed=s) for s in range(256)])
    kernel = compile_module_batch(module, 256)._kernel
    spy = kernel._lib = _ThreadSpy(kernel._lib)
    try:
        estimator.estimate_all([SpecTestbench(spec, seed=s) for s in range(256)])
        # the settle is the simulator's reset, when it is built
        assert spy.names == {"settle": 1, "run": 1}
        spy.names.clear()
        longer = spec.replace(n_cycles=FUSED_CYCLES)
        estimator.estimate_all(
            [SpecTestbench(longer, seed=s) for s in range(256)],
            profile=ProfileConfig(window_cycles=37, max_windows=16))
        boundaries = set(range(37, FUSED_CYCLES, 37)) | {256, FUSED_CYCLES}
        assert spy.names == {"settle": 1, "run": len(boundaries)}
    finally:
        kernel._lib = spy._lib


#: per-lane budgets of the registry testbench lanes (600 pixels, 2 tail
#: cycles): before, at and past the last item, into and past the idle tail
STREAM_BUDGETS = (17, 599, 600, 601, 602, None, 1000)


def _stream_lane_run(module, n_lanes, backend, n_threads=1):
    """Every HVPeakF registry-testbench lane's report (wall time zeroed),
    profile and check count, and the estimator."""
    estimator = BatchRTLPowerEstimator(
        module, kernel_backend=backend, kernel_threads=n_threads)
    entry = get_design("HVPeakF")
    benches = [entry.make_testbench(lane) for lane in range(n_lanes)]
    for lane, bench in enumerate(benches):
        bench.max_cycles = STREAM_BUDGETS[lane % len(STREAM_BUDGETS)]
    reports = estimator.estimate_all(
        benches,
        profile=[FUSED_PROFILES[lane % len(FUSED_PROFILES)] for lane in range(n_lanes)])
    assert estimator.last_kernel_backend == backend
    assert all(r.notes["stimulus_driver"] == "stream" for r in reports)
    reports = [dataclasses.replace(r, estimation_time_s=0.0) for r in reports]
    return (reports, estimator.last_profiles,
            [bench.captured() for bench in benches], estimator)


@needs_cc
@pytest.mark.parametrize("n_lanes", (1, 127, 128, 129))
def test_fused_stream_testbench_run_equals_cycle_loop(monkeypatch, n_lanes):
    """Registry stream testbenches run to completion too: reports (cycle
    traces included), profiles and check counts equal the ``off`` loop's,
    with segments cut by profile windows and trace buffers, and lanes
    stopping before, at and after the last item."""
    monkeypatch.setattr(power_block, "BLOCK_ELEMENTS", FUSED_TRACE_ELEMENTS)
    want = _stream_lane_run(build_flat("HVPeakF"), n_lanes, "off")[:3]
    assert all(r.cycle_energy_fj for r in want[0])
    for n_threads in (1, 2):
        *got, estimator = _stream_lane_run(
            build_flat("HVPeakF"), n_lanes, "native", n_threads)
        assert "run_s" in estimator.last_phase_s  # the fused path ran
        assert got[0] == want[0], (n_lanes, n_threads)
        assert got[1] == want[1], (n_lanes, n_threads)
        assert got[2] == want[2], (n_lanes, n_threads)


@needs_cc
def test_fused_stream_testbench_makes_one_kernel_call():
    """A 256-cycle block of registry testbench lanes is one ``run`` call:
    its checks read the outputs the kernel captured, not the store."""
    module = build_flat("HVPeakF")
    entry = get_design("HVPeakF")
    estimator = BatchRTLPowerEstimator(module, kernel_backend="native")
    estimator.estimate_all([entry.make_testbench(s) for s in range(256)], max_cycles=256)
    kernel = compile_module_batch(module, 256)._kernel
    spy = kernel._lib = _ThreadSpy(kernel._lib)
    try:
        benches = [entry.make_testbench(s) for s in range(256)]
        estimator.estimate_all(benches, max_cycles=256)
        # the settle is the simulator's reset, when it is built
        assert spy.names == {"settle": 1, "run": 1}
        # pixels 0..254 come out on cycles 1..255, all gated in
        assert {bench.captured()["pixels_checked"] for bench in benches} == {255}
    finally:
        kernel._lib = spy._lib


def _limb_module():
    """A 100-bit (two-limb) input read through slices within and across its
    limbs; the slices are left unmonitored, so every monitored component is
    a table component and the lane block takes the fused run."""
    b = NetlistBuilder("limb_ports")
    wide = b.input("w", 100)
    narrow = b.input("x", 12)
    high = b.slice(wide, 99, 80)
    straddle = b.slice(wide, 69, 50)
    total = b.add(b.add(high, straddle), b.resize(narrow, 20))
    b.output("y", b.pipe(total))
    module = b.build()
    for component in module.components.values():
        if component.type_name == "slice":
            component.monitored_ports = lambda: []
    return module


@needs_cc
def test_fused_run_splits_limb_ports_into_limb_rows():
    """Equal to the ``off`` loop, which shares the driver's limb split, and
    lane by lane to scalar runs, which write each port as one exact int."""
    spec = StimulusSpec(n_cycles=FUSED_CYCLES, seed=4)
    want = _spec_lane_run(_limb_module(), spec, 129, "off")[:2]
    *got, estimator = _spec_lane_run(_limb_module(), spec, 129, "native")
    assert compile_module_batch(estimator.module, 129).limbs_of  # limbed
    assert "run_s" in estimator.last_phase_s
    assert got == list(want)
    scalar = RTLPowerEstimator(_limb_module())
    for lane in (0, 1, 4, 128):
        bench = SpecTestbench(spec, seed=lane)
        bench.max_cycles = FUSED_BUDGETS[lane % len(FUSED_BUDGETS)]
        config = FUSED_PROFILES[lane % len(FUSED_PROFILES)]
        report = scalar.estimate(bench, profile=config)
        assert (dataclasses.replace(got[0][lane], notes={})
                == dataclasses.replace(report, estimation_time_s=0.0, notes={})), lane
        if config is not None:
            assert (dataclasses.replace(got[1][lane], notes={})
                    == dataclasses.replace(scalar.last_profile, notes={})), lane


def _limb_stream_module():
    """:func:`_limb_module`'s datapath plus ``z``, a registered copy of the
    100-bit ``w``, left unmonitored like the slices (no generic component)."""
    b = NetlistBuilder("limb_stream")
    wide = b.input("w", 100)
    narrow = b.input("x", 12)
    high = b.slice(wide, 99, 80)
    straddle = b.slice(wide, 69, 50)
    total = b.add(b.add(high, straddle), b.resize(narrow, 20))
    b.output("y", b.pipe(total))
    b.output("z", b.pipe(wide, name="wide_copy"))
    module = b.build()
    for component in module.components.values():
        if component.type_name == "slice" or component.name == "wide_copy":
            component.monitored_ports = lambda: []
    return module


class _LimbStream(declarative.StreamTestbench):
    """Streams a 100-bit and a 12-bit port; checks ``y`` one cycle later."""

    latency = 1
    tail = 1
    item = "word"
    checked = ("y",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        super().__init__({"w": [rng.getrandbits(100) for _ in range(40)],
                          "x": [rng.getrandbits(12) for _ in range(40)]}, "limb_stream")

    def reference(self):
        w, x = self.streams["w"], self.streams["x"]
        outputs = {
            "y": [((a >> 80) + ((a >> 50) & 0xFFFFF) + b) & 0xFFFFF for a, b in zip(w, x)],
            "z": list(w),
        }
        return {port: outputs[port] for port in self.checked}


class _WideOutputStream(_LimbStream):
    """Also checks the 100-bit ``z``: a limb-store output."""

    checked = ("y", "z")


@needs_cc
@pytest.mark.parametrize("kind, fused", [(_LimbStream, True), (_WideOutputStream, False)])
def test_stream_testbench_limb_ports(kind, fused):
    """Limb-store input ports go to the kernel split into limb rows; a
    limb-store checked output keeps the per-cycle loop, which reads it as
    exact ints.  Either way reports equal the ``off`` loop's and scalar
    runs', and a mismatch raises the same text on both backends."""
    module = _limb_stream_module()
    reports, errors = {}, {}
    for backend in ("off", "native"):
        estimator = BatchRTLPowerEstimator(module, kernel_backend=backend)
        benches = [kind(seed) for seed in range(5)]
        reports[backend] = [dataclasses.replace(r, estimation_time_s=0.0)
                            for r in estimator.estimate_all(benches)]
        assert ("run_s" in estimator.last_phase_s) == (fused and backend == "native")
        assert {bench._checked for bench in benches} == {40}

        class Corrupted(kind):
            def reference(self):
                golden = super().reference()
                if self.seed == 1:
                    golden[self.checked[-1]][7] ^= 1 << 90 if len(self.checked) > 1 else 1
                return golden

        with pytest.raises(AssertionError) as error:
            estimator.estimate_all([Corrupted(0), Corrupted(1)])
        errors[backend] = str(error.value)
    assert reports["native"] == reports["off"]
    assert errors["native"] == errors["off"]
    assert errors["off"].startswith(f"lane 1 cycle 8: word 7 output {kind.checked[-1]}")
    scalar = RTLPowerEstimator(module)
    for seed in (0, 4):
        report = scalar.estimate(kind(seed))
        assert (dataclasses.replace(reports["native"][seed], notes={})
                == dataclasses.replace(report, estimation_time_s=0.0, notes={})), seed


# ---------------------------------------------------------------------------
# Sharded characterization == serial characterization.
# ---------------------------------------------------------------------------


def test_sharded_characterization_matches_serial():
    components = [
        Adder("a", 8),
        LogicOp("x", "xor", 8),
        Comparator("c", 6),
        Multiplier("m", 4),
    ]
    engine = CharacterizationEngine(n_pairs=40, seed=5)
    serial = characterize_many(components, engine=engine)
    sharded = characterize_many(components, engine=engine, n_workers=2)
    assert len(serial) == len(sharded) == len(components)
    for expected, actual in zip(serial, sharded):
        assert actual.component_type == expected.component_type
        assert actual.model.base_energy_fj == expected.model.base_energy_fj
        assert list(actual.model.flat_coefficients()) == list(
            expected.model.flat_coefficients()
        )
        assert actual.metrics.r_squared == expected.metrics.r_squared
        assert actual.metrics.nrmse == expected.metrics.nrmse
        assert list(actual.reference_energies) == list(expected.reference_energies)
