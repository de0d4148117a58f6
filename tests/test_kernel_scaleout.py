"""Multi-core scale-out invariants: none of the levers may change results.

The scale-out work trades nothing for speed, and these tests pin that down:

* **Thread invariance** — the threaded native kernel partitions lanes into
  disjoint blocks, so any ``kernel_threads`` count must leave a bit-identical
  value store, for every registry design, under driven input sequences and
  under compiled spec stimulus alike; ``auto`` never asks for more workers
  than the process may run on.
* **Limb-store parity** — 61..240-bit nets moved from the object-dtype
  whole-module fallback onto int64 limb arrays; forcing a module back onto
  the object store (the old exact-arithmetic oracle) must reproduce the limb
  path cycle for cycle, and the lane power estimator must match the scalar
  estimator on a limb-store design.
* **Sharded characterization** — fanning ``characterize_many`` over worker
  processes (one warm engine per worker) must return the same models and
  metrics as the in-process serial loop.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.designs.registry import all_designs, build_flat, get_design
from repro.netlist import flatten
from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier
from repro.power import (
    CharacterizationEngine,
    build_seed_library,
    characterize_many,
)
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.sim import BatchSimulator
from repro.sim.kernels import (
    find_compiler,
    resolve_kernel_threads,
    usable_cpu_count,
)
from repro.stim import SpecTestbench
from repro.stim.driver import BatchStimulusDriver

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
        BatchStimulusDriver(simulator, spec).run()
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
        BatchStimulusDriver(simulator, spec).run()
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
    """``auto`` counts the CPUs the process may run on, not the machine's."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpu_count() == 1
    assert resolve_kernel_threads("auto", n_lanes=1024) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert resolve_kernel_threads("auto", n_lanes=1024) == 3
    assert resolve_kernel_threads("auto", n_lanes=256) == 2


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
    """Wraps a kernel's cffi library; records the worker count of each call."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls = []

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def call(*args):
            self.calls.append(args[-1])  # the driver's last argument
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


# ---------------------------------------------------------------------------
# Limb-store parity against the object-dtype oracle and the scalar estimator.
# ---------------------------------------------------------------------------


def _run_wide_checksum(words, force_object):
    """Run Wide_Checksum on a fresh module; optionally force the object store."""
    module = flatten(get_design("Wide_Checksum").build())
    with pytest.MonkeyPatch.context() as mp:
        if force_object:
            # shrink the limb ceiling below the design's 168-bit state so the
            # compiler takes the old exact-int object-dtype fallback
            mp.setattr("repro.sim.batch.MAX_LIMB_WIDTH", 60)
        simulator = BatchSimulator(module, words.shape[1])
        rows = []
        for cycle in range(len(words)):
            simulator.set_inputs({"data": words[cycle], "valid": 1})
            simulator.settle()
            rows.append(simulator.get_outputs())
            simulator.clock_edge()
    return simulator, rows


def test_limb_store_matches_object_store_oracle():
    """The int64 limb path reproduces the exact-int object path cycle by cycle."""
    rng = np.random.default_rng(17)
    words = rng.integers(0, 1 << 48, size=(24, 4), dtype=np.int64)
    limb_sim, limb_rows = _run_wide_checksum(words, force_object=False)
    object_sim, object_rows = _run_wide_checksum(words, force_object=True)
    assert limb_sim.program.dtype is np.int64
    assert limb_sim.program.limbs_of  # the 168-bit state really is limbed
    assert object_sim.program.dtype is object
    for cycle, (expected, actual) in enumerate(zip(object_rows, limb_rows)):
        for port in expected:
            assert np.array_equal(expected[port], actual[port]), (
                f"cycle {cycle} output {port!r}: limb store diverged from "
                f"the object-dtype oracle"
            )


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
