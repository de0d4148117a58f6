"""Fused lane-kernel tests: IR extraction, backends, parity, and fallbacks.

The kernel subsystem (:mod:`repro.sim.kernels`) must never change results —
only speed.  These tests pin that down three ways:

* bit-parity of the plain batch path vs the native (C) kernel across every
  registry design, the instrumented power hardware, and spec-driven stimulus
  tensors,
* automatic per-module fallback for everything the IR cannot express
  (subclassed components on the lane-scalar path, >240-bit object-dtype
  stores), and
* graceful degradation from ``native`` and ``auto`` to the plain batch path
  on hosts without a working C compiler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InstrumentationConfig
from repro.core.instrument import instrument
from repro.designs.registry import all_designs, build_flat, get, get_design
from repro.netlist import NetlistBuilder, flatten
from repro.power import build_seed_library
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.sim import BatchSimulator, Simulator
from repro.sim import batch
from repro.sim.kernels import find_compiler, native, resolve_kernel_backend
from repro.sim.kernels.native import NativeKernel
from repro.stim import SpecTestbench, UniformSpec
from repro.stim.spec import StimulusSpec

N_LANES = 3
N_CYCLES = 32

needs_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on this host"
)

#: kernel backends checked against the plain batch path ("off")
KERNEL_CASES = [pytest.param("native", marks=needs_cc)]


def _sequences(module, rng, n_cycles=N_CYCLES, n_lanes=N_LANES):
    return {
        name: rng.integers(
            0, 1 << min(port.net.width, 16), size=(n_cycles, n_lanes), dtype=np.int64
        )
        for name, port in module.ports.items()
        if port.is_input
    }


def _run(build_module, sequences, kernel_backend, n_cycles=N_CYCLES, n_lanes=N_LANES):
    simulator = BatchSimulator(build_module(), n_lanes, kernel_backend=kernel_backend)
    rows = []
    for cycle in range(n_cycles):
        simulator.set_inputs({name: sequences[name][cycle] for name in sequences})
        simulator.settle()
        rows.append(simulator.get_outputs())
        simulator.clock_edge()
    return simulator, rows


def _assert_rows_equal(reference, candidate, label):
    for cycle, (expected, actual) in enumerate(zip(reference, candidate)):
        for port in expected:
            assert np.array_equal(expected[port], actual[port]), (
                f"{label}: cycle {cycle} output {port!r} diverged"
            )


# ---------------------------------------------------------------------------
# Cross-backend bit parity.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design_name", sorted(all_designs()))
@pytest.mark.parametrize("backend", KERNEL_CASES)
def test_registry_design_kernel_parity(design_name, backend):
    """Every registry design: kernel outputs == plain batch outputs, per cycle."""
    design = get_design(design_name)
    rng = np.random.default_rng(hash(design_name) % (2**32))
    build = lambda: flatten(design.build())  # noqa: E731
    sequences = _sequences(build(), rng)
    _, reference = _run(build, sequences, "off")
    simulator, candidate = _run(build, sequences, backend)
    assert simulator.kernel_backend == backend
    assert simulator.kernel_fallback is None
    _assert_rows_equal(reference, candidate, f"{design_name}/{backend}")


@pytest.mark.parametrize("backend", KERNEL_CASES)
def test_instrumented_power_hardware_kernel_parity(backend):
    """Power models, aggregator and strobe lower to kernels bit-exactly."""
    library = build_seed_library()
    design = get_design("binary_search")
    build = lambda: instrument(  # noqa: E731
        design.build(), library, InstrumentationConfig()
    ).module
    sequences = _sequences(build(), np.random.default_rng(5))
    _, reference = _run(build, sequences, "off")
    simulator, candidate = _run(build, sequences, backend)
    assert simulator.kernel_backend == backend
    _assert_rows_equal(reference, candidate, f"instrumented/{backend}")


@needs_cc
def test_kernel_vs_scalar_simulator_parity():
    """The native kernel path matches the scalar reference simulator lane by lane."""
    design = get_design("HVPeakF")
    build = lambda: flatten(design.build())  # noqa: E731
    sequences = _sequences(build(), np.random.default_rng(11))
    simulator, rows = _run(build, sequences, "native")
    assert simulator.kernel_backend == "native"
    for lane in range(N_LANES):
        scalar = Simulator(build())
        for cycle in range(N_CYCLES):
            scalar.set_inputs(
                {name: int(sequences[name][cycle, lane]) for name in sequences}
            )
            scalar.settle()
            for port, lanes in rows[cycle].items():
                assert int(lanes[lane]) == scalar.get_output(port)
            scalar.clock_edge()


@pytest.mark.parametrize("backend", KERNEL_CASES)
def test_spec_driven_estimation_kernel_parity(backend):
    """Driven stimulus tensors + macromodel observation: reports are identical."""
    library = build_seed_library()
    spec = get("HVPeakF").make_stimulus_spec()
    seeds = list(range(5))

    def reports(kernel_backend):
        estimator = BatchRTLPowerEstimator(
            build_flat("HVPeakF"), library=library, kernel_backend=kernel_backend
        )
        return estimator.estimate_all(
            [SpecTestbench(spec, seed=seed) for seed in seeds], max_cycles=96
        ), estimator

    reference, _ = reports("off")
    candidate, estimator = reports(backend)
    assert estimator.last_kernel_backend == backend
    for expected, actual in zip(reference, candidate):
        assert expected.cycles == actual.cycles
        assert expected.total_energy_fj == actual.total_energy_fj
        assert expected.average_power_mw == actual.average_power_mw
        assert expected.cycle_energy_fj == actual.cycle_energy_fj
        assert {n: c.energy_fj for n, c in expected.components.items()} == {
            n: c.energy_fj for n, c in actual.components.items()
        }


# ---------------------------------------------------------------------------
# Automatic per-module fallback.
# ---------------------------------------------------------------------------


def _module_with_unfusable_component():
    """A module whose only component is a deliberately unknown type."""
    from repro.netlist.components import Component

    class OpaqueInc(Component):
        type_name = "opaque_inc"

        def __init__(self, name, width):
            super().__init__(name)
            self.width = width
            self.add_input("a", width)
            self.add_output("y", width)

        def evaluate(self, inputs):
            return {"y": (inputs.get("a", 0) + 1) & ((1 << self.width) - 1)}

    builder = NetlistBuilder("opaque")
    builder.input("a", 8)
    module = builder.build()
    component = OpaqueInc("inc", 8)
    module.add_component(component)
    component.connect("a", module.nets["a"])
    y = module.add_net("y", 8)
    component.connect("y", y)
    module.add_output("y", y)
    return module


def test_unfusable_component_falls_back_to_plain_batch():
    module = _module_with_unfusable_component()
    simulator = BatchSimulator(flatten(module), N_LANES, kernel_backend="native")
    assert simulator.kernel is None
    assert simulator.kernel_backend == "off"
    assert "fallback" in simulator.kernel_fallback
    simulator.set_input("a", np.array([1, 2, 3]))
    simulator.settle()
    assert list(simulator.get_output("y")) == [2, 3, 4]


@needs_cc
def test_limb_store_modules_compile_kernels():
    """61..240-bit nets live in int64 limb slots, so kernels still fuse."""
    builder = NetlistBuilder("wide")
    a = builder.input("a", 64)
    b = builder.input("b", 64)
    y = builder.logic("xor", a, b)
    builder.output("y", y)
    module = flatten(builder.build())
    simulator = BatchSimulator(module, N_LANES, kernel_backend="native")
    assert simulator.kernel is not None
    assert simulator.kernel_backend == "native"
    assert simulator.program.n_fallback == 0
    big = (1 << 63) | 5
    simulator.set_input("a", np.array([big, 1, 2], dtype=object))
    simulator.set_input("b", 1)
    simulator.settle()
    assert int(simulator.get_output("y")[0]) == big ^ 1


def test_very_wide_object_store_falls_back_to_plain_batch():
    """Past MAX_LIMB_WIDTH the store is object-dtype and kernels disable."""
    builder = NetlistBuilder("very_wide")
    a = builder.input("a", 250)
    b = builder.input("b", 250)
    y = builder.logic("xor", a, b)
    builder.output("y", y)
    module = flatten(builder.build())
    simulator = BatchSimulator(module, N_LANES, kernel_backend="native")
    assert simulator.kernel is None
    assert simulator.kernel_backend == "off"
    assert "object-dtype" in simulator.kernel_fallback
    big = (1 << 249) | 5
    simulator.set_input("a", np.array([big, 1, 2], dtype=object))
    simulator.set_input("b", 1)
    simulator.settle()
    assert int(simulator.get_output("y")[0]) == big ^ 1


def test_unsupported_reason_is_cached_on_the_program():
    module = flatten(_module_with_unfusable_component())
    first = BatchSimulator(module, 2, kernel_backend="native")
    second = BatchSimulator(module, 2, kernel_backend="native")
    assert first.kernel_fallback == second.kernel_fallback
    assert first.program is second.program
    assert first.program._kernel_unsupported is not None


# ---------------------------------------------------------------------------
# Backend selection and graceful degradation.
# ---------------------------------------------------------------------------


def test_resolve_kernel_backend_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    assert resolve_kernel_backend(None) == "auto"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
    assert resolve_kernel_backend(None) == "native"
    assert resolve_kernel_backend("off") == "off"
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_kernel_backend("fpga")


def test_env_variable_selects_simulator_default(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "off")
    module = flatten(get_design("Bubble_Sort").build())
    simulator = BatchSimulator(module, 2)
    assert simulator.kernel is None and simulator.kernel_backend == "off"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
    simulator = BatchSimulator(module, 2)
    assert simulator.kernel_decision == "native (requested)"


def test_retired_numpy_kernel_is_rejected_everywhere(monkeypatch, capsys):
    """RunSpec, SweepSpec, the CLI flag and the env default all refuse the
    deleted fused-NumPy kernel backend, listing the valid ones."""
    from repro.api import RunSpec, SweepSpec
    from repro.api.cli import main as cli_main

    retired = "numpy"
    listing = "auto, native, off"
    with pytest.raises(ValueError, match=listing):
        RunSpec(design="binary_search", kernel_backend=retired)
    with pytest.raises(ValueError, match=listing):
        SweepSpec(designs=("binary_search",), kernel_backend=retired)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", retired)
    with pytest.raises(ValueError, match=listing):
        resolve_kernel_backend(None)
    with pytest.raises(ValueError, match=listing):
        BatchSimulator(build_flat("binary_search"), 2)
    monkeypatch.delenv("REPRO_KERNEL_BACKEND")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--design", "binary_search", "--kernel-backend", retired])
    assert exit_info.value.code == 2
    assert "choose from 'auto', 'native', 'off'" in capsys.readouterr().err


def _fresh_pipeline_module(width=9):
    """A module structure no other test compiles (defeats the .so cache)."""
    builder = NetlistBuilder("kernelless")
    a = builder.input("a", width)
    b = builder.input("b", width)
    total = builder.add(a, b, name="adder")
    builder.output("total", builder.pipe(total, name="sum_reg"))
    return flatten(builder.build())


def test_native_without_compiler_degrades_to_off(monkeypatch):
    """A no-compiler host runs "native" and "auto" on the plain batch path."""
    monkeypatch.setenv("REPRO_KERNEL_CC", "definitely-not-a-compiler")
    assert find_compiler() is None
    module = _fresh_pipeline_module()
    simulator = BatchSimulator(module, N_LANES, kernel_backend="native")
    assert simulator.kernel is None
    assert simulator.kernel_backend == "off"
    assert "no C compiler found" in simulator.kernel_fallback
    auto = BatchSimulator(module, N_LANES, kernel_backend="auto")
    assert auto.kernel_backend == "off"
    assert auto.kernel_decision == "auto -> off (no C toolchain)"
    rng = np.random.default_rng(3)
    sequences = _sequences(module, rng)
    rows = []
    for cycle in range(N_CYCLES):
        simulator.set_inputs({name: sequences[name][cycle] for name in sequences})
        simulator.settle()
        rows.append(simulator.get_outputs())
        simulator.clock_edge()
    _, reference = _run(lambda: _fresh_pipeline_module(), sequences, "off")
    _assert_rows_equal(reference, rows, "no-compiler fallback")


def test_non_compiler_toolchain_runs_off_with_identical_reports(monkeypatch):
    """REPRO_KERNEL_CC naming a command that is not a compiler: the kernel
    build fails, so "auto" and "native" both run the plain batch path and
    report exactly what "off" reports."""
    from repro.api import RunSpec, estimate

    base = RunSpec(design="HVPeakF", backend="batch", max_cycles=64, seed=2)
    reference = estimate(base.replace(kernel_backend="off"))
    monkeypatch.setenv("REPRO_KERNEL_CC", "false")
    if find_compiler() is None:
        pytest.skip("no 'false' command on this host")
    # force real compiles: no cached programs, kernels or .so handles
    monkeypatch.setattr(batch, "_BATCH_CACHE", type(batch._BATCH_CACHE)())
    monkeypatch.setattr(native, "_LIB_CACHE", {})
    monkeypatch.setattr(native, "_THREADING_MODE", "serial")
    expected = reference.report.to_dict()
    expected.pop("estimation_time_s")
    for kernel_backend in ("auto", "native"):
        result = estimate(base.replace(kernel_backend=kernel_backend))
        assert result.metadata["kernel_backend"] == "off"
        actual = result.report.to_dict()
        actual.pop("estimation_time_s")
        assert actual == expected


@needs_cc
def test_native_kernel_compiles_once_per_structure():
    module = flatten(get_design("Bubble_Sort").build())
    first = BatchSimulator(module, 2, kernel_backend="native")
    second = BatchSimulator(module, 2, kernel_backend="native")
    assert isinstance(first.kernel, NativeKernel)
    assert first.kernel._lib is second.kernel._lib  # per-source .so cache


@needs_cc
def test_native_kernel_rebinds_after_sibling_plain_path_run():
    """reset() re-captures state pointers a sibling plain-path run detached.

    The plain batch commit *rebinds* holder arrays (``s._state = s._pending``),
    so a native kernel bound earlier to the same cached program would keep
    pointing at the detached arrays — two identical runs would accumulate
    instead of repeating.  ``reset()`` must re-split and re-bind.
    """

    def build():
        builder = NetlistBuilder("accum")
        d = builder.input("d", 8)
        en = builder.input("en", 1)
        total = builder.accumulator("acc", 8)
        builder.drive("acc", d=d, en=en)
        builder.output("total", total)
        return flatten(builder.build())

    module = build()
    native = BatchSimulator(module, 2, kernel_backend="native")
    assert isinstance(native.kernel, NativeKernel)
    plain = BatchSimulator(module, 2, kernel_backend="off")
    plain.set_inputs({"d": 1, "en": 1})
    plain.step(cycles=3)  # plain commits rebind the shared holder arrays

    outputs = []
    for _ in range(2):
        native.reset()
        native.set_inputs({"d": 1, "en": 1})
        native.step(cycles=5)
        native.settle()
        outputs.append(list(native.get_output("total")))
    assert outputs[0] == outputs[1] == [5, 5]


@needs_cc
def test_step_uses_fused_cycle_kernel():
    module = flatten(get_design("Bubble_Sort").build())
    fused = BatchSimulator(module, 2, kernel_backend="native")
    plain = BatchSimulator(flatten(get_design("Bubble_Sort").build()), 2,
                           kernel_backend="off")
    for simulator in (fused, plain):
        simulator.step({"start": 1}, cycles=1)
        simulator.step({"start": 0}, cycles=20)
        simulator.settle()
    assert fused.cycle == plain.cycle == 21
    for port in plain.get_outputs():
        assert np.array_equal(fused.get_output(port), plain.get_output(port))


# ---------------------------------------------------------------------------
# Gate-level settle kernels (characterization plumbing).
# ---------------------------------------------------------------------------


@needs_cc
def test_gate_level_native_settle_parity():
    from repro.gates.gatesim import GateLevelSimulator
    from repro.gates.techmap import TechnologyMapper
    from repro.netlist.components import Adder
    from repro.power.technology import CB130M_TECHNOLOGY

    component = Adder("a8", 8)
    netlist = TechnologyMapper(CB130M_TECHNOLOGY.cell_library).map_component(component)
    widths = {p.name: p.width for p in component.ports.values()}
    rng = np.random.default_rng(9)
    values = {
        p.name: rng.integers(0, 1 << p.width, size=12, dtype=np.int64)
        for p in component.input_ports
    }
    plain = GateLevelSimulator(netlist)
    native = GateLevelSimulator(netlist, kernel_backend="native")
    reference = plain.evaluate_ports_batch(values, widths)
    candidate = native.evaluate_ports_batch(values, widths)
    assert native.kernel_backend == "native"
    for port in reference:
        assert np.array_equal(reference[port], candidate[port])
    assert np.array_equal(plain.snapshot_batch(), native.snapshot_batch())


@needs_cc
def test_characterization_engine_kernel_backend_fits_identical_model():
    from repro.netlist.components import Adder
    from repro.power import CharacterizationEngine

    reference = CharacterizationEngine(n_pairs=50, kernel_backend="off")
    native = CharacterizationEngine(n_pairs=50, kernel_backend="native")
    fit_ref = reference.characterize(Adder("a8", 8))
    fit_nat = native.characterize(Adder("a8", 8))
    assert fit_ref.model.coefficients == fit_nat.model.coefficients
    assert fit_ref.model.base_energy_fj == fit_nat.model.base_energy_fj
    assert fit_ref.reference_energies == fit_nat.reference_energies


# ---------------------------------------------------------------------------
# API plumbing.
# ---------------------------------------------------------------------------


def test_runspec_validates_kernel_backend():
    from repro.api import RunSpec, SweepSpec

    spec = RunSpec(design="binary_search", kernel_backend="native")
    assert RunSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="unknown kernel backend"):
        RunSpec(design="binary_search", kernel_backend="cuda")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        SweepSpec(designs=("binary_search",), kernel_backend="cuda")
    sweep = SweepSpec(designs=("binary_search",), seeds=(0, 1), kernel_backend="native")
    assert all(s.kernel_backend == "native" for s in sweep.run_specs())


@pytest.mark.parametrize("backend", KERNEL_CASES)
def test_estimate_batch_kernel_metadata_and_parity(backend):
    from repro.api import RunSpec, estimate

    base = RunSpec(design="binary_search", backend="batch", max_cycles=64)
    reference = estimate(base.replace(kernel_backend="off"))
    candidate = estimate(base.replace(kernel_backend=backend))
    assert candidate.metadata["kernel_backend"] == backend
    assert reference.report.total_energy_fj == candidate.report.total_energy_fj
    assert reference.report.cycles == candidate.report.cycles


def test_uniform_spec_stimulus_kernel_parity_on_lane_view_loop():
    """Interactive (non-spec) testbenches also run under kernels unchanged."""
    library = build_seed_library()
    spec = StimulusSpec(n_cycles=48, seed=7, default=UniformSpec())

    def reports(kernel_backend):
        estimator = BatchRTLPowerEstimator(
            build_flat("HVPeakF"), library=library, kernel_backend=kernel_backend
        )
        testbenches = [SpecTestbench(spec, seed=seed) for seed in range(3)]
        return estimator.estimate_all(
            testbenches, max_cycles=48, use_array_driver=False
        )

    reference = reports("off")
    candidate = reports("native")
    for expected, actual in zip(reference, candidate):
        assert expected.total_energy_fj == actual.total_energy_fj
        assert expected.cycle_energy_fj == actual.cycle_energy_fj
