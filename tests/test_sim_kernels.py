"""Fused lane-kernel tests: IR extraction, backends, parity, and fallbacks.

The kernel subsystem (:mod:`repro.sim.kernels`) must never change results —
only speed.  These tests pin that down three ways:

* bit-parity of the plain batch path vs the native (C) kernel across every
  registry design, the instrumented power hardware (also against per-lane
  ``interp`` and ``compiled`` runs), and spec-driven stimulus tensors,
* refusal of every module that does not lower to lanes completely (a
  component no lane emitter fuses, or a net past 240 bits): no lane program,
  so no kernel, and the estimation API runs it per seed on the scalar
  engine, and
* graceful degradation from ``native`` and ``auto`` to the plain batch path
  on hosts without a working C compiler.
"""

from __future__ import annotations

import dataclasses
import re
from collections import Counter

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
from repro.sim.kernels.ir import Bin, Const, TableSum
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


#: instrumented designs -> InstrumentationConfig fields; HVPeakF's strobe
#: fires every 4th cycle, so its models accumulate between strobes
INSTRUMENTED = {"binary_search": {}, "HVPeakF": {"strobe_period": 4}}


def _instrumented(name, **config):
    library = build_seed_library()
    design = get_design(name)
    return lambda: instrument(
        design.build(), library, InstrumentationConfig(**config)
    ).module


@pytest.mark.parametrize("name", sorted(INSTRUMENTED))
def test_instrumented_power_hardware_kernel_parity(name):
    """Power models, accumulators, aggregator and strobe lower to lanes
    exactly: every lane's outputs, ``power_total`` included, equal per-lane
    ``interp`` and ``compiled`` runs cycle by cycle, on ``off`` and native."""
    build = _instrumented(name, **INSTRUMENTED[name])
    sequences = _sequences(build(), np.random.default_rng(5))
    lanes = {}
    for backend in ["off"] + (["native"] if find_compiler() else []):
        simulator, lanes[backend] = _run(build, sequences, backend)
        assert simulator.kernel_backend == backend
    for engine in ("interp", "compiled"):
        for lane in range(N_LANES):
            scalar = Simulator(build(), backend=engine)
            assert scalar.backend == engine
            for cycle in range(N_CYCLES):
                scalar.set_inputs(
                    {port: int(sequences[port][cycle, lane]) for port in sequences}
                )
                scalar.settle()
                want = scalar.get_outputs()
                assert "power_total" in want
                for backend, rows in lanes.items():
                    got = {port: int(values[lane]) for port, values in rows[cycle].items()}
                    assert got == want, f"{name}/{backend} lane {lane} cycle {cycle} vs {engine}"
                scalar.clock_edge()


def test_power_model_clock_edge_does_not_grow_with_port_width():
    """A power model's byte chunks are terms of one table sum, not statements:
    widening the monitored ports from 8 to 60 bits adds no clock-edge
    statement."""
    def clock_edge(width):
        builder = NetlistBuilder(f"xor{width}")
        a, b = builder.input("a", width), builder.input("b", width)
        builder.output("y", builder.xor_(a, b))
        module = instrument(builder.build(), build_seed_library(),
                            InstrumentationConfig()).module
        return batch.compile_module_batch(module, 1).ir.phases["clock_edge"]

    narrow, wide = clock_edge(8), clock_edge(60)
    assert len(narrow) == len(wide)
    sums = [stmt.expr.terms for stmt in wide
            if isinstance(getattr(stmt, "expr", None), TableSum)]
    assert [[len(chunks) for _, _, chunks in terms] for terms in sums] == [[8, 8, 8]]


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
# Modules that do not lower to lanes.
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


def test_unfusable_component_is_refused_on_every_backend():
    """An unknown component type leaves the module without a lane program on
    every kernel backend: no program or kernel build is ever counted for it."""
    from repro.sim import kernels

    module = flatten(_module_with_unfusable_component())
    builds = batch.PROGRAM_BUILD_COUNT, kernels.KERNEL_BUILD_COUNT
    for backend in kernels.KERNEL_BACKENDS:
        with pytest.raises(batch.BatchCompilationError,
                           match=r"'opaque' .* 'inc' \(opaque_inc\)"):
            BatchSimulator(module, N_LANES, kernel_backend=backend)
    assert (batch.PROGRAM_BUILD_COUNT, kernels.KERNEL_BUILD_COUNT) == builds


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
    big = (1 << 63) | 5
    simulator.set_input("a", np.array([big, 1, 2], dtype=object))
    simulator.set_input("b", 1)
    simulator.settle()
    assert int(simulator.get_output("y")[0]) == big ^ 1


def _very_wide_module():
    builder = NetlistBuilder("very_wide")
    a = builder.input("a", 250)
    b = builder.input("b", 250)
    builder.output("y", builder.logic("xor", a, b))
    return flatten(builder.build())


def _shadow_state_module():
    from test_sim_batch import _module_with_shadow_state

    return _module_with_shadow_state()


def _mul63_module():
    from test_sim_kind_parity import CASES, _unit

    return _unit("mul63", *CASES["mul63"].factory())


def _strobe_only_module():
    config = InstrumentationConfig(sample_on_strobe_only=True)
    return instrument(get_design("binary_search").build(), build_seed_library(),
                      config).module


@pytest.mark.parametrize("build, refused", [
    pytest.param(_very_wide_module, r"'very_wide' has net 'a' of 250 bits", id="very_wide"),
    pytest.param(_shadow_state_module, r"'mem0' \(shadow_memory\)", id="shadow_state"),
    pytest.param(_mul63_module, r"'u' \(multiplier\)", id="mul63"),
    pytest.param(_strobe_only_module, r"'pwr_model_\w+' \(power_model_hw\)",
                 id="strobe_only"),
])
def test_refused_modules_fall_back_to_scalar_estimates(build, refused):
    """A module that does not lower to lanes completely (a net past
    MAX_LIMB_WIDTH, or a component no lane emitter fuses) has no lane
    program, so no kernel: ``BatchSimulator`` refuses it naming the culprit,
    ``warm`` reports nothing to build, and ``estimate_many`` returns the
    per-seed scalar estimates."""
    from repro.api import RTLEstimatorAdapter, RunSpec
    from repro.sim.testbench import RandomTestbench

    with pytest.raises(batch.BatchCompilationError, match=refused):
        BatchSimulator(build(), N_LANES, kernel_backend="native")
    adapter = RTLEstimatorAdapter(
        module=build(),
        testbench_factory=lambda seed: RandomTestbench(16, seed=seed or 0),
    )
    specs = [RunSpec(design="refused", engine="rtl", seed=seed, backend="batch",
                     kernel_backend="native") for seed in range(3)]
    assert adapter.warm(specs[0], n_lanes=3) == {}
    many = adapter.estimate_many(specs)
    assert [result.spec for result in many] == specs
    for spec, result in zip(specs, many):
        single = adapter.estimate(spec.replace(backend="compiled"))
        assert result.backend == single.backend == "compiled"
        assert (dataclasses.replace(result.report, estimation_time_s=0.0)
                == dataclasses.replace(single.report, estimation_time_s=0.0))


def test_refusal_is_remembered_across_warm_and_estimate_many(monkeypatch):
    """A refused module is lowered once: later attempts, at any lane count,
    re-raise the remembered refusal, and no program build is counted."""
    from repro.api import RTLEstimatorAdapter, RunSpec
    from repro.sim.testbench import RandomTestbench

    lowered = []
    lower = batch._lower_lanes

    def counting(module, *args):
        lowered.append(module.name)
        return lower(module, *args)

    monkeypatch.setattr(batch, "_lower_lanes", counting)
    module = _strobe_only_module()
    builds = batch.PROGRAM_BUILD_COUNT
    with pytest.raises(batch.BatchCompilationError) as first:
        batch.compile_module_batch(module, N_LANES)
    adapter = RTLEstimatorAdapter(
        module=module,
        testbench_factory=lambda seed: RandomTestbench(16, seed=seed or 0),
    )
    specs = [RunSpec(design="refused", engine="rtl", seed=seed, backend="batch",
                     kernel_backend="native") for seed in range(2)]
    assert adapter.warm(specs[0], n_lanes=2) == {}
    assert [result.backend for result in adapter.estimate_many(specs)] == ["compiled"] * 2
    with pytest.raises(batch.BatchCompilationError) as again:
        batch.compile_module_batch(module, 5)
    assert str(again.value) == str(first.value)
    assert lowered == [module.name]
    assert batch.PROGRAM_BUILD_COUNT == builds


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


@pytest.mark.parametrize("name", sorted(all_designs()))
def test_kernel_source_is_one_per_design_structure(name):
    """Independently elaborated copies of a design, at any lane count, print
    byte-identical C, so serve groups and sweep workers share one library.

    Numbering tables, state rows or memories by object address (or by any
    other per-instance order) would break this silently.
    """
    modules = (build_flat(name), flatten(get_design(name).build()))
    sources = {
        native.generate_c_source(batch.compile_module_batch(module, n_lanes).ir)
        for module in modules
        for n_lanes in (7, 256)
    }
    assert len(sources) == 1


@pytest.mark.parametrize("name", sorted(all_designs()))
def test_kernel_prints_each_statement_once(name):
    """One exported C function per IR phase, plus ``observe``, ``run`` and
    the seeded draw ``mt_draw``, and every IR statement's loop printed
    exactly once, in its own phase's function (``run`` calls the phases'
    block functions)."""
    ir = batch.compile_module_batch(build_flat(name), 7).ir
    source = native.generate_c_source(ir)
    exported = re.findall(r"^void (\w+)\(", source, re.MULTILINE)
    assert sorted(exported) == sorted([*ir.phases, "observe", "run", "mt_draw"])
    assert "cycle" not in exported
    loops = Counter(
        line[4:] for line in source.splitlines()
        if line.startswith("    for (i64 i = 0; i < nb; ++i) ")
    )
    assert loops == Counter(
        native._statement(stmt) for stmts in ir.phases.values() for stmt in stmts
    )
    assert max(loops.values()) == 1


@pytest.mark.parametrize("name", sorted(all_designs()))
def test_lane_ir_has_no_plus_zero_copies(name):
    """State is written in place, so no emitter needs ``x + 0`` to copy a
    value into a fresh temporary before it is overwritten."""
    ir = batch.compile_module_batch(build_flat(name), 7).ir
    copies = [
        stmt for stmts in ir.phases.values() for stmt in stmts
        if isinstance(getattr(stmt, "expr", None), Bin) and stmt.expr.op == "+"
        and Const(0) in (stmt.expr.a, stmt.expr.b)
    ]
    assert copies == []


@needs_cc
def test_native_kernel_rebinds_after_sibling_plain_path_run():
    """reset() clears the state a sibling plain-path run left behind.

    The plain batch program and a native kernel of the same cached program
    write one set of holder arrays in place, so a native kernel bound earlier
    sees every plain-path commit.  ``reset()`` must clear those arrays, or
    two identical native runs would accumulate instead of repeating.
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
    plain.step(cycles=3)  # plain commits write the shared holder arrays

    outputs = []
    for _ in range(2):
        native.reset()
        native.set_inputs({"d": 1, "en": 1})
        native.step(cycles=5)
        native.settle()
        outputs.append(list(native.get_output("total")))
    assert outputs[0] == outputs[1] == [5, 5]


def _stateful_module():
    """A memory, an FSM, narrow and limb registers, a counter and an
    accumulator: every kind of lane state holder."""
    builder = NetlistBuilder("stateful")
    addr, we = builder.input("addr", 3), builder.input("we", 1)
    d, en, w = builder.input("d", 8), builder.input("en", 1), builder.input("w", 70)
    rdata = builder.memory("mem", 8, 8, we=we, addr=addr, wdata=d)
    q = builder.register("reg", 8)
    builder.drive("reg", d=builder.add(rdata, d))
    wide = builder.register("wide", 70)
    builder.drive("wide", d=builder.logic("xor", w, wide))
    acc = builder.accumulator("acc", 12)
    builder.drive("acc", d=builder.resize(q, 12), en=en)
    fsm, outs = builder.fsm("fsm", ["s0", "s1"], {"go": en}, {"o": 2}, {"s1": {"o": 3}})
    fsm.when("s0", "s1", go=1)
    fsm.otherwise("s1", "s0")
    for name, net in (("q", q), ("wq", wide), ("acc", acc), ("o", outs["o"]),
                      ("cnt", builder.counter("cnt", 4))):
        builder.output(name, net)
    builder.drive("cnt", en=en)
    return flatten(builder.build())


@needs_cc
def test_lane_state_arrays_never_move():
    """One program runs on ``off``, then on ``native``, then resets: every
    state row and memory stays the same C-contiguous int64 array, so the
    kernel's pointers, bound once, stay valid."""
    module = _stateful_module()
    plain = BatchSimulator(module, N_LANES, kernel_backend="off")
    ir = plain.program.ir
    assert ir.state_specs and ir.mem_specs
    before = ir.state_arrays() + ir.mem_arrays()
    sequences = _sequences(module, np.random.default_rng(11))
    for cycle in range(N_CYCLES):
        plain.step({name: rows[cycle] for name, rows in sequences.items()})
    fused = BatchSimulator(module, N_LANES, kernel_backend="native")
    assert fused.program is plain.program and fused.kernel is not None
    for cycle in range(N_CYCLES):
        fused.step({name: rows[cycle] for name, rows in sequences.items()})
    fused.reset()
    after = ir.state_arrays() + ir.mem_arrays()
    assert len(after) == len(before)
    for old, new in zip(before, after):
        assert new is old
        assert new.dtype == np.int64 and new.flags["C_CONTIGUOUS"]


@needs_cc
def test_step_on_native_kernel_matches_plain():
    """``step`` settles and clocks through the kernel's two phase entries,
    and ends where the plain batch path ends."""
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
    """The native settle equals the NumPy one, on int64 port columns and on
    object columns (a 100-bit adder)."""
    import random

    from repro.gates.gatesim import GateLevelSimulator, port_column
    from repro.gates.techmap import TechnologyMapper
    from repro.netlist.components import Adder
    from repro.power.technology import CB130M_TECHNOLOGY

    rng = random.Random(9)
    for width in (8, 100):
        component = Adder(f"a{width}", width)
        netlist = TechnologyMapper(CB130M_TECHNOLOGY.cell_library).map_component(component)
        widths = {p.name: p.width for p in component.ports.values()}
        values = {
            p.name: port_column([rng.getrandbits(p.width) for _ in range(12)], p.width)
            for p in component.input_ports
        }
        plain = GateLevelSimulator(netlist)
        native = GateLevelSimulator(netlist, kernel_backend="native")
        reference = plain.evaluate_ports_batch(values, widths)
        candidate = native.evaluate_ports_batch(values, widths)
        assert native.kernel_backend == "native"
        for port in reference:
            assert reference[port].dtype == candidate[port].dtype
            assert reference[port].tolist() == candidate[port].tolist()
        assert reference["y"].tolist() == [
            (a + b) % 2**width for a, b in zip(values["a"], values["b"])]
        assert np.array_equal(plain.snapshot_batch(), native.snapshot_batch())


def test_gate_cell_without_ir_builder_runs_its_own_evaluate():
    """A custom cell is one opaque step: the settle calls its ``evaluate``
    lane by lane, and the native kernel declines the netlist."""
    import itertools

    from repro.gates.cells import CB013_LIBRARY, CellType
    from repro.gates.gate_netlist import GateNetlist
    from repro.gates.gatesim import GateLevelSimulator

    ao21 = CellType("AO21", 3, lambda x: (x[0] & x[1]) | x[2], 1.0, 1.0, 1.0, 1.0, 0.0)
    netlist = GateNetlist("custom")
    for net in ("a", "b", "c"):
        netlist.add_input(net)
    inner = netlist.add_gate(ao21, ["a", "b", "c"])
    netlist.add_output(netlist.add_gate(CB013_LIBRARY.cell("INV"), [inner], "y"))
    rows = list(itertools.product((0, 1), repeat=3))
    expected = [1 - ao21.evaluate(row) for row in rows]
    assert expected == [1 - ((a & b) | c) for a, b, c in rows]
    lanes = {net: np.array([row[k] for row in rows]) for k, net in enumerate("abc")}
    plain = GateLevelSimulator(netlist)
    assert plain.settle_batch(lanes, len(rows))[plain.program.slots["y"]].tolist() == expected
    native = GateLevelSimulator(netlist, kernel_backend="native")
    v = native.settle_batch(lanes, len(rows))
    assert v[native.program.slots["y"]].tolist() == expected
    assert native.kernel_backend == "off"


@needs_cc
def test_gate_kernel_builds_are_counted_once_per_structure(monkeypatch):
    """A gate settle kernel is built through ``compile_kernel``: it counts in
    ``repro_kernel_builds_total`` once, and a second simulator over the same
    netlist structure reuses it."""
    from repro.gates import gatesim
    from repro.gates.techmap import TechnologyMapper
    from repro.netlist.components import Adder
    from repro.power.technology import CB130M_TECHNOLOGY
    from repro.sim import kernels

    monkeypatch.setattr(gatesim, "_PROGRAM_CACHE", {})
    component = Adder("a8", 8)
    netlist = TechnologyMapper(CB130M_TECHNOLOGY.cell_library).map_component(component)
    widths = {p.name: p.width for p in component.ports.values()}
    values = {p.name: np.arange(4, dtype=np.int64) for p in component.input_ports}
    builds = kernels.KERNEL_BUILD_COUNT
    first = gatesim.GateLevelSimulator(netlist, kernel_backend="native")
    first.evaluate_ports_batch(values, widths)
    assert first.kernel_backend == "native"
    assert kernels.KERNEL_BUILD_COUNT == builds + 1
    second = gatesim.GateLevelSimulator(netlist, kernel_backend="native")
    second.evaluate_ports_batch(values, widths)
    assert second.kernel_backend == "native"
    assert kernels.KERNEL_BUILD_COUNT == builds + 1


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
