"""Lane-vs-scalar parity and unit tests for the batch simulation backend.

Every lane of a :class:`~repro.sim.batch.BatchSimulator` must behave exactly
like a scalar simulation driven with that lane's inputs.  A module lowers to
lanes completely or not at all: one with a component no lane emitter fuses
(FSM/memory/register subclasses, which miss the exact-type dispatch on
purpose, or an unknown kind), or with nets past the limb store's 240 bits,
is refused and runs per seed on the scalar engine instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import InstrumentationConfig
from repro.core.instrument import instrument
from repro.designs.registry import all_designs, get_design
from repro.netlist import NetlistBuilder, flatten
from repro.netlist.components import Component
from repro.netlist.fsm import FSMController
from repro.core import PowerAggregator
from repro.netlist.sequential import Accumulator, Counter, Memory, Register
from repro.power import build_seed_library
from repro.sim import BatchCompilationError, BatchSimulator, Simulator, compile_module_batch
from repro.sim.kernels import find_compiler

N_LANES = 3
N_CYCLES = 32


def _input_sequences(module, rng, n_cycles=N_CYCLES, n_lanes=N_LANES):
    return {
        name: rng.integers(
            0, 1 << min(port.net.width, 16), size=(n_cycles, n_lanes), dtype=np.int64
        )
        for name, port in module.ports.items()
        if port.is_input
    }


def _run_batch(module, sequences, n_cycles=N_CYCLES, n_lanes=N_LANES):
    simulator = BatchSimulator(module, n_lanes)
    rows = []
    for cycle in range(n_cycles):
        simulator.set_inputs({name: sequences[name][cycle] for name in sequences})
        simulator.settle()
        rows.append(simulator.get_outputs())
        simulator.clock_edge()
    return simulator, rows


def _assert_lane_parity(build_module, sequences, rows, n_cycles=N_CYCLES, n_lanes=N_LANES):
    for lane in range(n_lanes):
        scalar = Simulator(build_module())
        for cycle in range(n_cycles):
            scalar.set_inputs(
                {name: int(sequences[name][cycle, lane]) for name in sequences}
            )
            scalar.settle()
            for output, lanes in rows[cycle].items():
                assert int(lanes[lane]) == scalar.get_output(output), (
                    f"lane {lane} cycle {cycle} output {output!r} diverged"
                )
            scalar.clock_edge()


@pytest.mark.parametrize("design_name", sorted(all_designs()))
def test_registry_design_lane_parity(design_name):
    """Each lane of every registry design matches a scalar run bit for bit."""
    design = get_design(design_name)
    rng = np.random.default_rng(hash(design_name) % (2**32))
    module = flatten(design.build())
    sequences = _input_sequences(module, rng)
    simulator, rows = _run_batch(module, sequences)
    assert simulator.program.n_fused > 0
    _assert_lane_parity(lambda: flatten(design.build()), sequences, rows)


def test_instrumented_design_lane_parity():
    """Power-estimation hardware (models, aggregator, strobe) is lane-exact."""
    library = build_seed_library()
    design = get_design("binary_search")
    rng = np.random.default_rng(5)
    module = instrument(design.build(), library, InstrumentationConfig()).module
    sequences = _input_sequences(module, rng)
    _, rows = _run_batch(module, sequences)
    _assert_lane_parity(
        lambda: instrument(design.build(), library, InstrumentationConfig()).module,
        sequences,
        rows,
    )


class _ShadowMemory(Memory):
    """Subclassed memory: misses the exact-type lane dispatch."""

    type_name = "shadow_memory"


class _ShadowFSM(FSMController):
    """Subclassed FSM controller: misses the exact-type lane dispatch."""

    type_name = "shadow_fsm"


def _module_with_shadow_state(memory_cls=_ShadowMemory, fsm_cls=_ShadowFSM):
    """A small design whose FSM and memory are subclasses no lane emitter fuses."""
    builder = NetlistBuilder("shadow")
    addr = builder.input("addr", 4)
    wdata = builder.input("wdata", 8)
    go = builder.input("go", 1)
    module = builder.build()

    memory = memory_cls("mem0", width=8, depth=16, sync_read=True)
    module.add_component(memory)
    memory.connect("addr", module.nets["addr"])
    memory.connect("wdata", module.nets["wdata"])

    fsm = fsm_cls(
        "ctl0",
        states=["IDLE", "WRITE", "DONE"],
        inputs={"go": 1},
        outputs={"we": 1, "busy": 1},
        moore_outputs={"WRITE": {"we": 1, "busy": 1}, "DONE": {"busy": 1}},
    )
    fsm.when("IDLE", "WRITE", go=1)
    fsm.otherwise("WRITE", "DONE")
    fsm.otherwise("DONE", "IDLE")
    module.add_component(fsm)
    fsm.connect("go", module.nets["go"])
    we = module.add_net("we", 1)
    busy = module.add_net("busy", 1)
    fsm.connect("we", we)
    fsm.connect("busy", busy)
    memory.connect("we", we)

    rdata = module.add_net("rdata", 8)
    memory.connect("rdata", rdata)
    module.add_output("rdata", rdata)
    module.add_output("busy", busy)
    return flatten(module)


def test_subclassed_fsm_and_memory_are_refused():
    """A subclassed FSM or memory misses the exact-type lane dispatch, so its
    module gets no lane program; the refusal names the component and kind."""
    for memory_cls, fsm_cls, refused in (
        (_ShadowMemory, FSMController, r"'mem0' \(shadow_memory\)"),
        (Memory, _ShadowFSM, r"'ctl0' \(shadow_fsm\)"),
    ):
        module = _module_with_shadow_state(memory_cls, fsm_cls)
        with pytest.raises(BatchCompilationError, match=r"'shadow' .*" + refused):
            BatchSimulator(module, N_LANES)


def test_stock_fsm_memory_fuse():
    """The unsubclassed FSM/memory types are lane-vectorized and lane-exact."""
    def build():
        return _module_with_shadow_state(memory_cls=Memory, fsm_cls=FSMController)

    sequences = _input_sequences(build(), np.random.default_rng(17))
    _, rows = _run_batch(build(), sequences)
    _assert_lane_parity(build, sequences, rows)


class _OpaqueXor(Component):
    type_name = "opaque_xor"

    def __init__(self, name, width):
        super().__init__(name)
        self.width = width
        self.add_input("a", width)
        self.add_input("b", width)
        self.add_output("y", width)

    def evaluate(self, inputs):
        return {"y": (inputs["a"] ^ inputs["b"]) & ((1 << self.width) - 1)}


def test_exotic_component_is_refused():
    builder = NetlistBuilder("opaque")
    builder.input("a", 8)
    builder.input("b", 8)
    module = builder.build()
    component = _OpaqueXor("x0", 8)
    module.add_component(component)
    component.connect("a", module.nets["a"])
    component.connect("b", module.nets["b"])
    y = module.add_net("y", 8)
    component.connect("y", y)
    module.add_output("y", y)
    module = flatten(module)

    with pytest.raises(BatchCompilationError, match=r"'x0' \(opaque_xor\)"):
        BatchSimulator(module, 4)


def test_wide_nets_use_limb_store():
    """Nets of 61..240 bits stay in the int64 store as limb arrays."""
    builder = NetlistBuilder("wide")
    x = builder.input("x", 80)
    y = builder.input("y", 80)
    builder.output("s", builder.add(x, y, name="sum80"))
    module = flatten(builder.build())

    simulator = BatchSimulator(module, 2)
    assert simulator._v.dtype == np.int64
    assert simulator.program.limbs_of[module.nets["x"]] == 2
    xs = [(1 << 79) - 3, 123456789012345678901]
    ys = [5, (1 << 78) + 17]
    simulator.set_inputs(
        {"x": np.array(xs, dtype=object), "y": np.array(ys, dtype=object)}
    )
    simulator.settle()
    out = simulator.get_output("s")
    mask = (1 << 80) - 1
    assert [int(v) for v in out] == [(a + b) & mask for a, b in zip(xs, ys)]


def _very_wide_module():
    """A 250-bit adder feeding a register: past MAX_LIMB_WIDTH."""
    width = 250
    builder = NetlistBuilder("very_wide")
    x = builder.input("x", width)
    y = builder.input("y", width)
    total = builder.add(x, y, name="sum250")
    builder.output("s", total)
    builder.output("q", builder.register("reg250", width))
    builder.drive("reg250", d=total)
    return flatten(builder.build())


def test_very_wide_nets_are_refused_and_run_per_seed():
    """Nets past MAX_LIMB_WIDTH are refused by the lane compiler, and
    ``estimate_many`` runs such a module per seed on the scalar engine."""
    from repro.api import RTLEstimatorAdapter, RunSpec
    from repro.sim import BatchCompilationError
    from repro.sim.batch import MAX_LIMB_WIDTH
    from repro.sim.testbench import RandomTestbench

    module = _very_wide_module()
    assert max(net.width for net in module.nets.values()) > MAX_LIMB_WIDTH
    for n_lanes in (1, 3):
        with pytest.raises(BatchCompilationError, match=r"250 bits"):
            BatchSimulator(module, n_lanes)

    adapter = RTLEstimatorAdapter(
        module=_very_wide_module(),
        testbench_factory=lambda seed: RandomTestbench(20, seed=seed or 0),
    )
    specs = [RunSpec(design="very_wide", engine="rtl", seed=seed, backend="batch")
             for seed in range(3)]
    many = adapter.estimate_many(specs)
    assert [r.spec for r in many] == specs
    for spec, result in zip(specs, many):
        single = adapter.estimate(spec.replace(backend="compiled"))
        assert result.backend == single.backend == "compiled"
        assert dataclasses.replace(
            result.report, estimation_time_s=0.0
        ) == dataclasses.replace(single.report, estimation_time_s=0.0)
    assert len({r.report.total_energy_fj for r in many}) == 3


def test_n_lanes_zero_rejected():
    module = flatten(get_design("binary_search").build())
    with pytest.raises(ValueError, match="n_lanes >= 1"):
        BatchSimulator(module, 0)
    with pytest.raises(ValueError, match="n_lanes >= 1"):
        compile_module_batch(module, 0)


def test_scalar_inputs_broadcast_to_all_lanes():
    module = flatten(get_design("binary_search").build())
    simulator = BatchSimulator(module, 4)
    name = next(iter(simulator._input_keys))
    simulator.set_input(name, 1)
    assert list(simulator.get_net(module.ports[name].net)) == [1, 1, 1, 1]


def test_wrong_lane_shape_rejected():
    module = flatten(get_design("binary_search").build())
    simulator = BatchSimulator(module, 4)
    name = next(iter(simulator._input_keys))
    with pytest.raises(ValueError, match="shape"):
        simulator.set_input(name, np.zeros(3, dtype=np.int64))


def test_unknown_ports_listed_in_errors():
    module = flatten(get_design("binary_search").build())
    simulator = BatchSimulator(module, 2)
    with pytest.raises(KeyError, match="valid input ports"):
        simulator.set_input("nope", 1)
    with pytest.raises(KeyError, match="valid output ports"):
        simulator.get_output("nope")


def test_batch_program_cached_per_module_and_lane_count():
    module = flatten(get_design("binary_search").build())
    first = BatchSimulator(module, 4)
    second = BatchSimulator(module, 4)
    assert first.program is second.program
    other = BatchSimulator(module, 8)
    assert other.program is not first.program


class _ShadowRegister(Register):
    """Subclassed register: misses the exact-type lane dispatch."""


def _module_with_state_properties(register_cls):
    """Every stock kind with a state-reading property."""
    b = NetlistBuilder("props")
    d, d61 = b.input("d", 8), b.input("d61", 61)
    en, go = b.input("en", 1), b.input("go", 1)
    fsm = FSMController("fsm", ["IDLE", "RUN"], {"go": 1}, {"busy": 1},
                        {"RUN": {"busy": 1}})
    fsm.when("IDLE", "RUN", go=1)
    components = {
        "reg": (register_cls("reg", 8, reset_value=5), {"d": d}),
        "wide": (Register("wide", 61, reset_value=7), {"d": d61}),
        "count": (Counter("count", 8), {"en": en}),
        "acc": (Accumulator("acc", 8), {"d": d, "en": en}),
        "agg": (PowerAggregator("agg", 1, 8, 12), {"e0": d}),
        "fsm": (fsm, {"go": go}),
    }
    for name, (component, inputs) in components.items():
        b.module.add_component(component)
        b.drive(name, **inputs)
        for port in component.output_ports:
            net = b.module.add_net(f"{name}_{port.name}", port.width)
            component.connect(port.name, net)
            b.output(f"{name}_{port.name}", net)
    return flatten(b.build())


@pytest.mark.parametrize("backend", [
    "off",
    pytest.param("native", marks=pytest.mark.skipif(
        find_compiler() is None, reason="no C compiler on this host")),
])
@pytest.mark.parametrize("register_cls", [Register, _ShadowRegister])
def test_lane_view_properties_read_lane_state(backend, register_cls):
    """``value``/``state``/``state_code`` through a lane view read that lane
    from its holder row, not the scalar component every lane shares.  A
    subclassed register leaves its module without a lane program."""
    module = _module_with_state_properties(register_cls)
    if register_cls is _ShadowRegister:
        with pytest.raises(BatchCompilationError, match=r"'reg' \(register\)"):
            BatchSimulator(module, 3, kernel_backend=backend)
        return
    simulator = BatchSimulator(module, 3, kernel_backend=backend)
    assert simulator.kernel_backend == backend
    d = [1, 2, 3]
    d61 = [(1 << 60) + 9, 3, (1 << 61) - 1]
    simulator.set_inputs({"d": np.array(d), "d61": np.array(d61, dtype=object),
                          "en": 1, "go": np.array([0, 1, 1])})
    simulator.step(cycles=2)
    simulator.settle()
    assert list(simulator.get_output("reg_q")) == d
    for lane in range(3):
        view = simulator.lane_view(lane).module.components
        assert view["reg"].value == d[lane]
        assert view["wide"].value == d61[lane]
        assert view["count"].value == 2
        assert view["acc"].value == 2 * d[lane]
        assert view["agg"].value == 2 * d[lane]
        assert view["fsm"].state == ("IDLE", "RUN", "RUN")[lane]
        assert view["fsm"].state_code == (0, 1, 1)[lane]
        assert [p.name for p in view["reg"].input_ports] == ["d"]

