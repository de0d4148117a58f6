"""Cross-backend parity and unit tests for the compiled simulation backend.

The compiled (slot-indexed, code-generated) backend must be observationally
identical to the reference interpreter: same per-cycle outputs, same final
net values, and — on instrumented designs — bit-identical energy accumulator
readings, since the power-emulation results are read out of the simulated
hardware itself.
"""

from __future__ import annotations

from typing import Dict, Mapping

import pytest

from repro.core import InstrumentationConfig
from repro.core.instrument import instrument
from repro.designs.registry import all_designs, build_flat, get_design
from repro.netlist import NetlistBuilder, flatten
from repro.netlist.components import Component
from repro.netlist.fsm import FSMController
from repro.power import build_seed_library
from repro.sim import (
    SimulationObserver,
    SimulationResult,
    Simulator,
    compile_module,
    schedule_for,
)
from repro.sim.batch import compile_module_batch
from repro.sim.compiled import SlotValues
from repro.sim.kernels.native import generate_c_source


class _OutputRecorder(SimulationObserver):
    def __init__(self) -> None:
        self.rows = []

    def on_cycle(self, simulator, cycle) -> None:
        self.rows.append((cycle, tuple(sorted(simulator.get_outputs().items()))))


def _run_design(module, testbench, backend):
    simulator = Simulator(module, backend=backend)
    recorder = simulator.add_observer(_OutputRecorder())
    result = simulator.run(testbench)
    final_nets = {net.name: simulator.get_net(net) for net in module.nets.values()}
    return simulator, recorder.rows, result, final_nets


@pytest.mark.parametrize("design_name", sorted(all_designs()))
def test_backend_parity_instrumented(design_name):
    """Both backends produce identical cycle-by-cycle and final behaviour.

    Runs the *instrumented* design so the comparison covers the inserted
    power-estimation hardware: ``power_total`` is a module output, so the
    per-cycle output comparison checks the energy pipeline every cycle, and
    the accumulator readback checks the per-component totals at the end.
    """
    library = build_seed_library()
    design = get_design(design_name)
    runs = {}
    for backend in ("interp", "compiled"):
        instrumented = instrument(design.build(), library, InstrumentationConfig())
        simulator, rows, result, final_nets = _run_design(
            instrumented.module, design.testbench(), backend
        )
        assert simulator.backend == backend
        runs[backend] = (
            rows,
            result.final_outputs,
            result.cycles,
            final_nets,
            instrumented.read_total_energy_fj(simulator),
            instrumented.component_energies_fj(simulator),
        )
    interp, compiled = runs["interp"], runs["compiled"]
    assert compiled[2] == interp[2]  # cycle count
    assert compiled[0] == interp[0]  # per-cycle outputs
    assert compiled[1] == interp[1]  # final outputs
    assert compiled[3] == interp[3]  # every final net value
    assert compiled[4] == interp[4]  # total energy readback
    assert compiled[5] == interp[5]  # per-component accumulators


def _fusion_modules():
    for name in sorted(all_designs()):
        yield name, build_flat(name)
    library = build_seed_library()
    yield "DCT instrumented", instrument(
        get_design("DCT").build(), library, InstrumentationConfig()
    ).module


def test_registry_designs_fully_compile():
    """Every registry design (and an instrumented one) runs on the compiled
    backend, fuses every component but its FSM controllers there, fuses every
    component in its lane program, and lowers to a native kernel."""
    for name, module in _fusion_modules():
        simulator = Simulator(module)
        assert simulator.backend == "compiled", name
        scalar = simulator._program
        n_fsm = sum(isinstance(c, FSMController) for c in module.components.values())
        assert scalar.n_fallback == n_fsm, name
        lane = compile_module_batch(module, 4)
        assert lane.n_fused == scalar.n_fused + scalar.n_fallback, name
        assert generate_c_source(lane.ir), name


class _OpaqueXor(Component):
    """A component type the code generator knows nothing about."""

    type_name = "opaque_xor"

    def __init__(self, name: str, width: int) -> None:
        super().__init__(name)
        self.width = width
        self.add_input("a", width)
        self.add_input("b", width)
        self.add_output("y", width)

    def evaluate(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        return {"y": (inputs["a"] ^ inputs["b"]) & ((1 << self.width) - 1)}


def _module_with_opaque_component():
    builder = NetlistBuilder("opaque")
    a = builder.input("a", 8)
    b = builder.input("b", 8)
    module = builder.build()
    component = _OpaqueXor("x0", 8)
    module.add_component(component)
    component.connect("a", module.nets["a"])
    component.connect("b", module.nets["b"])
    y = module.add_net("y", 8)
    component.connect("y", y)
    module.add_output("y", y)
    return module


def test_unknown_component_uses_evaluate_fallback():
    module = flatten(_module_with_opaque_component())
    simulator = Simulator(module)
    assert simulator.backend == "compiled"
    assert simulator._program.n_fallback >= 1
    simulator.set_inputs({"a": 0xAC, "b": 0x35})
    simulator.settle()
    assert simulator.get_output("y") == 0xAC ^ 0x35


def test_set_input_unknown_port_lists_valid_ports():
    simulator = Simulator(build_flat("binary_search"))
    with pytest.raises(KeyError, match="valid input ports"):
        simulator.set_input("no_such_port", 1)
    with pytest.raises(KeyError, match="no_such_port"):
        simulator.set_input("no_such_port", 1)


def test_get_output_unknown_port_lists_valid_ports():
    simulator = Simulator(build_flat("binary_search"))
    with pytest.raises(KeyError, match="valid output ports"):
        simulator.get_output("bogus")


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        Simulator(build_flat("binary_search"), backend="jit")


def test_cycles_per_second_zero_cycles_is_zero():
    result = SimulationResult(design="d", cycles=0, wall_time_s=0.0)
    assert result.cycles_per_second == 0.0
    result = SimulationResult(design="d", cycles=0, wall_time_s=1.0)
    assert result.cycles_per_second == 0.0
    result = SimulationResult(design="d", cycles=10, wall_time_s=2.0)
    assert result.cycles_per_second == 5.0


def test_values_mapping_view_reads_and_writes():
    module = build_flat("binary_search")
    simulator = Simulator(module)
    assert isinstance(simulator.values, SlotValues)
    assert len(simulator.values) == len(module.nets)
    net = next(iter(module.nets.values()))
    simulator.values[net] = 1
    assert simulator.values[net] == 1
    assert simulator.get_net(net) == 1
    assert set(simulator.values) == set(module.nets.values())


def test_compile_and_schedule_caches_are_per_module():
    module = build_flat("DCT")
    assert build_flat("DCT") is module  # flatten happens once per process
    schedule = schedule_for(module)
    assert schedule_for(module) is schedule
    program = compile_module(module)
    assert compile_module(module) is program
    # two simulators on the same module share the compiled program
    assert Simulator(module)._program is Simulator(module)._program


def test_interp_backend_still_available():
    simulator = Simulator(build_flat("binary_search"), backend="interp")
    assert simulator.backend == "interp"
    assert simulator._program is None
    assert isinstance(simulator.values, dict)


def test_compile_failure_falls_back_to_interp_with_reason(monkeypatch):
    """A failed code generation runs on the interpreter and records why."""

    def broken_generate_source(*args):
        raise RuntimeError("emitter exploded")

    monkeypatch.setattr("repro.sim.compiled.generate_source", broken_generate_source)
    module = flatten(get_design("binary_search").build())  # no cached program
    simulator = Simulator(module)
    assert simulator.backend == "interp"
    assert "emitter exploded" in simulator.backend_fallback
    assert simulator.backend_fallback.startswith("failed to compile module")
    monkeypatch.undo()
    recovered = Simulator(module)
    assert recovered.backend == "compiled"
    assert recovered.backend_fallback is None


def test_scalar_caches_build_one_schedule_and_one_program_across_threads():
    """Threads asking for one module's schedule and scalar program at once
    (server threads lowering and compiling the same design) share one
    schedule and one program: both caches build under a lock."""
    import sys
    import threading

    module = flatten(get_design("DCT").build())  # a fresh module: both caches cold
    n_threads = 4
    barrier = threading.Barrier(n_threads, timeout=60)
    schedules, programs = [], []

    def work():
        barrier.wait()
        schedules.append(schedule_for(module))
        barrier.wait()  # then all compile at once
        programs.append(compile_module(module))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(schedules) == len(programs) == n_threads
    assert len({id(schedule) for schedule in schedules}) == 1
    assert len({id(program) for program in programs}) == 1
