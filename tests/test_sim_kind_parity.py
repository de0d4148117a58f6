"""Per-kind parity of the shared emitters across every engine.

One small module per component kind, built through
:class:`repro.netlist.NetlistBuilder`, runs on the ``interp`` oracle, the
compiled scalar backend, the lane program (``off``) and the native kernel at
1 and 129 lanes (129 = one full 128-lane kernel block plus a tail).  Widths
sit on the lane target's guards: multiplier ``width_a + width_b`` and shift
reaches of 62 (fused) and 63 (refused), and 60/61-bit nets on either side
of the limb-store boundary.  Sequential kinds run for more cycles, with
their optional inputs left unconnected in turn (an unconnected enable reads
as 1 on a register and strobe generator but as 0 on a counter or
accumulator).  Each case also states whether its lane program fuses: a
module that does not is refused on every lane backend (it runs per seed on
the scalar engine), so a guard that moves shows up here.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (FixedPointFormat, HardwarePowerModel, PowerAggregator,
                        PowerStrobeGenerator)
from repro.netlist import NetlistBuilder, flatten
from repro.netlist import components as comps
from repro.netlist import sequential as seq
from repro.netlist.fsm import FSMController, Guard
from repro.power.macromodel import LinearTransitionModel
from repro.sim import BatchCompilationError, BatchSimulator, Simulator
from repro.sim.kernels import find_compiler

LANE_COUNTS = (1, 129)
MAX_LANES = max(LANE_COUNTS)
#: lanes whose inputs hypothesis draws; the rest come from a drawn seed
DRAWN_LANES = 8
N_CYCLES = 3
#: cycles of the sequential cases: enough for counters to wrap and strobes
#: of period 4 to fire twice
SEQ_CYCLES = 8
HAS_CC = find_compiler() is not None


def _unit(name, *components, unconnected=frozenset()):
    """A module around ``components``: same-named inputs are shared module
    inputs, except those in ``unconnected``, which stay open; every output
    becomes a module output ``<index>_<port>``."""
    b = NetlistBuilder(name)
    inputs = {}
    for index, component in enumerate(components):
        b.module.add_component(component)
        for port in component.input_ports:
            if port.name in unconnected:
                continue
            if port.name not in inputs:
                inputs[port.name] = b.input(port.name, port.width)
            b.drive(component.name, **{port.name: inputs[port.name]})
        for port in component.output_ports:
            net = b.module.add_net(f"{component.name}_{port.name}", port.width)
            component.connect(port.name, net)
            b.output(f"{index}_{port.name}", net)
    return flatten(b.build())


def _logic(width):
    return [comps.LogicOp(f"l_{op}", op, width)
            for op in ("and", "or", "xor", "nand", "nor", "xnor")]


def _reduce(width):
    return [comps.ReduceOp(f"r_{op}", op, width) for op in ("and", "or", "xor")]


def _registers(width, reset_value):
    """One register per enable/clear combination, sharing d/en/clear."""
    return [seq.Register(f"r{en}{clr}", width, reset_value, bool(en), bool(clr))
            for en in (0, 1) for clr in (0, 1)]


def _counters():
    return [seq.Counter("plain", 8), seq.Counter("load", 8, has_load=True),
            seq.Counter("wrap", 8, wrap_at=5), seq.Counter("both", 8, True, 3),
            seq.Counter("narrow", 2)]


def _fsm():
    """A Moore FSM whose guards compare a signed input, plus an unsigned one."""
    fsm = FSMController("u", ["idle", "neg", "big", "done"], {"x": 8, "go": 1},
                        {"o": 4, "p": 2},
                        {"neg": {"o": 9}, "big": {"o": 15, "p": 2}, "done": {"p": 3}})
    fsm.add_transition("idle", "neg", [Guard("x", "<", -3, signed=True),
                                       Guard("go", "==", 1)])
    fsm.add_transition("idle", "big", [Guard("x", ">=", 100)])
    fsm.add_transition("neg", "done", [Guard("x", ">", 5, signed=True)])
    fsm.otherwise("big", "idle")
    fsm.when("done", "idle", go=0)
    return [fsm]


def _power_model(sample_on_strobe_only):
    """A power model over a 12-bit and a 9-bit port (two byte tables each),
    a 1-bit port and a 60-bit one (eight tables, the last over 4 bits).  Its
    10-bit energy output wraps within a run: the base code alone (164)
    passes 1023 in 7 cycles, and one toggled byte of ``w`` adds hundreds."""
    widths = {"a": 12, "b": 1, "w": 60, "y": 9}
    coeffs = {"a": [1.5 + i for i in range(12)], "b": [3.0],
              "w": [0.5 + 0.25 * (i % 8) for i in range(60)],
              "y": [0.25 * i for i in range(9)]}
    model = LinearTransitionModel("thing", widths, coeffs, base_energy_fj=2.0)
    fmt = FixedPointFormat.for_coefficients([0.25, 12.5, 2.0], bits=10)
    return [HardwarePowerModel("u", model, fmt, energy_width=10,
                               sample_on_strobe_only=sample_on_strobe_only)]


def _strobes():
    return [PowerStrobeGenerator("p1", 1), PowerStrobeGenerator("p4", 4)]


ROM_WORDS = [0, 1, (1 << 60) - 1, 12345678901, 7, 1 << 59]


class Case(NamedTuple):
    factory: Callable[[], list]
    #: whether the module lowers to lanes (else every lane backend refuses it)
    lane_fused: bool
    #: input ports left unconnected
    unconnected: frozenset = frozenset()
    n_cycles: int = N_CYCLES


def _seq(factory, lane_fused=True, unconnected=()):
    return Case(factory, lane_fused, frozenset(unconnected), SEQ_CYCLES)


#: id -> Case; the combinational kinds give only (factory, lane_fused)
CASES = {
    "adder60": (lambda: [comps.Adder("u", 60, True, True)], True),
    "adder61": (lambda: [comps.Adder("u", 61, True, True)], True),
    "subtractor60": (lambda: [comps.Subtractor("u", 60, True)], True),
    "subtractor61": (lambda: [comps.Subtractor("u", 61, True)], True),
    "addsub8": (lambda: [comps.AddSub("u", 8)], True),
    "addsub60": (lambda: [comps.AddSub("u", 60)], True),
    "addsub61": (lambda: [comps.AddSub("u", 61)], False),
    "mul62_signed": (lambda: [comps.Multiplier("u", 31, 31, 40, signed=True)], True),
    "mul62_unsigned": (lambda: [comps.Multiplier("u", 30, 32, 60)], True),
    "mul63": (lambda: [comps.Multiplier("u", 32, 31, 40, signed=True)], False),
    "comparator60": (lambda: [comps.Comparator("s", 60, True),
                              comps.Comparator("u", 60, False)], True),
    "comparator61": (lambda: [comps.Comparator("u", 61, False)], True),
    "comparator61_signed": (lambda: [comps.Comparator("s", 61, True)], False),
    "absval60": (lambda: [comps.AbsoluteValue("u", 60)], True),
    "absval61": (lambda: [comps.AbsoluteValue("u", 61)], False),
    "saturator60": (lambda: [comps.Saturator("s", 60, 20, True),
                             comps.Saturator("u", 60, 33, False)], True),
    "saturator61": (lambda: [comps.Saturator("s", 61, 30, True)], False),
    "shl_const62": (lambda: [comps.ShifterConst("u", 30, 32, "left")], True),
    "shl_const63": (lambda: [comps.ShifterConst("u", 31, 32, "left")], False),
    "shr_const62": (lambda: [comps.ShifterConst("u", 60, 62, "right"),
                             comps.ShifterConst("s", 60, 62, "right", True),
                             comps.ShifterConst("t", 60, 7, "right", True)], True),
    "shr_const63": (lambda: [comps.ShifterConst("s", 60, 63, "right", True)], False),
    "shl_var62": (lambda: [comps.ShifterVar("u", 31, 5, "left")], True),
    "shl_var63": (lambda: [comps.ShifterVar("u", 32, 5, "left")], False),
    "shr_var31": (lambda: [comps.ShifterVar("u", 60, 5, "right"),
                           comps.ShifterVar("s", 60, 5, "right", True)], True),
    "shr_var63": (lambda: [comps.ShifterVar("s", 60, 6, "right", True)], False),
    "mux60": (lambda: [comps.Mux("u", 60, 2)], True),
    "mux60_5way": (lambda: [comps.Mux("u", 60, 5)], True),
    "mux61": (lambda: [comps.Mux("u", 61, 3)], True),
    "logic60": (lambda: _logic(60), True),
    "logic61": (lambda: _logic(61), True),
    "not60": (lambda: [comps.NotOp("u", 60)], True),
    "not61": (lambda: [comps.NotOp("u", 61)], True),
    "reduce60": (lambda: _reduce(60), True),
    "reduce61": (lambda: _reduce(61), True),
    "concat60": (lambda: [comps.Concat("u", [29, 31])], True),
    "concat61": (lambda: [comps.Concat("u", [30, 31])], True),
    "slice60": (lambda: [comps.Slice("u", 60, 59, 3)], True),
    "slice61": (lambda: [comps.Slice("u", 61, 60, 1)], True),
    "extend60": (lambda: [comps.Extend("s", 30, 60, True),
                          comps.Extend("u", 30, 60, False)], True),
    "extend61": (lambda: [comps.Extend("u", 30, 61, False)], True),
    "extend61_signed": (lambda: [comps.Extend("s", 30, 61, True)], False),
    "decoder32": (lambda: [comps.Decoder("u", 5)], True),
    "decoder64": (lambda: [comps.Decoder("u", 6)], False),
    "rom60": (lambda: [seq.ROM("u", 60, ROM_WORDS)], True),
    "regfile60": (lambda: [seq.RegisterFile("u", 60, 6, n_read_ports=2,
                                            initial=ROM_WORDS)], True),
    "memory_async60": (lambda: [seq.Memory("u", 60, 6, sync_read=False,
                                           initial=ROM_WORDS)], True),
    "register8": _seq(lambda: _registers(8, 5)),
    "register8_en_open": _seq(lambda: _registers(8, 5), unconnected={"en"}),
    "register8_clear_open": _seq(lambda: _registers(8, 5), unconnected={"clear"}),
    "register61": _seq(lambda: _registers(61, (1 << 61) - 3)),
    "counter8": _seq(_counters),
    "counter8_en_open": _seq(_counters, unconnected={"en"}),
    "accumulator12": _seq(lambda: [seq.Accumulator("u", 12)]),
    "accumulator12_en_open": _seq(lambda: [seq.Accumulator("u", 12)],
                                  unconnected={"en"}),
    "accumulator12_clear_open": _seq(lambda: [seq.Accumulator("u", 12)],
                                     unconnected={"clear"}),
    "accumulator12_both_open": _seq(lambda: [seq.Accumulator("u", 12)],
                                    unconnected={"en", "clear"}),
    "memory_sync60": _seq(lambda: [seq.Memory("u", 60, 6, initial=ROM_WORDS)]),
    "memory_sync60_we_open": _seq(lambda: [seq.Memory("u", 60, 6, initial=ROM_WORDS)],
                                  unconnected={"we"}),
    "regfile8": _seq(lambda: [seq.RegisterFile("u", 8, 5, n_read_ports=2,
                                               initial=[3, 1, 4, 1, 5])]),
    "fsm_signed_guard": _seq(_fsm),
    "aggregator": _seq(lambda: [PowerAggregator("u", 3, 16, 20)], unconnected={"e1"}),
    "aggregator_clear_open": _seq(lambda: [PowerAggregator("u", 2, 16, 17)],
                                  unconnected={"clear"}),
    "strobe": _seq(_strobes),
    "strobe_enable_open": _seq(_strobes, unconnected={"enable"}),
    "power_model": _seq(lambda: _power_model(False)),
    "power_model_strobe_only": _seq(lambda: _power_model(True), lane_fused=False),
}
CASES = {case: Case(*entry) for case, entry in CASES.items()}


@functools.lru_cache(maxsize=None)
def _engines(case: str):
    """Fresh module per engine (flattened modules carry scalar state)."""
    factory, lane_fused, unconnected, _ = CASES[case]
    build = lambda: _unit(case, *factory(), unconnected=unconnected)  # noqa: E731
    scalar = {backend: Simulator(build(), backend=backend)
              for backend in ("interp", "compiled")}
    assert scalar["compiled"].backend == "compiled"
    lanes = {}
    for n_lanes in LANE_COUNTS:
        for backend in ("off", "native") if HAS_CC else ("off",):
            if not lane_fused:
                refused = rf"'{case}' .* component '\w+' \("
                with pytest.raises(BatchCompilationError, match=refused):
                    BatchSimulator(build(), n_lanes, kernel_backend=backend)
                continue
            simulator = BatchSimulator(build(), n_lanes, kernel_backend=backend)
            assert simulator.kernel_backend == backend, simulator.kernel_fallback
            lanes[(backend, n_lanes)] = simulator
    return scalar, lanes


def _stimulus(data, module, n_cycles):
    """Per-cycle ``{port: [value per lane]}`` for MAX_LANES lanes."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cycles = []
    for _ in range(n_cycles):
        inputs = {}
        for name, port in module.ports.items():
            if not port.is_input:
                continue
            width = port.net.width
            drawn = data.draw(
                st.lists(st.integers(0, (1 << width) - 1),
                         min_size=DRAWN_LANES, max_size=DRAWN_LANES),
                label=name,
            )
            inputs[name] = drawn + [
                rng.getrandbits(width) for _ in range(MAX_LANES - DRAWN_LANES)
            ]
        cycles.append(inputs)
    return cycles


def _scalar_trace(simulator, cycles, lane):
    simulator.reset()
    trace = []
    for inputs in cycles:
        simulator.set_inputs({name: values[lane] for name, values in inputs.items()})
        simulator.settle()
        trace.append(simulator.get_outputs())
        simulator.clock_edge()
    return trace


def _lane_traces(simulator, cycles):
    n_lanes = simulator.n_lanes
    simulator.reset()
    traces = [[] for _ in range(n_lanes)]
    for inputs in cycles:
        for name, values in inputs.items():
            simulator.set_input(name, np.array(values[:n_lanes], dtype=object))
        simulator.settle()
        outputs = simulator.get_outputs()
        for lane in range(n_lanes):
            traces[lane].append(
                {name: int(values[lane]) for name, values in outputs.items()}
            )
        simulator.clock_edge()
    return traces


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_kind_parity_across_engines(case, data):
    scalar, lanes = _engines(case)
    cycles = _stimulus(data, scalar["interp"].module, CASES[case].n_cycles)
    oracle = [_scalar_trace(scalar["interp"], cycles, lane) for lane in range(MAX_LANES)]
    compiled = [_scalar_trace(scalar["compiled"], cycles, lane) for lane in range(MAX_LANES)]
    assert compiled == oracle, f"{case}: compiled differs from interp"
    for (backend, n_lanes), simulator in lanes.items():
        assert _lane_traces(simulator, cycles) == oracle[:n_lanes], (
            f"{case}: lane {backend} at {n_lanes} lanes differs from interp"
        )
