"""The cycle-accurate simulation engine.

Two backends execute the same levelized schedule with identical observable
behaviour:

* ``"compiled"`` (default) — the Verilator-style fast path: every net gets a
  dense integer slot in a flat value list and the whole schedule is
  code-generated once per module into straight-line, allocation-free Python
  (:mod:`repro.sim.compiled`).  Simple components are fused into masked
  integer expressions; complex ones fall back to pre-bound
  ``evaluate``/``capture`` calls.  If code generation fails the simulator
  runs on the interpreter and records why in ``Simulator.backend_fallback``.
* ``"interp"`` — the original reference interpreter: per component and per
  cycle, a ``{port_name: value}`` dict is built and the virtual
  ``Component.evaluate`` is invoked.  It is kept both as the correctness
  oracle for the compiled backend (see the cross-backend parity tests) and as
  the baseline for the throughput benchmarks.

The public API is backend-agnostic: ``set_input``/``get_output``/``get_net``,
``component_io_values`` and ``Simulator.values`` (a Net-keyed mapping) work
identically on both, so instrumentation observers, power estimators, traces
and the emulation platform run unchanged — just faster.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.module import Module
from repro.netlist.nets import Net
from repro.netlist.signals import mask_value
from repro.sim.compiled import CompilationError, SlotValues, compile_module
from repro.sim.scheduler import Schedule, schedule_for


class SimulationObserver:
    """Hook interface invoked by the simulator.

    ``on_cycle`` runs after the combinational settle of every cycle (i.e. with
    all values for the current cycle stable, just before the clock edge) —
    the same sampling instant as the paper's power strobe.
    """

    def on_reset(self, simulator: "Simulator") -> None:  # pragma: no cover - default no-op
        return None

    def on_cycle(self, simulator: "Simulator", cycle: int) -> None:
        raise NotImplementedError

    def on_finish(self, simulator: "Simulator") -> None:  # pragma: no cover - default no-op
        return None


@dataclass
class SimulationResult:
    """Summary of a testbench run."""

    design: str
    cycles: int
    wall_time_s: float
    #: values of module output ports at the final settled cycle
    final_outputs: Dict[str, int] = field(default_factory=dict)
    #: optional per-testbench payload (captured outputs, check counts, ...)
    captured: Dict[str, object] = field(default_factory=dict)

    @property
    def cycles_per_second(self) -> float:
        """Simulation throughput (simulated cycles per wall-clock second)."""
        if self.cycles == 0:
            return 0.0
        if self.wall_time_s <= 0:
            return float("inf")
        return self.cycles / self.wall_time_s


class Simulator:
    """Cycle-accurate simulator for a flat RTL module.

    Typical use::

        sim = Simulator(flatten(design))
        sim.run(testbench)

    or, for manual control::

        sim.set_input("start", 1)
        sim.step()
        value = sim.get_output("done")

    ``backend`` selects the execution strategy (see the module docstring);
    the resolved choice is recorded in ``Simulator.backend``.
    """

    def __init__(
        self,
        module: Module,
        schedule: Optional[Schedule] = None,
        backend: str = "compiled",
    ) -> None:
        if backend not in ("compiled", "interp"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'compiled' or 'interp'"
            )
        self.module = module
        self.schedule = schedule if schedule is not None else schedule_for(module)
        self.cycle = 0
        self.observers: List[SimulationObserver] = []

        #: why ``backend="compiled"`` fell back to the interpreter, if it did
        self.backend_fallback: Optional[str] = None
        program = None
        if backend == "compiled":
            try:
                program = compile_module(module, self.schedule)
            except CompilationError as error:
                self.backend_fallback = str(error)
        if program is not None:
            self.backend = "compiled"
            self._program = program
            self._v: Optional[List[int]] = [0] * program.n_slots
            #: Net-keyed mapping over the slot list (same API as the dict)
            self.values = SlotValues(program.slot_of, self._v)
            slot_of = program.slot_of
            key = slot_of.__getitem__
        else:
            self.backend = "interp"
            self._program = None
            self._v = None
            self.values = {net: 0 for net in module.nets.values()}

            def key(net: Net) -> Net:
                return net

        #: slot list (compiled) or the Net-keyed dict (interp) — both support
        #: subscripting by the keys stored in the precomputed bindings below,
        #: which is all the hot accessors need.
        self._store = self._v if program is not None else self.values
        self._key = key
        # Precompute port->key bindings once; evaluation is the hot loop.
        self._io_bindings = {}
        for component in module.components.values():
            in_binding = [(p.name, key(p.net)) for p in component.input_ports if p.net is not None]
            out_binding = [(p.name, key(p.net)) for p in component.output_ports if p.net is not None]
            self._io_bindings[component] = (in_binding, out_binding)
        self._input_keys = {
            name: (key(port.net), port.net.width)
            for name, port in module.ports.items()
            if port.is_input
        }
        self._output_keys = {
            name: key(port.net) for name, port in module.ports.items() if port.is_output
        }
        self.reset()

    # -------------------------------------------------------------- control
    def add_observer(self, observer: SimulationObserver) -> SimulationObserver:
        self.observers.append(observer)
        return observer

    def remove_observer(self, observer: SimulationObserver) -> None:
        self.observers.remove(observer)

    def reset(self) -> None:
        """Reset all sequential state and zero all nets, then settle."""
        for component in self.schedule.sequential:
            component.reset()
        if self._v is not None:
            self._v[:] = [0] * len(self._v)
        else:
            for net in self.values:
                self.values[net] = 0
        self.cycle = 0
        for observer in self.observers:
            observer.on_reset(self)
        self.settle()

    # ------------------------------------------------------------------ I/O
    def set_input(self, name: str, value: int) -> None:
        """Drive a module input port (takes effect at the next settle)."""
        try:
            key, width = self._input_keys[name]
        except KeyError:
            valid = ", ".join(sorted(self._input_keys)) or "<none>"
            raise KeyError(
                f"module {self.module.name!r} has no input port {name!r}; "
                f"valid input ports: {valid}"
            ) from None
        self._store[key] = mask_value(value, width)

    def set_inputs(self, inputs: Mapping[str, int]) -> None:
        for name, value in inputs.items():
            self.set_input(name, value)

    def get_output(self, name: str) -> int:
        """Read a module output port (value as of the last settle)."""
        try:
            key = self._output_keys[name]
        except KeyError:
            valid = ", ".join(sorted(self._output_keys)) or "<none>"
            raise KeyError(
                f"module {self.module.name!r} has no output port {name!r}; "
                f"valid output ports: {valid}"
            ) from None
        return self._store[key]

    def get_outputs(self) -> Dict[str, int]:
        store = self._store
        return {name: store[key] for name, key in self._output_keys.items()}

    def get_net(self, net: Net | str) -> int:
        """Read any net by object or name."""
        if isinstance(net, str):
            net = self.module.nets[net]
        return self.values[net]

    def component_io_values(self, component) -> Dict[str, int]:
        """Snapshot of a component's port values at the current settle.

        This is what a power macromodel (software or emulated) observes.
        """
        in_binding, out_binding = self._io_bindings[component]
        store = self._store
        snapshot = {name: store[key] for name, key in in_binding}
        snapshot.update({name: store[key] for name, key in out_binding})
        return snapshot

    def net_getter(self, nets: Sequence[Net]) -> Callable[[], Tuple[int, ...]]:
        """A no-argument callable returning the current values of ``nets``:
        one :func:`operator.itemgetter` over the value store."""
        keys = [self._key(net) for net in nets]
        get = operator.itemgetter(*keys) if len(keys) > 1 else (
            lambda store: tuple(store[key] for key in keys))
        return functools.partial(get, self._store)

    # ------------------------------------------------------------ execution
    def settle(self) -> None:
        """Propagate combinational logic with the current inputs and state."""
        program = self._program
        if program is not None:
            program.settle(self._v)
            return
        values = self.values
        bindings = self._io_bindings
        for component in self.schedule.state_sources:
            _, out_binding = bindings[component]
            outputs = component.evaluate({})
            for name, net in out_binding:
                values[net] = outputs[name]
        for component in self.schedule.ordered:
            in_binding, out_binding = bindings[component]
            inputs = {name: values[net] for name, net in in_binding}
            outputs = component.evaluate(inputs)
            for name, net in out_binding:
                values[net] = outputs[name]

    def clock_edge(self) -> None:
        """Capture and commit the next state of every sequential component."""
        program = self._program
        if program is not None:
            program.clock_edge(self._v)
            return
        values = self.values
        bindings = self._io_bindings
        for component in self.schedule.sequential:
            in_binding, _ = bindings[component]
            inputs = {name: values[net] for name, net in in_binding}
            component.capture(inputs)
        for component in self.schedule.sequential:
            component.commit()

    def step(self, inputs: Optional[Mapping[str, int]] = None, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` clock cycles.

        Per cycle: apply inputs, settle combinational logic, notify observers,
        then take the clock edge.
        """
        for _ in range(cycles):
            if inputs:
                self.set_inputs(inputs)
            self.settle()
            if self.observers:
                for observer in self.observers:
                    observer.on_cycle(self, self.cycle)
            self.clock_edge()
            self.cycle += 1

    def run(self, testbench, max_cycles: Optional[int] = None) -> SimulationResult:
        """Execute a testbench until it reports completion (or ``max_cycles``)."""
        start = time.perf_counter()
        testbench.bind(self)
        limit = max_cycles if max_cycles is not None else testbench.max_cycles
        while True:
            if limit is not None and self.cycle >= limit:
                break
            stimulus = testbench.drive(self.cycle, self)
            if stimulus:
                self.set_inputs(stimulus)
            self.settle()
            if self.observers:
                for observer in self.observers:
                    observer.on_cycle(self, self.cycle)
            testbench.check(self.cycle, self)
            finished = testbench.finished(self.cycle, self)
            self.clock_edge()
            self.cycle += 1
            if finished:
                break
        self.settle()
        for observer in self.observers:
            observer.on_finish(self)
        wall = time.perf_counter() - start
        result = SimulationResult(
            design=self.module.name,
            cycles=self.cycle,
            wall_time_s=wall,
            final_outputs=self.get_outputs(),
            captured=testbench.captured(),
        )
        return result
