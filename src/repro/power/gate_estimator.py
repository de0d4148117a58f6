"""Gate-level power estimation baseline.

The paper's introduction notes that transistor/gate-level power estimation is
"much (10X to 100X) slower" than RTL power estimation.  This estimator makes
that baseline concrete: every mappable combinational RTL component is expanded
to gates, and each input vector it sees during simulation is re-simulated at
the gate level to count real per-net toggles and convert them to energy.  A
gate settle has no state, so the vectors of a block of cycles settle together,
one cycle per lane, and each cycle's toggles are taken against the cycle
before it.
Components without a gate mapping (registers, memories, FSMs) fall back to
their RTL macromodels, which keeps the comparison apples-to-apples for the
storage part of a design.

Only the per-cycle energies are gate-level: the observer pushes them into a
:class:`~repro.power.block.BlockEvaluator` as generic energies, so totals,
peak, cycle trace, profile windows and the report come from the same code
as the RTL estimators'.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gates.gate_power import GatePowerCalculator
from repro.gates.gatesim import GateLevelSimulator, port_column
from repro.gates.techmap import TechnologyMapper
from repro.netlist.components import Component
from repro.netlist.module import Module
from repro.power import block as power_block
from repro.power.block import BlockEvaluator
from repro.power.library import PowerModelLibrary, build_seed_library
from repro.power.profile import PowerProfile, ProfileConfig, WindowedEnergyCollector
from repro.power.report import PowerReport
from repro.power.rtl_estimator import build_reports
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.engine import SimulationObserver, Simulator
from repro.sim.testbench import Testbench


class _GateLevelObserver(SimulationObserver):
    """Each cycle's per-component energies, pushed into a block evaluator.

    Every cycle the observer gathers the gate-mapped components' input
    values and evaluates the macromodelled components' RTL macromodels.  A
    block of cycles at a time (and at finish) it settles each gate-mapped
    component's gathered cycles as the lanes of one gate-level settle, takes
    lane ``i``'s toggles against lane ``i - 1`` (the first lane against the
    previous block's last; a run's first cycle has no previous vector and
    costs 0.0) and pushes the block's cycles, in the order of ``observed``,
    into the evaluator, which takes every energy as a generic one.
    """

    def __init__(
        self,
        estimator: "GateLevelPowerEstimator",
        simulator: Simulator,
        observed: Sequence[Component],
        keep_cycle_trace: bool = True,
        collector: Optional[WindowedEnergyCollector] = None,
    ) -> None:
        self.estimator = estimator
        self.block = BlockEvaluator(
            [(component, None) for component in observed],
            keep_cycle_trace=keep_cycle_trace,
            collectors=() if collector is None else (collector,),
        )
        gate_mapped = list(estimator.gate_mapped.values())
        #: per gate-mapped component, its input ports in gather order
        self._ports = [[p.name for p in component.input_ports]
                       for component, *_rest in gate_mapped]
        self._inputs = simulator.net_getter([
            p.net for component, *_rest in gate_mapped for p in component.input_ports
        ])
        self.block_cycles = max(1, power_block.BLOCK_ELEMENTS // max(
            [gate_sim.program.n_slots for _, gate_sim, *_rest in gate_mapped], default=1))
        self._rows: List[tuple] = []
        self._macro_energies: List[List[float]] = []
        #: per gate-mapped component, the last settled lane of the previous block
        self._last: List[Optional[np.ndarray]] = [None] * len(gate_mapped)
        self._previous_io: Dict[str, Dict[str, int]] = {}

    def on_cycle(self, simulator: Simulator, cycle: int) -> None:
        self._rows.append(self._inputs())
        energies = []
        for component, model in self.estimator.macromodelled:
            current = simulator.component_io_values(component)
            previous = self._previous_io.get(component.name, current)
            energies.append(model.evaluate(previous, current))
            self._previous_io[component.name] = current
        self._macro_energies.append(energies)
        if len(self._macro_energies) >= self.block_cycles:
            self._settle_block()

    def _settle_block(self) -> None:
        """Gate-level energies of the gathered cycles, pushed with the
        macromodelled ones."""
        k = len(self._macro_energies)
        if not k:
            return
        energy = np.empty((k, len(self._ports) + len(self.estimator.macromodelled)))
        columns = iter(zip(*self._rows))
        for index, (ports, (_, gate_sim, calculator, widths)) in enumerate(
                zip(self._ports, self.estimator.gate_mapped.values())):
            gate_sim.evaluate_ports_batch(
                {port: port_column(next(columns), widths[port]) for port in ports},
                widths)
            after = gate_sim.snapshot_batch()
            last = self._last[index]
            before = np.concatenate(
                (after[:, :1] if last is None else last, after[:, :-1]), axis=1)
            energy[:, index] = calculator.transition_energy_batch(
                gate_sim, before, after).total_fj
            self._last[index] = after[:, -1:]
        energy[:, len(self._ports):] = self._macro_energies
        for cycle_energy in energy:
            self.block.push((), cycle_energy)
        self._rows.clear()
        self._macro_energies.clear()

    def on_finish(self, simulator: Simulator) -> None:
        self._settle_block()
        self.block.flush()


class GateLevelPowerEstimator:
    """Slow, detailed baseline: per-cycle gate-level re-simulation."""

    name = "gate-level"

    def __init__(
        self,
        module: Module,
        library: Optional[PowerModelLibrary] = None,
        technology: Technology = CB130M_TECHNOLOGY,
        mapper: Optional[TechnologyMapper] = None,
        backend: str = "compiled",
    ) -> None:
        if module.is_hierarchical:
            raise ValueError(
                f"module {module.name!r} is hierarchical and cannot be estimated "
                f"directly: call repro.netlist.flatten(module) first, or go "
                f"through repro.api (its estimator adapters auto-flatten)"
            )
        #: functional-simulation backend used by :meth:`estimate`
        self.backend = backend
        self.module = module
        self.technology = technology
        self.library = library if library is not None else build_seed_library(technology)
        self.mapper = mapper if mapper is not None else TechnologyMapper(technology.cell_library)
        #: name -> (component, gate simulator, power calculator, port widths)
        self.gate_mapped: Dict[str, tuple] = {}
        self.macromodelled: List[tuple] = []
        for component in module.components.values():
            if not component.monitored_ports():
                continue
            if self.mapper.can_map(component):
                netlist = self.mapper.map_component(component)
                widths = {p.name: p.width for p in component.ports.values()}
                self.gate_mapped[component.name] = (
                    component,
                    GateLevelSimulator(netlist),
                    GatePowerCalculator(netlist, technology.cell_library),
                    widths,
                )
            else:
                self.macromodelled.append((component, self.library.lookup(component)))
        #: windowed profile from the most recent profiled :meth:`estimate`
        self.last_profile: Optional[PowerProfile] = None

    # ------------------------------------------------------------------ API
    def estimate(
        self,
        testbench: Testbench,
        max_cycles: Optional[int] = None,
        keep_cycle_trace: bool = True,
        profile: Optional[ProfileConfig] = None,
    ) -> PowerReport:
        start = time.perf_counter()
        simulator = Simulator(self.module, backend=self.backend)
        # the observer's order: gate-mapped components, then macromodelled
        observed = [component for component, *_rest in self.gate_mapped.values()]
        observed += [component for component, _ in self.macromodelled]
        budget = max_cycles if max_cycles is not None else testbench.max_cycles
        collector = None if profile is None else profile.collector(
            [c.name for c in observed], [c.type_name for c in observed], budget)
        observer = _GateLevelObserver(self, simulator, observed, keep_cycle_trace, collector)
        simulator.add_observer(observer)
        simulation = simulator.run(testbench, max_cycles=max_cycles)
        elapsed = time.perf_counter() - start
        notes = {
            "n_gate_mapped": len(self.gate_mapped),
            "n_macromodelled": len(self.macromodelled),
        }
        self.last_profile = None if collector is None else collector.profiles(
            self.module.name, self.name, self.technology.clock_mhz,
            [simulation.cycles], notes)[0]
        return build_reports(
            observer.block, observed, self.module.name, self.name, self.technology,
            [simulation.cycles], elapsed, [keep_cycle_trace], notes)[0]
