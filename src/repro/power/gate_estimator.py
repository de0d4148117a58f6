"""Gate-level power estimation baseline.

The paper's introduction notes that transistor/gate-level power estimation is
"much (10X to 100X) slower" than RTL power estimation.  This estimator makes
that baseline concrete: every mappable combinational RTL component is expanded
to gates, and during simulation each observed input vector is re-simulated at
the gate level to count real per-net toggles and convert them to energy.
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

from repro.gates.gate_power import GatePowerCalculator
from repro.gates.gatesim import GateLevelSimulator
from repro.gates.techmap import TechnologyMapper
from repro.netlist.components import Component
from repro.netlist.module import Module
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

    Gate-mapped components are re-simulated at gate level, then the rest run
    their RTL macromodels, in the order of ``observed``; the evaluator takes
    every energy as a generic one and keeps the results.
    """

    def __init__(
        self,
        estimator: "GateLevelPowerEstimator",
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
        self._previous_io: Dict[str, Dict[str, int]] = {}
        self._previous_netvals: Dict[str, Dict[str, int]] = {}

    def on_cycle(self, simulator: Simulator, cycle: int) -> None:
        energies = []
        # gate-mapped combinational components: re-simulate at gate level
        for name, (component, gate_sim, calculator, widths) in self.estimator.gate_mapped.items():
            io_values = simulator.component_io_values(component)
            inputs = {p.name: io_values[p.name] for p in component.input_ports}
            gate_sim.evaluate_ports(inputs, widths)
            snapshot = gate_sim.snapshot()
            previous = self._previous_netvals.get(name)
            energies.append(0.0 if previous is None else
                            calculator.transition_energy(previous, snapshot).total_fj)
            self._previous_netvals[name] = snapshot
        # everything else: RTL macromodels
        for component, model in self.estimator.macromodelled:
            current = simulator.component_io_values(component)
            previous = self._previous_io.get(component.name, current)
            energies.append(model.evaluate(previous, current))
            self._previous_io[component.name] = current
        self.block.push((), energies)

    def on_finish(self, simulator: Simulator) -> None:
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
        observer = _GateLevelObserver(self, observed, keep_cycle_trace, collector)
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
