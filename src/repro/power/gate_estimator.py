"""Gate-level power estimation baseline.

The paper's introduction notes that transistor/gate-level power estimation is
"much (10X to 100X) slower" than RTL power estimation.  This estimator makes
that baseline concrete: every mappable combinational RTL component is expanded
to gates, and during simulation each observed input vector is re-simulated at
the gate level to count real per-net toggles and convert them to energy.
Components without a gate mapping (registers, memories, FSMs) fall back to
their RTL macromodels, which keeps the comparison apples-to-apples for the
storage part of a design.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.gates.gate_power import GatePowerCalculator
from repro.gates.gatesim import GateLevelSimulator
from repro.gates.techmap import TechnologyMapper
from repro.netlist.module import Module
from repro.power.library import PowerModelLibrary, build_seed_library
from repro.power.profile import PowerProfile, ProfileConfig, WindowedEnergyCollector
from repro.power.report import ComponentPower, PowerReport
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.engine import SimulationObserver, Simulator
from repro.sim.testbench import Testbench


class _GateLevelObserver(SimulationObserver):
    def __init__(
        self,
        estimator: "GateLevelPowerEstimator",
        keep_cycle_trace: bool = True,
        collector: Optional[WindowedEnergyCollector] = None,
    ) -> None:
        self.estimator = estimator
        self.keep_cycle_trace = keep_cycle_trace
        self.collector = collector
        self.energy_by_component: Dict[str, float] = {}
        self.cycle_energy: List[float] = []
        self.peak_cycle_energy_fj = 0.0
        self._previous_io: Dict[str, Dict[str, int]] = {}
        self._previous_netvals: Dict[str, Dict[str, int]] = {}

    def on_reset(self, simulator: Simulator) -> None:
        self.energy_by_component = {}
        self.cycle_energy = []
        self.peak_cycle_energy_fj = 0.0
        self._previous_io = {}
        self._previous_netvals = {}

    def on_cycle(self, simulator: Simulator, cycle: int) -> None:
        collector = self.collector
        total = 0.0
        row = 0
        # gate-mapped combinational components: re-simulate at gate level
        for name, (component, gate_sim, calculator, widths) in self.estimator.gate_mapped.items():
            io_values = simulator.component_io_values(component)
            inputs = {p.name: io_values[p.name] for p in component.input_ports}
            gate_sim.evaluate_ports(inputs, widths)
            snapshot = gate_sim.snapshot()
            previous = self._previous_netvals.get(name)
            if previous is not None:
                energy = calculator.transition_energy(previous, snapshot).total_fj
            else:
                energy = 0.0
            self._previous_netvals[name] = snapshot
            self.energy_by_component[name] = self.energy_by_component.get(name, 0.0) + energy
            total += energy
            if collector is not None:
                collector.add(row, energy)
            row += 1
        # everything else: RTL macromodels
        for component, model in self.estimator.macromodelled:
            current = simulator.component_io_values(component)
            previous = self._previous_io.get(component.name, current)
            energy = model.evaluate(previous, current)
            self._previous_io[component.name] = current
            self.energy_by_component[component.name] = (
                self.energy_by_component.get(component.name, 0.0) + energy
            )
            total += energy
            if collector is not None:
                collector.add(row, energy)
            row += 1
        if total > self.peak_cycle_energy_fj:
            self.peak_cycle_energy_fj = total
        if self.keep_cycle_trace:
            self.cycle_energy.append(total)
        if collector is not None:
            collector.end_cycle()


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
        collector = None
        if profile is not None:
            # collector rows follow the observer's iteration order:
            # gate-mapped components first, then the macromodelled ones
            observed = [
                component for component, *_rest in self.gate_mapped.values()
            ] + [component for component, _ in self.macromodelled]
            collector = WindowedEnergyCollector(
                names=[c.name for c in observed],
                types=[c.type_name for c in observed],
                window_cycles=profile.resolved_window(),
                max_windows=profile.max_windows,
            )
        observer = _GateLevelObserver(
            self, keep_cycle_trace=keep_cycle_trace, collector=collector
        )
        observer.on_reset(simulator)
        simulator.add_observer(observer)
        simulation = simulator.run(testbench, max_cycles=max_cycles)
        elapsed = time.perf_counter() - start
        self.last_profile = (
            collector.profile(
                design=self.module.name,
                estimator=self.name,
                clock_mhz=self.technology.clock_mhz,
                cycles=simulation.cycles,
                notes={
                    "n_gate_mapped": len(self.gate_mapped),
                    "n_macromodelled": len(self.macromodelled),
                },
            )
            if collector is not None
            else None
        )

        technology = self.technology
        cycles = simulation.cycles
        components: Dict[str, ComponentPower] = {}
        total_energy = 0.0
        type_by_name = {c.name: c.type_name for c in self.module.components.values()}
        for name, energy in observer.energy_by_component.items():
            total_energy += energy
            components[name] = ComponentPower(
                name=name,
                component_type=type_by_name.get(name, "unknown"),
                energy_fj=energy,
                average_power_mw=technology.energy_to_power_mw(energy / cycles if cycles else 0.0),
            )
        return PowerReport(
            design=self.module.name,
            estimator=self.name,
            cycles=cycles,
            clock_mhz=technology.clock_mhz,
            total_energy_fj=total_energy,
            average_power_mw=technology.energy_to_power_mw(
                total_energy / cycles if cycles else 0.0
            ),
            peak_power_mw=(
                technology.energy_to_power_mw(observer.peak_cycle_energy_fj)
                if cycles
                else 0.0
            ),
            components=components,
            cycle_energy_fj=list(observer.cycle_energy) if keep_cycle_trace else [],
            estimation_time_s=elapsed,
            notes={
                "n_gate_mapped": len(self.gate_mapped),
                "n_macromodelled": len(self.macromodelled),
            },
        )
