"""Software RTL power estimation.

This is the baseline algorithm power emulation accelerates: simulate the
design cycle by cycle, observe every RTL component's input/output values, and
evaluate its power macromodel in software, accumulating energy per component.
Evaluation is block-deferred (:mod:`repro.power.block`): the observer gathers
the monitored values each cycle and the macromodels run over a block of
cycles at a time.  Commercial tools such as PowerTheater and NEC's internal
RTL power estimator implement this loop (plus I/O and reporting); their
absolute runtimes are modelled separately in :mod:`repro.power.commercial`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netlist.components import Component
from repro.netlist.module import Module
from repro.power.block import BlockEvaluator
from repro.power.library import PowerModelLibrary, build_seed_library
from repro.power.macromodel import PowerMacromodel
from repro.power.profile import PowerProfile, ProfileConfig, WindowedEnergyCollector
from repro.power.report import LaneComponents, PowerReport
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.engine import SimulationObserver, Simulator
from repro.sim.testbench import Testbench


class _MacromodelObserver(SimulationObserver):
    """Simulator observer feeding a :class:`~repro.power.block.BlockEvaluator`.

    Each cycle it gathers the monitored nets with one getter call and
    evaluates only the generic components (see :mod:`repro.power.block`);
    the evaluator does the rest a block at a time.  ``eval_s`` is the time
    spent here and in the final flush.
    """

    def __init__(
        self,
        estimator: "RTLPowerEstimator",
        simulator: Simulator,
        keep_cycle_trace: bool = True,
        collector: Optional[WindowedEnergyCollector] = None,
    ) -> None:
        self.block = BlockEvaluator(
            estimator.monitored, keep_cycle_trace=keep_cycle_trace,
            collectors=() if collector is None else (collector,),
        )
        self._gather = simulator.net_getter(self.block.nets)
        self._previous_io: Dict[Component, Dict[str, int]] = {}
        self.eval_s = 0.0

    def on_cycle(self, simulator: Simulator, cycle: int) -> None:
        start = time.perf_counter()
        generic = []
        for component, model in self.block.generic:
            current = simulator.component_io_values(component)
            generic.append(model.evaluate(self._previous_io.get(component, current), current))
            self._previous_io[component] = current
        self.block.push(self._gather(), generic)
        self.eval_s += time.perf_counter() - start

    def on_finish(self, simulator: Simulator) -> None:
        start = time.perf_counter()
        self.block.flush()
        self.eval_s += time.perf_counter() - start


class RTLPowerEstimator:
    """Macromodel-based RTL power estimator (the software baseline)."""

    name = "rtl-macromodel"

    def __init__(
        self,
        module: Module,
        library: Optional[PowerModelLibrary] = None,
        technology: Technology = CB130M_TECHNOLOGY,
        backend: str = "compiled",
    ) -> None:
        if module.is_hierarchical:
            raise ValueError(
                f"module {module.name!r} is hierarchical and cannot be estimated "
                f"directly: call repro.netlist.flatten(module) first, or go "
                f"through repro.api (its estimator adapters auto-flatten)"
            )
        #: simulation backend used by :meth:`estimate` ("compiled" or "interp")
        self.backend = backend
        self.module = module
        self.technology = technology
        self.library = library if library is not None else build_seed_library(technology)
        #: (component, model) pairs for every component carrying a power model
        self.monitored: List[tuple] = []
        for component in module.components.values():
            if not component.monitored_ports():
                continue
            self.monitored.append((component, self.library.lookup(component)))
        #: windowed profile from the most recent profiled :meth:`estimate`
        self.last_profile: Optional[PowerProfile] = None
        #: wall-clock phases of the last :meth:`estimate`: ``simulate_s`` and
        #: its ``macromodel_eval_s`` slice (observer gathers, block flushes)
        self.last_phase_s: Dict[str, float] = {}

    # ------------------------------------------------------------------ API
    def estimate(
        self,
        testbench: Testbench,
        max_cycles: Optional[int] = None,
        keep_cycle_trace: bool = True,
        profile: Optional[ProfileConfig] = None,
    ) -> PowerReport:
        """Run the testbench and return the power report.

        When ``profile`` is given, a windowed per-component energy profile
        is collected alongside the report and left on
        :attr:`last_profile`.
        """
        start = time.perf_counter()
        simulator = Simulator(self.module, backend=self.backend)
        budget = max_cycles if max_cycles is not None else testbench.max_cycles
        collector = self._make_collector(profile, budget)
        observer = _MacromodelObserver(
            self, simulator, keep_cycle_trace=keep_cycle_trace, collector=collector
        )
        simulator.add_observer(observer)
        simulation = simulator.run(testbench, max_cycles=max_cycles)
        elapsed = time.perf_counter() - start
        self.last_phase_s = {"simulate_s": elapsed, "macromodel_eval_s": observer.eval_s}
        self.last_profile = None if collector is None else collector.profiles(
            self.module.name, self.name, self.technology.clock_mhz,
            [simulation.cycles])[0]
        return self._build_report(
            observer.block, [simulation.cycles], elapsed, [keep_cycle_trace])[0]

    def _make_collector(
        self,
        profile: Optional[ProfileConfig],
        budget: Optional[int],
        n_lanes: int = 1,
    ) -> Optional[WindowedEnergyCollector]:
        """The profile collector for a run of at most ``budget`` cycles."""
        if profile is None:
            return None
        return profile.collector(
            [c.name for c, _ in self.monitored],
            [c.type_name for c, _ in self.monitored], budget, n_lanes)

    def model_for(self, component_name: str) -> PowerMacromodel:
        """The macromodel assigned to a named component (for inspection/tests)."""
        for component, model in self.monitored:
            if component.name == component_name:
                return model
        raise KeyError(f"component {component_name!r} is not monitored")

    # -------------------------------------------------------------- helpers
    def _build_report(
        self,
        block,
        cycles: Sequence[int],
        elapsed_s: float,
        keep_cycle_trace: Sequence[bool],
        notes: Optional[Dict[str, object]] = None,
    ) -> List[PowerReport]:
        """Every lane's report from an evaluated block (:func:`build_reports`)."""
        return build_reports(
            block, [component for component, _ in self.monitored],
            self.module.name, self.name, self.technology, cycles, elapsed_s,
            keep_cycle_trace,
            {"n_monitored_components": len(self.monitored), **(notes or {})},
        )


def build_reports(
    block,
    components: Sequence[Component],
    design: str,
    estimator: str,
    technology: Technology,
    cycles: Sequence[int],
    elapsed_s: float,
    keep_cycle_trace: Sequence[bool],
    notes: Dict[str, object],
) -> List[PowerReport]:
    """One report per lane of an evaluated block (a scalar run is one lane).

    ``components`` are the block's, in monitored order.  One pass over the
    block's ``(components, lanes)`` arrays, with each lane's float
    operations in the per-lane order: component energies summed in
    monitored order from ``0.0``, every power computed as
    ``energy_to_power_mw(energy / cycles)``, and ``0.0`` for a lane that ran
    no cycles.  Each lane's components are a
    :class:`~repro.power.report.LaneComponents` view over its rows of those
    arrays.  ``keep_cycle_trace`` holds one flag per lane: only a lane whose
    flag is set gets its cycle trace.  Every report carries a copy of
    ``notes``.
    """
    totals = block.totals
    counts = np.asarray(cycles, dtype=np.float64)
    ran = counts > 0

    def power_mw(energy: np.ndarray) -> np.ndarray:
        per_cycle = np.divide(energy, counts, out=np.zeros_like(energy), where=ran)
        return technology.energy_to_power_mw(per_cycle)

    # the running sum from 0.0 in monitored order: accumulate is sequential
    total_energy = np.add.accumulate(np.vstack((np.zeros(len(cycles)), totals)))[-1]
    peak_mw = np.where(ran, technology.energy_to_power_mw(block.peak), 0.0)
    trace = block.cycle_trace() if any(keep_cycle_trace) else None
    index = {component.name: position for position, component in enumerate(components)}
    kinds = [component.type_name for component in components]
    return [
        PowerReport(
            design=design,
            estimator=estimator,
            cycles=n,
            clock_mhz=technology.clock_mhz,
            total_energy_fj=total,
            average_power_mw=average,
            peak_power_mw=peak,
            components=LaneComponents(index, kinds, energies, powers),
            cycle_energy_fj=trace[:n, lane].tolist() if keep else [],
            estimation_time_s=elapsed_s,
            notes=dict(notes),
        )
        for lane, (n, keep, total, average, peak, energies, powers) in enumerate(zip(
            cycles, keep_cycle_trace, total_energy.tolist(),
            power_mw(total_energy).tolist(), peak_mw.tolist(), totals.T.tolist(),
            power_mw(totals).T.tolist()))
    ]
