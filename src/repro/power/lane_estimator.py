"""Multi-stimulus RTL power estimation over :class:`BatchSimulator` lanes.

The ROADMAP's named next workload: multi-seed RTL power sweeps.  A Monte-Carlo
style sweep runs the *same* flat module under N independent stimulus seeds; the
scalar :class:`~repro.power.rtl_estimator.RTLPowerEstimator` would simulate the
design N times.  This estimator instead lowers the design once into lane form
(:mod:`repro.sim.batch`) and advances all N testbenches together — one settle
per cycle for every lane.  Power observation is block-deferred: each cycle
only gathers the monitored nets of every lane (one fancy index over the value
store), and :class:`~repro.power.block.BlockEvaluator` turns a block of
cycles into per-component energies in one vectorized pass — the same
evaluator the scalar estimator uses, so each lane's energies equal a scalar
run's bit for bit.

Interactive testbenches drive their lane through a
:class:`~repro.sim.batch.LaneView`: stimulus is collected per lane and applied
as per-lane slot writes, output checks read single lane values, and memory
backdoor loads land in that lane's private state.  Lanes that finish early are
masked out of the energy accumulation (and stop being driven/checked), so each
lane's report is identical to what a scalar run of the same testbench would
produce — lane count changes speed, never results.

Spec-backed testbenches (:class:`~repro.stim.testbench.SpecTestbench` sharing
one :class:`~repro.stim.spec.StimulusSpec`) skip the per-lane LaneView drive
loop entirely: their stimulus compiles into chunked lane tensors
(:mod:`repro.stim.compile`) written straight into the value store, one NumPy
row per port per cycle — the same values the per-lane loop would produce,
minus its ``O(n_lanes)`` Python overhead per cycle.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.netlist.module import Module
from repro.power.library import PowerModelLibrary
from repro.power.block import BlockEvaluator
from repro.power.profile import PowerProfile, ProfileConfig
from repro.power.report import ComponentPower, PowerReport
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.batch import LIMB_BITS, BatchSimulator
from repro.sim.testbench import Testbench


class _MacromodelObserver:
    """Per-cycle lane gather feeding a :class:`~repro.power.block.BlockEvaluator`.

    Each cycle: one fancy index over the value store for every net the
    evaluator reads, plus ``evaluate_lanes`` for the generic components
    (limb-store ports assembled into exact Python ints); the evaluator does
    the rest a block at a time.
    """

    def __init__(self, monitored, program, n_lanes: int,
                 keep_cycle_trace: bool = True, collector=None) -> None:
        self.block = BlockEvaluator(monitored, n_lanes, keep_cycle_trace, collector)
        slot_of, limbs_of = program.slot_of, program.limbs_of
        self._rows = np.asarray([slot_of[net] for net in self.block.nets], dtype=np.intp)
        #: (model, [(port, store rows), ...]) per generic component
        self._generic = [
            (model, [
                (p.name, range(slot_of[p.net], slot_of[p.net] + limbs_of.get(p.net, 1)))
                for p in list(component.input_ports) + list(component.output_ports)
                if p.net is not None
            ])
            for component, model in self.block.generic
        ]
        self._previous: Optional[list] = None

    @staticmethod
    def _port_value(v: np.ndarray, rows) -> np.ndarray:
        """One port's per-lane values; limb-store ports assemble Python ints."""
        value = v[rows[0]].astype(object if len(rows) > 1 else v.dtype)  # a copy
        for k in range(1, len(rows)):
            value = value | (v[rows[k]].astype(object) << (LIMB_BITS * k))
        return value

    def observe(self, v: np.ndarray, active_f: np.ndarray) -> None:
        """Record this cycle's monitored values (``active_f`` masks lanes)."""
        currents = [
            {port: self._port_value(v, rows) for port, rows in ports}
            for _, ports in self._generic
        ]
        generic = [
            model.evaluate_lanes(previous, current)
            for (model, _), previous, current in zip(
                self._generic, self._previous or currents, currents)
        ]
        self._previous = currents
        self.block.push(v[self._rows], generic, active_f)


class BatchRTLPowerEstimator:
    """Lane-vectorized counterpart of :class:`RTLPowerEstimator`.

    ``estimate_all`` runs one testbench per lane and returns one
    :class:`PowerReport` per testbench, each equal (up to wall-clock fields)
    to the report a scalar estimator would produce for that testbench alone.
    Raises :class:`~repro.sim.batch.BatchCompilationError` or
    :class:`~repro.sim.batch.LaneStateError` when the module or a testbench
    cannot run on the lane path — callers fall back to per-seed scalar runs.
    """

    #: reports carry the scalar estimator's name: same algorithm, same results
    name = RTLPowerEstimator.name

    def __init__(
        self,
        module: Module,
        library: Optional[PowerModelLibrary] = None,
        technology: Technology = CB130M_TECHNOLOGY,
        kernel_backend: Optional[str] = None,
        kernel_threads: Optional[Union[int, str]] = None,
    ) -> None:
        # shares the monitored-component/model association (and the
        # hierarchical-module guard) with the scalar estimator
        self._scalar = RTLPowerEstimator(module, library=library, technology=technology)
        self.module = module
        self.technology = self._scalar.technology
        self.library = self._scalar.library
        self.monitored = self._scalar.monitored
        #: kernel backend requested for the lane simulator (None = default)
        self.kernel_backend = kernel_backend
        #: kernel worker count requested for the lane simulator (None = auto)
        self.kernel_threads = kernel_threads
        #: kernel backend actually in effect during the last estimate_all
        self.last_kernel_backend: Optional[str] = None
        #: backend decision string from the last estimate_all's simulator
        self.last_kernel_decision: Optional[str] = None
        #: worker count the last estimate_all's native kernel ran with
        self.last_kernel_threads: Optional[int] = None
        #: wall-clock phase breakdown of the last estimate_all —
        #: ``lane_build_s`` (simulator + program + kernel compilation),
        #: ``simulate_s`` (the drive/settle/observe loop) and
        #: ``macromodel_eval_s`` (time inside the observer, a slice of
        #: simulate_s); shared across lanes, surfaced through
        #: ``EstimateResult.metadata["phase_s"]``
        self.last_phase_s: Dict[str, float] = {}
        #: per-lane windowed profiles from the last profiled estimate_all,
        #: aligned with the returned report list (None when not profiling)
        self.last_profiles: Optional[List[PowerProfile]] = None

    # ------------------------------------------------------------------ API
    def estimate_all(
        self,
        testbenches: Sequence[Testbench],
        max_cycles: Optional[int] = None,
        keep_cycle_trace: bool = True,
        use_array_driver: Optional[bool] = None,
        profile: Optional[ProfileConfig] = None,
    ) -> List[PowerReport]:
        """Run every testbench in its own lane and report power per lane.

        ``use_array_driver`` controls the stimulus path for spec-backed
        testbenches: ``None`` (default) prefers the vectorized array driver
        whenever every testbench is a :class:`SpecTestbench` sharing one
        spec, ``False`` forces the per-lane LaneView drive loop (the
        benchmark baseline), ``True`` requires the array driver and raises
        :class:`ValueError` when the testbenches are not spec-backed.
        Results are identical either way.
        """
        n_lanes = len(testbenches)
        if n_lanes == 0:
            return []
        start = time.perf_counter()
        with obs.span("lanes.build", module=self.module.name, n_lanes=n_lanes):
            simulator = BatchSimulator(
                self.module, n_lanes, kernel_backend=self.kernel_backend,
                kernel_threads=self.kernel_threads,
            )
        build_s = time.perf_counter() - start
        self.last_kernel_backend = simulator.kernel_backend
        self.last_kernel_decision = simulator.kernel_decision
        self.last_kernel_threads = simulator.kernel_threads
        views = [simulator.lane_view(lane) for lane in range(n_lanes)]
        for testbench, view in zip(testbenches, views):
            testbench.bind(view)

        limits = [
            max_cycles if max_cycles is not None else tb.max_cycles
            for tb in testbenches
        ]
        driver = None
        if use_array_driver is not False:
            # the array path stops every lane at one uniform cycle, so it
            # also requires equal per-lane budgets (a caller can retarget a
            # testbench's max_cycles after construction)
            if len(set(limits)) == 1:
                driver = self._make_array_driver(testbenches, simulator)
            if use_array_driver is True and driver is None:
                raise ValueError(
                    "use_array_driver=True needs SpecTestbench instances "
                    "sharing one StimulusSpec and equal cycle budgets"
                )

        is_object = simulator.program.dtype is object
        known = [limit for limit in limits if limit is not None]
        collector = self._scalar._make_collector(
            profile, max(known) if len(known) == n_lanes else None, n_lanes=n_lanes
        )
        observer = _MacromodelObserver(
            self.monitored, simulator.program, n_lanes, keep_cycle_trace, collector
        )

        input_keys = simulator._input_keys
        input_limbs = simulator._port_limbs
        v = simulator._v

        active = np.ones(n_lanes, dtype=bool)
        lane_cycles = [0] * n_lanes

        #: spec-backed lanes all run the same cycle-determined workload (one
        #: spec, equal limits, no checks), so their stop cycle is computed
        #: once and the per-lane budget/check/finished loops are skipped
        uniform_stop: Optional[int] = None
        if driver is not None:
            uniform_stop = (
                driver.n_cycles
                if limits[0] is None
                else min(limits[0], driver.n_cycles)
            )

        # one span for the whole drive/settle/observe loop — never per cycle;
        # the observer's share (gathers plus block flushes) is accumulated
        # with two clock reads per cycle
        sim_span = obs.span(
            "lanes.simulate", module=self.module.name, n_lanes=n_lanes)
        macromodel_s = 0.0

        while active.any():
            cycle = simulator.cycle
            if uniform_stop is not None:
                if cycle >= uniform_stop:
                    for lane in np.flatnonzero(active):
                        lane_cycles[lane] = cycle
                    active[:] = False
                    break
            else:
                # per-lane cycle budget (mirrors the scalar run loop's limit
                # check)
                for lane in np.flatnonzero(active):
                    limit = limits[lane]
                    if limit is not None and cycle >= limit:
                        active[lane] = False
                        lane_cycles[lane] = cycle
                if not active.any():
                    break

            if driver is not None:
                # array driver: one vectorized row write per driven port
                if cycle < driver.n_cycles:
                    driver.apply(cycle)
            else:
                # drive: collect each active lane's stimulus into per-lane writes
                for lane in np.flatnonzero(active):
                    lane_stimulus = testbenches[lane].drive(cycle, views[lane])
                    if not lane_stimulus:
                        continue
                    for name, value in lane_stimulus.items():
                        try:
                            slot, width = input_keys[name]
                        except KeyError:
                            valid = ", ".join(sorted(input_keys)) or "<none>"
                            raise KeyError(
                                f"module {self.module.name!r} has no input port "
                                f"{name!r}; valid input ports: {valid}"
                            ) from None
                        masked = int(value) & ((1 << width) - 1)
                        n_limbs = input_limbs[name]
                        if n_limbs > 1:
                            for k in range(n_limbs):
                                v[slot + k, lane] = (masked >> (LIMB_BITS * k)) & (
                                    (1 << LIMB_BITS) - 1
                                )
                        else:
                            v[slot, lane] = masked if is_object else np.int64(masked)

            simulator.settle()

            # observe: gather the monitored values; the block evaluator
            # turns them into energies every block_cycles cycles
            t_observe = time.perf_counter()
            observer.observe(v, active.astype(np.float64))
            macromodel_s += time.perf_counter() - t_observe

            if uniform_stop is not None:
                simulator.clock_edge()
                simulator.cycle += 1
                if cycle + 1 >= uniform_stop:
                    for lane in range(n_lanes):
                        lane_cycles[lane] = cycle + 1
                    active[:] = False
                continue

            # check/finish each active lane, then take the shared clock edge
            finishing = []
            for lane in np.flatnonzero(active):
                testbenches[lane].check(cycle, views[lane])
                if testbenches[lane].finished(cycle, views[lane]):
                    finishing.append(lane)
                    lane_cycles[lane] = cycle + 1
            simulator.clock_edge()
            simulator.cycle += 1
            for lane in finishing:
                active[lane] = False

        simulator.settle()
        t_observe = time.perf_counter()
        block = observer.block
        block.flush()
        macromodel_s += time.perf_counter() - t_observe
        elapsed = time.perf_counter() - start
        sim_span.set(cycles=simulator.cycle,
                     macromodel_eval_s=round(macromodel_s, 6))
        sim_span.end()
        self.last_phase_s = {
            "lane_build_s": build_s,
            "simulate_s": elapsed - build_s,
            "macromodel_eval_s": macromodel_s,
        }
        trace = block.cycle_trace()
        if collector is not None:
            self.last_profiles = collector.lane_profiles(
                design=self.module.name,
                estimator=self.name,
                clock_mhz=self.technology.clock_mhz,
                lane_cycles=lane_cycles,
                notes={"batch_lanes": n_lanes},
            )
        else:
            self.last_profiles = None
        driver_name = "array" if driver is not None else "lane-view"
        return [
            self._build_lane_report(
                lane, lane_cycles[lane], block.totals, trace,
                float(block.peak[lane]), elapsed / n_lanes, n_lanes,
                keep_cycle_trace, driver_name,
            )
            for lane in range(n_lanes)
        ]

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _make_array_driver(testbenches: Sequence[Testbench], simulator):
        """A :class:`~repro.stim.driver.BatchStimulusDriver` when every
        testbench is spec-backed.

        Returns ``None`` unless all testbenches are
        :class:`~repro.stim.testbench.SpecTestbench` instances sharing one
        :class:`~repro.stim.spec.StimulusSpec` (seeds may differ — each
        becomes one lane).  The driver compiles the very streams a scalar
        ``SpecTestbench`` run would pull, so switching drivers never changes
        results.  Subclasses are excluded — they may override ``check``/
        ``finished``, which the array-driven loop does not call — and take
        the per-lane LaneView path instead.
        """
        from repro.stim.driver import BatchStimulusDriver
        from repro.stim.testbench import SpecTestbench

        if not all(type(tb) is SpecTestbench for tb in testbenches):
            return None
        spec = testbenches[0].spec
        if any(tb.spec != spec for tb in testbenches[1:]):
            return None
        if any(
            port.is_input and port.net in simulator.program.limbs_of
            for port in simulator.module.ports.values()
        ):
            # limb-store input ports need per-limb writes; the array driver's
            # int64 stream rows cannot represent them, so drive per lane
            return None
        return BatchStimulusDriver(
            simulator, spec, seeds=[tb.seed for tb in testbenches]
        )
    def _build_lane_report(
        self,
        lane: int,
        cycles: int,
        totals: np.ndarray,
        trace: np.ndarray,
        peak_energy_fj: float,
        elapsed_s: float,
        n_lanes: int,
        keep_cycle_trace: bool,
        stimulus_driver: str = "lane-view",
    ) -> PowerReport:
        technology = self.technology
        components: Dict[str, ComponentPower] = {}
        total_energy = 0.0
        for (component, _), energy in zip(self.monitored, totals[:, lane].tolist()):
            total_energy += energy
            components[component.name] = ComponentPower(
                name=component.name,
                component_type=component.type_name,
                energy_fj=energy,
                average_power_mw=technology.energy_to_power_mw(
                    energy / cycles if cycles else 0.0
                ),
            )
        lane_trace = trace[:cycles, lane] if cycles else trace[:0, lane]
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
                technology.energy_to_power_mw(peak_energy_fj) if cycles else 0.0
            ),
            components=components,
            cycle_energy_fj=[float(e) for e in lane_trace] if keep_cycle_trace else [],
            estimation_time_s=elapsed_s,
            notes={
                "n_monitored_components": len(self.monitored),
                "batch_lanes": n_lanes,
                "stimulus_driver": stimulus_driver,
            },
        )
