"""Multi-stimulus RTL power estimation over :class:`BatchSimulator` lanes.

The ROADMAP's named next workload: multi-seed RTL power sweeps.  A Monte-Carlo
style sweep runs the *same* flat module under N independent stimulus seeds; the
scalar :class:`~repro.power.rtl_estimator.RTLPowerEstimator` would simulate the
design N times.  This estimator instead lowers the design once into lane form
(:mod:`repro.sim.batch`) and advances all N testbenches together — one settle
per cycle for every lane.  Power observation runs next to the design: on a
native lane kernel the kernel's own ``observe`` entry point evaluates the
macromodels in C each cycle, straight from the value store
(:class:`~repro.power.block.NativeEvaluator`); on the ``off`` backend each
cycle gathers the monitored nets of every lane (one fancy index over the
value store) and :class:`~repro.power.block.BlockEvaluator` turns a block of
cycles into per-component energies in one vectorized pass — the evaluator
the scalar estimator uses.  Both run one plan in one float order, so each
lane's energies equal a scalar run's bit for bit on either backend.
``_MacromodelObserver.observe`` stays the per-cycle entry point of the
layer whichever evaluator runs.

A block of testbenches runs through one lane form
(:meth:`~repro.sim.testbench.Testbench.lanes`) that drives, checks and
finishes every lane each cycle: whole-block NumPy row operations for the
registry testbenches (:mod:`repro.sim.declarative`) and for spec-backed
testbenches sharing one :class:`~repro.stim.spec.StimulusSpec` (the array
driver, :mod:`repro.stim.driver`), and a per-lane
:class:`~repro.sim.batch.LaneView` loop for any other testbench.  Lanes
that finish early, or reach their cycle budget, are masked out of the
energy accumulation, so each lane's report is identical to what a scalar
run of the same testbench would produce — lane count changes speed, never
results.

The host leaves the cycle loop where it can see that nothing in it needs
Python: a block on a native kernel with no generic component whose lane
form knows its inputs and stop cycles up front — the array driver and the
registry stream testbenches (``StreamTestbench``, e.g. HVPeakF's).  Every
lane of such a block stops at its budget or the lane form's last cycle, so
the estimator hands the kernel's ``run`` entry point one segment of input
rows per call — up to the end of the rows at hand (a stimulus chunk, or
the stream's whole run), the next profile-window boundary or the end of
the cycle-trace buffer — and the kernel drives, settles, captures the
outputs the lane form checks, observes and clocks each lane block to the
segment's end (:meth:`~repro.power.block.NativeEvaluator.run`); the lane
form then checks the segment's captured rows.  Its wall time is
``phase_s["run_s"]``, with the observe time inside it, so
``macromodel_eval_s`` reads ~0 on such a run.  The ``off`` backend, job
testbenches (``JobsTestbench``), per-lane testbench loops and generic
components keep the per-cycle loop.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.netlist.module import Module
from repro.power.library import PowerModelLibrary
from repro.power import block as power_block
from repro.power.block import BlockEvaluator, NativeEvaluator, observe_plan
from repro.power.profile import PowerProfile, ProfileConfig, WindowedEnergyCollector
from repro.power.report import PowerReport
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.batch import LIMB_BITS, BatchSimulator
from repro.sim.testbench import Testbench, lane_form


class _MacromodelObserver:
    """Per-cycle power observation of every lane: the layer's entry point.

    On a native lane kernel a :class:`~repro.power.block.NativeEvaluator`
    evaluates the table components in C each cycle, straight from the value
    store (``evaluator == "native"``); otherwise each cycle gathers the
    monitored nets with one fancy index over the store and a
    :class:`~repro.power.block.BlockEvaluator` evaluates a block of cycles
    at a time (``"block"``).  Either way ``evaluate_lanes`` runs here for
    the generic components (limb-store ports assembled into exact Python
    ints), and :attr:`block` holds the results.
    """

    def __init__(self, monitored, simulator: BatchSimulator,
                 keep_cycle_trace: bool = True, collectors=()) -> None:
        block = BlockEvaluator(monitored, simulator.n_lanes, keep_cycle_trace, collectors,
                               plan=observe_plan(simulator.module, monitored))
        program = simulator.program
        slot_of, limbs_of = program.slot_of, program.limbs_of
        rows = np.asarray([slot_of[net] for net in block.nets], dtype=np.intp)
        #: (model, [(port, store rows), ...]) per generic component
        self._generic = [
            (model, [
                (p.name, range(slot_of[p.net], slot_of[p.net] + limbs_of.get(p.net, 1)))
                for p in list(component.input_ports) + list(component.output_ports)
                if p.net is not None
            ])
            for component, model in block.generic
        ]
        self._previous: Optional[list] = None
        #: which evaluator runs the macromodels: "native" or "block"
        self.evaluator = "block" if simulator.kernel is None else "native"
        if simulator.kernel is None:
            self.block = block
            self._rows = rows
        else:
            self.block = NativeEvaluator(block, simulator.kernel, rows)
            self._rows = None  # the kernel reads the store itself

    @staticmethod
    def _port_value(v: np.ndarray, rows) -> np.ndarray:
        """One port's per-lane values; limb-store ports assemble Python ints."""
        value = v[rows[0]].astype(object if len(rows) > 1 else v.dtype)  # a copy
        for k in range(1, len(rows)):
            value = value | (v[rows[k]].astype(object) << (LIMB_BITS * k))
        return value

    def observe(self, v: np.ndarray, active_f: np.ndarray) -> None:
        """Record this cycle's monitored values (``active_f`` masks lanes)."""
        generic = []
        if self._generic:
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
        self.block.push(v if self._rows is None else v[self._rows], generic, active_f)


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
        #: ``simulate_s`` (the drive/settle/observe loop),
        #: ``macromodel_eval_s`` (time inside the observer) and
        #: ``testbench_s`` (time inside the lane form: bind, drive, check,
        #: finish) — both slices of simulate_s; on a run to completion
        #: (array-driver and stream-testbench blocks on a native kernel)
        #: also ``run_s``, the kernel's ``run`` calls, which hold the
        #: observe time (``macromodel_eval_s`` then reads ~0); shared across
        #: lanes, surfaced through ``EstimateResult.metadata["phase_s"]``
        self.last_phase_s: Dict[str, float] = {}
        #: per-lane windowed profiles from the last profiled estimate_all,
        #: aligned with the returned report list (None when not profiling,
        #: and for each lane that asked for no profile)
        self.last_profiles: Optional[List[Optional[PowerProfile]]] = None
        #: which evaluator ran the last estimate_all's macromodels:
        #: "native" (in the lane kernel) or "block"
        self.last_macromodel_eval: Optional[str] = None

    # ------------------------------------------------------------------ API
    def estimate_all(
        self,
        testbenches: Sequence[Testbench],
        max_cycles: Optional[int] = None,
        keep_cycle_trace: Union[bool, Sequence[bool]] = True,
        use_array_driver: Optional[bool] = None,
        profile: Union[ProfileConfig, Sequence[Optional[ProfileConfig]], None] = None,
    ) -> List[PowerReport]:
        """Run every testbench in its own lane and report power per lane.

        The testbenches run through one lane form
        (:func:`~repro.sim.testbench.lane_form`): a whole-block NumPy form
        when their type declares one, else the per-lane LaneView loop.
        ``use_array_driver=False`` forces the per-lane loop (the benchmark
        baseline); ``True`` requires the spec-backed array driver
        (:class:`SpecTestbench` instances sharing one spec) and raises
        :class:`ValueError` otherwise.  Results are identical either way.

        ``profile`` is one :class:`ProfileConfig` for every lane or one per
        lane (``None`` = that lane collects no profile); each lane's profile
        equals what a scalar run with its config collects.
        ``keep_cycle_trace`` is likewise one flag or one per lane: only the
        lanes that keep their trace get one built.
        """
        n_lanes = len(testbenches)
        if n_lanes == 0:
            return []
        keep = (list(keep_cycle_trace) if isinstance(keep_cycle_trace, (list, tuple))
                else [keep_cycle_trace] * n_lanes)
        if len(keep) != n_lanes:
            raise ValueError(
                f"keep_cycle_trace has {len(keep)} flags for {n_lanes} lanes")
        configs = list(profile) if isinstance(profile, (list, tuple)) else [profile] * n_lanes
        if len(configs) != n_lanes:
            raise ValueError(
                f"profile has {len(configs)} configs for {n_lanes} lanes")
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

        limits = [
            max_cycles if max_cycles is not None else tb.max_cycles
            for tb in testbenches
        ]
        known = [limit for limit in limits if limit is not None]
        horizon = max(known) if len(known) == n_lanes else None
        t_bench = time.perf_counter()
        if use_array_driver is False:
            lanes = Testbench.lanes(testbenches, simulator, horizon)
        else:
            lanes = lane_form(testbenches, simulator, horizon)
            if use_array_driver is True and lanes.name != "array":
                raise ValueError(
                    "use_array_driver=True needs SpecTestbench instances "
                    "sharing one StimulusSpec"
                )
        testbench_s = time.perf_counter() - t_bench

        # one collector per distinct resolved window, each lane's resolved
        # against its own budget as a scalar run would; all see the same
        # running totals
        collectors: Dict[tuple, WindowedEnergyCollector] = {}
        lanes_of: Dict[tuple, List[int]] = {}
        for lane, (config, limit) in enumerate(zip(configs, limits)):
            if config is not None:
                key = (config.resolved_window(limit), config.max_windows)
                if key not in collectors:
                    collectors[key] = self._scalar._make_collector(config, limit, n_lanes)
                lanes_of.setdefault(key, []).append(lane)
        observer = _MacromodelObserver(
            self.monitored, simulator, any(keep), collectors.values())
        self.last_macromodel_eval = observer.evaluator
        v = simulator._v
        #: the cycle each lane stops at: its budget until it finishes
        stop = np.array([
            limit if limit is not None else np.iinfo(np.int64).max
            for limit in limits
        ], dtype=np.int64)
        active = stop > 0
        for collector in collectors.values():
            collector.lane_stops = stop

        # one span for the whole loop — never per cycle; the observer's and
        # the lane form's shares are accumulated with clock reads per cycle
        fused = (observer.evaluator == "native" and not observer._generic
                 and lanes.capture is not None)
        sim_span = obs.span(
            "lanes.simulate", module=self.module.name, n_lanes=n_lanes,
            macromodel_eval=observer.evaluator, fused=fused)
        macromodel_s = run_s = 0.0
        clock = time.perf_counter
        block = observer.block
        if fused:
            # run to completion: every lane finishes with the lane form's
            # last cycle, so its stop is known up front, and each segment of
            # input rows is one kernel call that drives, settles, captures
            # the checked outputs, observes and clocks every lane block; the
            # segment's checks then run over its captured rows
            np.minimum(stop, lanes.n_cycles, out=stop)
            end = int(stop.max())
            # one buffer for every segment's captured rows, sized like a
            # trace buffer (BLOCK_ELEMENTS lane-cycles per output); no
            # segment is longer than it
            captured = np.empty(
                (min(end, max(1, power_block.BLOCK_ELEMENTS // n_lanes)),
                 len(lanes.capture), n_lanes), dtype=np.int64)
            while simulator.cycle < end:
                cycle = simulator.cycle
                t0 = clock()
                rows = lanes.rows_at(cycle)[:min(end - cycle, len(captured))]
                t1 = clock()
                n = block.run(v, rows, lanes.slots, stop, simulator.kernel_threads,
                              lanes.capture, captured)
                t2 = clock()
                lanes.check_rows(cycle, captured[:n], stop)
                simulator.cycle += n
                testbench_s += (t1 - t0) + (clock() - t2)
                run_s += t2 - t1
        else:
            while active.any():
                cycle = simulator.cycle
                t0 = clock()
                lanes.drive(cycle, active)
                t1 = clock()
                simulator.settle()
                # observe: gather the monitored values; the block evaluator
                # turns them into energies every block_cycles cycles
                t2 = clock()
                observer.observe(v, active.astype(np.float64))
                t3 = clock()
                finishing = active & lanes.check(cycle, active)
                t4 = clock()
                testbench_s += (t1 - t0) + (t4 - t3)
                macromodel_s += t3 - t2
                simulator.clock_edge()
                simulator.cycle += 1
                stop[finishing] = cycle + 1
                active = stop > simulator.cycle
        t_close = clock()
        lanes.close()
        testbench_s += clock() - t_close

        if not fused:
            # testbenches bound to lane views may read the outputs later; an
            # array driver keeps no view, so the fused run leaves it out
            simulator.settle()
        t_observe = clock()
        block.flush()
        macromodel_s += clock() - t_observe
        elapsed = clock() - start
        sim_span.set(cycles=simulator.cycle,
                     macromodel_eval_s=round(macromodel_s, 6),
                     testbench_s=round(testbench_s, 6),
                     run_s=round(run_s, 6))
        sim_span.end()
        self.last_phase_s = {
            "lane_build_s": build_s,
            "simulate_s": elapsed - build_s,
            "macromodel_eval_s": macromodel_s,
            "testbench_s": testbench_s,
        }
        if fused:
            self.last_phase_s["run_s"] = run_s
        lane_cycles = stop.tolist()
        self.last_profiles = [None] * n_lanes if collectors else None
        for key, collector in collectors.items():
            profiles = collector.profiles(
                design=self.module.name,
                estimator=self.name,
                clock_mhz=self.technology.clock_mhz,
                lane_cycles=[lane_cycles[lane] for lane in lanes_of[key]],
                notes={"batch_lanes": n_lanes},
                lanes=lanes_of[key],
            )
            for lane, lane_profile in zip(lanes_of[key], profiles):
                self.last_profiles[lane] = lane_profile
        return self._build_lane_report(
            block, lane_cycles, elapsed / n_lanes, keep, lanes.name)

    # -------------------------------------------------------------- helpers
    def _build_lane_report(self, block, cycles: List[int], elapsed_s: float,
                           keep_cycle_trace: List[bool],
                           stimulus_driver: str) -> List[PowerReport]:
        """Every lane's report, in one pass over the block's arrays."""
        notes = {"batch_lanes": len(cycles), "stimulus_driver": stimulus_driver}
        return self._scalar._build_report(block, cycles, elapsed_s, keep_cycle_trace, notes)
