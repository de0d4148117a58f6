"""The :class:`PowerEstimator` protocol and its three engine adapters.

Every estimation engine in the repository — the software RTL macromodel
estimator, the gate-level re-simulation baseline, and the power-emulation
flow — is exposed through one uniform surface::

    result = estimate(RunSpec(design="DCT", engine="rtl", seed=7))

Adapters resolve registry designs by name, auto-flatten hierarchical modules,
resolve the simulation backend declaratively (``auto``/``compiled``/
``interp``/``batch``), and return the same :class:`EstimateResult` shape, so
examples, benchmarks, the sweep runner and the CLI share one code path
instead of hand-wiring each engine's constructor signature.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro import obs
from repro.api.spec import ENGINES, EstimateResult, RunSpec
from repro.netlist.flatten import flatten
from repro.netlist.module import Module
from repro.power.library import PowerModelLibrary, build_seed_library
from repro.power.profile import PowerProfile, ProfileConfig
from repro.power.report import PowerReport
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.testbench import Testbench

_ESTIMATES = obs.counter(
    "repro_estimates_total", "Completed estimates by engine")
_LAST_PEAK_MW = obs.gauge(
    "repro_power_last_peak_mw",
    "Peak power of the most recent estimate, by design/engine (mW)")
_LAST_MEAN_MW = obs.gauge(
    "repro_power_last_mean_mw",
    "Average power of the most recent estimate, by design/engine (mW)")
_MEAN_MW_HIST = obs.histogram(
    "repro_power_mean_mw",
    "Distribution of estimated average power across runs (mW)")


def _profile_config(spec: RunSpec) -> Optional[ProfileConfig]:
    """The collector configuration a spec asks for (None = no profiling)."""
    if not spec.power_profile:
        return None
    return ProfileConfig(window_cycles=spec.profile_window)


@runtime_checkable
class PowerEstimator(Protocol):
    """Uniform front door of every estimation engine."""

    #: engine key this estimator implements (``rtl`` / ``gate`` / ``emulation``)
    engine: str

    def estimate(self, spec: RunSpec) -> EstimateResult:
        """Run the spec and return the uniform result."""
        ...


class _EngineAdapter:
    """Shared plumbing: design resolution, auto-flattening, libraries, timing.

    ``module``/``testbench_factory`` override the registry: pass an explicit
    (possibly hierarchical) module and a ``factory(seed) -> Testbench`` to
    estimate designs that are not registered.  Hierarchical modules are
    flattened automatically — the adapters never surface the legacy
    constructors' flatten-first requirement.
    """

    engine = "abstract"

    def __init__(
        self,
        module: Optional[Module] = None,
        testbench_factory: Optional[Callable[[Optional[int]], Testbench]] = None,
        library: Optional[PowerModelLibrary] = None,
        technology: Technology = CB130M_TECHNOLOGY,
    ) -> None:
        if module is not None and testbench_factory is None:
            raise ValueError(
                "an explicit module needs a testbench_factory(seed) -> Testbench"
            )
        self._module = module
        self._testbench_factory = testbench_factory
        self._library = library
        self.technology = technology
        self._flat_cache: Optional[Module] = None

    # ------------------------------------------------------------ resolution
    def library_for(self, spec: RunSpec) -> PowerModelLibrary:
        if self._library is None:
            # spec validation restricts `library` to the deterministic seed set
            self._library = build_seed_library(self.technology)
        return self._library

    def _resolve_flat(self, spec: RunSpec) -> Module:
        """The flat module to simulate (auto-flattened, cached per adapter)."""
        if self._module is not None:
            if self._flat_cache is None:
                module = self._module
                self._flat_cache = flatten(module) if module.is_hierarchical else module
            return self._flat_cache
        from repro.designs.registry import build_flat

        return build_flat(spec.design)

    def _resolve_hierarchical(self, spec: RunSpec) -> Module:
        """A fresh, possibly hierarchical module (the emulation flow
        instruments and flattens on its own)."""
        if self._module is not None:
            return self._module
        from repro.designs.registry import get

        return get(spec.design).build()

    def _resolve_testbench(self, spec: RunSpec) -> Testbench:
        if spec.stimulus is not None:
            # a declarative scenario always wins over registry/explicit
            # testbenches; on the lane path it runs as the array driver
            from repro.stim import SpecTestbench

            return SpecTestbench(spec.stimulus, seed=spec.seed)
        if self._testbench_factory is not None:
            return self._testbench_factory(spec.seed)
        from repro.designs.registry import get

        return get(spec.design).make_testbench(spec.seed)

    def _check_spec(self, spec: RunSpec) -> None:
        if spec.engine != self.engine:
            raise ValueError(
                f"spec requests engine {spec.engine!r} but this adapter "
                f"implements {self.engine!r}; use estimator_for(spec.engine)"
            )

    # -------------------------------------------------------------- accuracy
    def _accuracy_vs_rtl(self, spec: RunSpec, report: PowerReport) -> Dict[str, float]:
        from repro.core.accuracy import compare_reports

        reference_spec = spec.replace(
            engine="rtl", backend="auto", compare_to_rtl=False, keep_cycle_trace=False
        )
        reference = RTLEstimatorAdapter(
            module=self._module,
            testbench_factory=self._testbench_factory,
            library=self._library,
            technology=self.technology,
        ).estimate(reference_spec)
        accuracy = compare_reports(report, reference.report)
        return {
            "relative_error": accuracy.relative_error,
            "reference_power_mw": accuracy.reference_power_mw,
            "test_power_mw": accuracy.test_power_mw,
        }

    def _finish(
        self,
        specs: List[RunSpec],
        reports: List[PowerReport],
        backend: str,
        start: float,
        setup_s: float,
        metadata: Dict[str, object],
        phase_s: Optional[Dict[str, float]] = None,
        profiles: Optional[List[Optional[PowerProfile]]] = None,
    ) -> List[EstimateResult]:
        """One result per (spec, report) of a run or a lane block.

        A block's results share ``backend``, ``metadata``, the per-lane
        ``setup_s`` and the phase timings, so those are computed once.
        """
        accuracies = [
            self._accuracy_vs_rtl(spec, report) if spec.compare_to_rtl else None
            for spec, report in zip(specs, reports)
        ]
        total = time.perf_counter() - start
        # per-phase wall-clock breakdown (repro.obs tentpole): setup, then
        # engine-specific phases (lane build / simulate / macromodel eval),
        # closed by the total — always present, independent of tracing
        phases: Dict[str, float] = {"setup_s": setup_s, **(phase_s or {}), "total_s": total}
        rounded = {k: round(float(v), 6) for k, v in phases.items()}
        timeline = obs.tracing_enabled()
        sim_s = float(phases.get("simulate_s") or phases.get("flow_s") or total)
        _MEAN_MW_HIST.observe_many(
            [report.average_power_mw for report in reports], engine=self.engine)
        results = []
        for spec, report, accuracy, profile in zip(
                specs, reports, accuracies, profiles or [None] * len(specs)):
            if profile is not None and timeline:
                # merge the simulated power timeline into the software trace:
                # the run's cycle axis maps onto the wall-clock interval the
                # simulate/flow phase just occupied, ending now
                t1_us = time.time() * 1e6
                obs.add_events(profile.counter_events(t1_us - sim_s * 1e6, t1_us))
            results.append(EstimateResult(
                spec=spec,
                engine=report.estimator,
                backend=backend,
                report=report,
                timing={
                    "setup_s": setup_s,
                    "estimate_s": report.estimation_time_s,
                    "total_s": total,
                },
                accuracy=accuracy,
                metadata={**metadata, "phase_s": dict(rounded)},
                profile=profile,
            ))
        # a block shares one design: its last lane sets the last-power gauges
        last = reports[-1]
        _ESTIMATES.inc(len(results), engine=self.engine)
        _LAST_PEAK_MW.set(last.peak_power_mw, design=specs[-1].design, engine=self.engine)
        _LAST_MEAN_MW.set(last.average_power_mw, design=specs[-1].design, engine=self.engine)
        return results


class RTLEstimatorAdapter(_EngineAdapter):
    """The software RTL macromodel estimator behind the uniform surface.

    ``backend="batch"`` routes through the lane-vectorized
    :class:`~repro.power.lane_estimator.BatchRTLPowerEstimator` (one lane),
    falling back to the scalar path when the module or testbench cannot run
    on lanes; results are backend-independent either way.
    """

    engine = "rtl"

    def estimate(self, spec: RunSpec) -> EstimateResult:
        if spec.backend == "batch":
            return self.estimate_many([spec])[0]
        self._check_spec(spec)
        est_span = obs.span("estimate", design=spec.design, engine=self.engine)
        start = time.perf_counter()
        with obs.span("estimate.setup", design=spec.design):
            library = self.library_for(spec)
            flat = self._resolve_flat(spec)
            testbench = self._resolve_testbench(spec)
        setup_s = time.perf_counter() - start

        backend = "compiled" if spec.backend == "auto" else spec.backend
        estimator = _get_rtl_estimator(flat, library, self.technology, backend)
        with obs.span("estimate.simulate", design=spec.design, backend=backend):
            report = estimator.estimate(
                testbench,
                max_cycles=spec.max_cycles,
                keep_cycle_trace=spec.keep_cycle_trace,
                profile=_profile_config(spec),
            )
        metadata = {
            "n_monitored_components": report.notes.get("n_monitored_components"),
            "macromodel_eval": "block",
            "design": spec.design,
        }
        [result] = self._finish(
            [spec], [report], backend, start, setup_s, metadata,
            dict(estimator.last_phase_s), [estimator.last_profile])
        est_span.set(backend=backend)
        est_span.end()
        return result

    def warm(self, spec: RunSpec, n_lanes: int = 1) -> Dict[str, object]:
        """Build everything a lane run of ``spec`` would compile, cacheably.

        Resolves the library and the flat module, compiles the lane program
        for ``n_lanes`` and the requested kernel — all through the same
        process-lifetime caches :meth:`estimate_many` hits, so a subsequent
        estimate of a compatible spec reuses every artifact.  This is the
        :mod:`repro.serve` server's "compiling" phase: separating it from the
        estimate call lets the server stream an honest compile/simulate
        phase boundary per job group.  Returns the resolved kernel facts
        (empty for non-lane specs, whose compilation happens inline).
        """
        from repro.api.spec import is_coalescable

        with obs.span("estimate.warm", design=spec.design, n_lanes=n_lanes):
            self.library_for(spec)
            flat = self._resolve_flat(spec)
            if not is_coalescable(spec):
                return {}
            from repro.sim.batch import (
                BatchCompilationError, BatchSimulator, LaneStateError,
            )

            try:
                simulator = BatchSimulator(
                    flat, n_lanes, kernel_backend=spec.kernel_backend,
                    kernel_threads=spec.kernel_threads,
                )
            except (BatchCompilationError, LaneStateError):
                # estimate/estimate_many will fall back to the scalar path
                return {}
        return {
            "kernel_backend": simulator.kernel_backend,
            "kernel_decision": simulator.kernel_decision,
            "kernel_threads": simulator.kernel_threads,
        }

    def estimate_many(self, specs) -> list:
        """Multi-seed batch: all specs share design/engine, one lane per seed.

        Returns one :class:`EstimateResult` per spec (a single ``batch``
        spec is a one-lane call, which is how :meth:`estimate` runs it).  This is the fast path
        the sweep runner uses; it degrades to per-spec scalar estimation when
        the lane path cannot run the module or its testbenches.
        """
        from repro.api.spec import coalesce_key, key_fields

        specs = list(specs)
        if not specs:
            return []
        first = specs[0]
        self._check_spec(first)
        first_key = coalesce_key(first)
        first_fields = key_fields(first)
        for spec in specs[1:]:
            self._check_spec(spec)
            # equal key fields are lane-compatible; only a spec whose fields
            # differ (an auto/batch mix, or an incompatible spec) is keyed
            if key_fields(spec) != first_fields and coalesce_key(spec) != first_key:
                raise ValueError(
                    "estimate_many requires lane-compatible specs — sharing "
                    "design, max_cycles, stimulus, backend, kernel_backend "
                    "and kernel_threads (equal repro.api.coalesce_key) — "
                    f"got {coalesce_key(spec)} vs {first_key}"
                )
        from repro.power.lane_estimator import BatchRTLPowerEstimator
        from repro.sim.batch import BatchCompilationError, LaneStateError

        many_span = obs.span(
            "estimate.batch", design=first.design, n_specs=len(specs))
        start = time.perf_counter()
        with obs.span("estimate.setup", design=first.design):
            library = self.library_for(first)
            flat = self._resolve_flat(first)
            testbenches = [self._resolve_testbench(spec) for spec in specs]
        setup_s = time.perf_counter() - start
        # lane-mates may disagree on profiling: each lane collects with its
        # own config, as its scalar run would
        profile_cfgs = [_profile_config(spec) for spec in specs]
        try:
            estimator = BatchRTLPowerEstimator(flat, library=library,
                                               technology=self.technology,
                                               kernel_backend=first.kernel_backend,
                                               kernel_threads=first.kernel_threads)
            reports = estimator.estimate_all(
                testbenches,
                max_cycles=first.max_cycles,
                keep_cycle_trace=[spec.keep_cycle_trace for spec in specs],
                profile=profile_cfgs if any(profile_cfgs) else None,
            )
            backend = f"batch[{len(specs)}]"
        except (BatchCompilationError, LaneStateError) as error:
            many_span.set(fallback=type(error).__name__)
            many_span.end()
            fallbacks = []
            for spec in specs:
                result = self.estimate(spec.replace(backend="auto"))
                result.spec = spec  # keep the caller's spec as the result key
                fallbacks.append(result)
            return fallbacks
        metadata = {
            "n_monitored_components": reports[0].notes.get("n_monitored_components"),
            "batch_lanes": len(specs),
            "kernel_backend": estimator.last_kernel_backend,
            "kernel_decision": estimator.last_kernel_decision,
            "kernel_threads": estimator.last_kernel_threads,
            "macromodel_eval": estimator.last_macromodel_eval,
            "design": first.design,
        }
        results = self._finish(specs, reports, backend, start, setup_s / len(specs),
                               metadata, dict(estimator.last_phase_s),
                               estimator.last_profiles)
        many_span.end()
        return results


class GateLevelEstimatorAdapter(_EngineAdapter):
    """The gate-level re-simulation baseline behind the uniform surface."""

    engine = "gate"

    def estimate(self, spec: RunSpec) -> EstimateResult:
        self._check_spec(spec)
        from repro.power.gate_estimator import GateLevelPowerEstimator

        start = time.perf_counter()
        library = self.library_for(spec)
        flat = self._resolve_flat(spec)
        testbench = self._resolve_testbench(spec)
        backend = "compiled" if spec.backend == "auto" else spec.backend
        estimator = GateLevelPowerEstimator(
            flat, library=library, technology=self.technology, backend=backend
        )
        setup_s = time.perf_counter() - start
        with obs.span("estimate.simulate", design=spec.design, engine="gate"):
            report = estimator.estimate(
                testbench,
                max_cycles=spec.max_cycles,
                keep_cycle_trace=spec.keep_cycle_trace,
                profile=_profile_config(spec),
            )
        metadata = {
            "n_gate_mapped": report.notes.get("n_gate_mapped"),
            "n_macromodelled": report.notes.get("n_macromodelled"),
            "design": spec.design,
        }
        return self._finish([spec], [report], backend, start, setup_s, metadata,
                            {"simulate_s": report.estimation_time_s},
                            [estimator.last_profile])[0]


class EmulationEstimatorAdapter(_EngineAdapter):
    """The paper's instrument → synthesize → emulate flow behind the surface.

    The platform model owns functional simulation, so ``spec.backend`` is
    resolved as ``emulation``; the modeled time breakdown (download, execute,
    stimulus, readback) lands in ``timing`` and the synthesis/device facts in
    ``metadata``.
    """

    engine = "emulation"

    def estimate(self, spec: RunSpec) -> EstimateResult:
        self._check_spec(spec)
        from repro.core.flow import PowerEmulationFlow
        from repro.core.instrument import InstrumentationConfig

        start = time.perf_counter()
        library = self.library_for(spec)
        module = self._resolve_hierarchical(spec)
        testbench = self._resolve_testbench(spec)
        flow = PowerEmulationFlow(
            library=library,
            technology=self.technology,
            config=InstrumentationConfig(coefficient_bits=spec.coefficient_bits),
        )
        setup_s = time.perf_counter() - start
        flow_start = time.perf_counter()
        with obs.span("estimate.simulate", design=spec.design,
                      engine="emulation"):
            flow_report = flow.run(
                module,
                testbench,
                workload_cycles=spec.workload_cycles,
                testbench_on_fpga=spec.testbench_on_fpga,
                max_cycles=spec.max_cycles,
                profile_window=spec.profile_window,
            )
        flow_s = time.perf_counter() - flow_start
        emulation = flow_report.emulation
        report = flow_report.power_report
        # the platform always collects its readback profile (it is how
        # peak_power_mw gets populated); attach it only when asked for
        profile = emulation.power_profile if spec.power_profile else None
        metadata = {
            "design": spec.design,
            "device": emulation.device.name,
            "emulation_clock_mhz": emulation.emulation_clock_mhz,
            "monitored_bits": flow_report.instrumented.monitored_bits,
            "n_power_models": flow_report.instrumented.n_power_models,
            "lut_overhead": flow_report.instrumentation_overhead.get("luts", 0.0),
            "ff_overhead": flow_report.instrumentation_overhead.get("ffs", 0.0),
            "executed_cycles": emulation.executed_cycles,
            "workload_cycles": emulation.workload_cycles,
        }
        [result] = self._finish(
            [spec], [report], "emulation", start, setup_s, metadata,
            {"flow_s": flow_s,
             "host_simulation_s": emulation.host_simulation_s},
            [profile])
        result.timing.update(
            {f"modeled_{k}": v for k, v in emulation.time_breakdown.as_dict().items()}
        )
        result.timing["host_simulation_s"] = emulation.host_simulation_s
        return result


#: engine key -> adapter class
_ADAPTERS = {
    "rtl": RTLEstimatorAdapter,
    "gate": GateLevelEstimatorAdapter,
    "emulation": EmulationEstimatorAdapter,
}

def _get_rtl_estimator(flat, library, technology, backend):
    from repro.power.rtl_estimator import RTLPowerEstimator

    return RTLPowerEstimator(
        flat, library=library, technology=technology, backend=backend
    )


def estimator_for(engine: str, **kwargs) -> PowerEstimator:
    """An adapter instance for ``engine`` (see :data:`~repro.api.spec.ENGINES`)."""
    try:
        adapter = _ADAPTERS[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        ) from None
    return adapter(**kwargs)


def estimate(spec: RunSpec, **kwargs) -> EstimateResult:
    """One-shot convenience: build the engine's adapter and run the spec."""
    return estimator_for(spec.engine, **kwargs).estimate(spec)
