"""The emulation platform model: download, execute at hardware speed, read back.

The functional behaviour of the FPGA is obtained by executing the *enhanced*
netlist on the cycle-accurate RTL simulator — the power numbers therefore come
out of the inserted power-estimation hardware itself, exactly as they would on
a real board.  What the FPGA changes is *time*: the platform model converts
the workload's cycle count into wall-clock seconds using the achievable
emulation clock, plus bitstream download and result readback overheads (and,
optionally, host-side stimulus streaming when the testbench is not mapped
onto the FPGA).  This mirrors how the paper measured "power emulation time".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.fpga import FPGADevice, smallest_fitting_device
from repro.core.instrument import InstrumentedDesign
from repro.core.synthesis import SynthesisEstimator, SynthesisResult
from repro.power.profile import PowerProfile, ProfileConfig
from repro.power.report import ComponentPower, PowerReport
from repro.power.technology import CB130M_TECHNOLOGY, Technology
from repro.sim.engine import SimulationObserver, Simulator
from repro.sim.testbench import Testbench


class CapacityError(Exception):
    """Raised when the enhanced design does not fit any available FPGA device."""


class _ProfileReadbackObserver(SimulationObserver):
    """Periodic accumulator readback for a power-over-time profile.

    The aggregator docstring's "read back periodically" mode: at every
    window boundary of :attr:`collector` the host samples the *cumulative*
    per-component accumulators (or the single aggregator total when
    per-component accumulators are disabled) and hands them to the
    collector, once more at the end of the run.  ``on_cycle(c)`` fires
    before cycle ``c``'s clock edge, so the accumulators then cover exactly
    the ``c`` committed cycles — boundaries land precisely on multiples of
    the window width and window diffs telescope to the end-of-run totals
    with no residue.  The collector merges windows pairwise and doubles the
    width when its window list fills, so an arbitrarily long emulation
    costs a bounded number of readback transactions.
    """

    def __init__(
        self,
        instrumented: InstrumentedDesign,
        interval: int,
        component_types: Dict[str, str],
    ) -> None:
        self.instrumented = instrumented
        if instrumented.accumulator_map:
            self.names = list(instrumented.accumulator_map)
        else:
            # no per-component accumulators: profile the aggregator total as
            # one design-wide pseudo-component
            self.names = [instrumented.original_name]
        self.collector = ProfileConfig(window_cycles=interval).collector(
            self.names, [component_types.get(name, "design") for name in self.names])

    def _read(self, simulator: Simulator) -> np.ndarray:
        """The cumulative energies as a ``(components, 1)`` column."""
        if self.instrumented.accumulator_map:
            energies = self.instrumented.component_energies_fj(simulator)
            return np.asarray([[energies[name]] for name in self.names])
        return np.asarray([[self.instrumented.read_total_energy_fj(simulator)]])

    def on_cycle(self, simulator: Simulator, cycle: int) -> None:
        collector = self.collector
        if cycle - collector.cycles == collector.cycles_to_boundary:
            collector.advance(collector.cycles_to_boundary, self._read(simulator))

    def on_finish(self, simulator: Simulator) -> None:
        if simulator.cycle > self.collector.cycles:
            self.collector.advance(simulator.cycle - self.collector.cycles,
                                   self._read(simulator))


@dataclass(frozen=True)
class HostInterface:
    """PC <-> emulation board link characteristics."""

    #: sustained configuration (bitstream download) bandwidth
    download_mbits_per_s: float = 33.0
    #: fixed board bring-up / handshake time per run
    setup_s: float = 1.5
    #: latency of one readback transaction (aggregator / model registers)
    readback_latency_s: float = 0.02
    #: per-word readback cost
    readback_word_s: float = 2.0e-5
    #: host-side stimulus streaming rate when the testbench stays on the PC
    stimulus_cycles_per_s: float = 750_000.0


@dataclass
class EmulationTimeBreakdown:
    """Modeled wall-clock time of one emulation run (Fig. 3's 'Emulation' bar)."""

    download_s: float
    execute_s: float
    stimulus_s: float
    readback_s: float

    @property
    def total_s(self) -> float:
        return self.download_s + self.execute_s + self.stimulus_s + self.readback_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "download_s": self.download_s,
            "execute_s": self.execute_s,
            "stimulus_s": self.stimulus_s,
            "readback_s": self.readback_s,
            "total_s": self.total_s,
        }


@dataclass
class EmulationResult:
    """Everything produced by one emulation run."""

    design: str
    device: FPGADevice
    synthesis: SynthesisResult
    emulation_clock_mhz: float
    power_report: PowerReport
    time_breakdown: EmulationTimeBreakdown
    #: cycles actually executed by the (simulated) platform
    executed_cycles: int
    #: cycles of the nominal workload the time model was evaluated for
    workload_cycles: int
    #: functional outputs of the design at the end of the run
    final_outputs: Dict[str, int] = field(default_factory=dict)
    #: wall-clock time of the host-side functional simulation (for reference)
    host_simulation_s: float = 0.0
    #: windowed power-over-time profile from periodic accumulator readback
    power_profile: Optional[PowerProfile] = None

    @property
    def utilization(self) -> Dict[str, float]:
        return self.device.utilization(self.synthesis.resources)


class EmulationPlatform:
    """PC-based FPGA emulation platform model (paper Section 3 setup)."""

    def __init__(
        self,
        device: Optional[FPGADevice] = None,
        host: HostInterface = HostInterface(),
        synthesis: Optional[SynthesisEstimator] = None,
    ) -> None:
        #: explicit device, or None to auto-select the smallest fitting part
        self.device = device
        self.host = host
        self.synthesis = synthesis if synthesis is not None else SynthesisEstimator()

    # ------------------------------------------------------------------ API
    def run(
        self,
        instrumented: InstrumentedDesign,
        testbench: Testbench,
        technology: Technology = CB130M_TECHNOLOGY,
        workload_cycles: Optional[int] = None,
        testbench_on_fpga: bool = True,
        max_cycles: Optional[int] = None,
        profile_window: Optional[int] = None,
    ) -> EmulationResult:
        """Emulate the enhanced design and read back its power results.

        ``workload_cycles`` lets the caller evaluate the *time model* for a
        nominal workload larger than what is actually executed here (our
        Python functional execution of multi-frame video workloads would be
        needlessly slow); power results always come from the executed cycles.

        A windowed power-over-time profile is always collected via periodic
        accumulator readback (:attr:`EmulationResult.power_profile`);
        ``profile_window`` sets the readback interval in cycles and defaults
        to the design's strobe period, so windows align with the aggregator
        flushes the paper's hardware produces.
        """
        synthesis = self.synthesis.estimate_module(instrumented.module)
        device = self.device or smallest_fitting_device(synthesis.resources)
        if device is None or not device.fits(synthesis.resources):
            raise CapacityError(
                f"design {instrumented.module.name!r} needs {synthesis.resources.luts} LUTs / "
                f"{synthesis.resources.ffs} FFs and does not fit the available Virtex-II parts"
            )
        emulation_clock_mhz = min(device.max_clock_mhz, synthesis.achievable_clock_mhz)

        interval = (
            profile_window
            if profile_window is not None
            else instrumented.config.strobe_period
        )
        readback = _ProfileReadbackObserver(
            instrumented, max(int(interval), 1), self._component_types(instrumented)
        )

        simulator = Simulator(instrumented.module)
        simulator.add_observer(readback)
        # the clock covers the simulation, not compiling the instrumented module
        start = time.perf_counter()
        simulation = simulator.run(testbench, max_cycles=max_cycles)
        host_elapsed = time.perf_counter() - start

        executed_cycles = simulation.cycles
        nominal_cycles = workload_cycles if workload_cycles is not None else executed_cycles

        power_report = self._build_power_report(
            instrumented, simulator, executed_cycles, technology, host_elapsed
        )
        power_profile = readback.collector.profiles(
            instrumented.original_name,
            "power-emulation",
            technology.clock_mhz,
            [executed_cycles],
            notes={
                "readback_transactions": readback.collector.n_windows,
                "strobe_period": instrumented.config.strobe_period,
            },
        )[0]
        # the cycle trace never exists on the emulation path; the windowed
        # profile is the authoritative peak at its readback resolution
        power_report.peak_power_mw = power_profile.peak_power_mw()
        power_report.notes["profile_window_cycles"] = power_profile.window_cycles
        breakdown = self._time_breakdown(
            device, instrumented, nominal_cycles, emulation_clock_mhz, testbench_on_fpga
        )
        power_report.estimation_time_s = breakdown.total_s
        power_report.notes["device"] = device.name
        power_report.notes["emulation_clock_mhz"] = emulation_clock_mhz

        return EmulationResult(
            design=instrumented.original_name,
            device=device,
            synthesis=synthesis,
            emulation_clock_mhz=emulation_clock_mhz,
            power_report=power_report,
            time_breakdown=breakdown,
            executed_cycles=executed_cycles,
            workload_cycles=nominal_cycles,
            final_outputs=simulation.final_outputs,
            host_simulation_s=host_elapsed,
            power_profile=power_profile,
        )

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _component_types(instrumented: InstrumentedDesign) -> Dict[str, str]:
        return {
            name: instrumented.module.components[model_name].model.component_type
            for name, model_name in instrumented.model_map.items()
        }

    def _build_power_report(
        self,
        instrumented: InstrumentedDesign,
        simulator: Simulator,
        cycles: int,
        technology: Technology,
        host_elapsed: float,
    ) -> PowerReport:
        total_energy_fj = instrumented.read_total_energy_fj(simulator)
        components: Dict[str, ComponentPower] = {}
        if instrumented.accumulator_map:
            type_by_name = self._component_types(instrumented)
            for original, energy in instrumented.component_energies_fj(simulator).items():
                components[original] = ComponentPower(
                    name=original,
                    component_type=type_by_name.get(original, "unknown"),
                    energy_fj=energy,
                    average_power_mw=technology.energy_to_power_mw(
                        energy / cycles if cycles else 0.0
                    ),
                )
        return PowerReport(
            design=instrumented.original_name,
            estimator="power-emulation",
            cycles=cycles,
            clock_mhz=technology.clock_mhz,
            total_energy_fj=total_energy_fj,
            average_power_mw=technology.energy_to_power_mw(
                total_energy_fj / cycles if cycles else 0.0
            ),
            components=components,
            estimation_time_s=0.0,  # replaced by the modeled emulation time
            notes={
                "n_power_models": instrumented.n_power_models,
                "monitored_bits": instrumented.monitored_bits,
                "host_functional_simulation_s": host_elapsed,
            },
        )

    def _time_breakdown(
        self,
        device: FPGADevice,
        instrumented: InstrumentedDesign,
        workload_cycles: int,
        emulation_clock_mhz: float,
        testbench_on_fpga: bool,
    ) -> EmulationTimeBreakdown:
        host = self.host
        download_s = host.setup_s + device.bitstream_mbits / host.download_mbits_per_s
        execute_s = workload_cycles / (emulation_clock_mhz * 1e6)
        stimulus_s = (
            0.0 if testbench_on_fpga else workload_cycles / host.stimulus_cycles_per_s
        )
        readback_words = 1 + len(instrumented.accumulator_map)
        readback_s = host.readback_latency_s + readback_words * host.readback_word_s
        return EmulationTimeBreakdown(
            download_s=download_s,
            execute_s=execute_s,
            stimulus_s=stimulus_s,
            readback_s=readback_s,
        )
