"""Cycle-accurate RTL simulation.

The simulator executes flat :class:`~repro.netlist.module.Module` objects one
clock cycle at a time: combinational logic is levelized once and evaluated in
topological order, then all sequential components capture and commit their
next state.  Two backends execute that schedule — the default ``"compiled"``
backend code-generates it into slot-indexed straight-line Python once per
module (:mod:`repro.sim.compiled`), while ``"interp"`` is the reference
interpreter kept as the correctness oracle and benchmark baseline.  The
schedule is lowered once (:mod:`repro.sim.codegen`) and printed for two
targets: that scalar program, and the lane program of
:class:`BatchSimulator` (:mod:`repro.sim.batch`), which runs many stimulus
lanes per pass and lowers on to native C kernels (:mod:`repro.sim.kernels`).
Observers (signal traces, power estimators, the emulated power
aggregator readback) hook into the end of the combinational settle phase of
every cycle — exactly the instant at which the paper's power strobe samples
component inputs/outputs.
"""

from repro.sim.scheduler import levelize, schedule_for, SchedulingError
from repro.sim.compiled import CompiledProgram, compile_module
from repro.sim.batch import (
    BatchCompilationError,
    BatchProgram,
    BatchSimulator,
    LaneStateError,
    LaneView,
    compile_module_batch,
)
from repro.sim.kernels import (
    KERNEL_BACKENDS,
    KernelUnsupportedError,
    resolve_kernel_backend,
)
from repro.sim.engine import Simulator, SimulationResult, SimulationObserver
from repro.sim.testbench import (
    Testbench,
    VectorTestbench,
    CallbackTestbench,
    RandomTestbench,
)
from repro.sim.trace import SignalTrace, NetStatistics, ComponentActivityTrace
from repro.sim.waveform import Waveform, WaveformRecorder

__all__ = [
    "levelize",
    "schedule_for",
    "SchedulingError",
    "CompiledProgram",
    "compile_module",
    "BatchCompilationError",
    "BatchProgram",
    "BatchSimulator",
    "KERNEL_BACKENDS",
    "KernelUnsupportedError",
    "LaneStateError",
    "LaneView",
    "compile_module_batch",
    "resolve_kernel_backend",
    "Simulator",
    "SimulationResult",
    "SimulationObserver",
    "Testbench",
    "VectorTestbench",
    "CallbackTestbench",
    "RandomTestbench",
    "SignalTrace",
    "NetStatistics",
    "ComponentActivityTrace",
    "Waveform",
    "WaveformRecorder",
]
