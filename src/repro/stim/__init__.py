"""repro.stim — declarative stimulus & scenario subsystem.

The paper's power-emulation flow is only as good as the workloads driven
through the instrumented design.  This package opens the scenario space —
Monte-Carlo random, duty-cycled bursts, Markov-correlated toggle streams,
weighted mixtures, recorded-trace replay — as small, frozen, JSON-round-
trippable descriptions instead of hand-written testbench classes:

* :mod:`repro.stim.spec` — :class:`StimulusSpec` and the port-stream kinds
  (:class:`UniformSpec`, :class:`ConstantSpec`, :class:`BurstSpec`,
  :class:`MarkovSpec`, :class:`MixtureSpec`, :class:`ReplaySpec`), CLI
  shorthand parsing (:func:`parse_stimulus`) and VCD replay
  (:func:`replay_from_vcd`),
* :mod:`repro.stim.compile` — lowering into chunked
  ``(n_cycles, n_ports, n_lanes)`` NumPy stimulus tensors
  (:func:`compile_stimulus` / :class:`CompiledStimulus`), one stream per
  port over the lane block, chunk-invariant and independent per (seed, port);
  one lane-vectorised PCG64 draws every lane's values as array code, equal
  bit for bit to a NumPy generator per lane,
* :mod:`repro.stim.driver` — :class:`BatchStimulusDriver`, feeding those
  tensors straight into :class:`~repro.sim.batch.BatchSimulator`'s lane
  store (no per-lane Python drive loop),
* :mod:`repro.stim.testbench` — :class:`SpecTestbench`, the scalar adapter
  producing bit-identical streams for :class:`~repro.sim.engine.Simulator`,
  the estimators and characterization runs.

Quickstart::

    from repro.stim import BurstSpec, StimulusSpec, SpecTestbench

    spec = StimulusSpec(n_cycles=256, ports={"valid": BurstSpec(active=4, idle=12)})
    result = estimate(RunSpec(design="HVPeakF", engine="rtl", stimulus=spec))
"""

from repro.stim.spec import (
    BurstSpec,
    ConstantSpec,
    MarkovSpec,
    MixtureSpec,
    PortSpec,
    ReplaySpec,
    StimulusSpec,
    UniformSpec,
    parse_stimulus,
    port_spec_from_dict,
    replay_from_vcd,
)
from repro.stim.compile import CHUNK_CYCLES, CompiledStimulus, compile_stimulus
from repro.stim.driver import BatchStimulusDriver
from repro.stim.testbench import SpecTestbench

__all__ = [
    "PortSpec",
    "UniformSpec",
    "ConstantSpec",
    "BurstSpec",
    "MarkovSpec",
    "MixtureSpec",
    "ReplaySpec",
    "StimulusSpec",
    "parse_stimulus",
    "port_spec_from_dict",
    "replay_from_vcd",
    "CHUNK_CYCLES",
    "CompiledStimulus",
    "compile_stimulus",
    "BatchStimulusDriver",
    "SpecTestbench",
]
