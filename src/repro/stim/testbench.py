"""The scalar adapter: run any stimulus spec as an ordinary testbench.

:class:`SpecTestbench` makes a :class:`~repro.stim.spec.StimulusSpec` drive
the scalar :class:`~repro.sim.engine.Simulator` (and with it the RTL/gate
estimators, the emulation flow and characterization training runs) through
the standard :class:`~repro.sim.testbench.Testbench` protocol.  The stream it
produces for seed ``s`` is bit-identical to lane ``i`` of a
:class:`~repro.stim.driver.BatchStimulusDriver` whose ``seeds[i] == s`` —
both pull the same per-(seed, port) chunk-invariant streams — so spec-driven
scalar and lane runs agree exactly, and the lane power estimator can swap
a pile of these testbenches for one vectorized array driver.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.sim.testbench import Testbench
from repro.stim.compile import CompiledStimulus
from repro.stim.spec import StimulusSpec


class SpecTestbench(Testbench):
    """Drives one simulator (or one batch lane view) from a stimulus spec."""

    def __init__(
        self,
        spec: StimulusSpec,
        seed: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name if name is not None else f"stim[{spec.n_cycles}c]")
        self.spec = spec
        self.seed = spec.seed if seed is None else int(seed)
        self.max_cycles = spec.n_cycles
        self._compiled: Optional[CompiledStimulus] = None

    # --------------------------------------------------------------- binding
    def input_widths(self, simulator) -> Dict[str, int]:
        return {
            name: port.width
            for name, port in simulator.module.ports.items()
            if port.is_input
        }

    def bind(self, simulator) -> None:
        """Restart the run; compilation is lazy (first ``drive`` call), so a
        testbench bound but never driven compiles nothing."""
        self._compiled = None

    @classmethod
    def lanes(cls, testbenches: Sequence["SpecTestbench"], simulator,
              cycles: Optional[int] = None):
        """One :class:`~repro.stim.driver.BatchStimulusDriver` for a block of
        testbenches sharing one spec (seeds may differ: each is one lane);
        any other block takes the per-lane loop.  No testbench is bound or
        compiled: the driver compiles every lane's stream itself."""
        spec = testbenches[0].spec
        if any(tb.spec != spec for tb in testbenches[1:]):
            return super().lanes(testbenches, simulator, cycles)
        from repro.stim.driver import BatchStimulusDriver

        return BatchStimulusDriver(
            simulator, spec, seeds=[tb.seed for tb in testbenches]
        )

    # --------------------------------------------------------------- driving
    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        if self._compiled is None:
            self._compiled = CompiledStimulus(
                self.spec, self.input_widths(simulator), [self.seed]
            )
        if cycle >= self.spec.n_cycles:
            return {}
        values = self._compiled.values_at(cycle)
        return {
            name: int(values[index, 0])
            for index, name in enumerate(self._compiled.port_names)
        }

    def finished(self, cycle: int, simulator) -> bool:
        return cycle + 1 >= self.spec.n_cycles
