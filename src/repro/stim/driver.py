"""Vectorized lane drivers: stimulus tensors straight into the lane store.

:class:`BatchStimulusDriver` couples a :class:`~repro.stim.compile.CompiledStimulus`
to a :class:`~repro.sim.batch.BatchSimulator`: each cycle it writes one
``(n_lanes,)`` row per driven port directly into the simulator's value store —
a handful of NumPy assignments — instead of the per-lane
:class:`~repro.sim.batch.LaneView` Python drive loop (one ``drive()`` dict,
one port iteration and one masked int write *per lane* per cycle).  It is
the lane form of :class:`~repro.stim.testbench.SpecTestbench` (see
:meth:`~repro.sim.testbench.Testbench.lanes`): the multi-seed power
estimator (:class:`~repro.power.lane_estimator.BatchRTLPowerEstimator`)
drives every block of spec-backed lanes sharing one spec through it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.batch import LIMB_BITS, _LIMB_MASK, BatchSimulator
from repro.stim.compile import CHUNK_CYCLES, CompiledStimulus
from repro.stim.spec import StimulusSpec


class BatchStimulusDriver:
    """Drive every lane of a :class:`BatchSimulator` from one stimulus spec.

    Lane ``i`` is driven with the spec re-seeded to ``seeds[i]`` (default:
    ``spec.seed + i``), so the driver is bit-identical to running ``n_lanes``
    scalar :class:`~repro.stim.testbench.SpecTestbench` simulations — only the
    per-cycle drive cost drops from ``O(n_lanes × n_ports)`` Python to
    ``O(n_ports)`` NumPy row writes.  The driver assumes a freshly-reset
    simulator (stimulus cycles count from 0).
    """

    #: reported as the lane reports' ``stimulus_driver`` note
    name = "array"

    def __init__(
        self,
        simulator: BatchSimulator,
        spec: StimulusSpec,
        seeds: Optional[Sequence[int]] = None,
        chunk_cycles: int = CHUNK_CYCLES,
    ) -> None:
        if seeds is None:
            seeds = [spec.seed + lane for lane in range(simulator.n_lanes)]
        seeds = list(seeds)
        if len(seeds) != simulator.n_lanes:
            raise ValueError(
                f"need one seed per lane: got {len(seeds)} seeds for "
                f"{simulator.n_lanes} lanes"
            )
        self.simulator = simulator
        self.spec = spec
        widths = {name: width for name, (_, width) in simulator._input_keys.items()}
        self.stimulus = CompiledStimulus(spec, widths, seeds, chunk_cycles=chunk_cycles)
        input_keys = simulator._input_keys
        port_limbs = getattr(simulator, "_port_limbs", {})
        #: (port index in the stimulus tensor, base value-store slot, limb count)
        #: — limb-store ports (61..240 bits) arrive as object columns of exact
        #: Python ints and are split across their limb rows at apply time
        self.rows: List[Tuple[int, int, int]] = [
            (index, input_keys[name][0], port_limbs.get(name, 1))
            for index, name in enumerate(self.stimulus.port_names)
        ]

    @property
    def n_cycles(self) -> int:
        return self.stimulus.n_cycles

    def apply(self, cycle: int) -> None:
        """Write cycle ``cycle``'s stimulus rows into the lane store."""
        values = self.stimulus.values_at(cycle)
        v = self.simulator._v
        for index, slot, n_limbs in self.rows:
            if n_limbs == 1:
                v[slot] = values[index]
            else:
                column = values[index]
                for k in range(n_limbs):
                    v[slot + k] = (column >> (LIMB_BITS * k)) & _LIMB_MASK

    # lane form protocol (see repro.sim.testbench.LaneLoop)
    def drive(self, cycle: int, active: np.ndarray) -> None:
        if cycle < self.n_cycles:
            self.apply(cycle)

    def check(self, cycle: int, active: np.ndarray) -> bool:
        """Every lane finishes with the spec's last cycle."""
        return cycle + 1 >= self.n_cycles

    def close(self) -> None:
        return None

    def run(
        self,
        n_cycles: Optional[int] = None,
        on_cycle: Optional[Callable[[int, BatchSimulator], None]] = None,
    ) -> int:
        """Drive, settle and clock the whole run; returns the cycle count.

        ``on_cycle(cycle, simulator)`` fires after each settle — the same
        observation point scalar simulation observers use.
        """
        simulator = self.simulator
        total = self.n_cycles if n_cycles is None else min(n_cycles, self.n_cycles)
        for cycle in range(total):
            self.apply(cycle)
            simulator.settle()
            if on_cycle is not None:
                on_cycle(cycle, simulator)
            simulator.clock_edge()
            simulator.cycle += 1
        simulator.settle()
        return total
