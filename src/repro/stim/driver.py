"""Vectorized lane drivers: stimulus tensors straight into the lane store.

:class:`BatchStimulusDriver` couples a :class:`~repro.stim.compile.CompiledStimulus`
to a :class:`~repro.sim.batch.BatchSimulator`.  It hands the stimulus over a
chunk at a time, as ``(cycles, input rows, n_lanes)`` int64 input rows with
limb-store ports already split into their limb rows (:meth:`rows_at`):
the multi-seed power estimator
(:class:`~repro.power.lane_estimator.BatchRTLPowerEstimator`) passes whole
segments of them to a native lane kernel's ``run`` entry point, and the
per-cycle lane form (:meth:`drive`, for the ``off`` backend) writes one row
block per cycle into the value store — a single NumPy assignment instead of
the per-lane :class:`~repro.sim.batch.LaneView` Python drive loop (one
``drive()`` dict, one port iteration and one masked int write *per lane*
per cycle).  It is the lane form of
:class:`~repro.stim.testbench.SpecTestbench` (see
:meth:`~repro.sim.testbench.Testbench.lanes`): the estimator drives every
block of spec-backed lanes sharing one spec through it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
    #: a stimulus spec checks no output: nothing to capture
    capture = np.zeros(0, dtype=np.int64)

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
        #: Python ints and are split across their limb rows once per chunk
        self.rows: List[Tuple[int, int, int]] = [
            (index, input_keys[name][0], port_limbs.get(name, 1))
            for index, name in enumerate(self.stimulus.port_names)
        ]
        #: the value-store row of each input row of :meth:`rows_at`
        self.slots = np.array(
            [slot + k for _, slot, n_limbs in self.rows for k in range(n_limbs)],
            dtype=np.int64,
        )
        self._chunk: Optional[np.ndarray] = None
        self._chunk_rows: Optional[np.ndarray] = None

    @property
    def n_cycles(self) -> int:
        return self.stimulus.n_cycles

    def rows_at(self, cycle: int) -> np.ndarray:
        """The input rows from ``cycle`` to the end of its stimulus chunk:
        ``(cycles, len(slots), n_lanes)`` int64, C-contiguous."""
        start, chunk = self.stimulus.chunk_at(cycle)
        if chunk is not self._chunk:
            self._chunk, self._chunk_rows = chunk, self._split(chunk)
        return self._chunk_rows[cycle - start:]

    def _split(self, chunk: np.ndarray) -> np.ndarray:
        """A chunk's port columns as input rows, limb ports one row per limb."""
        if chunk.dtype == np.int64:  # no limb port
            return chunk
        out = np.empty((len(chunk), len(self.slots), chunk.shape[2]), dtype=np.int64)
        row = 0
        for index, _, n_limbs in self.rows:
            column = chunk[:, index]
            for k in range(n_limbs):
                out[:, row] = column if n_limbs == 1 else (
                    (column >> (LIMB_BITS * k)) & _LIMB_MASK)
                row += 1
        return out

    def apply(self, cycle: int) -> None:
        """Write cycle ``cycle``'s stimulus rows into the lane store."""
        self.simulator._v[self.slots] = self.rows_at(cycle)[0]

    # lane form protocol (see repro.sim.testbench.LaneLoop)
    def drive(self, cycle: int, active: np.ndarray) -> None:
        if cycle < self.n_cycles:
            self.apply(cycle)

    def check(self, cycle: int, active: np.ndarray) -> bool:
        """Every lane finishes with the spec's last cycle."""
        return cycle + 1 >= self.n_cycles

    def check_rows(self, first_cycle: int, captured: np.ndarray, stop: np.ndarray) -> None:
        return None

    def close(self) -> None:
        return None
