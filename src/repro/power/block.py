"""Block-deferred macromodel evaluation, shared by the RTL estimators.

The paper's power model is an XOR per monitored bit, an AND with the bit's
coefficient and an adder tree, aggregated next to the design until the host
reads it at a strobe.  The software estimators split the work the same way:
each cycle they only *gather* the monitored net values
(:meth:`BlockEvaluator.push`); every ``block_cycles`` cycles, and before any
read of the results, :meth:`BlockEvaluator.flush` evaluates the whole
``(cycles × nets × lanes)`` block in one vectorized pass:

1. XOR every row against the previous one (the toggles);
2. look every toggle byte up in the per-byte coefficient tables of
   :meth:`~repro.power.macromodel.LinearTransitionModel.byte_tables`;
3. sum per component, in order, starting from the base energy;
4. apply the active-lane mask;
5. fold the per-cycle ``(components × cycles × lanes)`` energies into the
   peak and the cycle trace, and accumulate them, in cycle order, into
   running totals; the profile collector takes its windows as differences
   of those running totals.

Every sum runs in an order fixed by the model alone, never by the block
length or the lane count, so a scalar run and each lane of a batch run of
the same stimulus produce identical energies, bit for bit; against the
bit-by-bit :meth:`~repro.power.macromodel.LinearTransitionModel.evaluate`
they differ by float rounding only (rel 1e-12).  Components whose model is
not a plain ``LinearTransitionModel``, or with a port wider than an int64
lane (:data:`~repro.sim.batch.MAX_LANE_WIDTH`), are *generic*: the caller
evaluates them per cycle and pushes their energies alongside.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.power.macromodel import LinearTransitionModel
from repro.power.profile import WindowedEnergyCollector
from repro.sim.batch import MAX_LANE_WIDTH

#: elements of a block's largest buffer (cycles × nets or components ×
#: lanes); the block length follows from it.  Small enough that the
#: per-byte temporaries stay in cache: at 256 HVPeakF lanes this evaluated
#: ~1.4x faster than 1M-element blocks
BLOCK_ELEMENTS = 1 << 18


class BlockEvaluator:
    """Per-cycle energies of ``monitored`` components, evaluated in blocks.

    ``n_lanes=None`` is a scalar run: :meth:`push` takes a tuple of port
    values and a list of generic energies, and the results have one lane.
    Otherwise it takes an ``(n_nets, n_lanes)`` array, one ``(n_lanes,)``
    energy array per generic component and the float active-lane mask.
    Pushed arrays are kept until the next flush and must not be mutated.
    """

    def __init__(
        self,
        monitored: Sequence[tuple],
        n_lanes: Optional[int] = None,
        keep_cycle_trace: bool = True,
        collector: Optional[WindowedEnergyCollector] = None,
    ) -> None:
        self.n_lanes = n_lanes
        self.keep_cycle_trace = keep_cycle_trace
        self.collector = collector
        self._lanes = 1 if n_lanes is None else n_lanes
        #: nets whose values :meth:`push` takes, in row order
        self.nets: List = []
        #: (component, model) pairs the caller evaluates per cycle
        self.generic: List[tuple] = []
        row_of: Dict[object, int] = {}
        #: (component index, base energy, [(net row, byte, table), ...])
        self._fast: List[tuple] = []
        generic_pos = []
        for index, (component, model) in enumerate(monitored):
            nets = {
                p.name: p.net
                for p in list(component.input_ports) + list(component.output_ports)
                if p.net is not None
            }
            if (type(model) is not LinearTransitionModel
                    or any(net.width > MAX_LANE_WIDTH for net in nets.values())):
                self.generic.append((component, model))
                generic_pos.append(index)
                continue
            chunks = []
            for port, tables in model.byte_tables():
                if port not in nets:  # unbound ports observe as constant 0
                    continue
                if nets[port] not in row_of:
                    row_of[nets[port]] = len(self.nets)
                    self.nets.append(nets[port])
                chunks.extend(
                    (row_of[nets[port]], byte, table)
                    for byte, table in enumerate(tables) if table.any()
                )
            self._fast.append((index, model.base_energy_fj, chunks))
        self._generic_pos = np.array(generic_pos, dtype=np.intp)
        self.n_components = len(monitored)
        width = max(len(self.nets), self.n_components, 1)
        self.block_cycles = max(1, BLOCK_ELEMENTS // (width * self._lanes))

        self._values: list = []
        self._generic_energy: list = []
        self._masks: list = []
        self._last: Optional[np.ndarray] = None
        self._totals = np.zeros((self.n_components, self._lanes))
        self._peak = np.zeros(self._lanes)
        self._trace: List[np.ndarray] = []

    # ----------------------------------------------------------- per cycle
    def push(self, values, generic_energy=(), active=None) -> None:
        """Record one cycle; evaluates the block once it is full."""
        self._values.append(values)
        self._generic_energy.append(generic_energy)
        if active is not None:
            self._masks.append(active)
        if len(self._values) >= self.block_cycles:
            self.flush()

    # ----------------------------------------------------------- per block
    def flush(self) -> None:
        """Evaluate the pending cycles and fold them into the results."""
        if not self._values:
            return
        k, lanes, n_nets = len(self._values), self._lanes, len(self.nets)
        current = np.asarray(self._values, dtype="<i8").reshape(k, n_nets, lanes)
        toggles = np.empty_like(current)
        np.bitwise_xor(current[1:], current[:-1], out=toggles[1:])
        np.bitwise_xor(current[0], current[0] if self._last is None else self._last,
                       out=toggles[0])
        self._last = current[-1]

        # (components, cycles, lanes) in monitored order; a component's
        # energy is its base plus one table lookup per toggle byte, in order
        toggle_bytes = toggles.view(np.uint8).reshape(k, n_nets, lanes, 8)
        energy = np.empty((self.n_components, k, lanes))
        for index, base, chunks in self._fast:
            acc = energy[index]
            acc.fill(base)
            for row, byte, table in chunks:
                acc += table.take(toggle_bytes[:, row, :, byte])
        if self.generic:
            energy[self._generic_pos] = np.asarray(
                self._generic_energy, dtype=np.float64
            ).reshape(k, len(self.generic), lanes).transpose(1, 0, 2)
        if self._masks:
            energy *= np.asarray(self._masks)

        # cycle totals sum the components in monitored order
        total = np.zeros((k, lanes))
        for row in energy:
            total += row
        np.maximum(self._peak, total.max(axis=0), out=self._peak)
        if self.keep_cycle_trace:
            self._trace.append(total)
        # running totals: the previous block's, then the cycles one by one,
        # in order; the collector commits its windows as their differences
        energy[:, 0] += self._totals
        running = np.add.accumulate(energy, axis=1, out=energy)
        self._totals = running[:, -1].copy()
        if self.collector is not None:
            self.collector.add_running(running if self.n_lanes is not None else running[:, :, 0])
        self._values.clear()
        self._generic_energy.clear()
        self._masks.clear()

    # ------------------------------------------------------------- results
    @property
    def totals(self) -> np.ndarray:
        """``(n_components, lanes)`` energy per monitored component (fJ)."""
        self.flush()
        return self._totals

    @property
    def peak(self) -> np.ndarray:
        """``(lanes,)`` largest single-cycle total energy (fJ)."""
        self.flush()
        return self._peak

    def cycle_trace(self) -> np.ndarray:
        """``(cycles, lanes)`` total energy per cycle (needs ``keep_cycle_trace``)."""
        self.flush()
        if not self._trace:
            return np.zeros((0, self._lanes))
        return np.concatenate(self._trace)
