"""Gate-level power computation.

Dynamic energy of one input-vector transition is the sum over toggled nets of
``1/2 * C_load * Vdd^2`` plus the internal energy of the driving cell; static
power is the sum of cell leakage.  The resulting energies are the reference
values that the macromodel characterization engine regresses against.

Transitions are computed a block of lanes at a time
(:meth:`GatePowerCalculator.transition_energy_batch`).  Each lane's sums add
the toggled nets' energies one physical net after another, in a fixed net
order, so a lane's energy does not depend on the lane or block it was
computed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gates.cells import CB013_LIBRARY, StandardCellLibrary
from repro.gates.gate_netlist import GateNetlist
from repro.gates.gatesim import GateLevelSimulator, port_column


@dataclass
class BatchTransitionEnergy:
    """Per-lane energy breakdown of ``n_lanes`` independent transitions."""

    #: (n_lanes,) switching energy per lane
    switching_fj: np.ndarray
    #: (n_lanes,) cell-internal energy per lane
    internal_fj: np.ndarray
    #: (n_lanes,) number of toggled physical nets per lane
    n_toggled_nets: np.ndarray

    @property
    def total_fj(self) -> np.ndarray:
        return self.switching_fj + self.internal_fj

    @property
    def n_lanes(self) -> int:
        return self.switching_fj.shape[0]


def _ordered_sum(weights: np.ndarray, toggled: np.ndarray) -> np.ndarray:
    """Per lane, the weights of the toggled rows added one row after another
    from 0.0 (adding an untoggled row's ``+0.0`` changes no sum)."""
    if not len(weights):
        return np.zeros(toggled.shape[1])
    terms = toggled * weights[:, None]
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


class GatePowerCalculator:
    """Computes dynamic energy and leakage for a gate netlist."""

    def __init__(
        self,
        netlist: GateNetlist,
        library: StandardCellLibrary = CB013_LIBRARY,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.loads_ff = netlist.load_capacitance_ff(library)
        self._driver_cell = {gate.output: gate.cell for gate in netlist.gates}
        self._physical_nets = [
            net
            for net in netlist.all_nets()
            if net not in netlist.aliases and net not in netlist.constants
        ]
        #: lazily built per-physical-net (slot, switching, internal) vectors
        self._net_weights: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -------------------------------------------------------------- dynamic
    def _weights(self, simulator: GateLevelSimulator) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot, switching and internal energy of every physical net, in
        ``_physical_nets`` order."""
        if self._net_weights is None:
            slots = simulator.program.slots
            self._net_weights = (
                np.array([slots[net] for net in self._physical_nets], dtype=np.intp),
                np.array([
                    self.library.switching_energy_fj(self.loads_ff.get(net, 0.0))
                    for net in self._physical_nets
                ], dtype=np.float64),
                np.array([
                    0.0 if (cell := self._driver_cell.get(net)) is None
                    else cell.intrinsic_energy_fj
                    for net in self._physical_nets
                ], dtype=np.float64),
            )
        return self._net_weights

    def transition_energy_batch(
        self,
        simulator: GateLevelSimulator,
        before: np.ndarray,
        after: np.ndarray,
    ) -> BatchTransitionEnergy:
        """Per-lane energies between two ``(n_slots, n_lanes)`` lane arrays."""
        slots, w_switch, w_internal = self._weights(simulator)
        toggled = before[slots] != after[slots]
        return BatchTransitionEnergy(
            switching_fj=_ordered_sum(w_switch, toggled),
            internal_fj=_ordered_sum(w_internal, toggled),
            n_toggled_nets=toggled.sum(axis=0),
        )

    def vector_pair_energy(
        self,
        simulator: GateLevelSimulator,
        first_ports: Mapping[str, np.ndarray],
        second_ports: Mapping[str, np.ndarray],
        port_widths: Mapping[str, int],
    ) -> BatchTransitionEnergy:
        """Energies of ``n_lanes`` pairs: lane ``i`` applies ``first[i]``,
        then ``second[i]`` (each mapping holds ``(n_lanes,)`` port columns)."""
        simulator.evaluate_ports_batch(first_ports, port_widths)
        before = simulator.snapshot_batch()
        simulator.evaluate_ports_batch(second_ports, port_widths)
        after = simulator.snapshot_batch()
        return self.transition_energy_batch(simulator, before, after)

    def run_vector_sequence(
        self,
        vectors: Sequence[Mapping[str, int]],
        port_widths: Mapping[str, int],
        simulator: Optional[GateLevelSimulator] = None,
    ) -> BatchTransitionEnergy:
        """Energies of applying ``vectors`` in order, one lane per transition.

        The sequence settles as one block, a vector per lane; the result has
        ``len(vectors) - 1`` lanes.
        """
        if simulator is None:
            simulator = GateLevelSimulator(self.netlist)
        ports = dict.fromkeys(port for vector in vectors for port in vector)
        columns = {
            port: port_column([vector.get(port, 0) for vector in vectors],
                              port_widths.get(port, 1))
            for port in ports
        }
        simulator.evaluate_ports_batch(columns, port_widths)
        v = simulator.snapshot_batch()
        return self.transition_energy_batch(simulator, v[:, :-1], v[:, 1:])

    # --------------------------------------------------------------- static
    def leakage_power_nw(self) -> float:
        return self.netlist.total_leakage_nw()

    def area_um2(self) -> float:
        return self.netlist.total_area_um2()
