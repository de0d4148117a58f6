"""Gate-level substrate: synthetic standard cells, technology mapping and
gate-level simulation/power.

The paper characterizes its RTL power macromodels against gate- or
transistor-level implementations in NEC's CB130M 0.13 µm library.  We cannot
ship that library, so this package provides a synthetic 0.13 µm-class
standard-cell library with self-consistent area/capacitance/energy numbers, a
technology mapper that expands every RTL component into gates (ripple-carry
adders, array multipliers, mux trees, ...), a levelized gate-level simulator
that settles blocks of input vectors as lanes, and a switching/leakage power
calculator over those blocks.  Together they play the role of the
"gate-level implementation" against which macromodels are characterized, and
of the slow gate-level estimation baseline mentioned in the paper's
introduction.
"""

from repro.gates.cells import CellType, StandardCellLibrary, CB013_LIBRARY
from repro.gates.gate_netlist import GateInstance, GateNetlist
from repro.gates.techmap import TechnologyMapper, TechmapError
from repro.gates.gatesim import GateLevelSimulator, GateProgram, compile_gate_netlist
from repro.gates.gate_power import BatchTransitionEnergy, GatePowerCalculator

__all__ = [
    "CellType",
    "StandardCellLibrary",
    "CB013_LIBRARY",
    "GateInstance",
    "GateNetlist",
    "TechnologyMapper",
    "TechmapError",
    "GateLevelSimulator",
    "GateProgram",
    "compile_gate_netlist",
    "GatePowerCalculator",
    "BatchTransitionEnergy",
]
