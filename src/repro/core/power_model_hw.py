"""The synthesizable hardware power model.

One :class:`HardwarePowerModel` is instantiated for every monitored RTL
component (paper Fig. 1).  Its structure follows Section 2.1:

* input queues holding the previous value of every monitored input/output bit
  (one register per bit),
* an XOR per bit computing the transition indicator ``T(x_i)``,
* the products ``Coeff_i * T(x_i)`` — since ``T`` is 0/1 these are vector AND
  gates selecting the (fixed-point) coefficient,
* an adder tree accumulating the selected coefficients plus a base term,
* an internal accumulator gathering per-cycle energy between strobes, and an
  output register loaded when the power strobe fires.

The component is a normal :class:`~repro.netlist.sequential.SequentialComponent`,
so the *enhanced* design remains an ordinary RTL netlist: it can be simulated
by :mod:`repro.sim` (which is how our emulation platform model executes it),
passed to the FPGA resource estimator, or — in the real-world flow — emitted
as synthesizable HDL.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.fixedpoint import FixedPointFormat
from repro.netlist.ports import Port
from repro.netlist.sequential import SequentialComponent
from repro.netlist.signals import mask_value
from repro.power.macromodel import LinearTransitionModel

#: prefix applied to monitored-port names so they cannot clash with "strobe"
MONITOR_PREFIX = "x_"


class HardwarePowerModel(SequentialComponent):
    """Per-component power-estimation hardware (value queues + dot product)."""

    type_name = "power_model_hw"

    def __init__(
        self,
        name: str,
        model: LinearTransitionModel,
        fmt: FixedPointFormat,
        energy_width: int = 32,
        monitored_component: Optional[str] = None,
        sample_on_strobe_only: bool = False,
    ) -> None:
        super().__init__(name)
        self.model = model
        self.fmt = fmt
        self.energy_width = energy_width
        #: name of the RTL component this model observes (for reports)
        self.monitored_component = monitored_component
        #: paper-literal sampling: value queues update and the dot product is
        #: evaluated only when the strobe fires (undersamples activity between
        #: strobes).  The default accumulates every cycle and flushes on the
        #: strobe, which is exact for any strobe period.
        self.sample_on_strobe_only = sample_on_strobe_only
        self.port_widths: Dict[str, int] = dict(model.port_widths)

        # quantized coefficients in the model's canonical flat order
        self.coefficient_codes: List[int] = [
            fmt.quantize(value) for _, _, value in model.flat_coefficients()
        ]
        self.base_code: int = fmt.quantize(model.base_energy_fj)

        # Per-port lookup tables mapping an 8-bit toggle pattern to the sum of
        # the selected coefficient codes, so `capture` costs one table read per
        # toggled byte instead of one add per toggled bit.  Entries are
        # (port_name, monitor_input_name, value_mask, chunk_tables).
        self._chunked: List[Tuple[str, str, int, List[List[int]]]] = []
        index = 0
        for port_name in sorted(self.port_widths):
            width = self.port_widths[port_name]
            coeffs = self.coefficient_codes[index : index + width]
            index += width
            tables: List[List[int]] = []
            for base in range(0, width, 8):
                chunk = coeffs[base : base + 8]
                table = [0] * 256
                for pattern in range(1, 256):
                    low = (pattern & -pattern).bit_length() - 1
                    table[pattern] = table[pattern & (pattern - 1)] + (
                        chunk[low] if low < len(chunk) else 0
                    )
                tables.append(table)
            self._chunked.append(
                (port_name, MONITOR_PREFIX + port_name, (1 << width) - 1, tables)
            )

        self.params = {
            "monitored_bits": model.total_bits,
            "coefficient_bits": fmt.bits,
            "energy_width": energy_width,
            "monitored_component": monitored_component,
        }

        for port_name, width in sorted(self.port_widths.items()):
            self.add_input(MONITOR_PREFIX + port_name, width)
        self.add_input("strobe", 1)
        self.add_output("energy", energy_width)
        self.reset()

    # -------------------------------------------------------------- queries
    def monitored_ports(self) -> List[Port]:
        # The power-estimation hardware itself is not monitored by another
        # power model — the paper measures its *area* overhead, not its power.
        return []

    def max_cycle_energy_code(self) -> int:
        """Worst-case per-cycle energy code (all monitored bits toggling)."""
        return self.base_code + sum(self.coefficient_codes)

    def energy_fj_from_code(self, code: int) -> float:
        return self.fmt.dequantize(code)

    # ------------------------------------------------------------ behaviour
    def reset(self) -> None:
        #: each monitored port's last value, in ``_chunked`` order
        self._previous: List[int] = [0] * len(self._chunked)
        self._accumulated = 0
        self._output = 0
        self._pending_previous = list(self._previous)
        self._pending_accumulated = 0
        self._pending_output = 0

    def evaluate(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        return {"energy": self._output}

    def capture(self, inputs: Mapping[str, int]) -> None:
        strobe = inputs.get("strobe", 0) & 1
        if self.sample_on_strobe_only and not strobe:
            # paper-literal mode: between strobes the queues hold their values
            # and no energy is computed
            self._pending_previous = list(self._previous)
            self._pending_accumulated = self._accumulated
            self._pending_output = 0
            return
        cycle_energy = self.base_code
        currents = [inputs.get(in_name, 0) & mask for _, in_name, mask, _ in self._chunked]
        for previous, current, (*_, tables) in zip(self._previous, currents, self._chunked):
            toggles = previous ^ current
            chunk = 0
            while toggles:
                cycle_energy += tables[chunk][toggles & 255]
                toggles >>= 8
                chunk += 1
        accumulated = self._accumulated + cycle_energy
        if strobe:
            self._pending_output = mask_value(accumulated, self.energy_width)
            self._pending_accumulated = 0
        else:
            self._pending_output = 0
            self._pending_accumulated = accumulated
        self._pending_previous = currents

    def commit(self) -> None:
        self._previous = self._pending_previous
        self._accumulated = self._pending_accumulated
        self._output = self._pending_output
