"""Cycle-accurate power macromodels.

The central model is :class:`LinearTransitionModel`, the regression form used
by the paper (after Benini et al.): the energy consumed by an RTL component in
a strobe period is ``sum_i Coeff_i * T(x_i) + base`` where ``T(x_i)`` is the
0/1 transition indicator of monitored input/output bit ``i``.  This form is
what the power-emulation instrumentation turns into hardware: an XOR per bit,
an AND with the coefficient and an adder tree.

A :class:`LUTPowerModel` (table lookup over toggle densities) is provided for
the macromodel-form ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.signals import bits_of, popcount


@dataclass
class CharacterizationMetrics:
    """Goodness-of-fit metrics attached to a characterized macromodel."""

    n_samples: int = 0
    r_squared: float = 0.0
    nrmse: float = 0.0
    max_abs_error_fj: float = 0.0
    mean_energy_fj: float = 0.0

    def summary(self) -> str:
        return (
            f"samples={self.n_samples} R2={self.r_squared:.3f} "
            f"NRMSE={self.nrmse:.3f} max|err|={self.max_abs_error_fj:.1f}fJ "
            f"mean={self.mean_energy_fj:.1f}fJ"
        )


class PowerMacromodel:
    """Base class: maps an observed I/O transition to an energy in fJ."""

    #: human-readable model kind (reports, DESIGN.md cross-references)
    kind: str = "abstract"

    def __init__(self, component_type: str, port_widths: Mapping[str, int]) -> None:
        self.component_type = component_type
        self.port_widths: Dict[str, int] = dict(port_widths)
        self.metrics: Optional[CharacterizationMetrics] = None

    # ---------------------------------------------------------------- shape
    @property
    def monitored_ports(self) -> List[str]:
        """Port names in canonical (sorted) order — the bit order used everywhere."""
        return sorted(self.port_widths)

    @property
    def total_bits(self) -> int:
        return sum(self.port_widths.values())

    # ------------------------------------------------------------- evaluate
    def evaluate(self, previous: Mapping[str, int], current: Mapping[str, int]) -> float:
        """Energy (fJ) consumed given the previous and current port values."""
        raise NotImplementedError

    def evaluate_lanes(self, previous: Mapping[str, object], current: Mapping[str, object]):
        """Per-lane energies (fJ) for ``(n_lanes,)`` arrays of port values.

        ``previous``/``current`` map each port to an array of per-lane values
        (the :class:`~repro.sim.batch.BatchSimulator` store shape).  The base
        implementation loops the scalar :meth:`evaluate` once per lane — exact
        for any model; :class:`LinearTransitionModel` overrides it with a
        vectorized path.  Lane count never changes results, only speed.
        """
        import numpy as np

        ports = list(self.port_widths)
        n_lanes = len(np.asarray(next(iter(current.values())))) if current else 0
        energies = np.zeros(n_lanes, dtype=np.float64)
        for lane in range(n_lanes):
            prev_lane = {p: int(previous[p][lane]) for p in ports if p in previous}
            cur_lane = {p: int(current[p][lane]) for p in ports if p in current}
            energies[lane] = self.evaluate(prev_lane, cur_lane)
        return energies

    def average_power_mw(self, energy_fj: float, cycles: int, clock_mhz: float) -> float:
        if cycles == 0:
            return 0.0
        # 1 fJ/cycle at 1 MHz is 1 nW = 1e-6 mW
        return (energy_fj / cycles) * clock_mhz * 1e-6


class LinearTransitionModel(PowerMacromodel):
    """``E = base + sum_i coeff_i * T(x_i)`` with per-bit coefficients in fJ."""

    kind = "linear-transition"

    def __init__(
        self,
        component_type: str,
        port_widths: Mapping[str, int],
        coefficients: Mapping[str, Sequence[float]],
        base_energy_fj: float = 0.0,
    ) -> None:
        super().__init__(component_type, port_widths)
        self.coefficients: Dict[str, List[float]] = {}
        for port, width in self.port_widths.items():
            values = list(coefficients.get(port, [0.0] * width))
            if len(values) != width:
                raise ValueError(
                    f"model for {component_type!r}: port {port!r} has width {width} "
                    f"but {len(values)} coefficients were given"
                )
            self.coefficients[port] = [float(v) for v in values]
        self.base_energy_fj = float(base_energy_fj)

    # ------------------------------------------------------------- evaluate
    def evaluate(self, previous: Mapping[str, int], current: Mapping[str, int]) -> float:
        energy = self.base_energy_fj
        for port, coeffs in self.coefficients.items():
            toggles = previous.get(port, 0) ^ current.get(port, 0)
            if toggles == 0:
                continue
            width = self.port_widths[port]
            for i in range(width):
                if (toggles >> i) & 1:
                    energy += coeffs[i]
        return energy

    def evaluate_lanes(self, previous: Mapping[str, object], current: Mapping[str, object]):
        """Per-lane :meth:`evaluate`: one masked add per monitored bit.

        Accumulates in :meth:`evaluate`'s order (base, then every port's bits
        in ascending order), so each lane equals the scalar result exactly,
        for int64 arrays and exact Python-int (``object``) arrays alike.
        Plain models go through :mod:`repro.power.block` instead; this path
        serves subclasses and ports too wide for an int64 lane.
        """
        import numpy as np

        n_lanes = len(np.asarray(next(iter(current.values())))) if current else 0
        energies = np.full(n_lanes, self.base_energy_fj, dtype=np.float64)
        for port, coeffs in self.coefficients.items():
            # missing ports observe as constant 0, as in the scalar evaluate
            toggles = np.asarray(previous.get(port, 0)) ^ np.asarray(current.get(port, 0))
            for bit, coeff in enumerate(coeffs):
                if coeff:
                    energies += coeff * ((toggles >> bit) & 1).astype(np.float64)
        return energies

    def byte_tables(self):
        """Per-port coefficient sums for every byte pattern, built once.

        Returns ``[(port, tables), ...]`` in :attr:`coefficients` order, where
        ``tables[j][b]`` is the energy of toggle pattern ``b`` on bits
        ``8j .. 8j+7`` of ``port`` — its set bits' coefficients summed in
        ascending bit order.  The float counterpart of the per-byte tables
        of :class:`~repro.core.power_model_hw.HardwarePowerModel`.  Ports
        whose coefficients are all zero are dropped; coefficients are
        treated as immutable after construction, as everywhere else.
        """
        tables = getattr(self, "_byte_tables_cache", None)
        if tables is None:
            import numpy as np

            patterns = np.arange(256)
            tables = []
            for port, coeffs in self.coefficients.items():
                if not any(coeffs):
                    continue
                padded = np.zeros(-(-len(coeffs) // 8) * 8)
                padded[:len(coeffs)] = coeffs
                padded = padded.reshape(-1, 8)
                table = np.zeros((len(padded), 256))
                for bit in range(8):
                    table += padded[:, bit:bit + 1] * ((patterns >> bit) & 1)
                tables.append((port, table))
            self._byte_tables_cache = tables
        return tables

    # --------------------------------------------------- canonical flat view
    def flat_coefficients(self) -> List[Tuple[str, int, float]]:
        """Coefficients as ``(port, bit, value)`` in canonical port/bit order.

        The hardware power-model generator and the fixed-point quantizer use
        exactly this ordering, so software and emulated evaluation agree
        bit-for-bit.
        """
        flat = []
        for port in self.monitored_ports:
            for bit, value in enumerate(self.coefficients[port]):
                flat.append((port, bit, value))
        return flat

    def with_coefficients(self, flat: Sequence[float],
                          base_energy_fj: Optional[float] = None) -> "LinearTransitionModel":
        """Build a copy with replaced coefficients (flat canonical order)."""
        if len(flat) != self.total_bits:
            raise ValueError(
                f"expected {self.total_bits} coefficients, got {len(flat)}"
            )
        per_port: Dict[str, List[float]] = {}
        index = 0
        for port in self.monitored_ports:
            width = self.port_widths[port]
            per_port[port] = [float(v) for v in flat[index:index + width]]
            index += width
        return LinearTransitionModel(
            self.component_type,
            self.port_widths,
            per_port,
            self.base_energy_fj if base_energy_fj is None else base_energy_fj,
        )

    def scale(self, factor: float) -> "LinearTransitionModel":
        """Uniformly scale all coefficients and the base term."""
        return LinearTransitionModel(
            self.component_type,
            self.port_widths,
            {p: [c * factor for c in cs] for p, cs in self.coefficients.items()},
            self.base_energy_fj * factor,
        )

    def max_energy_fj(self) -> float:
        """Upper bound of one evaluation (all monitored bits toggling)."""
        return self.base_energy_fj + sum(
            max(c, 0.0) for cs in self.coefficients.values() for c in cs
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearTransitionModel({self.component_type!r}, bits={self.total_bits}, "
            f"base={self.base_energy_fj:.2f}fJ)"
        )


class LUTPowerModel(PowerMacromodel):
    """Table-lookup macromodel indexed by quantized input/output toggle densities.

    Used only in the macromodel-form ablation; it is *not* converted into
    power-estimation hardware (the paper requires models expressible as
    synthesizable functions, and the linear model is the one it describes).
    """

    kind = "lut"

    def __init__(
        self,
        component_type: str,
        port_widths: Mapping[str, int],
        input_ports: Sequence[str],
        output_ports: Sequence[str],
        table: Sequence[Sequence[float]],
    ) -> None:
        super().__init__(component_type, port_widths)
        self.input_ports = list(input_ports)
        self.output_ports = list(output_ports)
        self.table = [list(row) for row in table]
        self.n_bins = len(self.table)
        if any(len(row) != self.n_bins for row in self.table):
            raise ValueError("LUT table must be square")

    def _density(self, ports: Sequence[str], previous, current) -> float:
        bits = sum(self.port_widths[p] for p in ports)
        if bits == 0:
            return 0.0
        toggles = sum(
            popcount(previous.get(p, 0) ^ current.get(p, 0)) for p in ports
        )
        return toggles / bits

    def _bin(self, density: float) -> int:
        return min(self.n_bins - 1, int(density * self.n_bins))

    def evaluate(self, previous: Mapping[str, int], current: Mapping[str, int]) -> float:
        row = self._bin(self._density(self.input_ports, previous, current))
        col = self._bin(self._density(self.output_ports, previous, current))
        return self.table[row][col]
