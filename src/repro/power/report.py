"""Power report data structures shared by all estimators.

Every estimator in the package — the software RTL estimator, the gate-level
baseline, and the power-emulation platform readback — produces the same
:class:`PowerReport`, which is what makes the accuracy comparisons in
``benchmarks/bench_accuracy.py`` straightforward.  Reports serialize to plain
JSON dicts (:meth:`PowerReport.to_dict` / :meth:`PowerReport.from_dict`) so
the unified estimation API (:mod:`repro.api`) and the on-disk result cache
(:mod:`repro.bench.cache`) can persist them.

A report's ``components`` is a read-only mapping from component name to
:class:`ComponentPower`.  Reports built from an energy ledger
(:func:`repro.power.rtl_estimator.build_reports`: every RTL and gate-level
run, scalar or lane) hold a :class:`LaneComponents` view over the lane's
rows of the block's energy and power arrays; the ``ComponentPower``
objects are built all at once, in monitored order, the first time a
component is read, and never when a report is only serialized or read
for its totals.  Reports read back from JSON and the emulation readback
hold a plain dict.  The two compare ``==`` both ways and print the same
``repr``.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence


@dataclass(slots=True)
class ComponentPower:
    """Per-component energy/power results."""

    name: str
    component_type: str
    energy_fj: float
    average_power_mw: float

    def __post_init__(self) -> None:
        self.energy_fj = float(self.energy_fj)
        self.average_power_mw = float(self.average_power_mw)

    def to_dict(self) -> Dict[str, object]:
        return _component_payload(
            self.name, self.component_type, self.energy_fj, self.average_power_mw)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ComponentPower":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


def _component_payload(name: str, component_type: str, energy_fj: float,
                       average_power_mw: float) -> Dict[str, object]:
    """A component's JSON payload, keyed in field order."""
    return {"name": name, "component_type": component_type,
            "energy_fj": energy_fj, "average_power_mw": average_power_mw}


class LaneComponents(Mapping[str, ComponentPower]):
    """One lane's components, read-only, over its rows of a block's arrays.

    ``index`` (name → monitored position) and ``kinds`` are shared by every
    lane of a block; ``energies`` and ``powers`` are this lane's rows, as
    Python floats.  Names, length and membership come from ``index``; the
    first read of a component builds every :class:`ComponentPower` of the
    lane at once, in monitored order, and keeps them.  Equality is mapping
    equality, so a view and a dict of the same components are ``==`` both
    ways; ``repr`` is the dict's; a pickle carries the rows, not the
    objects.
    """

    __slots__ = ("_index", "_kinds", "_energies", "_powers", "_built")

    def __init__(self, index: Dict[str, int], kinds: Sequence[str],
                 energies: Sequence[float], powers: Sequence[float]) -> None:
        self._index = index
        self._kinds = kinds
        self._energies = energies
        self._powers = powers
        self._built: Optional[Dict[str, ComponentPower]] = None

    def _components(self) -> Dict[str, ComponentPower]:
        if self._built is None:
            self._built = dict(zip(self._index, map(
                ComponentPower, self._index, self._kinds, self._energies, self._powers)))
        return self._built

    def __getitem__(self, name: str) -> ComponentPower:
        return self._components()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def values(self):
        return self._components().values()

    def items(self):
        return self._components().items()

    def __repr__(self) -> str:
        return repr(self._components())

    def __reduce__(self):
        return LaneComponents, (self._index, self._kinds, self._energies, self._powers)

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Every component's payload, straight from the rows."""
        return {
            name: _component_payload(name, kind, energy, power)
            for name, kind, energy, power in zip(
                self._index, self._kinds, self._energies, self._powers)
        }


@dataclass
class PowerReport:
    """Result of one power-estimation run."""

    design: str
    estimator: str
    cycles: int
    clock_mhz: float
    total_energy_fj: float
    average_power_mw: float
    peak_power_mw: float = 0.0
    components: Mapping[str, ComponentPower] = field(default_factory=dict)
    #: optional per-cycle (or per-strobe) total energy trace in fJ
    cycle_energy_fj: List[float] = field(default_factory=list)
    #: wall-clock time spent producing this report (the quantity Fig. 3 compares)
    estimation_time_s: float = 0.0
    notes: Dict[str, object] = field(default_factory=dict)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (round-trips through :meth:`from_dict`)."""
        components = self.components
        return {
            "design": self.design,
            "estimator": self.estimator,
            "cycles": self.cycles,
            "clock_mhz": self.clock_mhz,
            "total_energy_fj": self.total_energy_fj,
            "average_power_mw": self.average_power_mw,
            "peak_power_mw": self.peak_power_mw,
            "components": components.to_dict() if isinstance(components, LaneComponents)
            else {name: component.to_dict() for name, component in components.items()},
            "cycle_energy_fj": list(self.cycle_energy_fj),
            "estimation_time_s": self.estimation_time_s,
            "notes": copy.deepcopy(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PowerReport":
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in fields}
        kwargs["components"] = {
            name: ComponentPower.from_dict(component)
            for name, component in (payload.get("components") or {}).items()
        }
        return cls(**kwargs)

    # ---------------------------------------------------------------- views
    def energy_by_type(self) -> Dict[str, float]:
        """Aggregate energy per component type (adders vs. registers vs. ...)."""
        totals: Dict[str, float] = {}
        for component in self.components.values():
            totals[component.component_type] = (
                totals.get(component.component_type, 0.0) + component.energy_fj
            )
        return totals

    def top_consumers(self, n: int = 10) -> List[ComponentPower]:
        return sorted(self.components.values(), key=lambda c: c.energy_fj, reverse=True)[:n]

    def component_share(self, name: str) -> float:
        if self.total_energy_fj <= 0:
            return 0.0
        return self.components[name].energy_fj / self.total_energy_fj

    def relative_error_to(self, reference: "PowerReport") -> float:
        """Relative error of this report's average power against a reference."""
        if reference.average_power_mw == 0:
            return 0.0
        return abs(self.average_power_mw - reference.average_power_mw) / reference.average_power_mw

    def table(self, n: int = 15) -> str:
        """Formatted per-component power table (largest consumers first)."""
        lines = [
            f"design {self.design} — {self.estimator}",
            f"  cycles={self.cycles}  clock={self.clock_mhz:.0f} MHz  "
            f"avg power={self.average_power_mw:.4f} mW  peak={self.peak_power_mw:.4f} mW  "
            f"estimation time={self.estimation_time_s:.3f} s",
            f"  {'component':32s} {'type':14s} {'energy (fJ)':>14s} {'power (mW)':>12s} {'share':>7s}",
        ]
        for component in self.top_consumers(n):
            share = self.component_share(component.name)
            lines.append(
                f"  {component.name:32.32s} {component.component_type:14s} "
                f"{component.energy_fj:14.1f} {component.average_power_mw:12.5f} {share:6.1%}"
            )
        return "\n".join(lines)
