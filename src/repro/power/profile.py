"""Windowed power telemetry: time- and component-resolved energy profiles.

The paper's pitch is that power emulation turns power estimation into a
runtime *observation* problem — the strobe/aggregator hardware exposes power
over time while the workload runs, and the host reads it back "at the end of
the run — or periodically, for a power-over-time profile"
(:mod:`repro.core.aggregator`).  This module is that periodic view for every
engine in the repository: an ``(n_windows × n_components)`` energy matrix at
a configurable window granularity, bounded in memory at any run length, plus
the analysis layered on top of it (hotspots, peak windows, per-type
breakdowns, Chrome-trace counter events).

Two pieces:

* :class:`WindowedEnergyCollector` — the streaming accumulator every
  engine feeds the same way: an observer keeps per-component running
  totals (``(components, lanes)``; a scalar run is one lane) and hands them
  over at each window boundary and once at the end of the run
  (:meth:`~WindowedEnergyCollector.advance`); each window is the
  difference of the totals at its two boundaries.  When the committed
  window count reaches ``max_windows`` adjacent windows merge pairwise and
  the window width doubles, so an arbitrarily long run costs a fixed
  amount of memory while window sums stay exact.
* :class:`PowerProfile` — the immutable artifact: JSON round-trippable,
  attached to :class:`~repro.api.spec.EstimateResult`, with hotspot/top-K
  views, window rebinning, and Chrome ``"C"`` (counter) events that merge
  simulated power onto the same wall-clock timeline as the software spans
  from :mod:`repro.obs`.

Energies are femtojoules per window; powers are milliwatts using the same
``P[mW] = E[fJ]/cycles * f[MHz] * 1e-6`` conversion as
:meth:`~repro.power.technology.Technology.energy_to_power_mw`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_MAX_WINDOWS",
    "DEFAULT_WINDOW_TARGET",
    "PowerProfile",
    "ProfileConfig",
    "WindowedEnergyCollector",
]

#: default bound on the number of windows held in memory; past it, adjacent
#: windows merge pairwise and the window width doubles
DEFAULT_MAX_WINDOWS = 512

#: when no window width is requested and the cycle budget is known up
#: front, engines default to the finest width that yields about this many
#: windows — per-cycle windows over a long run would only coalesce away,
#: paying their collection cost for nothing
DEFAULT_WINDOW_TARGET = 64


@dataclass(frozen=True)
class ProfileConfig:
    """How an estimator should collect its windowed profile.

    ``window_cycles`` is the *initial* window width in cycles (``None`` =
    the engine's natural granularity: see :meth:`resolved_window` for the
    software estimators, the strobe period on the emulation platform); the
    effective width in the resulting profile may be a power-of-two multiple
    when the run was long enough to trigger coalescing against
    ``max_windows``.
    """

    window_cycles: Optional[int] = None
    max_windows: int = DEFAULT_MAX_WINDOWS

    def __post_init__(self) -> None:
        if self.window_cycles is not None and self.window_cycles < 1:
            raise ValueError(
                f"profile window must be >= 1 cycle, got {self.window_cycles}"
            )
        if self.max_windows < 2:
            raise ValueError(
                f"max_windows must be >= 2, got {self.max_windows}"
            )

    def resolved_window(self, budget: Optional[int] = None) -> int:
        """The initial width for a run of at most ``budget`` cycles.

        The requested width, else the finest width giving about
        :data:`DEFAULT_WINDOW_TARGET` windows over a known budget, else one
        cycle — the same answer for a scalar run and a lane block.
        """
        if self.window_cycles is not None:
            return self.window_cycles
        if budget is None:
            return 1
        return max(1, -(-budget // DEFAULT_WINDOW_TARGET))

    def collector(
        self,
        names: Sequence[str],
        types: Sequence[str],
        budget: Optional[int] = None,
        n_lanes: int = 1,
    ) -> "WindowedEnergyCollector":
        """The collector for a run of at most ``budget`` cycles."""
        return WindowedEnergyCollector(
            names, types, window_cycles=self.resolved_window(budget),
            max_windows=self.max_windows, n_lanes=n_lanes,
        )


class WindowedEnergyCollector:
    """Streaming ``(window × component × lane)`` energy accumulator, bounded memory.

    Every engine feeds it one way: each component's running total energy
    at window boundaries (:meth:`advance`).  A scalar run is one lane.
    Component order is fixed at construction and is the row order of every
    emitted profile.
    """

    def __init__(
        self,
        names: Sequence[str],
        types: Sequence[str],
        window_cycles: int = 1,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        n_lanes: int = 1,
    ) -> None:
        if len(names) != len(types):
            raise ValueError("names and types must align")
        if window_cycles < 1:
            raise ValueError(f"window_cycles must be >= 1, got {window_cycles}")
        if max_windows < 2:
            raise ValueError(f"max_windows must be >= 2, got {max_windows}")
        self.names = list(names)
        self.types = list(types)
        #: current window width; doubles every time the window list fills
        self.window_cycles = int(window_cycles)
        self.initial_window_cycles = int(window_cycles)
        # an odd bound would misalign boundaries after a pairwise merge
        self.max_windows = max_windows + (max_windows % 2)
        self.n_lanes = n_lanes
        shape = (len(self.names), n_lanes)
        #: the open window's per-component energies
        self.buf = np.zeros(shape, dtype=np.float64)
        self._windows: List[np.ndarray] = []
        self._in_window = 0
        # running totals at the last window boundary
        self._snapshot = np.zeros(shape, dtype=np.float64)
        #: total cycles observed
        self.cycles = 0
        #: the cycle each lane stops at, as far as known so far (the lane
        #: estimator's array, updated in place as lanes finish)
        self.lane_stops: Optional[np.ndarray] = None
        # lane -> (window width, windows) of a lane that stopped before a
        # coalesce: its profile as a run of its own length would end
        self._frozen: Dict[int, Tuple[int, np.ndarray]] = {}

    # ----------------------------------------------------------- streaming
    @property
    def cycles_to_boundary(self) -> int:
        """Cycles until the open window closes."""
        return self.window_cycles - self._in_window

    def advance(self, cycles: int, running: np.ndarray) -> None:
        """Ingest ``cycles`` more cycles given only the last one's running totals.

        ``running`` is ``(components, lanes)``: each component's energy from
        the start of the run through the last of the cycles.  No window may
        close before that cycle (``cycles <= cycles_to_boundary``), so an
        observer feeds the collector at every window boundary and once at
        the end of the run; each window is the difference of the running
        totals at its two boundaries.
        """
        if not 0 < cycles <= self.cycles_to_boundary:
            raise ValueError(
                f"advance by {cycles} cycles; the next window closes in "
                f"{self.cycles_to_boundary}"
            )
        self.cycles += cycles
        self._in_window += cycles
        if self._in_window == self.window_cycles:
            self._commit(running - self._snapshot, self.cycles)
            self._snapshot = running.copy()
        else:
            np.subtract(running, self._snapshot, out=self.buf)

    def _commit(self, window: np.ndarray, at: int) -> None:
        """Close a window at cycle ``at``, coalescing when the list is full."""
        self._windows.append(window)
        self._in_window = 0
        if len(self._windows) >= self.max_windows:
            self._freeze_stopped(at)
            self._coalesce()

    def _freeze_stopped(self, at: int) -> None:
        # a lane that stopped before this boundary would not coalesce here
        # in a run of its own: keep its windows as they are now
        if self.lane_stops is None:
            return
        stopped = [lane for lane in np.flatnonzero(self.lane_stops < at).tolist()
                   if lane not in self._frozen]
        if stopped:
            windows = np.stack(self._windows)
            for lane in stopped:
                self._frozen[lane] = (self.window_cycles, windows[:, :, lane].copy())

    def _coalesce(self) -> None:
        # merge adjacent pairs and double the granularity: window sums are
        # preserved exactly, boundaries stay multiples of the new width
        merged = [
            self._windows[i] + self._windows[i + 1]
            for i in range(0, len(self._windows) - 1, 2)
        ]
        self._windows = merged
        self.window_cycles *= 2

    # ------------------------------------------------------------- reading
    @property
    def n_windows(self) -> int:
        return len(self._windows) + (1 if self._in_window else 0)

    def matrix(self) -> np.ndarray:
        """All windows, committed plus the open one: ``(windows, components, lanes)``."""
        windows = list(self._windows)
        if self._in_window:
            windows.append(self.buf.copy())
        if not windows:
            shape = (0,) + self.buf.shape
            return np.zeros(shape, dtype=np.float64)
        return np.stack(windows, axis=0)

    def profiles(
        self,
        design: str,
        estimator: str,
        clock_mhz: float,
        lane_cycles: Sequence[int],
        notes: Optional[Dict[str, object]] = None,
        lanes: Optional[Sequence[int]] = None,
    ) -> List["PowerProfile"]:
        """Each lane's profile as an immutable :class:`PowerProfile`.

        Every lane's, or only those of ``lanes``; ``lane_cycles`` holds each
        returned lane's executed cycle count, which trims trailing windows
        the lane never reached (energies past its finish are exact zeros
        because inactive lanes are masked out of the accumulation).  A lane
        that stopped before a coalesce (see :attr:`lane_stops`) keeps the
        finer windows a run of its own length ends with.
        """
        lanes = range(self.n_lanes) if lanes is None else list(lanes)
        # one contiguous (lanes, n_windows, n_components) copy so each
        # lane's list materialization is a straight memory walk
        per_lane = np.ascontiguousarray(self.matrix().transpose(2, 0, 1)[lanes])
        return [
            self._emit(*self._frozen.get(lane, (self.window_cycles, matrix)),
                       design, estimator, clock_mhz, cycles, notes)
            for lane, matrix, cycles in zip(lanes, per_lane, lane_cycles)
        ]

    def _emit(
        self,
        window_cycles: int,
        matrix: np.ndarray,
        design: str,
        estimator: str,
        clock_mhz: float,
        cycles: int,
        notes: Optional[Dict[str, object]],
    ) -> "PowerProfile":
        total_cycles = int(cycles)
        if total_cycles > self.cycles:
            raise ValueError(
                f"lane reports {total_cycles} cycles but the collector only "
                f"observed {self.cycles}"
            )
        n_windows = -(-total_cycles // window_cycles) if total_cycles else 0
        return PowerProfile(
            design=design,
            estimator=estimator,
            clock_mhz=float(clock_mhz),
            cycles=total_cycles,
            window_cycles=window_cycles,
            component_names=list(self.names),
            component_types=list(self.types),
            energy_fj=np.asarray(matrix[:n_windows], dtype=np.float64).tolist(),
            notes=dict(notes or {}),
        )


@dataclass
class PowerProfile:
    """An ``(n_windows × n_components)`` energy matrix with analysis views.

    Window ``w`` covers cycles ``[w * window_cycles, min((w+1) *
    window_cycles, cycles))`` — every window spans ``window_cycles`` cycles
    except possibly the last, so per-window powers are normalized by each
    window's actual span.  The matrix rows sum (over windows) to each
    component's total energy, and the whole matrix sums to the report's
    ``total_energy_fj``.
    """

    design: str
    estimator: str
    clock_mhz: float
    cycles: int
    window_cycles: int
    component_names: List[str]
    component_types: List[str]
    #: ``energy_fj[window][component]`` in fJ
    energy_fj: List[List[float]]
    notes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.component_names) != len(self.component_types):
            raise ValueError("component names and types must align")
        # one C-level pass: lane blocks emit hundreds of profiles per run
        widths = set(map(len, self.energy_fj)) - {len(self.component_names)}
        if widths:
            raise ValueError(
                f"profile row has {widths.pop()} entries for "
                f"{len(self.component_names)} components"
            )

    # ----------------------------------------------------------- geometry
    @property
    def n_windows(self) -> int:
        return len(self.energy_fj)

    @property
    def n_components(self) -> int:
        return len(self.component_names)

    def window_bounds(self, window: int) -> Tuple[int, int]:
        """``(start_cycle, end_cycle)`` covered by one window."""
        start = window * self.window_cycles
        return start, min(start + self.window_cycles, self.cycles)

    def _window_spans(self) -> np.ndarray:
        spans = np.full(self.n_windows, float(self.window_cycles))
        if self.n_windows:
            start, end = self.window_bounds(self.n_windows - 1)
            spans[-1] = max(end - start, 1)
        return spans

    def _matrix(self) -> np.ndarray:
        if not self.energy_fj:
            return np.zeros((0, self.n_components), dtype=np.float64)
        return np.asarray(self.energy_fj, dtype=np.float64)

    # ------------------------------------------------------------- energy
    def total_energy_fj(self) -> float:
        return float(self._matrix().sum())

    def component_energy_fj(self) -> Dict[str, float]:
        totals = self._matrix().sum(axis=0)
        return {
            name: float(totals[i]) if self.n_windows else 0.0
            for i, name in enumerate(self.component_names)
        }

    def component_series(self, name: str) -> List[float]:
        """One component's energy per window."""
        try:
            column = self.component_names.index(name)
        except ValueError:
            raise KeyError(
                f"component {name!r} is not in this profile"
            ) from None
        return [float(row[column]) for row in self.energy_fj]

    def window_energy_fj(self) -> List[float]:
        return [float(v) for v in self._matrix().sum(axis=1)]

    # -------------------------------------------------------------- power
    def _to_mw(self, energy_fj: float, cycles: float) -> float:
        if cycles <= 0:
            return 0.0
        return energy_fj / cycles * self.clock_mhz * 1e-6

    def window_power_mw(self) -> List[float]:
        spans = self._window_spans()
        return [
            self._to_mw(energy, span)
            for energy, span in zip(self._matrix().sum(axis=1), spans)
        ]

    def mean_power_mw(self) -> float:
        return self._to_mw(self.total_energy_fj(), self.cycles)

    def peak_window(self) -> Optional[int]:
        powers = self.window_power_mw()
        if not powers:
            return None
        return int(np.argmax(powers))

    def peak_power_mw(self) -> float:
        powers = self.window_power_mw()
        return max(powers) if powers else 0.0

    def power_by_type_mw(self) -> Dict[str, List[float]]:
        """Per-type average power per window (the stacked-counter series)."""
        matrix = self._matrix()
        spans = self._window_spans()
        series: Dict[str, np.ndarray] = {}
        for column, kind in enumerate(self.component_types):
            acc = series.setdefault(
                kind, np.zeros(self.n_windows, dtype=np.float64)
            )
            acc += matrix[:, column]
        return {
            kind: [self._to_mw(e, s) for e, s in zip(values, spans)]
            for kind, values in sorted(series.items())
        }

    def energy_by_type(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        column_totals = self._matrix().sum(axis=0)
        for i, kind in enumerate(self.component_types):
            energy = float(column_totals[i]) if self.n_windows else 0.0
            totals[kind] = totals.get(kind, 0.0) + energy
        return totals

    # ------------------------------------------------------------ hotspots
    def top_components(self, n: int = 5) -> List[Dict[str, object]]:
        """The ``n`` largest consumers with share and their peak window."""
        matrix = self._matrix()
        totals = self.component_energy_fj()
        grand = sum(totals.values())
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:n]
        out = []
        for name, energy in ranked:
            column = self.component_names.index(name)
            series = matrix[:, column] if self.n_windows else np.zeros(0)
            out.append({
                "name": name,
                "component_type": self.component_types[column],
                "energy_fj": energy,
                "share": energy / grand if grand > 0 else 0.0,
                "average_power_mw": self._to_mw(energy, self.cycles),
                "peak_window": int(np.argmax(series)) if series.size else None,
            })
        return out

    def peak_windows(self, n: int = 3) -> List[Dict[str, object]]:
        """The ``n`` highest-power windows, each with its top component."""
        matrix = self._matrix()
        powers = self.window_power_mw()
        order = sorted(range(len(powers)), key=lambda w: -powers[w])[:n]
        out = []
        for window in order:
            start, end = self.window_bounds(window)
            row = matrix[window]
            top = int(np.argmax(row)) if row.size else None
            out.append({
                "window": window,
                "start_cycle": start,
                "end_cycle": end,
                "power_mw": powers[window],
                "energy_fj": float(row.sum()),
                "top_component": (
                    self.component_names[top] if top is not None else None
                ),
            })
        return out

    def hotspots(self, top_k: int = 5) -> Dict[str, object]:
        """The full hotspot report as one JSON-serializable dict."""
        return {
            "design": self.design,
            "estimator": self.estimator,
            "cycles": self.cycles,
            "window_cycles": self.window_cycles,
            "n_windows": self.n_windows,
            "total_energy_fj": self.total_energy_fj(),
            "mean_power_mw": self.mean_power_mw(),
            "peak_power_mw": self.peak_power_mw(),
            "peak_window": self.peak_window(),
            "top_components": self.top_components(top_k),
            "peak_windows": self.peak_windows(min(top_k, 3)),
            "energy_by_type": self.energy_by_type(),
        }

    # ----------------------------------------------------------- rebinning
    def rebin(self, window_cycles: int) -> "PowerProfile":
        """The same profile at a coarser window (an exact multiple)."""
        if window_cycles == self.window_cycles:
            return self
        if window_cycles <= 0 or window_cycles % self.window_cycles:
            raise ValueError(
                f"rebin window must be a positive multiple of "
                f"{self.window_cycles}, got {window_cycles}"
            )
        group = window_cycles // self.window_cycles
        matrix = self._matrix()
        merged = [
            matrix[i:i + group].sum(axis=0)
            for i in range(0, self.n_windows, group)
        ]
        return dataclasses.replace(
            self,
            window_cycles=window_cycles,
            energy_fj=[[float(e) for e in row] for row in merged],
        )

    # -------------------------------------------------------- trace export
    def counter_events(
        self,
        t0_us: float,
        t1_us: float,
        pid: Optional[int] = None,
        tid: int = 0,
    ) -> List[dict]:
        """Chrome ``"C"`` counter events mapping windows onto ``[t0, t1]``.

        The simulated run's cycle axis is spread linearly over the given
        wall-clock interval (microseconds), so the power series lands under
        the very span that produced it in a ``--trace`` timeline.  One
        stacked counter carries per-type power; a closing zero sample ends
        the series at ``t1``.
        """
        if pid is None:
            pid = os.getpid()
        name = f"power_mw:{self.design}"
        span_us = max(t1_us - t0_us, float(self.n_windows) or 1.0)
        by_type = self.power_by_type_mw()
        events: List[dict] = []
        for window in range(self.n_windows):
            start, _ = self.window_bounds(window)
            ts = t0_us + span_us * (start / self.cycles if self.cycles else 0.0)
            events.append({
                "name": name,
                "cat": "repro.power",
                "ph": "C",
                "ts": int(ts),
                "pid": pid,
                "tid": tid,
                "args": {
                    kind: round(series[window], 6)
                    for kind, series in by_type.items()
                },
            })
        if events:
            events.append({
                "name": name,
                "cat": "repro.power",
                "ph": "C",
                "ts": int(t0_us + span_us),
                "pid": pid,
                "tid": tid,
                "args": {kind: 0.0 for kind in by_type},
            })
        return events

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "estimator": self.estimator,
            "clock_mhz": self.clock_mhz,
            "cycles": self.cycles,
            "window_cycles": self.window_cycles,
            "component_names": list(self.component_names),
            "component_types": list(self.component_types),
            "energy_fj": [list(row) for row in self.energy_fj],
            "notes": dict(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PowerProfile":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PowerProfile":
        return cls.from_dict(json.loads(text))

    # ----------------------------------------------------------- rendering
    def table(self, top_k: int = 8, width: int = 48) -> str:
        """Human-readable hotspot report with an ASCII power timeline."""
        peak = self.peak_power_mw()
        peak_w = self.peak_window()
        lines = [
            f"power profile — {self.design} [{self.estimator}]",
            f"  {self.cycles} cycles @ {self.clock_mhz:.0f} MHz in "
            f"{self.n_windows} windows × {self.window_cycles} cycles",
            f"  mean {self.mean_power_mw():.4f} mW   peak "
            f"{peak:.4f} mW"
            + (
                f" (window {peak_w}, cycles "
                f"{self.window_bounds(peak_w)[0]}-{self.window_bounds(peak_w)[1]})"
                if peak_w is not None
                else ""
            ),
        ]
        powers = self.window_power_mw()
        if powers and peak > 0:
            lines.append("")
            lines.append("  power over time (each row = one window):")
            shown = powers
            stride = 1
            if len(powers) > 24:
                stride = -(-len(powers) // 24)
                shown = [
                    max(powers[i:i + stride])
                    for i in range(0, len(powers), stride)
                ]
            for i, value in enumerate(shown):
                start = i * stride * self.window_cycles
                bar = "#" * max(int(round(value / peak * width)), 0)
                lines.append(f"  {start:>8d} |{bar:<{width}s}| {value:8.4f} mW")
        lines.append("")
        lines.append(
            f"  {'component':32s} {'type':14s} {'energy (fJ)':>14s} "
            f"{'share':>7s} {'peak win':>9s}"
        )
        for row in self.top_components(top_k):
            lines.append(
                f"  {row['name']:32.32s} {row['component_type']:14s} "
                f"{row['energy_fj']:14.1f} {row['share']:6.1%} "
                f"{str(row['peak_window']):>9s}"
            )
        by_type = self.energy_by_type()
        total = sum(by_type.values())
        if total > 0:
            shares = ", ".join(
                f"{kind} {energy / total:.1%}"
                for kind, energy in sorted(by_type.items(), key=lambda kv: -kv[1])
            )
            lines.append(f"  by type: {shares}")
        return "\n".join(lines)
