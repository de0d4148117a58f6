"""Testbench abstractions for driving simulations and emulations.

A testbench produces the input stimulus for a design cycle by cycle and can
check outputs along the way.  The same testbench object drives

* functional RTL simulation (:class:`repro.sim.engine.Simulator`),
* software RTL power estimation (the estimator wraps a simulator),
* the emulation platform model (:mod:`repro.core.emulator`), mirroring the
  paper's setup where "the testbench can be executed within a simulator, or it
  can be mapped to the FPGA platform along with the design itself".

On a :class:`~repro.sim.batch.BatchSimulator` a block of testbenches runs
through one *lane form* (:meth:`Testbench.lanes`): an object built once per
lane block that drives, checks and finishes every lane per cycle.  The
default, :class:`LaneLoop`, calls each lane's own testbench through a
:class:`~repro.sim.batch.LaneView`; testbench types that declare their
workload as data (:mod:`repro.sim.declarative`, the stimulus-spec driver)
replace it with whole-block NumPy row operations.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

#: scalar protocol methods; a subclass redefining any of them without its
#: own lane form falls back to the per-lane loop (see __init_subclass__)
_SCALAR_PROTOCOL = frozenset({"bind", "drive", "check", "finished"})


class Testbench:
    """Base class: override :meth:`drive` and optionally :meth:`check`/:meth:`finished`."""

    #: default cycle budget when the testbench has no natural termination
    max_cycles: Optional[int] = None

    def __init__(self, name: str = "testbench") -> None:
        self.name = name
        self._captured: Dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # an inherited lane form never calls the subclass's new methods
        if "lanes" not in cls.__dict__ and _SCALAR_PROTOCOL & cls.__dict__.keys():
            cls.lanes = Testbench.__dict__["lanes"]

    @classmethod
    def lanes(cls, testbenches: Sequence["Testbench"], simulator,
              cycles: Optional[int] = None) -> "LaneLoop":
        """The lane form of a block of this type's testbenches, one per lane.

        ``cycles`` bounds how many cycles any lane can run (``None``: no
        bound).  The default runs each testbench through its lane's
        :class:`~repro.sim.batch.LaneView`; subclasses that declare their
        workload as data return a whole-block form instead.
        """
        return LaneLoop(testbenches, simulator)

    def bind(self, simulator) -> None:
        """Called once before the run starts; override to initialize memories etc."""
        return None

    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        """Return the input values to apply at this cycle (may be empty)."""
        return {}

    def check(self, cycle: int, simulator) -> None:
        """Inspect settled outputs; raise ``AssertionError`` on mismatch."""
        return None

    def finished(self, cycle: int, simulator) -> bool:
        """Return True when the workload is complete (checked after settle)."""
        return False

    def captured(self) -> Dict[str, object]:
        """Data captured during the run (results read from the DUT, errors, ...)."""
        return dict(self._captured)

    def capture(self, key: str, value) -> None:
        self._captured[key] = value


def lane_form(testbenches: Sequence[Testbench], simulator,
              cycles: Optional[int] = None):
    """The lane form running ``testbenches`` (lane ``i`` = ``testbenches[i]``).

    Testbenches of one type run through that type's :meth:`Testbench.lanes`;
    a mix of types runs through the per-lane :class:`LaneLoop`.
    """
    kind = type(testbenches[0])
    if any(type(tb) is not kind for tb in testbenches):
        kind = Testbench
    return kind.lanes(testbenches, simulator, cycles)


class LaneLoop:
    """The default lane form: each lane's own testbench, called per lane.

    Every lane form offers the same protocol to the lane estimator's cycle
    loop: ``drive(cycle, active)`` writes this cycle's inputs, then, after
    the settle, ``check(cycle, active)`` checks the settled outputs and
    returns which lanes finish (a bool or a per-lane bool array);
    ``close()`` runs once after the last cycle.  ``active`` masks the lanes
    still running.  Here each active lane's testbench runs its scalar
    ``drive``/``check``/``finished`` against a
    :class:`~repro.sim.batch.LaneView` — O(lanes) Python calls per cycle,
    the path for testbenches that declare no lane form of their own.

    A lane form whose inputs and stop cycles are known up front can also
    run to completion on a native kernel: it offers ``n_cycles`` (its last
    cycle), ``slots`` and ``rows_at(cycle)`` (its input rows, as
    :meth:`repro.stim.driver.BatchStimulusDriver.rows_at` returns them),
    ``capture`` (the store rows its check reads, an int64 array) and
    ``check_rows(first_cycle, captured, stop)``, which checks a segment of
    captured rows.  ``capture`` is ``None`` on a form that cannot.
    """

    #: reported as the lane reports' ``stimulus_driver`` note
    name = "lane-view"
    #: each lane's testbench runs as Python: no run to completion
    capture = None

    def __init__(self, testbenches: Sequence[Testbench], simulator) -> None:
        self.testbenches = list(testbenches)
        self.simulator = simulator
        self.views = [simulator.lane_view(lane) for lane in range(len(self.testbenches))]
        for testbench, view in zip(self.testbenches, self.views):
            testbench.bind(view)

    def drive(self, cycle: int, active: np.ndarray) -> None:
        write = self.simulator.set_lane_inputs
        for lane in np.flatnonzero(active).tolist():
            stimulus = self.testbenches[lane].drive(cycle, self.views[lane])
            if stimulus:
                write(lane, stimulus)

    def check(self, cycle: int, active: np.ndarray) -> np.ndarray:
        done = np.zeros(len(self.testbenches), dtype=bool)
        for lane in np.flatnonzero(active).tolist():
            testbench, view = self.testbenches[lane], self.views[lane]
            testbench.check(cycle, view)
            done[lane] = testbench.finished(cycle, view)
        return done

    def close(self) -> None:
        return None


class VectorTestbench(Testbench):
    """Applies a pre-computed list of input vectors, one per cycle."""

    def __init__(
        self,
        vectors: Sequence[Mapping[str, int]],
        name: str = "vectors",
        hold_last: bool = False,
        extra_cycles: int = 0,
    ) -> None:
        super().__init__(name)
        self.vectors = [dict(v) for v in vectors]
        self.hold_last = hold_last
        self.extra_cycles = extra_cycles
        self.max_cycles = len(self.vectors) + extra_cycles

    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        if cycle < len(self.vectors):
            return self.vectors[cycle]
        if self.hold_last and self.vectors:
            return self.vectors[-1]
        return {}

    def finished(self, cycle: int, simulator) -> bool:
        return cycle + 1 >= len(self.vectors) + self.extra_cycles


class CallbackTestbench(Testbench):
    """Wraps plain functions for quick ad-hoc testbenches."""

    def __init__(
        self,
        drive_fn: Callable[[int, object], Mapping[str, int]],
        n_cycles: int,
        check_fn: Optional[Callable[[int, object], None]] = None,
        name: str = "callback",
    ) -> None:
        super().__init__(name)
        self._drive_fn = drive_fn
        self._check_fn = check_fn
        self.n_cycles = n_cycles
        self.max_cycles = n_cycles

    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        return self._drive_fn(cycle, simulator)

    def check(self, cycle: int, simulator) -> None:
        if self._check_fn is not None:
            self._check_fn(cycle, simulator)

    def finished(self, cycle: int, simulator) -> bool:
        return cycle + 1 >= self.n_cycles


class RandomTestbench(Testbench):
    """Drives uniformly random values on the named input ports every cycle.

    Useful for power characterization and for stressing designs whose inputs
    are free-running data streams.
    """

    def __init__(
        self,
        n_cycles: int,
        input_widths: Optional[Mapping[str, int]] = None,
        seed: int = 0,
        hold: int = 1,
        name: str = "random",
    ) -> None:
        super().__init__(name)
        self.n_cycles = n_cycles
        self.max_cycles = n_cycles
        self.input_widths = dict(input_widths) if input_widths else None
        self.seed = seed
        #: apply a fresh random vector every ``hold`` cycles
        self.hold = max(1, hold)
        self._rng = random.Random(seed)
        self._current: Dict[str, int] = {}

    def bind(self, simulator) -> None:
        if self.input_widths is None:
            self.input_widths = {
                name: port.width
                for name, port in simulator.module.ports.items()
                if port.is_input
            }
        self._rng = random.Random(self.seed)
        self._current = {}

    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        if cycle % self.hold == 0 or not self._current:
            self._current = {
                name: self._rng.getrandbits(width)
                for name, width in (self.input_widths or {}).items()
            }
        return self._current

    def finished(self, cycle: int, simulator) -> bool:
        return cycle + 1 >= self.n_cycles
