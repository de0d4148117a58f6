"""Declarative testbench bases: one declaration, a scalar and a lane form.

The registry testbenches follow two patterns, and each pattern is a base
class here.  A subclass only declares its workload as data; the scalar
``drive``/``check``/``finished`` (one simulator, or one
:class:`~repro.sim.batch.LaneView`) and the lane form (a whole
:class:`~repro.sim.batch.BatchSimulator` lane block, see
:meth:`~repro.sim.testbench.Testbench.lanes`) are both derived from that
one declaration:

* :class:`StreamTestbench` streams per-cycle input vectors and compares the
  outputs against golden values.  Its lane form lowers the declaration once
  to whole-run input rows, the output rows a check reads and golden arrays:
  a native lane block runs it to completion (one kernel ``run`` call per
  segment, then one vectorized check over the segment's captured outputs),
  and the per-cycle loop writes one cycle's rows and checks one cycle with
  the same check.
* :class:`JobsTestbench` runs a list of jobs through a ``start``/``done``
  handshake, with per-job input values and memory preloads.  Its lane form
  drives the ``start`` row, reads the ``done`` row and does per-lane work
  only on the rare done events: verify the job, load the next one.

Lane-form memory preloads write the lane memory holder's ``(depth, lanes)``
array (:class:`~repro.sim.batch.LaneMemoryState`) directly; a memory the
lane program keeps no such array for raises
:class:`~repro.sim.batch.LaneStateError`, so callers fall back to per-seed
scalar runs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.batch import LIMB_BITS, _LIMB_MASK, LaneMemoryState, LaneStateError
from repro.sim.testbench import Testbench

#: the handshake ports of a job testbench
START = "start"
DONE = "done"


def find_memory(module, suffix: str):
    """The memory component whose name ends in ``suffix`` (a memory keeps
    its name through flatten() and instrumentation prefixes)."""
    for name, component in module.components.items():
        if component.type_name == "memory" and name.endswith(suffix):
            return component
    raise KeyError(f"memory {suffix!r} not found in simulated module")


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


class StreamTestbench(Testbench):
    """Streams declared inputs, one item per cycle, and checks golden outputs.

    A subclass declares:

    * ``streams`` (constructor) — per input port, one value per item (a
      sequence, or an int64 array kept as it is), or one int driven with
      every item;
    * ``idle`` — inputs driven on every cycle after the last item;
    * :meth:`reference` — the golden value of every item per checked output
      (the scalar oracle); :meth:`golden_lanes` is its block form;
    * ``latency`` — cycles from driving an item to its outputs; ``gate`` —
      an output that must be 1 for a cycle to be checked (``None``: always);
    * ``tail`` — the run finishes ``tail`` cycles after the last item.
    """

    idle: Mapping[str, int] = {}
    latency = 0
    gate: Optional[str] = None
    tail = 0
    #: what one item is called in mismatch messages
    item = "item"

    def __init__(self, streams: Mapping[str, Union[int, Sequence[int], np.ndarray]],
                 name: str) -> None:
        super().__init__(name)
        self.streams = {
            port: values if isinstance(values, (int, np.ndarray)) else list(values)
            for port, values in streams.items()
        }
        lengths = {len(v) for v in self.streams.values() if not isinstance(v, int)}
        if len(lengths) != 1:
            raise ValueError("streams need one common length")
        self.n_items = lengths.pop()
        self._checked = 0
        self._golden: Dict[str, Sequence[int]] = {}

    def reference(self) -> Dict[str, Sequence[int]]:
        """Golden value of every item, per checked output port."""
        raise NotImplementedError

    @classmethod
    def golden_lanes(cls, testbenches: Sequence["StreamTestbench"],
                     streams: Mapping[str, np.ndarray],
                     n_items: int) -> Dict[str, np.ndarray]:
        """Golden values of the first ``n_items`` items of every lane, as
        ``(n_items, lanes)`` arrays per output.  ``streams`` holds the
        per-item input streams as ``(>= n_items, lanes)`` arrays.  The
        default stacks each lane's :meth:`reference`; a subclass may compute
        all lanes at once instead."""
        references = [tb.reference() for tb in testbenches]
        return {
            port: np.array([ref[port][:n_items] for ref in references]).T.copy()
            for port in references[0]
        }

    # ------------------------------------------------------------ scalar form
    def bind(self, simulator) -> None:
        self._checked = 0
        self._golden = self.reference()

    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        if cycle >= self.n_items:
            return self.idle
        return {
            port: values if isinstance(values, int) else int(values[cycle])
            for port, values in self.streams.items()
        }

    def check(self, cycle: int, simulator) -> None:
        item = cycle - self.latency
        if not 0 <= item < self.n_items:
            return
        if self.gate is not None and not simulator.get_output(self.gate):
            return
        for port, values in self._golden.items():
            got = simulator.get_output(port)
            assert got == values[item], (
                f"cycle {cycle}: {self.item} {item} output {port}: "
                f"expected {values[item]}, got {got}"
            )
        self._checked += 1

    def finished(self, cycle: int, simulator) -> bool:
        return cycle + 1 >= self.n_items + self.tail

    # -------------------------------------------------------------- lane form
    @classmethod
    def lanes(cls, testbenches, simulator, cycles: Optional[int] = None):
        if len({tb.n_items for tb in testbenches}) > 1:
            return super().lanes(testbenches, simulator, cycles)
        return _StreamLanes(cls, testbenches, simulator, cycles)


def _limb_rows(values, width: int, n_limbs: int) -> list:
    """``values`` (an int or an array) as the int64 rows the lane store keeps
    a ``width``-bit port in, masked as :meth:`BatchSimulator.set_input` masks:
    one row, or one per limb of a limb-store port."""
    mask = (1 << width) - 1
    if n_limbs == 1:
        return [int(values) & mask if isinstance(values, int)
                else np.asarray(values).astype(np.int64) & mask]
    masked = values & mask if isinstance(values, int) else np.asarray(values, dtype=object) & mask
    return [(masked >> (LIMB_BITS * k)) & _LIMB_MASK for k in range(n_limbs)]


class _StreamLanes:
    """Lane form of a block of one :class:`StreamTestbench` type.

    The declaration lowers once, over only the cycles the budget reaches, to
    a whole-run ``(n_cycles, input rows, lanes)`` int64 array (stream
    values, constants, and the ``idle`` values from ``n_items`` on;
    limb-store ports one row per limb), the store rows those rows go to
    (:attr:`slots`), the store rows of the outputs a check reads
    (:attr:`capture`: the gate, then every golden output) and
    ``(items, lanes)`` golden arrays.  A native lane block runs it to
    completion: the estimator hands segments of :meth:`rows_at` to the
    kernel's ``run`` and checks each segment's captured output rows with
    one :meth:`check_rows`.  The per-cycle :meth:`drive` and :meth:`check`
    (the ``off`` backend) write one cycle's rows and call the same
    :meth:`check_rows` on one cycle's outputs.
    """

    name = "stream"

    def __init__(self, kind, testbenches, simulator, cycles: Optional[int]) -> None:
        self.testbenches = list(testbenches)
        self.simulator = simulator
        n_items = testbenches[0].n_items
        self.latency, self.gate, self.item = kind.latency, kind.gate, kind.item
        # a run lasts at least one cycle, as the per-cycle loop does
        finish = max(n_items + kind.tail, 1)
        self.n_cycles = finish if cycles is None else min(finish, cycles)
        n_rows = min(n_items, self.n_cycles)
        declared = testbenches[0].streams
        # ``(rows, lanes)`` values of the varying ports, one stack per port
        streams = {
            port: np.stack([tb.streams[port][:n_rows] for tb in testbenches], axis=1)
            for port, values in declared.items() if not isinstance(values, int)
        }
        ports = list(declared) + [port for port in kind.idle if port not in declared]
        port_limbs, v = simulator._port_limbs, simulator._v
        keys = [simulator._input_port(port) for port in ports]
        #: the store row of each input row of :meth:`rows_at`
        self.slots = np.array([slot + k for port, (slot, _) in zip(ports, keys)
                               for k in range(port_limbs[port])], dtype=np.int64)
        self.rows = np.empty((self.n_cycles, len(self.slots), len(testbenches)),
                             dtype=np.int64)
        row = 0
        for port, (slot, width) in zip(ports, keys):
            n_limbs = port_limbs[port]
            if port in streams:
                head = _limb_rows(streams[port], width, n_limbs)
            elif port in declared:
                head = _limb_rows(np.array([tb.streams[port] for tb in testbenches]),
                                  width, n_limbs)
            else:  # driven only when idle: holds its reset value until then
                head = [v[slot + k] for k in range(n_limbs)]
            idle = (_limb_rows(kind.idle[port], width, n_limbs)
                    if port in kind.idle else None)
            for k in range(n_limbs):
                column = self.rows[:, row + k]
                column[:n_rows] = head[k]
                if n_rows < self.n_cycles:
                    # after the last item: the idle value, else the held one
                    column[n_rows:] = (idle[k] if idle is not None
                                       else column[n_rows - 1] if n_rows else v[slot + k])
            row += n_limbs
        self.n_checked = n_items if cycles is None else max(
            0, min(n_items, cycles - self.latency))
        self._golden = kind.golden_lanes(testbenches, streams, self.n_checked)
        self._capture_ports = list(self._golden)
        if self.gate is not None:
            self._capture_ports.insert(0, self.gate)
        outputs = simulator._output_keys
        #: store rows of the gate and the golden outputs; None when one is a
        #: limb-store port, which only the per-cycle loop reads
        self.capture = (
            None if any(port_limbs[port] > 1 for port in self._capture_ports)
            else np.array([outputs[port] for port in self._capture_ports], dtype=np.int64))
        self._checked = np.zeros(len(self.testbenches), dtype=np.int64)

    def rows_at(self, cycle: int) -> np.ndarray:
        """The input rows from ``cycle`` to the end of the run."""
        return self.rows[cycle:]

    def check_rows(self, first_cycle: int, captured: np.ndarray, stop: np.ndarray) -> None:
        """Check the outputs of cycles ``first_cycle, first_cycle + 1, ...``.

        ``captured[k]`` holds the settled values of the capture ports (the
        gate, then every golden output) on cycle ``first_cycle + k``; lane
        ``l`` is checked on the cycles below ``stop[l]``.  The first failure
        in the per-cycle loop's order (earliest cycle, then output, then
        lowest lane) raises; every lane counts the cycles it checked.
        """
        lo = max(first_cycle, self.latency)
        hi = min(first_cycle + len(captured), self.latency + self.n_checked)
        if lo >= hi:
            return
        outputs = captured[lo - first_cycle:hi - first_cycle]
        mask = np.arange(lo, hi)[:, None] < stop
        if self.gate is not None:
            mask &= outputs[:, 0] != 0
        if self._golden:
            # (cycles, outputs, lanes) in C order is the loop's check order
            items = slice(lo - self.latency, hi - self.latency)
            got = outputs[:, self.gate is not None:]
            want = np.stack([golden[items] for golden in self._golden.values()], axis=1)
            bad = (got != want) & mask[:, None]
            if bad.any():
                k, p, lane = np.unravel_index(np.argmax(bad), bad.shape)
                raise AssertionError(
                    f"lane {lane} cycle {lo + k}: {self.item} {lo + k - self.latency} "
                    f"output {list(self._golden)[p]}: expected {want[k, p, lane]}, "
                    f"got {got[k, p, lane]}"
                )
        self._checked += mask.sum(axis=0)

    def drive(self, cycle: int, active: np.ndarray) -> None:
        if cycle < self.n_cycles:
            self.simulator._v[self.slots] = self.rows[cycle]

    def check(self, cycle: int, active: np.ndarray) -> bool:
        if self.capture is not None:
            captured = self.simulator._v[self.capture][None]
        else:
            get_output = self.simulator.get_output
            captured = np.array([[get_output(port) for port in self._capture_ports]],
                                dtype=object)
        # lane l is checked on this cycle while it is active
        self.check_rows(cycle, captured, cycle + active)
        return cycle + 1 >= self.n_cycles

    def close(self) -> None:
        for testbench, checked in zip(self.testbenches, self._checked.tolist()):
            testbench._checked = checked


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


class JobsTestbench(Testbench):
    """Runs ``n_jobs`` jobs through a ``start``/``done`` handshake.

    A subclass declares, per job ``j``:

    * :meth:`job_inputs` — input values held while job ``j`` runs
      (``j == n_jobs``: the inputs held after the last job);
    * :meth:`job_memories` — memory preloads ``(name suffix, offset, words)``;
    * :meth:`verify` — checks job ``j`` on the cycle ``done`` pulses, reading
      outputs and memories through ``dut.output(name)`` /
      ``dut.memory(suffix, count, offset)``; raises ``AssertionError``.

    Job 0's memories load before the run.  Each job starts with a one-cycle
    ``start`` pulse; on its done cycle it is verified and the next job's
    memories load (after the check, before the clock edge), and the next
    job starts on the following cycle.  The run finishes on the last job's
    done cycle.
    """

    def __init__(self, n_jobs: int, name: str) -> None:
        super().__init__(name)
        self.n_jobs = n_jobs
        self._job = 0
        self._started = False
        self._checked = 0
        self._held: Mapping[str, int] = {}

    def job_inputs(self, job: int) -> Mapping[str, int]:
        return {}

    def job_memories(self, job: int) -> Sequence[Tuple[str, int, Sequence[int]]]:
        return ()

    def verify(self, job: int, dut) -> None:
        raise NotImplementedError

    def _restart(self) -> None:
        self._job = 0
        self._started = False
        self._checked = 0

    # ------------------------------------------------------------ scalar form
    def _hold(self) -> None:
        self._held = {**self.job_inputs(self._job), START: 0}

    def _load(self, simulator) -> None:
        for suffix, offset, words in self.job_memories(self._job):
            find_memory(simulator.module, suffix).load(words, offset)

    def bind(self, simulator) -> None:
        self._restart()
        self._hold()
        if self.n_jobs:
            self._load(simulator)

    def drive(self, cycle: int, simulator) -> Mapping[str, int]:
        if self._started or self._job >= self.n_jobs:
            return self._held
        self._started = True
        return {**self._held, START: 1}

    def check(self, cycle: int, simulator) -> None:
        if self._started and simulator.get_output(DONE):
            self.verify(self._job, _SimulatorResults(simulator))
            self._checked += 1
            self._job += 1
            self._started = False
            self._hold()
            if self._job < self.n_jobs:
                self._load(simulator)

    def finished(self, cycle: int, simulator) -> bool:
        return self._job >= self.n_jobs

    # -------------------------------------------------------------- lane form
    @classmethod
    def lanes(cls, testbenches, simulator, cycles: Optional[int] = None):
        return _JobLanes(testbenches, simulator)


class _SimulatorResults:
    """A job's results as a scalar simulator (or a LaneView) holds them."""

    def __init__(self, simulator) -> None:
        self.simulator = simulator

    def output(self, name: str) -> int:
        return self.simulator.get_output(name)

    def memory(self, suffix: str, count: int, offset: int = 0) -> List[int]:
        memory = find_memory(self.simulator.module, suffix)
        return [memory.read_word(offset + i) for i in range(count)]


class _LaneResults:
    """A job's results as one lane of a lane block holds them."""

    def __init__(self, lanes: "_JobLanes", lane: int) -> None:
        self.lanes = lanes
        self.lane = lane

    def output(self, name: str) -> int:
        return int(self.lanes.simulator.get_output(name)[self.lane])

    def memory(self, suffix: str, count: int, offset: int = 0) -> List[int]:
        holder, _ = self.lanes.holder(suffix)
        return holder.mem[offset:offset + count, self.lane].tolist()


class _JobLanes:
    """Lane form of a block of one :class:`JobsTestbench` type.

    Per cycle: one read of the ``done`` row, and one ``start`` row write
    while a pulse is due.  Per-lane Python runs only on done events, and on
    the cycle after one, to drive the next job's inputs.  The lanes' job
    indices and check counts live on their own testbenches, as in a scalar
    run.
    """

    name = "jobs"
    #: done events need Python: no run to completion
    capture = None

    def __init__(self, testbenches, simulator) -> None:
        self.testbenches = list(testbenches)
        self.simulator = simulator
        self._holders: Dict[str, Tuple[LaneMemoryState, int]] = {}
        n = len(self.testbenches)
        self._started = np.zeros(n, dtype=bool)
        self._finished = np.array([tb.n_jobs == 0 for tb in self.testbenches])
        #: lanes whose job inputs (and start pulse) the next drive writes
        self._refresh = list(range(n))
        self._pulsing = False
        for lane, testbench in enumerate(self.testbenches):
            testbench._restart()
            if testbench.n_jobs:
                self._load(lane, testbench)

    def holder(self, suffix: str) -> Tuple[LaneMemoryState, int]:
        """A memory's per-lane storage holder and its word mask."""
        if suffix not in self._holders:
            component = find_memory(self.simulator.module, suffix)
            holder = self.simulator.program.holders.get(component)
            if not isinstance(holder, LaneMemoryState):
                raise LaneStateError(
                    f"memory {component.name!r} keeps no per-lane storage array; "
                    f"its preloads cannot run on the lane path"
                )
            self._holders[suffix] = (holder, (1 << component.width) - 1)
        return self._holders[suffix]

    def _load(self, lane: int, testbench: JobsTestbench) -> None:
        for suffix, offset, words in testbench.job_memories(testbench._job):
            holder, mask = self.holder(suffix)
            holder.mem[offset:offset + len(words), lane] = (
                np.asarray(words, dtype=np.int64) & mask)

    def drive(self, cycle: int, active: np.ndarray) -> None:
        if self._refresh:
            start = np.zeros(len(self.testbenches), dtype=np.int64)
            for lane in self._refresh:
                testbench = self.testbenches[lane]
                self.simulator.set_lane_inputs(lane, testbench.job_inputs(testbench._job))
                start[lane] = testbench._job < testbench.n_jobs
            self._refresh = []
            self.simulator.set_input(START, start)
            self._started |= start != 0
            self._pulsing = True
        elif self._pulsing:
            self.simulator.set_input(START, 0)
            self._pulsing = False

    def check(self, cycle: int, active: np.ndarray) -> np.ndarray:
        done = self.simulator.get_output(DONE)
        if done.any():
            for lane in np.flatnonzero((done != 0) & active & self._started).tolist():
                self._complete(lane, cycle)
        return self._finished

    def _complete(self, lane: int, cycle: int) -> None:
        testbench = self.testbenches[lane]
        job = testbench._job
        try:
            testbench.verify(job, _LaneResults(self, lane))
        except AssertionError as error:
            raise AssertionError(f"lane {lane} cycle {cycle}: job {job}: {error}") from None
        testbench._checked += 1
        testbench._job += 1
        self._started[lane] = False
        if testbench._job < testbench.n_jobs:
            self._load(lane, testbench)
            self._refresh.append(lane)
        else:
            self._finished[lane] = True

    def close(self) -> None:
        return None
