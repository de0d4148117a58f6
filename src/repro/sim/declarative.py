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
  the same check.  A type that declares its streams as a function of seeds
  (``seeded_streams``) also lowers a :class:`SeededStreams` block straight
  from its seeds: every lane's random values come from one draw
  (:func:`repro.sim.kernels.draw_bits`, in the lane kernel when one is
  bound), and no per-lane testbench is built unless something asks for
  it.
* :class:`JobsTestbench` runs a list of jobs through a ``start``/``done``
  handshake, with per-job input values and memory preloads.  Its lane form
  lowers the jobs once to per-job input rows, preload words and per-lane
  job state that records each done job's outputs and memories.  A native
  lane block runs it to completion too (the kernel's ``run`` drives the
  handshake), the per-cycle loop runs the same handshake in NumPy over the
  same state, and either way the records are verified in the loop's order.

Lane-form memory preloads write the lane memory holder's ``(depth, lanes)``
array (:class:`~repro.sim.batch.LaneMemoryState`) directly: every memory of
a lane program has one.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.batch import LIMB_BITS, _LIMB_MASK, LaneMemoryState
from repro.sim.kernels import draw_bits
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
    * ``tail`` — the run finishes ``tail`` cycles after the last item;
      ``slack`` — the testbench's budget (``max_cycles``) is ``slack``
      cycles past the last item (``None``: no budget of its own).

    A type whose streams are a function of a seed may also declare
    ``seeded_streams(seeds, n_items, draw)``: the streams of one lane per
    seed, each port one int for every lane or an ``(n_items, lanes)``
    array, with its random values from ``draw(seeds, n, width)``
    (:func:`repro.sim.kernels.draw_bits`).  :meth:`from_seed` is then its
    one-lane case and :class:`SeededStreams` a block of it, so the scalar
    and the lane stimulus cannot drift apart.  Its :meth:`golden_lanes`
    should read only ``streams``: a seeded block builds the per-lane
    testbenches the default one stacks.
    """

    idle: Mapping[str, int] = {}
    latency = 0
    gate: Optional[str] = None
    tail = 0
    slack: Optional[int] = None
    #: what one item is called in mismatch messages
    item = "item"
    #: ``(seeds, n_items, draw) -> streams``, or None: not declared by seeds
    seeded_streams: Optional[Callable] = None

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
        self.max_cycles = None if self.slack is None else self.n_items + self.slack
        self._checked = 0
        self._golden: Dict[str, Sequence[int]] = {}

    @classmethod
    def from_seed(cls, seed, n_items: int) -> "StreamTestbench":
        """The testbench of ``seeded_streams`` for one seed."""
        streams = cls.seeded_streams([seed], n_items, draw_bits)
        return cls.from_streams({
            port: values if isinstance(values, int) else values[:, 0]
            for port, values in streams.items()
        })

    @classmethod
    def from_streams(cls, streams: Mapping[str, Union[int, np.ndarray]]) -> "StreamTestbench":
        """A testbench of one lane's declared streams (:meth:`from_seed`)."""
        raise NotImplementedError

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
        n_items = testbenches[0].n_items
        n_rows = min(n_items, _stream_cycles(cls, n_items, cycles))
        streams = {}
        for port, values in testbenches[0].streams.items():
            per_lane = [tb.streams[port] for tb in testbenches]
            streams[port] = (np.array(per_lane) if isinstance(values, int)
                             else np.stack([lane[:n_rows] for lane in per_lane], axis=1))
        return _StreamLanes(cls, list(testbenches), streams, n_items, simulator, cycles)


def _stream_cycles(kind, n_items: int, cycles: Optional[int]) -> int:
    """Cycles a stream lane block of ``n_items`` items runs under the bound
    ``cycles``: at least one, as the per-cycle loop runs."""
    finish = max(n_items + kind.tail, 1)
    return finish if cycles is None else min(finish, cycles)


class SeededStreams:
    """A lane block of one seeded :class:`StreamTestbench` type, one lane
    per seed: lane ``l`` is ``kind.from_seed(seeds[l], n_items)``.

    Pass it to :meth:`BatchRTLPowerEstimator.estimate_all
    <repro.power.lane_estimator.BatchRTLPowerEstimator.estimate_all>` in
    place of a list of testbenches: its lane form draws every lane's
    streams at once, only as many items as the cycle budget reaches, and
    lowers them straight to the block's rows and golden arrays.  A lane's
    testbench is built only when asked for (``block[lane]``), and after a
    run carries that lane's check count, which :attr:`checked` holds for
    every lane.
    """

    def __init__(self, kind, seeds: Sequence, n_items: int) -> None:
        if kind.seeded_streams is None:
            raise TypeError(f"{kind.__name__} declares no seeded_streams")
        self.kind = kind
        self.seeds = list(seeds)
        self.n_items = n_items
        #: every lane's budget, as its testbench's ``max_cycles``
        self.max_cycles = None if kind.slack is None else n_items + kind.slack
        #: items each lane checked in the last run (None: not run)
        self.checked: Optional[np.ndarray] = None
        self._built: Dict[int, StreamTestbench] = {}

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, lane: int) -> StreamTestbench:
        testbench = self._built.get(lane)
        if testbench is None:
            testbench = self._built[lane] = self.kind.from_seed(self.seeds[lane], self.n_items)
        if self.checked is not None:
            testbench._checked = int(self.checked[lane])
        return testbench

    def __iter__(self):
        return (self[lane] for lane in range(len(self)))

    def lanes(self, simulator, cycles: Optional[int] = None) -> "_StreamLanes":
        """The block's lane form, drawn in ``simulator``'s kernel when one
        is bound."""
        n_rows = min(self.n_items, _stream_cycles(self.kind, self.n_items, cycles))
        draw = partial(draw_bits, kernel=simulator.kernel)
        streams = self.kind.seeded_streams(self.seeds, n_rows, draw)
        return _StreamLanes(self.kind, self, streams, self.n_items, simulator, cycles)


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
    #: one row of inputs per cycle: no job handshake
    jobs = None

    def __init__(self, kind, testbenches, declared, n_items: int, simulator,
                 cycles: Optional[int]) -> None:
        # ``testbenches``: the lanes' testbenches, or a SeededStreams block;
        # ``declared``: per input port, the ``(rows, lanes)`` stream, or one
        # value per lane (an int: the same in every lane)
        self.testbenches = testbenches
        self.simulator = simulator
        self.latency, self.gate, self.item = kind.latency, kind.gate, kind.item
        self.n_cycles = _stream_cycles(kind, n_items, cycles)
        n_rows = min(n_items, self.n_cycles)
        # ``(rows, lanes)`` values of the varying ports
        streams = {port: values for port, values in declared.items()
                   if not isinstance(values, int) and values.ndim == 2}
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
                head = _limb_rows(declared[port], width, n_limbs)
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
        self._golden = kind.golden_lanes(self.testbenches, streams, self.n_checked)
        self._capture_ports = list(self._golden)
        if self.gate is not None:
            self._capture_ports.insert(0, self.gate)
        outputs = simulator._output_keys
        #: store rows of the gate and the golden outputs; None when one is a
        #: limb-store port, which only the per-cycle loop reads
        self.capture = (
            None if any(port_limbs[port] > 1 for port in self._capture_ports)
            else np.array([outputs[port] for port in self._capture_ports], dtype=np.int64))
        self._checked = np.zeros(len(testbenches), dtype=np.int64)

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
        if isinstance(self.testbenches, SeededStreams):
            self.testbenches.checked = self._checked
            return
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


class _RecordResults:
    """A job's results as recorded on its done cycle: every output, one
    entry per limb, then the whole of every memory."""

    def __init__(self, lanes: "_JobLanes", record: np.ndarray) -> None:
        self.lanes = lanes
        self.record = record

    def output(self, name: str) -> int:
        at, n_limbs = self.lanes._output_at[name]
        value = 0
        for k, limb in enumerate(self.record[at:at + n_limbs].tolist()):
            value |= limb << (LIMB_BITS * k)
        return value

    def memory(self, suffix: str, count: int, offset: int = 0) -> List[int]:
        holder, _ = self.lanes.holder(suffix)
        start, depth = self.lanes._memory_at[id(holder.mem)]
        return self.record[start:start + depth][offset:offset + count].tolist()


class _JobLanes:
    """Lane form of a block of one :class:`JobsTestbench` type.

    The jobs lower once into job state both lane programs run on: a
    ``(jobs + 1, input rows, lanes)`` table of the inputs held while each
    job runs (:meth:`rows_at`), each ``(lane, job)``'s preload words, per
    lane its job index, start pulse and started flag, and per ``(lane,
    job)`` the record its done writes (every output, one entry per limb,
    then every memory, whole) and the done cycle.  A native kernel's
    ``run`` drives the handshake over these arrays through a C ``job_plan``
    (:attr:`jobs`); the per-cycle loop runs its ``drive_jobs`` and
    ``finish_jobs`` in NumPy over them (:meth:`drive`, :meth:`check`), so
    a block whose kernel arrives mid-run continues fused where the loop
    stopped.  :meth:`check_rows` verifies the records in the loop's order
    (done cycle, then lane); job indices and check counts live on the
    lanes' own testbenches, as in a scalar run.
    """

    name = "jobs"

    def __init__(self, testbenches, simulator) -> None:
        self.testbenches = list(testbenches)
        self.simulator = simulator
        self._holders: Dict[str, Tuple[LaneMemoryState, int]] = {}
        for testbench in self.testbenches:
            testbench._restart()
        #: no per-cycle capture rows: each done records its own
        self.capture = np.zeros(0, dtype=np.int64)
        self._job_plan = None
        self._lower()

    def holder(self, suffix: str) -> Tuple[LaneMemoryState, int]:
        """A memory's per-lane storage holder and its word mask."""
        if suffix not in self._holders:
            component = find_memory(self.simulator.module, suffix)
            holder = self.simulator.program.holders[component]
            self._holders[suffix] = (holder, (1 << component.width) - 1)
        return self._holders[suffix]

    def _lower(self) -> None:
        """The job state (see the class docstring), with every lane's first
        job loaded; a preload outside its memory raises here."""
        simulator = self.simulator
        port_limbs, outputs = simulator._port_limbs, simulator._output_keys
        self._memories = memories = simulator.program.ir.mem_arrays()
        index_of = {id(array): index for index, array in enumerate(memories)}
        n_lanes = len(self.testbenches)
        n_jobs = np.array([tb.n_jobs for tb in self.testbenches], dtype=np.int64)
        top = self._top = int(n_jobs.max())

        # each (lane, job)'s preloads as (memory, offset, masked words),
        # (lane, job) by (lane, job), checked here; the kernel takes them as
        # (memory, address, word) entries in write order
        self._preloads: List[list] = []
        preload_at = [0]
        for lane, testbench in enumerate(self.testbenches):
            for job in range(top):
                loads = []
                for suffix, offset, words in (testbench.job_memories(job)
                                              if job < testbench.n_jobs else ()):
                    holder, mask = self.holder(suffix)
                    if not 0 <= offset <= offset + len(words) <= len(holder.mem):
                        raise ValueError(
                            f"lane {lane} job {job}: {len(words)} preload words at "
                            f"offset {offset} fall outside memory {suffix!r} of "
                            f"depth {len(holder.mem)}")
                    loads.append((index_of[id(holder.mem)], offset,
                                  np.asarray(words, dtype=np.int64) & mask))
                self._preloads.append(loads)
                preload_at.append(preload_at[-1] + sum(len(load[2]) for load in loads))
        loads = [load for lane_job in self._preloads for load in lane_job]
        lengths = np.array([len(words) for _, _, words in loads], dtype=np.int64)
        preload_mem = np.repeat(np.array([m for m, _, _ in loads], dtype=np.int64), lengths)
        # word k of a load goes to the load's offset + k
        firsts = np.cumsum(lengths) - lengths
        preload_addr = np.arange(int(lengths.sum())) + np.repeat(
            np.array([o for _, o, _ in loads], dtype=np.int64) - firsts, lengths)
        preload_word = np.concatenate([np.zeros(0, dtype=np.int64)] + [w for *_, w in loads])

        # the record of a done: every output, one entry per limb, then
        # every memory, whole
        output_slot: List[int] = []
        self._output_at: Dict[str, Tuple[int, int]] = {}
        for port, slot in outputs.items():
            self._output_at[port] = (len(output_slot), port_limbs[port])
            output_slot.extend(range(slot, slot + port_limbs[port]))
        mem_depth = np.array([len(array) for array in memories], dtype=np.int64)
        starts = len(output_slot) + np.cumsum(mem_depth) - mem_depth
        #: id of a memory's lane array -> (its start in a record, its depth)
        self._memory_at = {id(array): (int(start), len(array))
                           for array, start in zip(memories, starts)}
        width = len(output_slot) + int(mem_depth.sum())

        # the inputs each lane holds while job j runs: the job's values over
        # the ones held before (the loop drives job j's inputs and leaves the
        # other ports alone), from the ports' values in the store
        driven = [[tb.job_inputs(job) for job in range(max(tb.n_jobs, 1))]
                  for tb in self.testbenches]
        ports = list(dict.fromkeys(port for lane in driven for inputs in lane
                                   for port in inputs))
        keys = [simulator._input_port(port) for port in ports]
        self.slots = np.array([slot + k for port, (slot, _) in zip(ports, keys)
                               for k in range(port_limbs[port])], dtype=np.int64)
        self.rows = np.empty((top + 1, len(self.slots), n_lanes), dtype=np.int64)
        row = 0
        for port, (slot, bits) in zip(ports, keys):
            held = np.empty((top + 1, n_lanes), dtype=object)
            reset = simulator._read(slot, port_limbs[port]).tolist()
            for lane, jobs in enumerate(driven):
                value = reset[lane]
                for job in range(top + 1):
                    if job < len(jobs) and port in jobs[job]:
                        value = int(jobs[job][port]) & ((1 << bits) - 1)
                    held[job, lane] = value
            for k, limb in enumerate(_limb_rows(held, bits, port_limbs[port])):
                self.rows[:, row + k] = limb
            row += port_limbs[port]

        self.n_cycles = np.where(n_jobs > 0, np.iinfo(np.int64).max, 1)
        self._start_slot = simulator._input_port(START)[0]
        self._done_slot = outputs[DONE]
        self._lanes = np.arange(n_lanes)
        #: the arrays the handshake runs on, in either program; the C job
        #: plan points at them
        self._arrays = dict(
            n_jobs=n_jobs,
            job=np.zeros(n_lanes, dtype=np.int64),
            pulse=(n_jobs > 0).astype(np.int64),
            started=np.zeros(n_lanes, dtype=np.int64),
            preload_at=np.array(preload_at, dtype=np.int64),
            preload_mem=preload_mem, preload_addr=preload_addr, preload_word=preload_word,
            output_slot=np.array(output_slot, dtype=np.int64),
            mem_depth=mem_depth,
            record=np.zeros((n_lanes, top, width), dtype=np.int64),
            done_cycle=np.full((n_lanes, top), -1, dtype=np.int64),
        )
        #: whether the next drive writes the inputs and start pulses
        self._dirty = True
        for lane in np.flatnonzero(n_jobs).tolist():
            self._preload(lane, 0)

    def _preload(self, lane: int, job: int) -> None:
        for memory, offset, words in self._preloads[lane * self._top + job]:
            self._memories[memory][offset:offset + len(words), lane] = words

    # ------------------------------------------------------ run to completion
    @property
    def jobs(self):
        """The job state as a C ``job_plan`` of the simulator's kernel,
        pointing at the same arrays (built on first use, once the kernel is
        bound)."""
        if self._job_plan is None:
            arrays = self._arrays
            self._job_plan = self.simulator.kernel.plan(
                "job_plan", start_slot=self._start_slot, done_slot=self._done_slot,
                n_jobs_max=self._top,
                n_outputs=len(arrays["output_slot"]), n_mems=len(self._memories),
                width=arrays["record"].shape[2], **arrays)
        return self._job_plan

    def rows_at(self, cycle: int) -> np.ndarray:
        """The input rows of every job, whatever the cycle: each lane's row
        is picked by its job."""
        return self.rows

    def check_rows(self, first_cycle: int, captured, stop) -> None:
        """Verify the jobs done from ``first_cycle`` on, from their records,
        in the loop's order: done cycle, then lane."""
        done_cycle = self._arrays["done_cycle"]
        lanes, jobs = np.nonzero(done_cycle >= first_cycle)
        cycles = done_cycle[lanes, jobs]
        record = self._arrays["record"]
        for k in np.lexsort((lanes, cycles)).tolist():
            lane, job = int(lanes[k]), int(jobs[k])
            self._verify(lane, int(cycles[k]), _RecordResults(self, record[lane, job]))

    # ------------------------------------------------------- per-cycle loop
    def drive(self, cycle: int, active: np.ndarray) -> None:
        """The kernel's ``drive_jobs``: every lane's current job inputs and
        start pulse, written when a job changed and on the cycle after a
        pulse (the rows are the same in between)."""
        if not self._dirty:
            return
        v, arrays = self.simulator._v, self._arrays
        v[self.slots] = self.rows[arrays["job"], :, self._lanes].T
        pulse = arrays["pulse"]
        v[self._start_slot] = pulse
        arrays["started"] |= pulse
        self._dirty = bool(pulse.any())
        pulse[:] = 0

    def check(self, cycle: int, active: np.ndarray) -> np.ndarray:
        """The kernel's ``finish_jobs``: record the jobs done on this settled
        cycle, load and arm each lane's next job, then verify the records;
        returns the lanes past their last job."""
        arrays, v = self._arrays, self.simulator._v
        done = v[self._done_slot] != 0
        lanes = np.flatnonzero(done & active & (arrays["started"] != 0)) if done.any() else ()
        if len(lanes):
            jobs = arrays["job"][lanes]
            record = arrays["record"]
            record[lanes, jobs, :len(arrays["output_slot"])] = v[arrays["output_slot"]][:, lanes].T
            for memory in self._memories:
                start, depth = self._memory_at[id(memory)]
                record[lanes, jobs, start:start + depth] = memory[:, lanes].T
            arrays["done_cycle"][lanes, jobs] = cycle
            arrays["started"][lanes] = 0
            arrays["job"][lanes] = jobs + 1
            for lane, job in zip(lanes.tolist(), (jobs + 1).tolist()):
                if job < arrays["n_jobs"][lane]:
                    self._preload(lane, job)
                    arrays["pulse"][lane] = 1
            self._dirty = True
            self.check_rows(cycle, None, None)
        return arrays["job"] >= arrays["n_jobs"]

    def _verify(self, lane: int, cycle: int, results) -> None:
        """Verify the lane's current job and count it."""
        testbench = self.testbenches[lane]
        job = testbench._job
        try:
            testbench.verify(job, results)
        except AssertionError as error:
            raise AssertionError(f"lane {lane} cycle {cycle}: job {job}: {error}") from None
        testbench._checked += 1
        testbench._job += 1

    def close(self) -> None:
        return None
