"""Block-deferred macromodel evaluation, shared by the software estimators.

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

What to gather and how to evaluate it depends on the monitored components
and their models only: :class:`ObservePlan` holds it, built once per module
(:func:`observe_plan`) and shared by every run's evaluator.

On a native lane kernel the same plan runs in C, once per cycle, next to
the design (:class:`NativeEvaluator`): every kernel translation unit carries
a design-independent ``observe`` entry point
(:mod:`repro.sim.kernels.native`) that reads the monitored nets straight
from the value store, driven by :meth:`ObservePlan.flat`.  A
spec-driven lane block without generic components goes further:
:meth:`NativeEvaluator.run` hands whole segments of stimulus to the
kernel's ``run`` entry point, which drives, settles, observes and clocks
each 128-lane block in one call.  Per lane both perform flush's float
operations in flush's order:

* a component's energy is its base plus one table lookup per chunk, in
  chunk order (a generic component's energy is the pushed one);
* that energy is multiplied by the 0/1 lane mask;
* the cycle total sums the components in monitored order, from 0.0;
* each running total adds the cycle's energy (``+=``), cycle after cycle;
* ``peak = max(peak, total)``.

So totals, peak, trace and profile windows equal the block evaluator's bit
for bit.  One shortcut changes no output: a chunk whose byte is zero in
every lane of a 128-lane block is skipped.  It would add ``table[0]``, a
zero (the C code checks), and adding a zero can at most turn a component's
``-0.0`` into ``+0.0``; the cycle and running totals start at ``+0.0``, so
they are never ``-0.0`` and absorb either sign alike.  The kernels compile
with ``-ffp-contract=off``, so no multiply-add is fused: one would round
``energy * mask`` and its addition once instead of twice (exact only while
the mask is 0/1).  The block evaluator stays the path of the ``off`` kernel
backend, of the scalar estimator and of the gate-level estimator, which
pushes every energy it computes as a generic one.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.power.macromodel import LinearTransitionModel
from repro.power.profile import WindowedEnergyCollector
from repro.sim.batch import MAX_LANE_WIDTH
from repro.sim.kernels import BLOCK_LANES, worker_count

#: elements of a block's largest buffer (cycles × nets or components ×
#: lanes); the block length follows from it.  Small enough that the
#: per-byte temporaries stay in cache: at 256 HVPeakF lanes this evaluated
#: ~1.4x faster than 1M-element blocks
BLOCK_ELEMENTS = 1 << 18


class ObservePlan:
    """The lane-independent half of a block evaluator: what to gather and
    how to evaluate it, fixed by the monitored components and their models.

    ``nets`` are the nets the evaluator gathers, in row order; ``generic``
    the ``(component, model)`` pairs the caller evaluates per cycle;
    ``fast`` holds, per table component, ``(component index, base energy,
    [(net row, byte, table), ...])``.  :func:`observe_plan` caches one per
    module, so every run of a module shares it.
    """

    def __init__(self, monitored: Sequence[tuple]) -> None:
        #: the (component, model) pairs the plan was built from
        self.monitored = list(monitored)
        self.nets: List = []
        self.generic: List[tuple] = []
        self.fast: List[tuple] = []
        row_of: Dict[object, int] = {}
        generic_pos = []
        for index, (component, model) in enumerate(self.monitored):
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
            self.fast.append((index, model.base_energy_fj, chunks))
        self.generic_pos = np.array(generic_pos, dtype=np.intp)
        self.n_components = len(self.monitored)
        self._flat: Optional[Dict[str, np.ndarray]] = None

    def same_components(self, monitored: Sequence[tuple]) -> bool:
        """Whether ``monitored`` pairs the same component and model objects."""
        return len(monitored) == len(self.monitored) and all(
            component is mine and model is my_model
            for (component, model), (mine, my_model) in zip(monitored, self.monitored)
        )

    def flat(self) -> Dict[str, np.ndarray]:
        """The plan as flat arrays, in :meth:`BlockEvaluator.flush`'s order
        (built once; the arrays are shared and must not be written).

        Per chunk its net row (``chunk_net``), the bit offset of its byte
        (``chunk_shift``) and its 256 energies (``chunk_table``); per
        component, in monitored order, its chunks
        ``component_chunk[c]:component_chunk[c + 1]``, its base energy and
        its generic row (``component_generic``, -1 for a table component).
        """
        if self._flat is None:
            n = self.n_components
            component_chunk = np.zeros(n + 1, dtype=np.int64)
            component_base = np.zeros(n)
            component_generic = np.full(n, -1, dtype=np.int64)
            component_generic[self.generic_pos] = np.arange(len(self.generic))
            chunks = []
            for index, base, component_chunks in self.fast:
                component_base[index] = base
                component_chunk[index + 1] = len(component_chunks)
                chunks.extend(component_chunks)
            np.cumsum(component_chunk, out=component_chunk)
            self._flat = {
                "chunk_net": np.array([row for row, _, _ in chunks], dtype=np.int64),
                "chunk_shift": np.array([8 * byte for _, byte, _ in chunks],
                                        dtype=np.int64),
                "chunk_table": np.array([table for _, _, table in chunks],
                                        dtype=np.float64).reshape(len(chunks), 256),
                "component_chunk": component_chunk,
                "component_base": component_base,
                "component_generic": component_generic,
            }
            for array in self._flat.values():
                array.flags.writeable = False
        return self._flat


#: module -> the ObservePlan of its last monitored list (weakly keyed, as
#: the scheduler caches schedules, so a dropped module drops its plan)
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def observe_plan(module, monitored: Sequence[tuple]) -> ObservePlan:
    """The :class:`ObservePlan` of ``monitored``, the components of
    ``module`` with their models, built once while they stay the same
    component and model objects (a new library's models rebuild it)."""
    plan = _PLANS.get(module)
    if plan is None or not plan.same_components(monitored):
        plan = ObservePlan(monitored)
        try:
            _PLANS[module] = plan
        except TypeError:  # pragma: no cover - unweakrefable module subclass
            pass
    return plan


class BlockEvaluator:
    """Per-cycle energies of ``monitored`` components, evaluated in blocks.

    Each cycle :meth:`push` takes the monitored values as ``(n_nets,
    n_lanes)`` (a scalar run is one lane, and may push a tuple of port
    values), one ``(n_lanes,)`` energy per generic component (a float for
    one lane) and optionally the float active-lane mask.  Pushed arrays are
    kept until the next flush and must not be mutated.  ``plan`` is the
    prebuilt :class:`ObservePlan` of ``monitored`` (see :func:`observe_plan`),
    or None to build one.
    """

    def __init__(
        self,
        monitored: Sequence[tuple],
        n_lanes: int = 1,
        keep_cycle_trace: bool = True,
        collectors: Sequence[WindowedEnergyCollector] = (),
        plan: Optional[ObservePlan] = None,
    ) -> None:
        self.n_lanes = n_lanes
        self.keep_cycle_trace = keep_cycle_trace
        #: profile collectors, all fed the same running totals
        self.collectors = list(collectors)
        self.plan = plan if plan is not None else ObservePlan(monitored)
        #: nets whose values :meth:`push` takes, in row order
        self.nets: List = self.plan.nets
        #: (component, model) pairs the caller evaluates per cycle
        self.generic: List[tuple] = self.plan.generic
        self.n_components = self.plan.n_components
        width = max(len(self.nets), self.n_components, 1)
        self.block_cycles = max(1, BLOCK_ELEMENTS // (width * n_lanes))

        self._values: list = []
        self._generic_energy: list = []
        self._masks: list = []
        self._last: Optional[np.ndarray] = None
        self._totals = np.zeros((self.n_components, n_lanes))
        self._peak = np.zeros(n_lanes)
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
        k, lanes, n_nets = len(self._values), self.n_lanes, len(self.nets)
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
        for index, base, chunks in self.plan.fast:
            acc = energy[index]
            acc.fill(base)
            for row, byte, table in chunks:
                acc += table.take(toggle_bytes[:, row, :, byte])
        if self.generic:
            energy[self.plan.generic_pos] = np.asarray(
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
        # in order; each collector takes them at its window boundaries,
        # wherever they land in the block, and at the block's last cycle
        energy[:, 0] += self._totals
        running = np.add.accumulate(energy, axis=1, out=energy)
        self._totals = running[:, -1].copy()
        for collector in self.collectors:
            done = 0
            while done < k:
                step = min(collector.cycles_to_boundary, k - done)
                done += step
                collector.advance(step, running[:, done - 1])
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
            return np.zeros((0, self.n_lanes))
        return np.concatenate(self._trace)


class NativeEvaluator:
    """:class:`BlockEvaluator`'s plan evaluated each cycle by a lane kernel.

    Every native lane kernel carries a design-independent ``observe`` entry
    point (:mod:`repro.sim.kernels.native`); each :meth:`push` runs one cycle
    of it straight over the kernel's value store, from the block evaluator's
    plan as flat arrays (:meth:`ObservePlan.flat`).  It performs flush's
    float operations in flush's order, so totals, peak, cycle trace and
    profile windows equal the block evaluator's bit for bit.  Generic
    components are still evaluated by the caller, which pushes their
    ``(lanes,)`` energies.

    :meth:`run` hands whole segments of cycles to the kernel's ``run``
    entry point instead (drive, settle, observe and clock edge of each lane
    block in one C call), for plans without generic components.
    """

    def __init__(self, block: BlockEvaluator, kernel, rows: np.ndarray) -> None:
        lanes = block.n_lanes
        self.n_lanes = lanes
        self.keep_cycle_trace = block.keep_cycle_trace
        self.collectors = block.collectors
        self._kernel = kernel
        self._rows = np.asarray(rows, dtype=np.int64)
        self._store: Optional[np.ndarray] = None
        # the C side's lane arrays are padded to whole blocks of lanes
        self._padded = -(-lanes // BLOCK_LANES) * BLOCK_LANES
        self._generic = np.zeros((len(block.generic), self._padded))
        self._mask = np.zeros(self._padded)
        self._running = np.zeros((block.n_components, self._padded))
        self._peak = np.zeros(self._padded)
        self._n_nets = n_nets = len(block.nets)
        #: the arrays the C plan points at, kept alive with it
        self._arrays = dict(
            block.plan.flat(),
            net_slot=self._rows,
            generic=self._generic,
            mask=self._mask,
            previous=np.zeros((n_nets, self._padded), dtype=np.int64),
            running=self._running,
            peak=self._peak,
        )
        self._plan = kernel.observe_plan(
            n_lanes=lanes, n_nets=n_nets, n_components=block.n_components,
            **self._arrays)
        #: workers the toggle scratch has one stripe each for
        self._workers = 0
        self._scratch_for(1)
        # the cycle trace fills fixed-size chunks, one row per cycle
        self._trace: List[np.ndarray] = []
        self._trace_rows = max(1, BLOCK_ELEMENTS // self._padded)
        self._filled = self._trace_rows
        self.cycles = 0
        # the collectors see the running totals at each window boundary
        self._fed = 0
        self._feed_at = self._next_feed()

    def _scratch_for(self, n_threads: int) -> None:
        """One ``toggles``/``toggled`` stripe per kernel worker."""
        if n_threads > self._workers:
            for name, shape in (("toggles", (n_threads, self._n_nets, BLOCK_LANES)),
                                ("toggled", (n_threads, self._n_nets))):
                self._arrays[name] = np.zeros(shape, dtype=np.uint64)
                setattr(self._plan, name, self._kernel.c_array(self._arrays[name]))
            self._workers = n_threads

    def _next_feed(self) -> int:
        if not self.collectors:
            return -1
        return self.cycles + min(c.cycles_to_boundary for c in self.collectors)

    def _feed(self) -> None:
        for collector in self.collectors:
            collector.advance(self.cycles - self._fed, self.totals)
        self._fed = self.cycles
        self._feed_at = self._next_feed()

    def _check_store(self, v: np.ndarray) -> None:
        """The C code reads ``v`` at these rows, this lane count and dtype."""
        rows = int(self._rows.max(initial=-1)) + 1
        if (v.ndim != 2 or v.shape[0] < rows or v.shape[1] != self.n_lanes
                or v.dtype != self._kernel.ir.dtype):
            raise ValueError(
                f"value store {v.dtype} {v.shape} is not a ({rows}+, "
                f"{self.n_lanes}) {self._kernel.ir.dtype} lane store"
            )
        self._store = v

    def _trace_room(self) -> int:
        """Rows left in the cycle-trace buffer, opening a new one when full."""
        if self._filled == self._trace_rows:
            self._trace.append(np.empty((self._trace_rows, self._padded)))
            self._plan.trace = self._kernel.c_array(self._trace[-1])
            self._plan.trace_row = self._filled = 0
        return self._trace_rows - self._filled

    def _advance(self, n: int) -> None:
        self._filled += n
        self.cycles += n
        if self.cycles == self._feed_at:
            self._feed()

    def push(self, v: np.ndarray, generic_energy=(), active=None) -> None:
        """Evaluate one cycle of the store ``v`` (``active`` masks lanes)."""
        if v is not self._store:
            self._check_store(v)
        lanes = self.n_lanes
        for row, energy in zip(self._generic, generic_energy):
            row[:lanes] = energy
        self._mask[:lanes] = 1.0 if active is None else active
        if self.keep_cycle_trace:
            self._trace_room()
        self._kernel.observe(v, self._plan)
        self._advance(1)

    def run(self, v: np.ndarray, rows: np.ndarray, slots: np.ndarray,
            stop: np.ndarray, n_threads: int, capture: np.ndarray,
            captured: np.ndarray) -> int:
        """Simulate and observe a segment of ``rows`` in one kernel call.

        ``rows`` is ``(cycles, len(slots), lanes)`` int64 stimulus, written
        into the store rows ``slots`` cycle by cycle; lane ``l`` is masked
        in while its cycle is below ``stop[l]``.  Each cycle's settled store
        rows ``capture`` land in ``captured[k]``.  The segment stops early at
        the next profile-window boundary or the end of the cycle-trace
        buffer; returns the cycles it ran (at least one).
        """
        if len(self._generic):
            raise ValueError("run evaluates table components only; generic "
                             "components need a per-cycle push")
        if v is not self._store:
            self._check_store(v)
        n = len(rows)
        if self.collectors:
            n = min(n, self._feed_at - self.cycles)
        if self.keep_cycle_trace:
            n = min(n, self._trace_room())
        self._scratch_for(worker_count(n_threads, self.n_lanes))
        self._kernel.run(v, self._plan, rows[:n], slots, stop, n_threads,
                         capture, captured)
        self._advance(n)
        return n

    def flush(self) -> None:
        """Hand the cycles since the last window boundary to the collectors."""
        if self.collectors and self.cycles > self._fed:
            self._feed()

    @property
    def totals(self) -> np.ndarray:
        """``(n_components, lanes)`` energy per monitored component (fJ)."""
        return self._running[:, :self.n_lanes]

    @property
    def peak(self) -> np.ndarray:
        """``(lanes,)`` largest single-cycle total energy (fJ)."""
        return self._peak[:self.n_lanes]

    def cycle_trace(self) -> np.ndarray:
        """``(cycles, lanes)`` total energy per cycle (needs ``keep_cycle_trace``)."""
        if not self._trace:
            return np.zeros((0, self.n_lanes))
        rows = self._trace[:-1] + [self._trace[-1][:self._filled]]
        return np.concatenate(rows)[:, :self.n_lanes]
