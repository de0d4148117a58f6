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

Bound to a native lane kernel (:meth:`BlockEvaluator.bind`), a plan
without generic components runs in C instead, next to the design and into
the same result arrays: every kernel carries a design-independent
``observe`` entry point (:mod:`repro.sim.kernels.native`) that evaluates
one cycle straight from the value store, driven by :meth:`ObservePlan.flat`,
and :meth:`BlockEvaluator.run` hands whole segments to its ``run`` entry
point, which drives, settles, observes and clocks each 128-lane block in
one call.  A run that starts on NumPy (``auto`` while its kernel compiles)
binds at a cycle boundary and carries on, nothing copied.  Per lane the C
code performs flush's float operations in flush's order:

* a component's energy is its base plus one table lookup per chunk, in
  chunk order;
* that energy is multiplied by the 0/1 lane mask;
* the cycle total sums the components in monitored order, from 0.0;
* each running total adds the cycle's energy (``+=``), cycle after cycle;
* ``peak = max(peak, total)``.

So totals, peak, trace and profile windows are the same bits whichever
program evaluated which cycles.  One shortcut changes no output: a chunk
whose byte is zero in every lane of a 128-lane block is skipped.  It would
add ``table[0]``, a zero (the C code checks), and adding a zero can at most
turn a component's ``-0.0`` into ``+0.0``; the cycle and running totals
start at ``+0.0``, so they are never ``-0.0`` and absorb either sign alike.
The kernels compile with ``-ffp-contract=off``, so no multiply-add is
fused: one would round ``energy * mask`` and its addition once instead of
twice (exact only while the mask is 0/1).  The scalar estimator and the
gate-level estimator (which pushes every energy as a generic one) never
bind.
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
        ``component_chunk[c]:component_chunk[c + 1]`` and its base energy.
        """
        if self._flat is None:
            n = self.n_components
            component_chunk = np.zeros(n + 1, dtype=np.int64)
            component_base = np.zeros(n)
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
    """Per-cycle energies of ``monitored`` components: one ledger, evaluated
    in blocks by NumPy or, once bound to a lane kernel, each cycle in C.

    Each cycle :meth:`push` takes the monitored values as ``(n_nets,
    n_lanes)`` (a scalar run is one lane, and may push a tuple of port
    values), one ``(n_lanes,)`` energy per generic component (a float for
    one lane) and optionally the float active-lane mask.  Pushed arrays are
    kept until the next flush and must not be mutated.  ``plan`` is the
    prebuilt :class:`ObservePlan` of ``monitored`` (see :func:`observe_plan`),
    or None to build one.

    The results live in the layout the kernel's ``observe_plan`` points at
    (lane arrays padded to whole blocks of lanes, the cycle trace in
    chunks), so a kernel bound mid-run (:meth:`bind`) continues them in
    place.
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
        #: cycles pushed so far
        self.cycles = 0
        padded = self._padded = -(-n_lanes // BLOCK_LANES) * BLOCK_LANES
        self._previous = np.zeros((len(self.nets), padded), dtype=np.int64)
        self._running = np.zeros((self.n_components, padded))
        self._peak = np.zeros(padded)
        #: cycle-trace chunks, one row per cycle; the last holds ``_filled``
        self._trace: List[np.ndarray] = []
        self._filled = 0
        #: the cycle up to which the collectors have the running totals
        self._fed = 0
        #: the bound kernel and its C ``observe_plan`` (None: NumPy blocks)
        self._kernel = self._c_plan = None

    # ----------------------------------------------------------- per cycle
    def push(self, values, generic_energy=(), active=None) -> None:
        """Record one cycle; evaluates the block once it is full.  On a bound
        kernel ``values`` is the whole lane store, evaluated at once."""
        if self._c_plan is not None:
            return self._observe(values, active)
        self._values.append(values)
        self._generic_energy.append(generic_energy)
        self.cycles += 1
        if active is not None:
            self._masks.append(active)
        if len(self._values) >= self.block_cycles:
            self._evaluate()

    # ----------------------------------------------------------- per block
    def _evaluate(self) -> None:
        """Evaluate the pending cycles and fold them into the results."""
        k, lanes, n_nets = len(self._values), self.n_lanes, len(self.nets)
        current = np.asarray(self._values, dtype="<i8").reshape(k, n_nets, lanes)
        toggles = np.empty_like(current)
        np.bitwise_xor(current[1:], current[:-1], out=toggles[1:])
        # a run's first cycle toggles nothing
        previous = self._previous[:, :lanes]
        np.bitwise_xor(current[0], previous if self.cycles > k else current[0],
                       out=toggles[0])
        previous[...] = current[-1]

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
        peak = self._peak[:lanes]
        np.maximum(peak, total.max(axis=0), out=peak)
        if self.keep_cycle_trace:
            self._trace.append(total)
            self._filled = k
        # running totals: the previous block's, then the cycles one by one,
        # in order; each collector takes them at its window boundaries,
        # wherever they land in the block, and at the block's last cycle
        totals = self._running[:, :lanes]
        energy[:, 0] += totals
        running = np.add.accumulate(energy, axis=1, out=energy)
        totals[...] = running[:, -1]
        for collector in self.collectors:
            done = 0
            while done < k:
                step = min(collector.cycles_to_boundary, k - done)
                done += step
                collector.advance(step, running[:, done - 1])
        self._fed = self.cycles
        self._values.clear()
        self._generic_energy.clear()
        self._masks.clear()

    def flush(self) -> None:
        """Evaluate the pending cycles and hand the cycles since the last
        window boundary to the collectors."""
        if self._values:
            self._evaluate()
        if self.collectors and self.cycles > self._fed:
            self._feed()

    # ------------------------------------------------------- on the kernel
    def bind(self, kernel, rows: np.ndarray) -> None:
        """Evaluate on ``kernel`` from the next cycle on, in C: each
        :meth:`push` runs one cycle of its ``observe`` entry point, which
        reads the monitored nets at the store rows ``rows``, and :meth:`run`
        hands it whole segments.  The pending cycles are evaluated first;
        the kernel then continues the same totals, peak, previous values,
        trace and collector feed in place.  Table components only: a plan
        with a generic component stays on NumPy."""
        if self.generic:
            raise ValueError("the native observer evaluates table components only")
        self.flush()
        padded = self._padded
        self._kernel = kernel
        self._rows = np.asarray(rows, dtype=np.int64)
        self._store = None
        self._mask = np.zeros(padded)
        #: the arrays the C plan points at, kept alive with it
        self._arrays = dict(
            self.plan.flat(),
            net_slot=self._rows,
            mask=self._mask,
            previous=self._previous,
            running=self._running,
            peak=self._peak,
        )
        self._c_plan = kernel.plan(
            "observe_plan", n_lanes=self.n_lanes, n_nets=len(self.nets),
            n_components=self.n_components, cycles=self.cycles, **self._arrays)
        #: workers the toggle scratch has one stripe each for
        self._workers = 0
        self._scratch_for(1)
        # the kernel fills trace chunks of its own, padded like the lanes
        self._trace_rows = max(1, BLOCK_ELEMENTS // padded)
        # the collectors take the running totals at each window boundary
        self._feed_at = self._next_feed()

    def _scratch_for(self, n_threads: int) -> None:
        """One ``toggles``/``toggled`` stripe per kernel worker."""
        if n_threads > self._workers:
            n_nets = len(self.nets)
            for name, shape in (("toggles", (n_threads, n_nets, BLOCK_LANES)),
                                ("toggled", (n_threads, n_nets))):
                self._arrays[name] = np.zeros(shape, dtype=np.uint64)
                setattr(self._c_plan, name, self._kernel.c_array(self._arrays[name]))
            self._workers = n_threads

    def _next_feed(self) -> int:
        if not self.collectors:
            return -1
        return self.cycles + min(c.cycles_to_boundary for c in self.collectors)

    def _feed(self) -> None:
        totals = self._running[:, :self.n_lanes]
        for collector in self.collectors:
            collector.advance(self.cycles - self._fed, totals)
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
        """Rows left in the kernel's trace chunk, opening a new one when
        the last chunk is full (or was filled by NumPy)."""
        if not self._trace or self._filled == len(self._trace[-1]):
            self._trace.append(np.empty((self._trace_rows, self._padded)))
            self._c_plan.trace = self._kernel.c_array(self._trace[-1])
            self._c_plan.trace_row = self._filled = 0
        return len(self._trace[-1]) - self._filled

    def _advance(self, n: int) -> None:
        self._filled += n
        self.cycles += n
        if self.cycles == self._feed_at:
            self._feed()

    def _observe(self, v: np.ndarray, active) -> None:
        """One cycle of the store ``v`` on the kernel (``active`` masks lanes)."""
        if v is not self._store:
            self._check_store(v)
        self._mask[:self.n_lanes] = 1.0 if active is None else active
        if self.keep_cycle_trace:
            self._trace_room()
        self._kernel.observe(v, self._c_plan)
        self._advance(1)

    def run(self, v: np.ndarray, n_cycles: int, rows: np.ndarray, slots: np.ndarray,
            stop: np.ndarray, n_threads: int, capture: np.ndarray,
            captured: np.ndarray, jobs=None) -> int:
        """Simulate and observe up to ``n_cycles`` cycles in one call of the
        bound kernel's ``run``.

        ``rows`` is ``(>= n_cycles, len(slots), lanes)`` int64 stimulus,
        written into the store rows ``slots`` cycle by cycle, or, with a
        ``job_plan`` ``jobs``, each lane's row of its current job (see
        :meth:`~repro.sim.kernels.native.NativeKernel.run`); lane ``l`` is
        masked in while its cycle is below ``stop[l]``, which the jobs'
        done events lower in place.  Each cycle's settled store rows
        ``capture`` land in ``captured[k]``.  The segment stops early at the
        next profile-window boundary, the end of the cycle-trace chunk or
        once every lane has stopped; returns the cycles it ran.
        """
        if v is not self._store:
            self._check_store(v)
        n = n_cycles
        if self.collectors:
            n = min(n, self._feed_at - self.cycles)
        if self.keep_cycle_trace:
            n = min(n, self._trace_room())
        self._scratch_for(worker_count(n_threads, self.n_lanes))
        n = self._kernel.run(v, self._c_plan, n, rows, slots, stop, n_threads,
                             capture, captured, jobs)
        self._advance(n)
        return n

    # ------------------------------------------------------------- results
    @property
    def totals(self) -> np.ndarray:
        """``(n_components, lanes)`` energy per monitored component (fJ)."""
        self.flush()
        return self._running[:, :self.n_lanes]

    @property
    def peak(self) -> np.ndarray:
        """``(lanes,)`` largest single-cycle total energy (fJ)."""
        self.flush()
        return self._peak[:self.n_lanes]

    def cycle_trace(self) -> np.ndarray:
        """``(cycles, lanes)`` total energy per cycle (needs ``keep_cycle_trace``)."""
        self.flush()
        if not self._trace:
            return np.zeros((0, self.n_lanes))
        lanes = self.n_lanes
        rows = [chunk[:, :lanes] for chunk in self._trace[:-1]]
        rows.append(self._trace[-1][:self._filled, :lanes])
        return np.concatenate(rows)
