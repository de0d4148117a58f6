"""Lane-vectorized batch simulation: N independent stimuli per pass.

The paper's characterization library and Monte-Carlo style sweeps run the
*same* netlist over many independent stimulus vectors.  The slot-indexed
compiled programs are shape-stable — every cycle executes the same
straight-line slot reads/writes — so the one combinational lowering of
:mod:`repro.sim.codegen` is printed here for a second target,
:class:`LaneEmitter`: the value store becomes one ``(n_slots, n_lanes)``
int64 NumPy array whose row ``i`` holds net ``i``'s value in every lane, and
every fused component becomes one masked elementwise array expression.  One
``settle``/``clock_edge`` pass then advances all ``n_lanes`` independent
simulations at once.

The sequential lowering is shared too.  Registers, counters, accumulators,
FSM controllers and the power-estimation components keep their state in a
:class:`LaneRows` holder bound into the generated code: ``(n_lanes,)`` rows
named after the component's own state attributes (``_state``, ``_pending``,
``_total``, ...), so codegen's state-source, capture and commit emitters
print the same attribute references for both targets.  Each target lowers
only the kinds whose state layouts differ: here memories and register files
keep ``(depth, n_lanes)`` storage (:class:`LaneMemoryState`) with
fancy-indexed reads and masked-scatter writes, FSM controllers keep per-lane
state *indices* with their transition table unrolled into priority-ordered
masked selects, and power models keep one row per monitored port.
Components that cannot be expressed as elementwise array code — subclassed
or user-defined types, and the ``sample_on_strobe_only`` power model — fall
back to a *lane-aware scalar* path: the component's own scalar
``evaluate``/``capture``/``commit`` runs once per lane with its private
per-lane state snapshot swapped in, so exotic components stay exactly as
correct as on the scalar backends, just without the speedup.

Nets wider than :data:`MAX_LANE_WIDTH` bits (one int64 lane with carry
headroom) but no wider than :data:`MAX_LIMB_WIDTH` use a *limb-array* store:
the net occupies ``ceil(width / LIMB_BITS)`` consecutive slots holding
little-endian 60-bit limbs, and the common wide operators (logic, mux,
concat/slice/extend, add/sub with limb carry/borrow chains, unsigned
compares, reductions, registers, constants) are emitted limb-wise — so wide
datapaths run on the vectorized batch path and lower into the fused
native kernels like narrow ones.  Wide components outside that set
take the lane-scalar path with limb-assembled port values.  Only modules
with nets wider than :data:`MAX_LIMB_WIDTH` still drop every component onto
the lane-scalar path over an object-dtype store; in every mode batch
execution never changes results — only speed.

On top of the per-op NumPy execution here, :mod:`repro.sim.kernels` fuses a
module's whole settle/clock-edge into single C kernels (compiled, called via
cffi) — ``BatchSimulator(kernel_backend=...)`` selects them, with automatic
fallback to this path when the module cannot lower or no C toolchain exists.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.netlist import components as comps
from repro.netlist import sequential as seq
from repro.netlist.fsm import FSMController
from repro.netlist.module import Module
from repro.netlist.nets import Net
from repro.sim.codegen import (
    _LOGIC_EXPRS,
    SourceEmitter,
    _mask,
    _signed,
    emitter_tables,
    register_next,
)
from repro.sim.scheduler import Schedule, module_mutation_key, schedule_for

#: widest net (in bits) representable in an int64 lane with headroom for the
#: +1-bit carry of fused adders; wider nets are split into 60-bit limbs
MAX_LANE_WIDTH = 60

#: bits per limb of the wide-net limb-array store (= MAX_LANE_WIDTH, so every
#: limb keeps the same carry headroom narrow lanes have)
LIMB_BITS = 60

#: all-ones mask of one full limb
_LIMB_MASK = (1 << LIMB_BITS) - 1

#: widest net (in bits) representable as int64 limbs (4x); modules with wider
#: nets use the object-dtype lane store with every component lane-scalar
MAX_LIMB_WIDTH = 240


def _limb_count(width: int) -> int:
    """Number of 60-bit limbs a ``width``-bit net occupies (1 when narrow)."""
    return 1 if width <= MAX_LANE_WIDTH else -(-width // LIMB_BITS)


def _limb_masks(width: int) -> List[int]:
    """Per-limb masks, little-endian; the top limb mask covers the tail bits."""
    n = _limb_count(width)
    return [_LIMB_MASK] * (n - 1) + [_mask(width - LIMB_BITS * (n - 1))]


class BatchCompilationError(Exception):
    """Raised when a module cannot be lowered to lane-vectorized code."""


def _popcount_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized population count (used by parity-reduce)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)
    x = values.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


# ---------------------------------------------------------------------------
# Per-lane state holders for fused sequential components.
# ---------------------------------------------------------------------------


class LaneRows:
    """Per-lane state of one fused sequential component, as named rows.

    Each field is an ``(n_lanes,)`` int64 row, or a list of rows (one per
    power-model port or register limb), named after the component's own
    state attribute (``_state``, ``_pending``, ``_total``, ``_count``, ...)
    and built from its reset value (a list of reset values for a row list).
    The sequential emitters of :mod:`repro.sim.codegen` therefore print one
    attribute reference for both targets.  Captures rebind fields (and row
    list entries) to fresh arrays; commits rebind them too, and the kernel
    IR extractor lowers a row-list swap (``_state = _pending`` then
    ``_pending = list(_state)``) to per-row copies.

    ``reset`` refills the rows *in place* (here and in
    :class:`LaneMemoryState`): native kernels capture stable pointers to
    these arrays at bind time, so a reset must never re-allocate them.
    """

    def __init__(self, n_lanes: int, **resets: Union[int, List[int]]) -> None:
        self._resets = resets
        for name, reset in resets.items():
            if isinstance(reset, list):
                setattr(self, name, [np.full(n_lanes, r, dtype=np.int64) for r in reset])
            else:
                setattr(self, name, np.full(n_lanes, reset, dtype=np.int64))

    def reset(self) -> None:
        for name, reset in self._resets.items():
            value = getattr(self, name)
            if isinstance(reset, list):
                for row, r in zip(value, reset):
                    row[...] = r
            else:
                value[...] = reset

    def unalias(self) -> None:
        """Split rows re-aliased by the batch commit.

        The generated batch commit (``s._state = s._pending``) rebinds rather
        than copies, so after a plain-path run two fields can name one array.
        Kernels bind rows to fixed addresses, so they re-split the rows
        before binding (values are preserved).
        """
        seen = set()

        def split(row: np.ndarray) -> np.ndarray:
            if id(row) in seen:
                row = row.copy()
            seen.add(id(row))
            return row

        for name, reset in self._resets.items():
            value = getattr(self, name)
            if isinstance(reset, list):
                setattr(self, name, [split(row) for row in value])
            else:
                setattr(self, name, split(value))

    def lane_values(self, lane: int) -> Dict[str, object]:
        """One lane's value of every field (a list of ints for a row list)."""
        values: Dict[str, object] = {}
        for name, reset in self._resets.items():
            value = getattr(self, name)
            if isinstance(reset, list):
                values[name] = [int(row[lane]) for row in value]
            else:
                values[name] = int(value[lane])
        return values


class LaneMemoryState:
    """Per-lane storage array of a fused memory / register file.

    ``mem`` is ``(depth, n_lanes)``: column ``i`` is lane ``i``'s private copy
    of the storage contents; committed writes are a boolean-masked scatter
    (one write per lane at most, and lanes are distinct columns, so scattered
    writes can never collide).
    """

    __slots__ = ("mem", "_read_reg", "_pending_read", "w_en", "w_addr", "w_data",
                 "_n", "_initial")

    def __init__(self, n_lanes: int, initial) -> None:
        self._n = n_lanes
        self._initial = np.asarray(initial, dtype=np.int64)
        self.mem = np.tile(self._initial[:, None], (1, n_lanes))
        self._read_reg = np.zeros(n_lanes, dtype=np.int64)
        self._pending_read = np.zeros(n_lanes, dtype=np.int64)
        self.w_en = np.zeros(n_lanes, dtype=np.int64)
        self.w_addr = np.zeros(n_lanes, dtype=np.int64)
        self.w_data = np.zeros(n_lanes, dtype=np.int64)

    def reset(self) -> None:
        self.mem[...] = self._initial[:, None]
        for array in (self._read_reg, self._pending_read, self.w_en,
                      self.w_addr, self.w_data):
            array[...] = 0

    def unalias(self) -> None:
        if self._pending_read is self._read_reg:
            self._pending_read = self._read_reg.copy()


class LaneComponent:
    """Lane-aware scalar fallback: per-lane evaluate/capture with private state.

    The component's own scalar methods execute once per lane; for sequential
    components each lane owns a snapshot of the component's underscore state
    attributes (the repo-wide idiom: mutable simulation state lives in
    ``_``-prefixed attributes), swapped in before and re-captured after every
    lane, so N lanes behave exactly like N independent scalar simulations.
    """

    def __init__(self, component, n_lanes: int) -> None:
        self.component = component
        self.n_lanes = n_lanes
        self.in_pairs: List[Tuple[str, int]] = []
        self.out_pairs: List[Tuple[str, int]] = []
        #: limb-store ports: (name, first slot, n_limbs) with n_limbs > 1
        self.in_wide: List[Tuple[str, int, int]] = []
        self.out_wide: List[Tuple[str, int, int]] = []
        self.sequential = bool(component.is_sequential)
        self.lane_states: Optional[List[Dict[str, object]]] = None

    def bind(self, slot_of: Dict[Net, int], limbs_of: Optional[Dict[Net, int]] = None) -> None:
        component = self.component
        limbs_of = limbs_of or {}
        self.in_pairs, self.in_wide = [], []
        self.out_pairs, self.out_wide = [], []
        for ports, pairs, wide in (
            (component.input_ports, self.in_pairs, self.in_wide),
            (component.output_ports, self.out_pairs, self.out_wide),
        ):
            for p in ports:
                if p.net is None:
                    continue
                n_limbs = limbs_of.get(p.net, 1)
                if n_limbs == 1:
                    pairs.append((p.name, slot_of[p.net]))
                else:
                    wide.append((p.name, slot_of[p.net], n_limbs))

    def _gather_wide(self, v: np.ndarray, lane: int, inputs: Dict[str, int]) -> None:
        for name, slot, n_limbs in self.in_wide:
            inputs[name] = sum(
                int(v[slot + k, lane]) << (LIMB_BITS * k) for k in range(n_limbs)
            )

    def _scatter_wide(self, v: np.ndarray, lane: int, outputs) -> None:
        for name, slot, n_limbs in self.out_wide:
            value = int(outputs[name])
            for k in range(n_limbs):
                v[slot + k, lane] = (value >> (LIMB_BITS * k)) & _LIMB_MASK

    # ----------------------------------------------------------- lane state
    def _snapshot_isolated(self) -> Dict[str, object]:
        """Initial per-lane state: deep-copied so lanes share no mutable
        containers, however deeply nested a user component's state is."""
        return {
            key: copy.deepcopy(value)
            for key, value in self.component.__dict__.items()
            if key.startswith("_")
        }

    def reset(self) -> None:
        if self.sequential:
            self.component.reset()
            self.lane_states = [self._snapshot_isolated() for _ in range(self.n_lanes)]

    # ------------------------------------------------------------ execution
    def evaluate(self, v: np.ndarray) -> None:
        """Combinational settle contribution, lane by lane."""
        component = self.component
        attrs = component.__dict__
        states = self.lane_states
        evaluate = component.evaluate
        for lane in range(self.n_lanes):
            if states is not None:
                attrs.update(states[lane])
            inputs = {name: int(v[slot, lane]) for name, slot in self.in_pairs}
            if self.in_wide:
                self._gather_wide(v, lane, inputs)
            outputs = evaluate(inputs)
            for name, slot in self.out_pairs:
                v[slot, lane] = outputs[name]
            if self.out_wide:
                self._scatter_wide(v, lane, outputs)

    def state_outputs(self, v: np.ndarray) -> None:
        """State-source outputs (evaluate with empty inputs), lane by lane."""
        component = self.component
        attrs = component.__dict__
        states = self.lane_states
        evaluate = component.evaluate
        for lane in range(self.n_lanes):
            if states is not None:
                attrs.update(states[lane])
            outputs = evaluate({})
            for name, slot in self.out_pairs:
                v[slot, lane] = outputs[name]
            if self.out_wide:
                self._scatter_wide(v, lane, outputs)

    def clock_edge(self, v: np.ndarray) -> None:
        """Per-lane capture + commit (nets are not touched, so interleaving
        capture/commit per lane is equivalent to the two-phase scalar order).

        The post-edge re-snapshot shares container refs with the component:
        in-place container mutations (e.g. a memory write) already happened on
        this lane's own containers, and containers *replaced* during
        capture/commit are freshly created — so lanes stay disjoint without
        per-edge container copies.
        """
        component = self.component
        attrs = component.__dict__
        states = self.lane_states
        in_pairs = self.in_pairs
        capture = component.capture
        commit = component.commit
        for lane in range(self.n_lanes):
            attrs.update(states[lane])
            inputs = {name: int(v[slot, lane]) for name, slot in in_pairs}
            if self.in_wide:
                self._gather_wide(v, lane, inputs)
            capture(inputs)
            commit()
            states[lane] = {k: val for k, val in attrs.items() if k[0] == "_"}


def _lane_addr(expr: str, depth: int) -> str:
    """Per-lane address expression, coerced to an array even when constant."""
    return f"(_lidx * 0 + ({expr}) % {depth})"


class LaneEmitter(SourceEmitter):
    """Target: ``n_lanes`` simulations, one ``(n_lanes,)`` int64 row per slot.

    Expressions operate on v rows; writing through ``v[slot] = ...`` copies
    into the row, so row targets never alias.  Holder-attribute targets rebind
    references instead — any RHS that could be a bare row view gets ``+ 0``
    appended to force a fresh array.
    """

    one = "_one"

    def __init__(self, slot_of: Dict[Net, int], limbs_of: Dict[Net, int], holders) -> None:
        super().__init__(slot_of)
        #: wide net -> limb count (first limb at slot_of[net])
        self.limbs_of = limbs_of
        #: component -> per-lane state holder; KeyError when it has none
        self.holders = holders

    def fits(self, bits: int) -> bool:
        # int64 lanes keep 2 bits of headroom over MAX_LANE_WIDTH, and NumPy
        # shifts past the word size are undefined
        return bits <= MAX_LANE_WIDTH + 2

    def flag(self, cond: str) -> str:
        return f"({cond})"

    def nonzero(self, expr: str) -> str:
        return f"({expr} != 0)"

    def select(self, cond: str, if_true: str, if_false: str) -> str:
        return f"_where({cond}, {if_true}, {if_false})"

    def minimum(self, a: str, b: str) -> str:
        return f"_minimum({a}, {b})"

    def popcount(self, expr: str) -> str:
        return f"_popcount({expr})"

    def table(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)

    def state_ref(self, component) -> str:
        return self.bind(f"_s{self.uid()}", self.holders[component])

    def read_row(self, state: str, addr: str, depth: int) -> str:
        return f"{state}.mem[{_lane_addr(addr, depth)}, _lidx]"

    def emit_abs(self, slot: int, expr: str) -> None:
        self.emit(f"v[{slot}] = _abs({expr})")

    def emit_mux(self, slot: int, sel: str, data_slots: List[int]) -> None:
        rows = [f"v[{row}]" for row in data_slots]
        if len(rows) == 2:
            self.emit(f"v[{slot}] = _where({sel} & 1, {rows[1]}, {rows[0]})")
        else:
            self.emit(f"_s = _minimum({sel}, {len(rows) - 1})")
            self.emit(f"v[{slot}] = _stack(({', '.join(rows)}))[_s, _lidx]")

    def own(self, expr: str, like: str = "") -> str:
        return f"{expr} + {like} * 0" if like else f"{expr} + 0"

    # ---------------------------------------------- per-target sequential
    def state_fsm(self, c) -> bool:
        from repro.netlist.signals import mask_value

        outs = self.connected_outputs(c)
        if not outs:
            return True
        s = self.state_ref(c)
        for port, slot in outs:
            table = [
                mask_value(c.moore_outputs.get(state, {}).get(port, 0),
                           c.output_widths[port])
                for state in c.states
            ]
            tname = self.bind(f"_ft{self.uid()}", np.asarray(table, dtype=np.int64))
            self.emit(f"v[{slot}] = {tname}[{s}._state]")
        return True

    def capture_fsm(self, c) -> bool:
        """Priority-ordered masked selects over per-lane state indices."""
        s = self.state_ref(c)
        self.emit(f"_st = {s}._state")
        self.emit("_pend = _st + 0")
        self.emit("_open = _st >= 0")  # all-True: no transition matched yet
        for transition in c.transitions:
            src = c.state_index[transition.source]
            tgt = c.state_index[transition.target]
            conds = [f"(_st == {src})", "_open"]
            for guard in transition.guards:
                expr = self.req(c, guard.signal)
                if expr is None:
                    expr = "0"  # unconnected status input reads as 0
                if guard.signed:
                    expr = _signed(expr, c.input_widths[guard.signal])
                conds.append(f"(({expr}) {guard.op} {guard.value})")
            self.emit(f"_c = {' & '.join(conds)}")
            self.emit(f"_pend = _where(_c, {tgt}, _pend)")
            self.emit("_open = _open & ~_c")
        self.emit(f"{s}._pending = _pend")
        return True

    def _capture_write(self, s: str, c, addr_port: str) -> None:
        """Latch a storage write (address ``_ad``) for the masked-scatter commit."""
        we = self.req(c, "we")
        self.emit(f"_ad = {_lane_addr(self.opt(c, addr_port, 0), c.depth)}")
        self.emit(f"{s}.w_addr = _ad")
        self.emit(f"{s}.w_en = {we} & 1" if we is not None else f"{s}.w_en = _ad * 0")
        self.emit(f"{s}.w_data = _ad * 0 + ({self.opt(c, 'wdata', 0)})")

    def capture_memory(self, c) -> bool:
        s = self.state_ref(c)
        self._capture_write(s, c, "addr")
        # read-before-write semantics for the registered read port
        self.emit(f"{s}._pending_read = {s}.mem[_ad, _lidx]")
        return True

    def capture_regfile(self, c) -> bool:
        self._capture_write(self.state_ref(c), c, "waddr")
        return True

    def capture_power_model(self, c) -> bool:
        if c.sample_on_strobe_only:
            return False  # paper-literal sampling stays on the lane-scalar path
        uid = self.uid()
        s = self.bind(f"_s{uid}", self.holders[c])
        strobe = self.opt(c, "strobe", 0)
        self.emit(f"_e = {c.base_code}")
        for index, (port_name, in_name, _, tables) in enumerate(c._chunked):
            cur = self.opt(c, in_name, 0)
            self.emit(f"_t = {s}._previous[{index}] ^ {cur}")
            self.emit(f"{s}._pending_previous[{index}] = {cur} + 0")
            for chunk, table in enumerate(tables):
                tname = self.bind(f"_tb{uid}_{self.uid()}", np.asarray(table, dtype=np.int64))
                if chunk == 0:
                    index_expr = "_t" if len(tables) == 1 else "_t & 255"
                else:
                    index_expr = f"(_t >> {8 * chunk}) & 255"
                # table[0] is always 0, so charging untoggled lanes adds
                # nothing — the vectorized form of the scalar `if _t:` guard
                self.emit(f"_e = _e + {tname}[{index_expr}]")
        self.emit(f"_a = {s}._accumulated + _e")
        self.emit(f"_sb = {strobe} & 1")
        self.emit(f"{s}._pending_output = _where(_sb, _a & {_mask(c.energy_width)}, 0)")
        self.emit(f"{s}._pending_accumulated = _where(_sb, 0, _a)")
        return True

    def _commit_write(self, s: str, c) -> None:
        if c.ports["we"].net is not None:
            self.emit(f"_msk = {s}.w_en != 0")
            self.emit(f"{s}.mem[{s}.w_addr[_msk], _lidx[_msk]] = {s}.w_data[_msk]")

    def commit_memory(self, c) -> None:
        s = self.state_ref(c)
        if c.sync_read:
            self.emit(f"{s}._read_reg = {s}._pending_read")
        self._commit_write(s, c)

    def commit_regfile(self, c) -> None:
        self._commit_write(self.state_ref(c), c)

    def commit_power_model(self, c) -> None:
        s = self.state_ref(c)
        self.emit(f"{s}._previous = {s}._pending_previous")
        self.emit(f"{s}._pending_previous = list({s}._previous)")
        self.emit(f"{s}._accumulated = {s}._pending_accumulated")
        self.emit(f"{s}._output = {s}._pending_output")


# ---------------------------------------------------------------------------
# Limb-store emitters (components touching nets wider than MAX_LANE_WIDTH).
# A wide net occupies consecutive slots of little-endian 60-bit limbs; every
# emitted limb expression is masked *before* any left shift, so intermediate
# values never exceed 62 bits and the generated code stays exact on the int64
# batch path and in both fused kernels.
# ---------------------------------------------------------------------------


def _l_in(em: LaneEmitter, c, port_name: str) -> Optional[Tuple[List[str], int]]:
    """Per-limb slot expressions plus net width of an input; None if unbound."""
    port = c.ports.get(port_name)
    if port is None or port.net is None:
        return None
    slot = em.slot_of[port.net]
    n_limbs = em.limbs_of.get(port.net, 1)
    return [f"v[{slot + k}]" for k in range(n_limbs)], port.net.width


def _l_out(em: LaneEmitter, c, port_name: str) -> Optional[Tuple[List[int], int]]:
    """Per-limb slots plus net width of an output; None when unconnected."""
    port = c.ports.get(port_name)
    if port is None or port.net is None:
        return None
    slot = em.slot_of[port.net]
    n_limbs = em.limbs_of.get(port.net, 1)
    return [slot + k for k in range(n_limbs)], port.net.width


def _l_gather(
    em: LaneEmitter,
    items: List[Tuple[str, int, int]],
    out_slots: List[int],
    out_width: int,
) -> None:
    """Assemble output limbs from bit-range contributions.

    ``items`` are ``(limb expression, bit offset in the output, bit width)``
    triples; offsets may be negative (slicing discards low bits).  Shift
    amounts stay under :data:`LIMB_BITS` and every left-shift operand is
    pre-masked, so nothing can overflow an int64.
    """
    for j, slot in enumerate(out_slots):
        lo = LIMB_BITS * j
        hi = min(out_width, lo + LIMB_BITS)
        parts = []
        for expr, offset, width in items:
            start, end = max(offset, lo), min(offset + width, hi)
            if start >= end:
                continue
            if offset >= lo:
                kept = f"({expr} & {_mask(end - offset)})" if end - offset < width else expr
                part = f"({kept} << {offset - lo})" if offset > lo else kept
            else:
                part = f"(({expr} >> {lo - offset}) & {_mask(end - start)})"
            parts.append(part)
        em.emit(f"v[{slot}] = " + (" | ".join(parts) if parts else "0"))


def _bl_logic(em: LaneEmitter, c) -> bool:
    a, b = _l_in(em, c, "a"), _l_in(em, c, "b")
    if a is None or b is None or len(a[0]) != len(b[0]):
        return False
    y = _l_out(em, c, "y")
    if y is None:
        return True
    masks = _limb_masks(c.width)
    for k, slot in enumerate(y[0]):
        expr = _LOGIC_EXPRS[c.op].format(a=a[0][k], b=b[0][k], m=masks[k])
        em.emit(f"v[{slot}] = {expr}")
    return True


def _bl_not(em: LaneEmitter, c) -> bool:
    a = _l_in(em, c, "a")
    if a is None:
        return False
    y = _l_out(em, c, "y")
    if y is None:
        return True
    masks = _limb_masks(c.width)
    for k, slot in enumerate(y[0]):
        em.emit(f"v[{slot}] = {a[0][k]} ^ {masks[k]}")
    return True


def _bl_adder(em: LaneEmitter, c) -> bool:
    a, b = _l_in(em, c, "a"), _l_in(em, c, "b")
    if a is None or b is None or len(a[0]) != len(b[0]):
        return False
    y = _l_out(em, c, "y")
    cout = em.out(c, "cout") if c.with_carry_out else None
    n_limbs = _limb_count(c.width)
    masks = _limb_masks(c.width)
    top_bits = c.width - LIMB_BITS * (n_limbs - 1)
    carry = None
    if c.with_carry_in:
        cin = em.opt(c, "cin", 0)
        if cin != "0":
            carry = f"({cin} & 1)"
    for k in range(n_limbs):
        terms = f"{a[0][k]} + {b[0][k]}"
        if carry is not None:
            terms += f" + {carry}"
        last = k == n_limbs - 1
        if last and cout is None:
            if y is not None:
                em.emit(f"v[{y[0][k]}] = ({terms}) & {masks[k]}")
            break
        em.emit(f"_t = {terms}")
        if y is not None:
            em.emit(f"v[{y[0][k]}] = _t & {masks[k]}")
        if last:
            em.emit(f"v[{cout}] = (_t >> {top_bits}) & 1")
        else:
            em.emit(f"_cy = _t >> {LIMB_BITS}")
            carry = "_cy"
    return True


def _bl_subtractor(em: LaneEmitter, c) -> bool:
    a, b = _l_in(em, c, "a"), _l_in(em, c, "b")
    if a is None or b is None or len(a[0]) != len(b[0]):
        return False
    y = _l_out(em, c, "y")
    borrow_out = em.out(c, "borrow") if c.with_borrow_out else None
    n_limbs = _limb_count(c.width)
    masks = _limb_masks(c.width)
    borrow = None
    for k in range(n_limbs):
        terms = f"{a[0][k]} - {b[0][k]}"
        if borrow is not None:
            terms += f" - {borrow}"
        last = k == n_limbs - 1
        if last and y is None and borrow_out is None:
            break
        em.emit(f"_t = {terms}")
        if y is not None:
            # a negative difference wraps exactly under the limb mask
            em.emit(f"v[{y[0][k]}] = _t & {masks[k]}")
        if last:
            if borrow_out is not None:
                em.emit(f"v[{borrow_out}] = _t < 0")
        else:
            em.emit("_bw = (_t < 0) * 1")
            borrow = "_bw"
    return True


def _bl_comparator(em: LaneEmitter, c) -> bool:
    if c.signed:
        return False  # signed wide compares stay on the lane-scalar path
    a, b = _l_in(em, c, "a"), _l_in(em, c, "b")
    if a is None or b is None or len(a[0]) != len(b[0]):
        return False
    outs = [(port, em.out(c, port)) for port in ("lt", "eq", "gt")]
    if all(slot is None for _, slot in outs):
        return True
    n_limbs = len(a[0])
    top = n_limbs - 1
    # unsigned lexicographic compare, most-significant limb first
    em.emit(f"_lt = ({a[0][top]} < {b[0][top]}) * 1")
    em.emit(f"_gt = ({a[0][top]} > {b[0][top]}) * 1")
    em.emit(f"_e = ({a[0][top]} == {b[0][top]}) * 1")
    for k in range(top - 1, -1, -1):
        em.emit(f"_lt = _lt | (_e & ({a[0][k]} < {b[0][k]}))")
        em.emit(f"_gt = _gt | (_e & ({a[0][k]} > {b[0][k]}))")
        em.emit(f"_e = _e & ({a[0][k]} == {b[0][k]})")
    for port, var in (("lt", "_lt"), ("eq", "_e"), ("gt", "_gt")):
        slot = em.out(c, port)
        if slot is not None:
            em.emit(f"v[{slot}] = {var}")
    return True


def _bl_mux(em: LaneEmitter, c) -> bool:
    sel = em.req(c, "sel")
    if sel is None:
        return False
    rows = []
    for i in range(c.n_inputs):
        r = _l_in(em, c, f"d{i}")
        if r is None:
            return False
        rows.append(r[0])
    y = _l_out(em, c, "y")
    if y is None:
        return True
    n_limbs = len(y[0])
    if any(len(row) != n_limbs for row in rows):
        return False
    if c.n_inputs == 2:
        for k, slot in enumerate(y[0]):
            em.emit(f"v[{slot}] = _where({sel} & 1, {rows[1][k]}, {rows[0][k]})")
    else:
        em.emit(f"_s = _minimum({sel}, {c.n_inputs - 1})")
        for k, slot in enumerate(y[0]):
            limb_rows = ", ".join(row[k] for row in rows)
            em.emit(f"v[{slot}] = _stack(({limb_rows}))[_s, _lidx]")
    return True


def _bl_reduce(em: LaneEmitter, c) -> bool:
    a = _l_in(em, c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is None:
        return True
    masks = _limb_masks(c.width)
    if c.op == "and":
        terms = " & ".join(
            f"({expr} == {masks[k]})" for k, expr in enumerate(a[0])
        )
        em.emit(f"v[{y}] = {terms}")
    elif c.op == "or":
        em.emit(f"v[{y}] = ({' | '.join(a[0])}) != 0")
    else:
        terms = " + ".join(f"_popcount({expr})" for expr in a[0])
        em.emit(f"v[{y}] = ({terms}) & 1")
    return True


def _bl_concat(em: LaneEmitter, c) -> bool:
    items: List[Tuple[str, int, int]] = []
    shift = 0
    for i, width in enumerate(c.widths):
        r = _l_in(em, c, f"i{i}")
        if r is None:
            return False
        for k, expr in enumerate(r[0]):
            items.append((expr, shift + LIMB_BITS * k, min(LIMB_BITS, width - LIMB_BITS * k)))
        shift += width
    y = _l_out(em, c, "y")
    if y is not None:
        _l_gather(em, items, y[0], y[1])
    return True


def _bl_slice(em: LaneEmitter, c) -> bool:
    a = _l_in(em, c, "a")
    if a is None:
        return False
    y = _l_out(em, c, "y")
    if y is None:
        return True
    items = [
        (expr, LIMB_BITS * k - c.low, min(LIMB_BITS, a[1] - LIMB_BITS * k))
        for k, expr in enumerate(a[0])
    ]
    _l_gather(em, items, y[0], y[1])
    return True


def _bl_extend(em: LaneEmitter, c) -> bool:
    if c.signed:
        return False  # wide sign-extension stays on the lane-scalar path
    a = _l_in(em, c, "a")
    if a is None:
        return False
    y = _l_out(em, c, "y")
    if y is None:
        return True
    items = [
        (expr, LIMB_BITS * k, min(LIMB_BITS, a[1] - LIMB_BITS * k))
        for k, expr in enumerate(a[0])
    ]
    _l_gather(em, items, y[0], y[1])
    return True


def _bl_state_constant(em: LaneEmitter, c) -> bool:
    y = _l_out(em, c, "y")
    if y is not None:
        for k, slot in enumerate(y[0]):
            em.emit(f"v[{slot}] = {(c.value >> (LIMB_BITS * k)) & _LIMB_MASK}")
    return True


def _bl_state_register(em: LaneEmitter, c) -> bool:
    y = _l_out(em, c, "q")
    if y is not None:
        s = em.state_ref(c)
        for k, slot in enumerate(y[0]):
            em.emit(f"v[{slot}] = {s}._state[{k}]")
    return True


def _bl_capture_register(em: LaneEmitter, c) -> bool:
    d = _l_in(em, c, "d")
    if d is None or len(d[0]) != _limb_count(c.width):
        return False
    s = em.state_ref(c)
    clr = em.req(c, "clear") if c.has_clear else None
    en = em.req(c, "en") if c.has_enable else None
    for k, d_expr in enumerate(d[0]):
        reset_limb = (c.reset_value >> (LIMB_BITS * k)) & _LIMB_MASK
        nxt = register_next(em, d_expr, f"{s}._state[{k}]", reset_limb, en, clr)
        em.emit(f"{s}._pending[{k}] = {nxt}")
    return True


def _bl_commit_register(em: LaneEmitter, c) -> None:
    s = em.state_ref(c)
    em.emit(f"{s}._state = {s}._pending")
    em.emit(f"{s}._pending = list({s}._state)")


#: limb-wise emitters for components touching a wide (multi-limb) net, one
#: table per phase (comb, state, capture, commit); anything missing here
#: takes the lane-scalar path with limb-assembled port values, so wide
#: modules stay exactly as correct either way
_LIMB_TABLES = (
    {
        comps.Adder: _bl_adder,
        comps.Subtractor: _bl_subtractor,
        comps.Comparator: _bl_comparator,
        comps.Mux: _bl_mux,
        comps.LogicOp: _bl_logic,
        comps.NotOp: _bl_not,
        comps.ReduceOp: _bl_reduce,
        comps.Concat: _bl_concat,
        comps.Slice: _bl_slice,
        comps.Extend: _bl_extend,
    },
    {seq.Register: _bl_state_register, comps.Constant: _bl_state_constant},
    {seq.Register: _bl_capture_register},
    {seq.Register: _bl_commit_register},
)


def _make_holder(component, n_lanes: int, wide: bool):
    """The per-lane state of a fused sequential component, or None.

    Row names and reset values follow the component's own state attributes.
    """
    from repro.core.aggregator import PowerAggregator
    from repro.core.power_model_hw import HardwarePowerModel
    from repro.core.strobe import PowerStrobeGenerator

    if isinstance(component, seq.Register):
        reset = component.reset_value
        if wide:
            reset = [(reset >> (LIMB_BITS * k)) & _LIMB_MASK
                     for k in range(_limb_count(component.width))]
        return LaneRows(n_lanes, _state=reset, _pending=reset)
    if wide:
        return None
    if isinstance(component, (seq.Counter, seq.Accumulator)):
        return LaneRows(n_lanes, _state=0, _pending=0)
    if isinstance(component, (seq.Memory, seq.RegisterFile)):
        return LaneMemoryState(n_lanes, component._initial)
    if isinstance(component, FSMController):
        reset = component.state_index[component.reset_state]
        return LaneRows(n_lanes, _state=reset, _pending=reset)
    if isinstance(component, PowerAggregator):
        return LaneRows(n_lanes, _total=0, _pending=0)
    if isinstance(component, PowerStrobeGenerator):
        strobe = 1 if component.period == 1 else 0
        return LaneRows(n_lanes, _count=0, _strobe=strobe,
                        _pending_count=0, _pending_strobe=strobe)
    if isinstance(component, HardwarePowerModel):
        ports = [0] * len(component._chunked)
        return LaneRows(n_lanes, _previous=ports, _pending_previous=ports,
                        _accumulated=0, _output=0,
                        _pending_accumulated=0, _pending_output=0)
    return None


# ---------------------------------------------------------------------------
# Program compilation.
# ---------------------------------------------------------------------------


@dataclass
class BatchProgram:
    """The lane-vectorized executable form of one module's schedule."""

    n_slots: int
    n_lanes: int
    slot_of: Dict[Net, int]
    dtype: object
    settle: Callable[[np.ndarray], None]
    clock_edge: Callable[[np.ndarray], None]
    source: str
    n_fused: int
    n_fallback: int
    #: wide net -> limb count (first limb at slot_of[net]); empty when every
    #: net fits one lane or the module is on the object-dtype store
    limbs_of: Dict[Net, int] = None  # type: ignore[assignment]
    #: per-lane state holders for fused sequential components
    holders: Dict[object, object] = None  # type: ignore[assignment]
    #: lane-scalar fallback wrappers (state reset goes through these)
    lane_components: List[LaneComponent] = None  # type: ignore[assignment]
    #: exec environment of the generated source (tables, holders, fallbacks);
    #: the kernel IR extractor resolves names through it
    env: Dict[str, object] = None  # type: ignore[assignment]
    #: cached kernel IR / unsupported-reason (see :meth:`kernel_ir`)
    _kernel_ir: object = None
    _kernel_unsupported: Optional[str] = None
    #: compiled native kernel, shared by simulators over this program (safe:
    #: kernels rebind stale state pointers at every reset)
    _kernel: object = None

    def reset_state(self) -> None:
        """Return every lane of every sequential component to its reset state."""
        for holder in self.holders.values():
            holder.reset()
        for lane_component in self.lane_components:
            lane_component.reset()

    def kernel_ir(self):
        """The typed kernel IR of this program (extracted once, cached).

        Raises :class:`~repro.sim.kernels.ir.KernelUnsupportedError` when the
        module cannot lower to a fused kernel (lane-scalar fallback
        components, object-dtype stores); the reason is cached so repeated
        attach attempts stay cheap.
        """
        from repro.sim.kernels.ir import KernelUnsupportedError, extract_ir

        if self._kernel_ir is not None:
            return self._kernel_ir
        if self._kernel_unsupported is not None:
            raise KernelUnsupportedError(self._kernel_unsupported)
        try:
            if self.dtype is object:
                raise KernelUnsupportedError(
                    "lane program not kernelizable: object-dtype store "
                    "(module has nets wider than MAX_LIMB_WIDTH)"
                )
            self._kernel_ir = extract_ir(self.source, self.env, self.n_slots)
        except KernelUnsupportedError as error:
            self._kernel_unsupported = str(error)
            raise
        return self._kernel_ir


def _generate_batch_source(
    module: Module,
    schedule: Schedule,
    slot_of: Dict[Net, int],
    limbs_of: Dict[Net, int],
    n_lanes: int,
    force_fallback: bool,
) -> Tuple[str, Dict[str, object], int, int, Dict[object, object], List[LaneComponent]]:
    tables = ({}, {}, {}, {}) if force_fallback else emitter_tables()

    # components touching any multi-limb net (none on the object-dtype
    # store) dispatch to the limb emitters
    wide_components = set()
    if limbs_of:
        for component in module.components.values():
            if any(
                p.net is not None and p.net in limbs_of
                for p in component.ports.values()
            ):
                wide_components.add(component)

    comb, state, capture, commit = range(4)

    def emitter_for(phase: int, component):
        table = (_LIMB_TABLES if component in wide_components else tables)[phase]
        return table.get(type(component))

    holders: Dict[object, object] = {}
    lane_components: Dict[object, LaneComponent] = {}

    def lane_component_for(component) -> LaneComponent:
        if component not in lane_components:
            wrapper = LaneComponent(component, n_lanes)
            wrapper.bind(slot_of, limbs_of)
            lane_components[component] = wrapper
        return lane_components[component]

    class _Holders:
        """Component -> per-lane state, built on first use."""

        def __getitem__(self, component):
            if component not in holders:
                holder = _make_holder(component, n_lanes, component in wide_components)
                if holder is None:
                    raise KeyError(component)
                holders[component] = holder
            return holders[component]

    em = LaneEmitter(slot_of, limbs_of, _Holders())

    def emit_fallback(component, method: str) -> None:
        wrapper = lane_component_for(component)
        name = em.bind(f"_lc{em.uid()}", wrapper)
        em.emit(f"{name}.{method}(v)")
        em.n_fallback += 1

    # Decide each sequential component's mode up front with a capture dry run:
    # a component whose capture cannot fuse must also keep its state outputs
    # (and any combinational path) on the lane-scalar path, so per-lane holder
    # state and the component's own scalar state never mix.
    fallback_sequential = set()
    scratch = LaneEmitter(slot_of, limbs_of, em.holders)
    for component in schedule.sequential:
        emitter = emitter_for(capture, component)
        fused = False
        if emitter is not None:
            scratch.lines = []
            try:
                fused = emitter(scratch, component)
            except KeyError:
                fused = False
        if not fused:
            fallback_sequential.add(component)

    lines: List[str] = ["def _settle(v):"]
    em.lines = body = []
    for component in schedule.state_sources:
        emitter = emitter_for(state, component)
        done = False
        if component not in fallback_sequential and emitter is not None:
            try:
                done = emitter(em, component)
            except KeyError:
                done = False
        if done:
            em.n_fused += 1
        else:
            emit_fallback(component, "state_outputs")
    for component in schedule.ordered:
        emitter = emitter_for(comb, component)
        if (
            component not in fallback_sequential
            and emitter is not None
            and emitter(em, component)
        ):
            em.n_fused += 1
        else:
            emit_fallback(component, "evaluate")
    if not body:
        body.append("pass")
    lines.extend("    " + line for line in body)

    lines.append("")
    lines.append("def _clock_edge(v):")
    em.lines = body = []
    fused_sequential = []
    for component in schedule.sequential:
        if component in fallback_sequential:
            # per-lane capture+commit in one pass; nets are never written by
            # commits, so this is equivalent to the two-phase scalar order
            emit_fallback(component, "clock_edge")
            continue
        done = emitter_for(capture, component)(em, component)
        assert done, f"capture dry run and emission disagree for {component!r}"
        em.n_fused += 1
        fused_sequential.append(component)
    for component in fused_sequential:
        emitter_for(commit, component)(em, component)
    if not body:
        body.append("pass")
    lines.extend("    " + line for line in body)

    source = "\n".join(lines) + "\n"
    return source, em.env, em.n_fused, em.n_fallback, holders, list(lane_components.values())


#: module -> (mutation_key, n_lanes, schedule, program)
_BATCH_CACHE: "weakref.WeakKeyDictionary[Module, tuple]" = weakref.WeakKeyDictionary()

#: process-lifetime count of lane-program compilations (i.e. cache misses in
#: :func:`compile_module_batch`); the :mod:`repro.serve` coalescer reads this
#: to prove that N merged jobs shared one build.  Lives in the
#: :mod:`repro.obs` registry; ``PROGRAM_BUILD_COUNT`` stays readable as a
#: module attribute via :func:`__getattr__` below.
_PROGRAM_BUILDS = obs.counter(
    "repro_program_builds_total",
    "Lane-program compilations (compile_module_batch cache misses)",
    essential=True,
)


def __getattr__(name: str) -> int:
    if name == "PROGRAM_BUILD_COUNT":
        return int(_PROGRAM_BUILDS.total())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def compile_module_batch(
    module: Module, n_lanes: int, schedule: Optional[Schedule] = None
) -> BatchProgram:
    """Compile ``module`` into a lane-vectorized :class:`BatchProgram` (cached).

    The program owns per-lane sequential state, so — like the scalar
    ``Simulator`` over a shared module — only one :class:`BatchSimulator`
    should actively drive a given module at a time.
    """
    if n_lanes < 1:
        raise ValueError(f"batch compilation needs n_lanes >= 1, got {n_lanes}")
    if schedule is None:
        schedule = schedule_for(module)
    key = module_mutation_key(module)
    cached = _BATCH_CACHE.get(module)
    if cached is not None and cached[0] == key and cached[1] == n_lanes and cached[2] is schedule:
        return cached[3]
    _PROGRAM_BUILDS.inc()
    build_span = obs.span("program.build", module=module.name, n_lanes=n_lanes)

    max_width = max((net.width for net in module.nets.values()), default=0)
    force_fallback = max_width > MAX_LIMB_WIDTH
    dtype = object if force_fallback else np.int64

    # wide nets (61..240 bits) take ceil(width / 60) consecutive limb slots
    slot_of: Dict[Net, int] = {}
    limbs_of: Dict[Net, int] = {}
    n_slots = 0
    for net in module.nets.values():
        slot_of[net] = n_slots
        n_limbs = 1 if force_fallback else _limb_count(net.width)
        if n_limbs > 1:
            limbs_of[net] = n_limbs
        n_slots += n_limbs
    try:
        source, env, n_fused, n_fallback, holders, lane_comps = _generate_batch_source(
            module, schedule, slot_of, limbs_of, n_lanes, force_fallback
        )
        code = compile(source, f"<batch:{module.name}>", "exec")
        namespace = dict(env)
        namespace.update(
            _where=np.where,
            _minimum=np.minimum,
            _abs=np.abs,
            _stack=np.stack,
            _popcount=_popcount_u64,
            _one=np.int64(1),
            _lidx=np.arange(n_lanes),
        )
        namespace["__builtins__"] = {"list": list}
        exec(code, namespace)
    except Exception as error:
        build_span.set(error=type(error).__name__)
        build_span.end()
        raise BatchCompilationError(
            f"failed to batch-compile module {module.name!r}: {error}"
        ) from error

    program = BatchProgram(
        n_slots=n_slots,
        n_lanes=n_lanes,
        slot_of=slot_of,
        limbs_of=limbs_of,
        dtype=dtype,
        settle=namespace["_settle"],
        clock_edge=namespace["_clock_edge"],
        source=source,
        n_fused=n_fused,
        n_fallback=n_fallback,
        holders=holders,
        lane_components=lane_comps,
        env=env,
    )
    try:
        _BATCH_CACHE[module] = (key, n_lanes, schedule, program)
    except TypeError:  # pragma: no cover - unweakrefable module subclass
        pass
    build_span.set(n_fused=n_fused, n_fallback=n_fallback)
    build_span.end()
    return program


# ---------------------------------------------------------------------------
# The batch simulator.
# ---------------------------------------------------------------------------

ArrayLike = Union[int, Sequence[int], np.ndarray]


class BatchSimulator:
    """Cycle-accurate simulation of ``n_lanes`` independent stimulus lanes.

    The API mirrors :class:`~repro.sim.engine.Simulator` but every value is an
    ``(n_lanes,)`` array: ``set_input`` accepts a scalar (broadcast to all
    lanes) or a per-lane array, ``get_output``/``get_net`` return per-lane
    arrays.  Lane ``i`` behaves exactly like a scalar simulation driven with
    lane ``i``'s inputs — components the batch code generator cannot fuse run
    their scalar ``evaluate``/``capture`` per lane with private per-lane
    state (see :class:`LaneComponent`), so results never depend on lane count.
    """

    def __init__(
        self,
        module: Module,
        n_lanes: int,
        schedule: Optional[Schedule] = None,
        kernel_backend: Optional[str] = None,
        kernel_threads: Optional[Union[int, str]] = None,
    ) -> None:
        if n_lanes < 1:
            raise ValueError(f"BatchSimulator needs n_lanes >= 1, got {n_lanes}")
        from repro.sim import kernels

        requested = kernels.resolve_kernel_backend(kernel_backend)
        self.module = module
        self.n_lanes = n_lanes
        self.schedule = schedule if schedule is not None else schedule_for(module)
        self.program = compile_module_batch(module, n_lanes, self.schedule)
        #: the fused kernel executing settle/clock_edge, or None (plain batch)
        self.kernel: Optional["kernels.NativeKernel"] = None
        #: resolved kernel backend actually in effect ("native"/"off")
        self.kernel_backend = "off"
        #: why a requested kernel fell back to the plain batch path, if it did
        self.kernel_fallback: Optional[str] = None
        #: how the backend was chosen (notably what "auto" resolved to and why)
        self.kernel_decision = f"{requested} (requested)"
        if requested == "auto":
            if kernels.find_compiler() is not None:
                requested, why = "native", "C toolchain found"
            else:
                requested, why = "off", "no C toolchain"
            self.kernel_decision = f"auto -> {requested} ({why})"
        #: worker count this simulator's native kernel calls run with (1 for off)
        self.kernel_threads = 1
        if requested == "native":
            try:
                ir = self.program.kernel_ir()
                for holder in self.program.holders.values():
                    holder.unalias()
                if self.program._kernel is None:
                    self.program._kernel = kernels.compile_kernel(ir, n_lanes)
            except (kernels.KernelUnsupportedError,
                    kernels.NativeToolchainError) as error:
                self.kernel_fallback = str(error)
            else:
                self.kernel = self.program._kernel
                self.kernel_backend = "native"
                # lane blocks fan out over the kernel's OpenMP/pthread pool;
                # any count is bit-identical.  The kernel is shared by every
                # simulator of this program, so each call passes this count.
                self.kernel_threads = kernels.resolve_kernel_threads(
                    kernel_threads, n_lanes
                )
        self.cycle = 0
        self._v = np.zeros((self.program.n_slots, n_lanes), dtype=self.program.dtype)
        slot_of = self.program.slot_of
        limbs_of = self.program.limbs_of
        self._input_keys = {
            name: (slot_of[port.net], port.net.width)
            for name, port in module.ports.items()
            if port.is_input
        }
        self._output_keys = {
            name: slot_of[port.net] for name, port in module.ports.items() if port.is_output
        }
        #: port name -> limb count (1 for every narrow port)
        self._port_limbs = {
            name: limbs_of.get(port.net, 1) for name, port in module.ports.items()
        }
        self.reset()

    # -------------------------------------------------------------- control
    def reset(self) -> None:
        """Reset all per-lane sequential state, zero all nets, then settle."""
        self.program.reset_state()
        if self.kernel is not None:
            # a sibling simulator running the plain batch path on this shared
            # program commits by *rebinding* holder arrays; re-split any
            # aliased pairs and point the kernel back at the live state
            for holder in self.program.holders.values():
                holder.unalias()
            self.kernel.rebind()
        self._v[:] = 0
        self.cycle = 0
        self.settle()

    # ------------------------------------------------------------------ I/O
    def _coerce(self, value: ArrayLike, width: int) -> ArrayLike:
        mask = (1 << width) - 1
        if isinstance(value, (int, np.integer)):
            return int(value) & mask
        array = np.asarray(value)
        if array.shape != (self.n_lanes,):
            raise ValueError(
                f"per-lane input must have shape ({self.n_lanes},), got {array.shape}"
            )
        if self.program.dtype is object:
            return np.array([int(x) & mask for x in array], dtype=object)
        return array.astype(np.int64) & mask

    def _write_limbs(self, slot: int, n_limbs: int, width: int, value: ArrayLike) -> None:
        """Split a wide value (scalar or per-lane) across its limb rows."""
        mask = (1 << width) - 1
        if isinstance(value, (int, np.integer)):
            masked = int(value) & mask
            for k in range(n_limbs):
                self._v[slot + k] = (masked >> (LIMB_BITS * k)) & _LIMB_MASK
            return
        array = np.asarray(value)
        if array.shape != (self.n_lanes,):
            raise ValueError(
                f"per-lane input must have shape ({self.n_lanes},), got {array.shape}"
            )
        values = [int(x) & mask for x in array]
        for k in range(n_limbs):
            shift = LIMB_BITS * k
            self._v[slot + k] = np.fromiter(
                ((x >> shift) & _LIMB_MASK for x in values),
                dtype=np.int64,
                count=self.n_lanes,
            )

    def _read_limbs(self, slot: int, n_limbs: int) -> np.ndarray:
        """Assemble a wide row as an object array of Python ints."""
        value = self._v[slot].astype(object)
        for k in range(1, n_limbs):
            value = value | (self._v[slot + k].astype(object) << (LIMB_BITS * k))
        return value

    def _input_port(self, name: str) -> Tuple[int, int]:
        """``(slot, width)`` of an input port; unknown names list the valid ones."""
        try:
            return self._input_keys[name]
        except KeyError:
            valid = ", ".join(sorted(self._input_keys)) or "<none>"
            raise KeyError(
                f"module {self.module.name!r} has no input port {name!r}; "
                f"valid input ports: {valid}"
            ) from None

    def set_input(self, name: str, value: ArrayLike) -> None:
        """Drive a module input: one scalar for all lanes, or a per-lane array."""
        slot, width = self._input_port(name)
        n_limbs = self._port_limbs[name]
        if n_limbs > 1:
            self._write_limbs(slot, n_limbs, width, value)
        else:
            self._v[slot] = self._coerce(value, width)

    def set_inputs(self, inputs: Mapping[str, ArrayLike]) -> None:
        for name, value in inputs.items():
            self.set_input(name, value)

    def set_lane_inputs(self, lane: int, inputs: Mapping[str, int]) -> None:
        """Drive module inputs of one lane only, one scalar value per port."""
        v = self._v
        for name, value in inputs.items():
            slot, width = self._input_port(name)
            masked = int(value) & ((1 << width) - 1)
            n_limbs = self._port_limbs[name]
            if n_limbs == 1:
                v[slot, lane] = masked
            else:
                for k in range(n_limbs):
                    v[slot + k, lane] = (masked >> (LIMB_BITS * k)) & _LIMB_MASK

    def get_output(self, name: str) -> np.ndarray:
        """Per-lane values of a module output port (as of the last settle)."""
        try:
            slot = self._output_keys[name]
        except KeyError:
            valid = ", ".join(sorted(self._output_keys)) or "<none>"
            raise KeyError(
                f"module {self.module.name!r} has no output port {name!r}; "
                f"valid output ports: {valid}"
            ) from None
        n_limbs = self._port_limbs[name]
        if n_limbs > 1:
            return self._read_limbs(slot, n_limbs)
        return self._v[slot].copy()

    def get_outputs(self) -> Dict[str, np.ndarray]:
        return {name: self.get_output(name) for name in self._output_keys}

    def get_net(self, net: Union[Net, str]) -> np.ndarray:
        """Per-lane values of any net, by object or name."""
        if isinstance(net, str):
            net = self.module.nets[net]
        slot = self.program.slot_of[net]
        n_limbs = self.program.limbs_of.get(net, 1)
        if n_limbs > 1:
            return self._read_limbs(slot, n_limbs)
        return self._v[slot].copy()

    # ------------------------------------------------------------ execution
    def settle(self) -> None:
        """Propagate combinational logic in every lane."""
        if self.kernel is not None:
            self.kernel.settle(self._v, self.kernel_threads)
        else:
            self.program.settle(self._v)

    def clock_edge(self) -> None:
        """Capture and commit the next sequential state in every lane."""
        if self.kernel is not None:
            self.kernel.clock_edge(self._v, self.kernel_threads)
        else:
            self.program.clock_edge(self._v)

    def step(self, inputs: Optional[Mapping[str, ArrayLike]] = None, cycles: int = 1) -> None:
        """Advance all lanes by ``cycles`` clock cycles."""
        kernel, n_threads = self.kernel, self.kernel_threads
        for _ in range(cycles):
            if inputs:
                self.set_inputs(inputs)
            if kernel is not None:
                # one fused settle+edge call per cycle (lanes are independent)
                kernel.cycle(self._v, n_threads)
            else:
                self.settle()
                self.clock_edge()
            self.cycle += 1

    def lane_view(self, lane: int) -> "LaneView":
        """A scalar, single-lane façade over this simulator (see :class:`LaneView`)."""
        return LaneView(self, lane)


# ---------------------------------------------------------------------------
# Per-lane scalar views: drive one lane with an ordinary interactive testbench.
# ---------------------------------------------------------------------------


class LaneStateError(RuntimeError):
    """Raised when a per-lane view cannot express an operation safely."""


class _LaneSequentialProxy:
    """Per-lane stand-in for one sequential component of a batched module.

    Interactive testbenches reach into ``simulator.module.components`` to
    backdoor-load memories and read results (``load``/``read_word``/
    ``write_word``).  In a :class:`BatchSimulator` that state lives in per-lane
    holders (or per-lane snapshot dicts for fallback components), not on the
    component object, so this proxy reroutes those accessors to one lane's
    private state, and runs property getters (``value``, an FSM's ``state``)
    against it.  Plain data attributes (``type_name``, ``width``, ``depth``,
    ...) pass through; any other method would silently touch the *scalar*
    state shared by all lanes, so it raises :class:`LaneStateError` instead.
    """

    #: stateless component methods that are safe to pass through
    _SAFE_METHODS = frozenset({"monitored_ports"})

    def __init__(self, component, lane: int, holder=None, lane_component=None) -> None:
        object.__setattr__(self, "_component", component)
        object.__setattr__(self, "_lane", lane)
        object.__setattr__(self, "_holder", holder)
        object.__setattr__(self, "_lane_component", lane_component)

    # ------------------------------------------------- backdoor state access
    def read_word(self, addr: int) -> int:
        holder = self._holder
        if isinstance(holder, LaneMemoryState):
            return int(holder.mem[addr, self._lane])
        return self._call_with_lane_state("read_word", addr)

    def write_word(self, addr: int, value: int) -> None:
        holder = self._holder
        if isinstance(holder, LaneMemoryState):
            holder.mem[addr, self._lane] = _mask_int(value, self._component.width)
            return None
        return self._call_with_lane_state("write_word", addr, value)

    def load(self, contents, offset: int = 0) -> None:
        holder = self._holder
        if isinstance(holder, LaneMemoryState):
            width = self._component.width
            for i, value in enumerate(contents):
                holder.mem[offset + i, self._lane] = _mask_int(value, width)
            return None
        return self._call_with_lane_state("load", contents, offset)

    def _call_with_lane_state(self, method: str, *args):
        """Run a scalar component method against this lane's snapshot state."""
        wrapper = self._lane_component
        if wrapper is None or wrapper.lane_states is None:
            raise LaneStateError(
                f"component {self._component.name!r} keeps no per-lane scalar "
                f"state; {method}() is not available through a lane view"
            )
        component = self._component
        attrs = component.__dict__
        states = wrapper.lane_states
        lane = self._lane
        attrs.update(states[lane])
        result = getattr(component, method)(*args)
        states[lane] = {
            key: value for key, value in attrs.items() if key.startswith("_")
        }
        return result

    def _lane_state(self) -> Dict[str, object]:
        """This lane's state attributes in the component's own scalar form."""
        component, lane, holder = self._component, self._lane, self._holder
        if isinstance(holder, LaneRows):
            state = {}
            for name, value in holder.lane_values(lane).items():
                if isinstance(component, FSMController):
                    value = component.states[value]  # rows hold state indices
                elif isinstance(value, list):
                    if not isinstance(component, seq.Register):
                        continue  # power-model port rows: no scalar form here
                    value = sum(limb << (LIMB_BITS * k) for k, limb in enumerate(value))
                state[name] = value
            return state
        wrapper = self._lane_component
        if wrapper is not None and wrapper.lane_states is not None:
            return wrapper.lane_states[lane]
        return {}

    # ------------------------------------------------------ attribute access
    def __getattr__(self, name: str):
        if name.startswith("__"):
            # keep protocol probes (copy/pickle/inspect) on the standard path
            raise AttributeError(name)
        if name.startswith("_"):
            raise LaneStateError(
                f"per-lane access to private attribute {name!r} of component "
                f"{self._component.name!r} is not supported; lane state lives "
                f"in the batch program, not on the component"
            )
        prop = getattr(type(self._component), name, None)
        if isinstance(prop, property):
            # run the getter against this lane's state, never the scalar one
            public = {k: v for k, v in vars(self._component).items() if k[0] != "_"}
            try:
                return prop.fget(SimpleNamespace(**public, **self._lane_state()))
            except AttributeError as error:
                raise LaneStateError(
                    f"property {name!r} of component {self._component.name!r} "
                    f"reads state a lane view cannot express ({error})"
                ) from None
        value = getattr(self._component, name)
        if callable(value) and name not in self._SAFE_METHODS:
            raise LaneStateError(
                f"method {name}() of component {self._component.name!r} is not "
                f"lane-safe; only load/read_word/write_word are supported "
                f"through a BatchSimulator lane view"
            )
        return value

    def __setattr__(self, name: str, value) -> None:
        raise LaneStateError(
            f"cannot set attribute {name!r} on a per-lane component view"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<lane {self._lane} view of {self._component!r}>"


def _mask_int(value: int, width: int) -> int:
    return int(value) & ((1 << width) - 1)


class _LaneModuleView:
    """Module façade whose sequential components are per-lane proxies."""

    def __init__(self, simulator: "BatchSimulator", lane: int) -> None:
        module = simulator.module
        self.name = module.name
        self.ports = module.ports
        self.nets = module.nets
        self.attributes = module.attributes
        program = simulator.program
        wrappers = {lc.component: lc for lc in program.lane_components}
        self.components: Dict[str, object] = {}
        for comp_name, component in module.components.items():
            if component.is_sequential:
                self.components[comp_name] = _LaneSequentialProxy(
                    component,
                    lane,
                    holder=program.holders.get(component),
                    lane_component=wrappers.get(component),
                )
            else:
                self.components[comp_name] = component


class LaneView:
    """Scalar view of one :class:`BatchSimulator` lane.

    Presents the read-side of the scalar :class:`~repro.sim.engine.Simulator`
    API (``get_output``/``get_outputs``/``get_net``/``cycle``/``module``) for
    a single lane, so interactive testbenches — including ones that backdoor
    load and verify memories — can drive per-lane stimulus in a multi-seed
    batch run.  Writes still go through the owning simulator (per-lane input
    assembly is the sweep driver's job); the view itself is read-only plus the
    memory backdoors exposed by :class:`_LaneSequentialProxy`.
    """

    def __init__(self, simulator: "BatchSimulator", lane: int) -> None:
        if not 0 <= lane < simulator.n_lanes:
            raise ValueError(
                f"lane {lane} out of range for {simulator.n_lanes}-lane simulator"
            )
        self.simulator = simulator
        self.lane = lane
        self.module = _LaneModuleView(simulator, lane)

    @property
    def cycle(self) -> int:
        return self.simulator.cycle

    def _read_lane(self, slot: int, n_limbs: int) -> int:
        v, lane = self.simulator._v, self.lane
        if n_limbs == 1:
            return int(v[slot, lane])
        return sum(
            int(v[slot + k, lane]) << (LIMB_BITS * k) for k in range(n_limbs)
        )

    def get_output(self, name: str) -> int:
        try:
            slot = self.simulator._output_keys[name]
        except KeyError:
            valid = ", ".join(sorted(self.simulator._output_keys)) or "<none>"
            raise KeyError(
                f"module {self.module.name!r} has no output port {name!r}; "
                f"valid output ports: {valid}"
            ) from None
        return self._read_lane(slot, self.simulator._port_limbs[name])

    def get_outputs(self) -> Dict[str, int]:
        port_limbs = self.simulator._port_limbs
        return {
            name: self._read_lane(slot, port_limbs[name])
            for name, slot in self.simulator._output_keys.items()
        }

    def get_net(self, net: Union[Net, str]) -> int:
        if isinstance(net, str):
            net = self.simulator.module.nets[net]
        program = self.simulator.program
        return self._read_lane(program.slot_of[net], program.limbs_of.get(net, 1))
