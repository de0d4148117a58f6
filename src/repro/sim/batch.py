"""Lane-vectorized batch simulation: N independent stimuli per pass.

The paper's characterization library and Monte-Carlo style sweeps run the
*same* netlist over many independent stimulus vectors.  The slot-indexed
programs are shape-stable — every cycle executes the same straight-line slot
reads/writes — so the one lowering of :mod:`repro.sim.codegen` has a second
target here, :class:`LaneEmitter`: the value store becomes one
``(n_slots, n_lanes)`` int64 NumPy array whose row ``i`` holds net ``i``'s
value in every lane, and every fused component becomes elementwise
statements of the typed kernel IR (:mod:`repro.sim.kernels.ir`).  That IR is
printed as a NumPy lane program (one masked array expression per
statement), so one ``settle``/``clock_edge`` pass advances all ``n_lanes``
independent simulations at once; :mod:`repro.sim.kernels` prints the same IR
as a C kernel.

The sequential lowering is shared too.  Registers, counters, accumulators,
FSM controllers and the power-estimation components keep their state in a
:class:`LaneRows` holder: ``(n_lanes,)`` rows named after the component's
own state attributes (``_state``, ``_pending``, ``_total``, ...), so
codegen's state-source, capture and commit emitters name the same
attributes for both targets (a power model's ``_previous`` is a row list,
one row per monitored port, as it is a list on the component).  Each target
lowers only the kinds whose state layouts differ: here memories and
register files keep ``(depth, n_lanes)`` storage (:class:`LaneMemoryState`)
with per-lane reads and masked-scatter writes, and FSM controllers keep
per-lane state *indices* with their transition table unrolled into
priority-ordered masked selects.

A module lowers to lanes completely, or not at all: a component no lane
emitter fuses — a subclassed or user-defined type, a 61..240-bit kind
without a limb emitter, the ``sample_on_strobe_only`` power model — makes
:func:`compile_module_batch` raise :class:`BatchCompilationError` naming it,
and the estimation API runs such a module per seed on the scalar compiled
engine, which keeps its own generic ``evaluate``/``capture`` path.  Every
lane program therefore prints as a C kernel too.

Every lane program has one store, int64, and writes it in place: the value
store's rows, the holders' state rows and memories are allocated once, and
both printed programs (NumPy and C) assign into them, as registers and
power accumulators are fixed storage on the paper's FPGA.  Nets wider than
:data:`MAX_LANE_WIDTH` bits (one int64 lane with carry headroom) but no
wider than :data:`MAX_LIMB_WIDTH` occupy ``ceil(width / LIMB_BITS)``
consecutive slots holding little-endian 60-bit *limbs*, and the common wide
operators (logic, mux, concat/slice/extend, add/sub with limb carry/borrow
chains, unsigned compares, reductions, registers, constants) are emitted
limb-wise — so wide datapaths run on the vectorized batch path and lower
into the fused native kernels like narrow ones.  A module with a net wider
than :data:`MAX_LIMB_WIDTH` is refused the same way.  Batch execution never
changes results — only speed.

``BatchSimulator(kernel_backend=...)`` selects between the NumPy program and
the fused C kernel (:mod:`repro.sim.kernels`), with automatic fallback to
the NumPy program when no C toolchain exists.  Both run one store in place,
so ``auto`` is tiered: it runs the NumPy program while the program's kernel
compiles in the background, and binds the kernel at the first cycle
boundary after the compile has finished (:meth:`BatchSimulator.poll_kernel`).
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial, reduce
from operator import add, and_, or_
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
from repro.sim.kernels.ir import (
    Abs, Const, Expr, KernelBuilder, KernelIR, Lane, MemRead, MemWrite, Popcount,
    Select, SetSlot, SetState, SlotRef, StateRef, Table, binary, const, minimum,
    numpy_source, where,
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
#: nets do not compile to lane programs (:class:`BatchCompilationError`)
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


# ---------------------------------------------------------------------------
# Per-lane state holders for fused sequential components.
# ---------------------------------------------------------------------------


class LaneRows:
    """Per-lane state of one fused sequential component, as named rows.

    Each field is an ``(n_lanes,)`` int64 row, or a list of rows (one per
    power-model port or register limb), named after the component's own
    state attribute (``_state``, ``_pending``, ``_total``, ``_count``, ...)
    and built from its reset value (a list of reset values for a row list).
    The sequential emitters of :mod:`repro.sim.codegen` therefore name one
    attribute for both targets.  Rows are allocated once and only ever
    written in place — by both lane programs' captures and commits, and by
    ``reset`` (here and in :class:`LaneMemoryState`) — so native kernels
    bind their pointers once.
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


def _lane_addr(expr: Expr, depth: int) -> Expr:
    """Per-lane address expression, coerced to an array even when constant."""
    return Lane() * 0 + expr % depth


class LaneEmitter(SourceEmitter):
    """Target: ``n_lanes`` simulations, one ``(n_lanes,)`` int64 row per slot.

    The emitter is the lane program's IR builder: every statement goes
    straight into :attr:`kb`'s :class:`~repro.sim.kernels.ir.KernelIR`
    (SSA temporaries for locals, holder rows for state, holder memories for
    storage).  Both printers write state rows in place, so a state field
    may take any expression, a bare slot or state row included.
    """

    def __init__(self, slot_of: Dict[Net, int], limbs_of: Dict[Net, int], holders,
                 n_slots: int) -> None:
        super().__init__(slot_of)
        #: wide net -> limb count (first limb at slot_of[net])
        self.limbs_of = limbs_of
        #: component -> per-lane state holder; KeyError when it has none
        self.holders = holders
        self.kb = KernelBuilder(n_slots)

    def fits(self, bits: int) -> bool:
        # int64 lanes keep 2 bits of headroom over MAX_LANE_WIDTH, and NumPy
        # shifts past the word size are undefined
        return bits <= MAX_LANE_WIDTH + 2

    def flag(self, cond: Expr) -> Expr:
        return cond

    def nonzero(self, expr: Expr) -> Expr:
        return expr.ne(0)

    def table(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)

    def state_ref(self, component):
        return self.holders[component]

    def field(self, holder, attr: str, index: Optional[int] = None) -> Expr:
        return StateRef((holder, attr, index))

    def read_row(self, holder, addr: Expr, depth: int) -> Expr:
        return MemRead((holder, "mem"), _lane_addr(addr, depth))

    def set_slot(self, slot: int, expr: Expr) -> None:
        self.kb.add(SetSlot(slot, const(expr)))

    def set_field(self, holder, attr: str, expr: Expr, index: Optional[int] = None) -> None:
        self.kb.add(SetState((holder, attr, index), const(expr)))

    def let(self, name: str, expr: Expr) -> Expr:
        return self.kb.temp(expr)

    def emit_abs(self, slot: int, expr: Expr) -> None:
        self.set_slot(slot, Abs(expr))

    def emit_mux(self, slot: int, sel: Expr, data_slots: List[int]) -> None:
        rows = [SlotRef(row) for row in data_slots]
        if len(rows) == 2:
            self.set_slot(slot, where(sel & 1, rows[1], rows[0]))
        else:
            index = self.let("_s", minimum(sel, len(rows) - 1))
            self.set_slot(slot, Select(index, tuple(rows)))

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
            self.set_slot(slot, Table(self.table(table), self.field(s, "_state")))
        return True

    def capture_fsm(self, c) -> bool:
        """Priority-ordered masked selects over per-lane state indices."""
        s = self.state_ref(c)
        st = self.let("_st", self.field(s, "_state"))
        pend = st
        open_ = self.let("_open", st.ge(0))  # all-True: no transition matched yet
        for transition in c.transitions:
            src = c.state_index[transition.source]
            tgt = c.state_index[transition.target]
            cond = st.eq(src) & open_
            for guard in transition.guards:
                expr = self.req(c, guard.signal)
                if expr is None:
                    expr = Const(0)  # unconnected status input reads as 0
                if guard.signed:
                    expr = _signed(expr, c.input_widths[guard.signal])
                cond = cond & binary(guard.op, expr, guard.value)
            cond = self.let("_c", cond)
            pend = self.let("_pend", where(cond, tgt, pend))
            open_ = self.let("_open", open_ & ~cond)
        self.set_field(s, "_pending", pend)
        return True

    def _capture_write(self, s, c, addr_port: str) -> Expr:
        """Latch a storage write for the masked-scatter commit; returns the
        per-lane address."""
        we = self.req(c, "we")
        addr = self.let("_ad", _lane_addr(self.opt(c, addr_port, 0), c.depth))
        self.set_field(s, "w_addr", addr)
        self.set_field(s, "w_en", we & 1 if we is not None else 0)
        self.set_field(s, "w_data", self.opt(c, "wdata", 0))
        return addr

    def capture_memory(self, c) -> bool:
        s = self.state_ref(c)
        addr = self._capture_write(s, c, "addr")
        # read-before-write semantics for the registered read port
        self.set_field(s, "_pending_read", MemRead((s, "mem"), addr))
        return True

    def capture_regfile(self, c) -> bool:
        self._capture_write(self.state_ref(c), c, "waddr")
        return True

    def _commit_write(self, s, c) -> None:
        if c.ports["we"].net is not None:
            enable = self.let("_msk", self.field(s, "w_en").ne(0))
            self.kb.add(MemWrite((s, "mem"), self.field(s, "w_addr"),
                                 self.field(s, "w_data"), enable))

    def commit_memory(self, c) -> None:
        s = self.state_ref(c)
        if c.sync_read:
            self.set_field(s, "_read_reg", self.field(s, "_pending_read"))
        self._commit_write(s, c)

    def commit_regfile(self, c) -> None:
        self._commit_write(self.state_ref(c), c)


# ---------------------------------------------------------------------------
# Limb-store emitters (components touching nets wider than MAX_LANE_WIDTH).
# A wide net occupies consecutive slots of little-endian 60-bit limbs; every
# emitted limb expression is masked *before* any left shift, so intermediate
# values never exceed 62 bits and the generated code stays exact on the int64
# batch path and in the fused kernels.
# ---------------------------------------------------------------------------


def _l_out(em: LaneEmitter, c, port_name: str) -> Optional[Tuple[List[int], int]]:
    """Per-limb slots plus net width of a port; None when unconnected."""
    port = c.ports.get(port_name)
    if port is None or port.net is None:
        return None
    slot = em.slot_of[port.net]
    n_limbs = em.limbs_of.get(port.net, 1)
    return [slot + k for k in range(n_limbs)], port.net.width


def _l_in(em: LaneEmitter, c, port_name: str) -> Optional[Tuple[List[Expr], int]]:
    """Per-limb slot reads plus net width of an input; None if unbound."""
    port = _l_out(em, c, port_name)
    return None if port is None else ([SlotRef(slot) for slot in port[0]], port[1])


def _l_gather(
    em: LaneEmitter,
    items: List[Tuple[Expr, int, int]],
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
                kept = expr & _mask(end - offset) if end - offset < width else expr
                part = kept << (offset - lo) if offset > lo else kept
            else:
                part = (expr >> (lo - offset)) & _mask(end - start)
            parts.append(part)
        em.set_slot(slot, reduce(or_, parts) if parts else Const(0))


def _bl_logic(em: LaneEmitter, c) -> bool:
    a, b = _l_in(em, c, "a"), _l_in(em, c, "b")
    if a is None or b is None or len(a[0]) != len(b[0]):
        return False
    y = _l_out(em, c, "y")
    if y is None:
        return True
    masks = _limb_masks(c.width)
    for k, slot in enumerate(y[0]):
        em.set_slot(slot, _LOGIC_EXPRS[c.op](a[0][k], b[0][k], masks[k]))
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
        em.set_slot(slot, a[0][k] ^ masks[k])
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
    cin = em.req(c, "cin") if c.with_carry_in else None
    if cin is not None:
        carry = cin & 1
    for k in range(n_limbs):
        terms = a[0][k] + b[0][k]
        if carry is not None:
            terms = terms + carry
        last = k == n_limbs - 1
        if last and cout is None:
            if y is not None:
                em.set_slot(y[0][k], terms & masks[k])
            break
        t = em.let("_t", terms)
        if y is not None:
            em.set_slot(y[0][k], t & masks[k])
        if last:
            em.set_slot(cout, (t >> top_bits) & 1)
        else:
            carry = em.let("_cy", t >> LIMB_BITS)
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
        terms = a[0][k] - b[0][k]
        if borrow is not None:
            terms = terms - borrow
        last = k == n_limbs - 1
        if last and y is None and borrow_out is None:
            break
        t = em.let("_t", terms)
        if y is not None:
            # a negative difference wraps exactly under the limb mask
            em.set_slot(y[0][k], t & masks[k])
        if last:
            if borrow_out is not None:
                em.set_slot(borrow_out, t.lt(0))
        else:
            borrow = em.let("_bw", t.lt(0) * 1)
    return True


def _bl_comparator(em: LaneEmitter, c) -> bool:
    if c.signed:
        return False  # no limb form of a signed wide compare
    a, b = _l_in(em, c, "a"), _l_in(em, c, "b")
    if a is None or b is None or len(a[0]) != len(b[0]):
        return False
    outs = [(port, em.out(c, port)) for port in ("lt", "eq", "gt")]
    if all(slot is None for _, slot in outs):
        return True
    top = len(a[0]) - 1
    # unsigned lexicographic compare, most-significant limb first
    lt = em.let("_lt", a[0][top].lt(b[0][top]) * 1)
    gt = em.let("_gt", a[0][top].gt(b[0][top]) * 1)
    eq = em.let("_e", a[0][top].eq(b[0][top]) * 1)
    for k in range(top - 1, -1, -1):
        lt = em.let("_lt", lt | (eq & a[0][k].lt(b[0][k])))
        gt = em.let("_gt", gt | (eq & a[0][k].gt(b[0][k])))
        eq = em.let("_e", eq & a[0][k].eq(b[0][k]))
    for (_, slot), value in zip(outs, (lt, eq, gt)):
        if slot is not None:
            em.set_slot(slot, value)
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
            em.set_slot(slot, where(sel & 1, rows[1][k], rows[0][k]))
    else:
        index = em.let("_s", minimum(sel, c.n_inputs - 1))
        for k, slot in enumerate(y[0]):
            em.set_slot(slot, Select(index, tuple(row[k] for row in rows)))
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
        em.set_slot(y, reduce(and_, (expr.eq(masks[k]) for k, expr in enumerate(a[0]))))
    elif c.op == "or":
        em.set_slot(y, reduce(or_, a[0]).ne(0))
    else:
        em.set_slot(y, reduce(add, (Popcount(expr) for expr in a[0])) & 1)
    return True


def _bl_concat(em: LaneEmitter, c) -> bool:
    items: List[Tuple[Expr, int, int]] = []
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
        return False  # no limb form of a wide sign-extension
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
            em.set_slot(slot, (c.value >> (LIMB_BITS * k)) & _LIMB_MASK)
    return True


def _bl_state_register(em: LaneEmitter, c) -> bool:
    y = _l_out(em, c, "q")
    if y is not None:
        s = em.state_ref(c)
        for k, slot in enumerate(y[0]):
            em.set_slot(slot, em.field(s, "_state", k))
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
        nxt = register_next(d_expr, em.field(s, "_state", k), reset_limb, en, clr)
        em.set_field(s, "_pending", nxt, k)
    return True


def _bl_commit_register(em: LaneEmitter, c) -> None:
    s = em.state_ref(c)
    for k in range(len(s._state)):
        em.set_field(s, "_state", em.field(s, "_pending", k), k)


#: limb-wise emitters for components touching a wide (multi-limb) net, one
#: table per phase (comb, state, capture, commit); a wide component missing
#: here keeps its module off lanes (:class:`BatchCompilationError`)
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
        return LaneRows(n_lanes, _previous=[0] * len(component._chunked),
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
    settle: Callable[[np.ndarray], None]
    clock_edge: Callable[[np.ndarray], None]
    #: the NumPy source ``settle``/``clock_edge`` run, printed from :attr:`ir`
    source: str
    n_fused: int
    #: the lowered program: printed as NumPy here, as C by a native kernel
    ir: KernelIR
    #: wide net -> limb count (first limb at slot_of[net]); empty when every
    #: net fits one lane
    limbs_of: Dict[Net, int] = None  # type: ignore[assignment]
    #: per-lane state holders for fused sequential components
    holders: Dict[object, object] = None  # type: ignore[assignment]
    #: compiled native kernel, shared by simulators over this program (safe:
    #: its state arrays never move)
    _kernel: object = None
    #: the kernel's compile in flight: ``(pid, future)`` of the process that
    #: started it (a forked child starts its own)
    _compile: object = None
    #: the error of this program's last failed compile, until one succeeds
    _build_error: Optional[str] = None

    def reset_state(self) -> None:
        """Return every lane of every sequential component to its reset state."""
        for holder in self.holders.values():
            holder.reset()


def _lower_lanes(
    module: Module,
    schedule: Schedule,
    slot_of: Dict[Net, int],
    limbs_of: Dict[Net, int],
    n_slots: int,
    n_lanes: int,
) -> Tuple[LaneEmitter, Dict[object, object]]:
    """Lower the schedule into the lane target's IR (one builder pass).

    Raises :class:`BatchCompilationError` at the first component no lane
    emitter fuses.
    """
    tables = emitter_tables()

    # components touching any multi-limb net dispatch to the limb emitters
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

    class _Holders:
        """Component -> per-lane state, built on first use."""

        def __getitem__(self, component):
            if component not in holders:
                holder = _make_holder(component, n_lanes, component in wide_components)
                if holder is None:
                    raise KeyError(component)
                holders[component] = holder
            return holders[component]

    em = LaneEmitter(slot_of, limbs_of, _Holders(), n_slots)

    def fuse(phase: int, component) -> None:
        emitter = emitter_for(phase, component)
        try:
            fused = emitter is not None and emitter(em, component)
        except KeyError:  # a kind whose state has no per-lane holder
            fused = False
        if not fused:
            raise BatchCompilationError(
                f"module {module.name!r} does not lower to lanes: no lane "
                f"emitter fuses component {component.name!r} "
                f"({component.type_name}); run it per seed on the scalar engine"
            )
        em.n_fused += 1

    em.kb.phase("settle")
    for component in schedule.state_sources:
        fuse(state, component)
    for component in schedule.ordered:
        fuse(comb, component)
    em.kb.phase("clock_edge")
    for component in schedule.sequential:
        fuse(capture, component)
    for component in schedule.sequential:
        emitter_for(commit, component)(em, component)
    return em, holders


#: module -> (mutation_key, schedule, programs): ``programs`` maps lane
#: counts to programs, at most two: the one-lane program ``estimate``
#: routes to and the last program of any other lane count; or it is the
#: refusal message of a module that does not lower (at any lane count)
_BATCH_CACHE: "weakref.WeakKeyDictionary[Module, tuple]" = weakref.WeakKeyDictionary()

#: process-lifetime count of lane programs built (cache misses in
#: :func:`compile_module_batch` that did not refuse the module); the
#: :mod:`repro.serve` coalescer reads this to prove that N merged jobs shared
#: one build.  Lives in the :mod:`repro.obs` registry;
#: ``PROGRAM_BUILD_COUNT`` stays readable as a module attribute via
#: :func:`__getattr__` below.
_PROGRAM_BUILDS = obs.counter(
    "repro_program_builds_total",
    "Lane-program compilations (compile_module_batch cache misses)",
    essential=True,
)


def __getattr__(name: str) -> int:
    if name == "PROGRAM_BUILD_COUNT":
        return int(_PROGRAM_BUILDS.total())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: serializes :func:`compile_module_batch`'s cache lookups and builds, so
#: threads asking for one module's program at once get one program
_PROGRAM_LOCK = threading.Lock()


def _cache(module: Module, entry: tuple) -> None:
    try:
        _BATCH_CACHE[module] = entry
    except TypeError:  # pragma: no cover - unweakrefable module subclass
        pass


def compile_module_batch(
    module: Module, n_lanes: int, schedule: Optional[Schedule] = None
) -> BatchProgram:
    """Compile ``module`` into a lane-vectorized :class:`BatchProgram`, cached
    per module: its one-lane program and its last program of another lane
    count.

    The program owns per-lane sequential state, so — like the scalar
    ``Simulator`` over a shared module — only one :class:`BatchSimulator`
    should actively drive a given module at a given lane count at a time.
    Raises :class:`BatchCompilationError` when a net is wider than
    :data:`MAX_LIMB_WIDTH` or a component does not fuse; a refusal is
    remembered, at every lane count, until the module or schedule changes.
    """
    if n_lanes < 1:
        raise ValueError(f"batch compilation needs n_lanes >= 1, got {n_lanes}")
    widest = max(module.nets.values(), key=lambda net: net.width, default=None)
    if widest is not None and widest.width > MAX_LIMB_WIDTH:
        raise BatchCompilationError(
            f"module {module.name!r} has net {widest.name!r} of {widest.width} "
            f"bits; lane programs hold nets of up to MAX_LIMB_WIDTH = "
            f"{MAX_LIMB_WIDTH} bits"
        )
    with _PROGRAM_LOCK:
        key = module_mutation_key(module)
        if schedule is None:
            schedule = schedule_for(module, key)
        cached = _BATCH_CACHE.get(module)
        programs: Dict[int, BatchProgram] = {}
        if cached is not None and cached[0] == key and cached[1] is schedule:
            programs = cached[2]
            if isinstance(programs, str):  # refused at any lane count
                raise BatchCompilationError(programs)
            if n_lanes in programs:
                return programs[n_lanes]
        build_span = obs.span("program.build", module=module.name, n_lanes=n_lanes)

        # wide nets (61..240 bits) take ceil(width / 60) consecutive limb slots
        slot_of: Dict[Net, int] = {}
        limbs_of: Dict[Net, int] = {}
        n_slots = 0
        for net in module.nets.values():
            slot_of[net] = n_slots
            n_limbs = _limb_count(net.width)
            if n_limbs > 1:
                limbs_of[net] = n_limbs
            n_slots += n_limbs
        try:
            em, holders = _lower_lanes(module, schedule, slot_of, limbs_of, n_slots, n_lanes)
            # the start/done ports a job testbench (repro.sim.declarative) drives
            ports = module.ports
            em.kb.ir.job_handshake = (
                "start" in ports and not ports["start"].is_output
                and "done" in ports and ports["done"].is_output)
            source, namespace = numpy_source(em.kb.ir)
            namespace.update(_lidx=np.arange(n_lanes), __builtins__={})
            exec(compile(source, f"<batch:{module.name}>", "exec"), namespace)
        except Exception as error:
            build_span.set(error=type(error).__name__)
            build_span.end()
            if isinstance(error, BatchCompilationError):
                _cache(module, (key, schedule, str(error)))
                raise
            raise BatchCompilationError(
                f"failed to batch-compile module {module.name!r}: {error}"
            ) from error

        program = BatchProgram(
            n_slots=n_slots,
            n_lanes=n_lanes,
            slot_of=slot_of,
            limbs_of=limbs_of,
            settle=namespace["_settle"],
            clock_edge=namespace["_clock_edge"],
            source=source,
            n_fused=em.n_fused,
            ir=em.kb.ir,
            holders=holders,
        )
        # a program's holders and kernel binding are lane-sized (the C
        # library is shared by source): one-lane estimate calls and blocks
        # of one other lane count keep a program each
        programs = {n: other for n, other in programs.items()
                    if (n == 1) != (n_lanes == 1)}
        _cache(module, (key, schedule, {**programs, n_lanes: program}))
        _PROGRAM_BUILDS.inc()
        build_span.set(n_fused=em.n_fused)
        build_span.end()
        return program


# ---------------------------------------------------------------------------
# Native kernels of lane programs.
# ---------------------------------------------------------------------------

#: guards every program's kernel and the compile in flight for it
_KERNEL_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    # another thread may have held a lock at the fork
    global _KERNEL_LOCK, _PROGRAM_LOCK
    _KERNEL_LOCK = threading.Lock()
    _PROGRAM_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _kernel_build(program: BatchProgram, background: bool) -> Future:
    """The build of ``program``'s native kernel: done once the kernel is
    built; else the compile of it in flight in this process (one compile per
    program: a second request joins it); else a new compile, queued on the
    background compile worker or, without ``background``, run here and now.
    The future holds the kernel or the compile's error."""
    from repro.sim import kernels

    future: Future = Future()
    with _KERNEL_LOCK:
        if program._kernel is not None:
            future.set_result(program._kernel)
            return future
        if program._compile is not None and program._compile[0] == os.getpid():
            return program._compile[1]
        if background:
            future = kernels.compile_kernel_async(program.ir, program.n_lanes)
        program._compile = (os.getpid(), future)
    future.add_done_callback(partial(_kernel_built, program))
    if not background:
        try:
            future.set_result(kernels.compile_kernel(program.ir, program.n_lanes))
        except Exception as error:  # the caller's result() raises it
            future.set_exception(error)
    return future


def _kernel_built(program: BatchProgram, future: Future) -> None:
    """Keep a finished compile's kernel on its program; a failed one leaves
    its error there, and the next request compiles again."""
    with _KERNEL_LOCK:
        if program._compile is not None and program._compile[1] is future:
            program._compile = None
        error = future.exception()
        if error is None:
            program._kernel = future.result()
        program._build_error = None if error is None else str(error)


def _finished_compile(simulator: "BatchSimulator") -> Optional[Future]:
    """The compile ``auto`` waits for, once it has finished; polled at cycle
    boundaries (the handover tests replace it to pick the swap cycle)."""
    future = simulator._compile
    return future if future.done() else None


# ---------------------------------------------------------------------------
# The batch simulator.
# ---------------------------------------------------------------------------

ArrayLike = Union[int, Sequence[int], np.ndarray]


def _no_port(module, kind: str, name: str, ports) -> KeyError:
    """The error for an unknown port name, listing the valid ones."""
    valid = ", ".join(sorted(ports)) or "<none>"
    return KeyError(f"module {module.name!r} has no {kind} port {name!r}; "
                    f"valid {kind} ports: {valid}")


class BatchSimulator:
    """Cycle-accurate simulation of ``n_lanes`` independent stimulus lanes.

    The API mirrors :class:`~repro.sim.engine.Simulator` but every value is an
    ``(n_lanes,)`` array: ``set_input`` accepts a scalar (broadcast to all
    lanes) or a per-lane array, ``get_output``/``get_net`` return per-lane
    arrays.  Lane ``i`` behaves exactly like a scalar simulation driven with
    lane ``i``'s inputs, so results never depend on lane count.  A module
    with a component no lane emitter fuses raises
    :class:`BatchCompilationError` (see :func:`compile_module_batch`).
    """

    def __init__(
        self,
        module: Module,
        n_lanes: int,
        schedule: Optional[Schedule] = None,
        kernel_backend: Optional[str] = None,
        kernel_threads: Optional[Union[int, str]] = None,
        program: Optional[BatchProgram] = None,
    ) -> None:
        if n_lanes < 1:
            raise ValueError(f"BatchSimulator needs n_lanes >= 1, got {n_lanes}")
        from repro.sim import kernels

        requested = kernels.resolve_kernel_backend(kernel_backend)
        threads = kernels.resolve_kernel_threads(kernel_threads)
        self.module = module
        self.n_lanes = n_lanes
        #: the lane program: ``program`` when the caller has just had it
        #: from :func:`compile_module_batch` for this module and lane count
        self.program = (compile_module_batch(module, n_lanes, schedule)
                        if program is None else program)
        #: the fused kernel executing settle/clock_edge, or None (plain batch)
        self.kernel: Optional["kernels.NativeKernel"] = None
        #: resolved kernel backend actually in effect ("native"/"off")
        self.kernel_backend = "off"
        #: why a requested kernel fell back to the plain batch path (a
        #: missing or failing C toolchain), if it did
        self.kernel_fallback: Optional[str] = None
        #: how the backend was chosen (notably what "auto" resolved to and why)
        self.kernel_decision = f"{requested} (requested)"
        #: worker count this simulator's native kernel calls run with (1 for off)
        self.kernel_threads = 1
        self._threads = threads
        #: the kernel compile "auto" runs the NumPy program during, until
        #: :meth:`poll_kernel` binds its kernel (None: nothing to wait for)
        self._compile: Optional[Future] = None
        self.cycle = 0
        if requested == "auto" and kernels.find_compiler() is None:
            self.kernel_decision = "auto -> off (no C toolchain)"
        elif requested == "auto":
            self._compile = _kernel_build(self.program, background=True)
            if self.poll_kernel():
                self.kernel_decision = "auto -> native (kernel ready)"
            elif self._compile is not None:
                self.kernel_decision = "auto -> off (native kernel compiling)"
        elif requested == "native":
            try:
                self._bind(_kernel_build(self.program, background=False).result())
            except kernels.NativeToolchainError as error:
                self.kernel_fallback = str(error)
        self._v = np.zeros((self.program.n_slots, n_lanes), dtype=np.int64)
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
        self._v[:] = 0
        self.cycle = 0
        self.settle()

    # ------------------------------------------------------------------ I/O
    def _lane_array(self, value: ArrayLike) -> np.ndarray:
        array = np.asarray(value)
        if array.shape != (self.n_lanes,):
            raise ValueError(
                f"per-lane input must have shape ({self.n_lanes},), got {array.shape}"
            )
        return array

    def _coerce(self, value: ArrayLike, width: int) -> ArrayLike:
        mask = (1 << width) - 1
        if isinstance(value, (int, np.integer)):
            return int(value) & mask
        return self._lane_array(value).astype(np.int64) & mask

    def _write_limbs(self, slot: int, n_limbs: int, width: int, value: ArrayLike) -> None:
        """Split a wide value (scalar or per-lane) across its limb rows."""
        mask = (1 << width) - 1
        if isinstance(value, (int, np.integer)):
            masked = int(value) & mask
            for k in range(n_limbs):
                self._v[slot + k] = (masked >> (LIMB_BITS * k)) & _LIMB_MASK
            return
        values = [int(x) & mask for x in self._lane_array(value)]
        for k in range(n_limbs):
            shift = LIMB_BITS * k
            self._v[slot + k] = np.fromiter(
                ((x >> shift) & _LIMB_MASK for x in values),
                dtype=np.int64,
                count=self.n_lanes,
            )

    def _read(self, slot: int, n_limbs: int) -> np.ndarray:
        """A copy of a row; a wide row assembles an object array of Python ints."""
        if n_limbs == 1:
            return self._v[slot].copy()
        value = self._v[slot].astype(object)
        for k in range(1, n_limbs):
            value = value | (self._v[slot + k].astype(object) << (LIMB_BITS * k))
        return value

    def _input_port(self, name: str) -> Tuple[int, int]:
        """``(slot, width)`` of an input port; unknown names list the valid ones."""
        try:
            return self._input_keys[name]
        except KeyError:
            raise _no_port(self.module, "input", name, self._input_keys) from None

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
            raise _no_port(self.module, "output", name, self._output_keys) from None
        return self._read(slot, self._port_limbs[name])

    def get_outputs(self) -> Dict[str, np.ndarray]:
        return {name: self.get_output(name) for name in self._output_keys}

    def get_net(self, net: Union[Net, str]) -> np.ndarray:
        """Per-lane values of any net, by object or name."""
        if isinstance(net, str):
            net = self.module.nets[net]
        return self._read(self.program.slot_of[net], self.program.limbs_of.get(net, 1))

    # ------------------------------------------------------------- kernels
    def _bind(self, kernel) -> None:
        self.kernel = kernel
        self.kernel_backend = "native"
        # lane blocks fan out over OpenMP threads where the kernel was built
        # with them; any count is bit-identical.  The kernel is shared by
        # every simulator of this program, so each call passes this count.
        self.kernel_threads = self._threads

    @property
    def compiling(self) -> bool:
        """Whether ``auto`` runs the NumPy program while the kernel compiles."""
        return self._compile is not None

    def poll_kernel(self) -> bool:
        """Bind the native kernel once ``auto``'s background compile has
        finished; call it between cycles.  Returns whether it bound the
        kernel just now.  The kernel runs the same store and holders from
        the next settle on, so the lanes continue bit for bit.  A failed
        compile leaves the NumPy program in place and says why in
        :attr:`kernel_fallback`."""
        if self._compile is None:
            return False
        future = _finished_compile(self)
        if future is None:
            return False
        self._compile = None
        from repro.sim.kernels import NativeToolchainError

        try:
            self._bind(future.result())
        except NativeToolchainError as error:
            self.kernel_fallback = str(error)
            self.kernel_decision = "auto -> off (native kernel build failed)"
            return False
        self.kernel_decision = f"auto -> native from cycle {self.cycle}"
        return True

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
        """Advance all lanes by ``cycles`` clock cycles: each cycle drives
        ``inputs``, settles and clocks, on the kernel when one is bound (and
        binds ``auto``'s kernel once its compile has finished)."""
        for _ in range(cycles):
            self.poll_kernel()
            if inputs:
                self.set_inputs(inputs)
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
    holders, not on the component object, so this proxy reroutes those
    accessors to one lane's private state, and runs property getters
    (``value``, an FSM's ``state``) against it.  Plain data attributes
    (``type_name``, ``width``, ``depth``, ...) pass through; any other method
    would silently touch the *scalar* state shared by all lanes, so it
    raises :class:`LaneStateError` instead.
    """

    #: stateless component methods that are safe to pass through
    _SAFE_METHODS = frozenset({"monitored_ports"})

    def __init__(self, component, lane: int, holder=None) -> None:
        object.__setattr__(self, "_component", component)
        object.__setattr__(self, "_lane", lane)
        object.__setattr__(self, "_holder", holder)

    # ------------------------------------------------- backdoor state access
    def _mem(self, method: str) -> np.ndarray:
        """This lane's storage: the holder's ``(depth, n_lanes)`` array."""
        holder = self._holder
        if not isinstance(holder, LaneMemoryState):
            raise LaneStateError(
                f"component {self._component.name!r} keeps no per-lane storage; "
                f"{method}() is not available through a lane view"
            )
        return holder.mem

    def read_word(self, addr: int) -> int:
        return int(self._mem("read_word")[addr, self._lane])

    def write_word(self, addr: int, value: int) -> None:
        self._mem("write_word")[addr, self._lane] = _mask_int(value, self._component.width)

    def load(self, contents, offset: int = 0) -> None:
        mem, width = self._mem("load"), self._component.width
        for i, value in enumerate(contents):
            mem[offset + i, self._lane] = _mask_int(value, width)

    def _lane_state(self) -> Dict[str, object]:
        """This lane's state attributes in the component's own scalar form."""
        component, lane, holder = self._component, self._lane, self._holder
        if not isinstance(holder, LaneRows):
            return {}
        state = {}
        for name, value in holder.lane_values(lane).items():
            if isinstance(component, FSMController):
                value = component.states[value]  # rows hold state indices
            elif isinstance(value, list) and isinstance(component, seq.Register):
                value = sum(limb << (LIMB_BITS * k) for k, limb in enumerate(value))
            state[name] = value
        return state

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
        holders = simulator.program.holders
        self.components: Dict[str, object] = {}
        for comp_name, component in module.components.items():
            if component.is_sequential:
                self.components[comp_name] = _LaneSequentialProxy(
                    component, lane, holder=holders.get(component)
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
            raise _no_port(self.module, "output", name, self.simulator._output_keys) from None
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
