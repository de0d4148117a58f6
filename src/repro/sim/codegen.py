"""One lowering, printed for two simulation targets.

:func:`generate_source` lowers a levelized :class:`~repro.sim.scheduler.Schedule`
into the source of two plain Python functions over a flat list ``v`` of net
values ("slots"):

* ``_settle(v)`` — the entire combinational schedule as straight-line code,
  state-source outputs first, then every levelized component in topological
  order,
* ``_clock_edge(v)`` — sequential capture followed by commit, without any
  per-cycle dict construction for the common storage elements.

Components are fused into masked integer expressions that read and write
slots directly.  What cannot fuse (an FSM controller's capture on this
target, the ``sample_on_strobe_only`` power model, anything user-defined)
falls back to a pre-bound ``evaluate``/``capture`` call fed by an inline
dict literal over slot reads — so any component that simulates on the
interpreter also simulates compiled, just with less of the speedup.

The emitters here are written once, against the small target interface of
:class:`SourceEmitter`, and compose expressions of the typed kernel IR
(:mod:`repro.sim.kernels.ir`) for both targets.  :class:`ScalarEmitter`
(Python ints in a slot list, this module) prints each expression as
Python-int source as it goes (:func:`py_source`);
:class:`~repro.sim.batch.LaneEmitter` (:mod:`repro.sim.batch`) appends the
statements to one :class:`~repro.sim.kernels.ir.KernelIR`, which is then
printed as the NumPy lane program and as the C kernel.  A target only spells
what differs: 0/1 ints vs bool arrays, how a ROM table or a memory row is
read, the lane store's int64 width guards and the mux algorithm.  Sequential
emitters read and write the component's own state attribute names
(``_state``, ``_pending``, ``_total``, ...): the scalar target binds the
component itself, the lane target a holder whose rows carry the same names
and are written in place.  Only the kinds whose state layouts differ
(FSM state name vs index, tuple pending write vs masked scatter) are
lowered by each target itself, through one entry of the same dispatch table.
The hardware power model has one lowering for both: its capture is one
:class:`~repro.sim.kernels.ir.TableSum` over its ports' toggle words
(``_previous[k] ^`` the monitored slot; ``_previous`` is a list on the
component and a row list on the holder), and its commit writes
``_previous[k]`` straight from the monitored slot.

Fusion keys off the concrete component class (not ``type_name``), so a
subclass with an overridden ``evaluate`` is never fused incorrectly.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netlist.nets import Net
from repro.sim.kernels.ir import (
    Bin, Const, Expr, MemRead, Min, Popcount, SlotRef, StateRef, Table, TableSum, TempRef,
    Unary, Where, const, minimum, where,
)

# Dispatch tables are built lazily: the power-estimation component classes
# live in repro.core, which itself imports repro.sim, and resolving them at
# import time would create a cycle.  By the time a module is compiled (first
# Simulator construction) every involved module is importable.
_TABLES: Optional[tuple] = None


def _mask(width: int) -> int:
    return (1 << width) - 1


def _signed(expr: Expr, width: int) -> Expr:
    """Branchless two's-complement reinterpretation of a masked value."""
    sign = 1 << (width - 1)
    return (expr ^ sign) - sign


# ---------------------------------------------------------------------------
# Python-int printing (the scalar target).
# ---------------------------------------------------------------------------


def py_source(x: Expr) -> str:
    """``x`` as Python-int source (every compound parenthesized).

    The scalar target names state rows, locals, tables and memory rows by
    their source spelling (``StateRef("_c3._state")``, ``TempRef("_t")``,
    ``Table("_rom4", ...)``, ``MemRead("_c5._state", ...)``).
    """
    kind = type(x)
    if kind is SlotRef:
        return f"v[{x.slot}]"
    if kind is Bin:
        return f"({py_source(x.a)} {x.op} {py_source(x.b)})"
    if kind is Const:
        return str(x.value)
    if kind is TempRef:
        return x.name
    if kind is StateRef:
        return x.row
    if kind is Where:
        return f"({py_source(x.a)} if {py_source(x.cond)} else {py_source(x.b)})"
    if kind is Table:
        return f"{x.table}[{py_source(x.index)}]"
    if kind is MemRead:
        return f"{x.mem}[{py_source(x.addr)}]"
    if kind is Unary:
        return f"({'-' if x.op == 'neg' else '~'}{py_source(x.a)})"
    if kind is Min:
        a, b = py_source(x.a), py_source(x.b)
        return f"({a} if {a} <= {b} else {b})"
    if kind is Popcount:
        return f"({py_source(x.a)}).bit_count()"
    if kind is TableSum:
        # per port: its toggle word once, and its chunks only when it toggled
        ports = [
            "((" + " + ".join(f"{table}[(_t >> {shift}) & 255]" if shift
                              else f"{table}[_t & 255]" for table, shift in chunks)
            + f") if (_t := {py_source(previous)} ^ {py_source(current)}) else 0)"
            for previous, current, chunks in x.terms
        ]
        return "(" + " + ".join(ports) + ")"
    raise TypeError(f"no scalar spelling for IR node {x!r}")


class SourceEmitter:
    """The target interface the shared emitters are written against.

    Port accessors return IR expressions.  Subclasses are the code-generation
    targets; each implements these hooks:

    * ``fits(bits)`` — whether a ``bits``-wide intermediate (or shift
      amount) is exact on the target,
    * ``flag(cond)``, ``nonzero(expr)`` — the 0/1 value of a comparison, and
      of ``expr != 0``,
    * ``table(values)`` — a constant table (ROM contents, power-model
      byte tables) for :class:`Table` and :class:`TableSum`,
    * ``state_ref(c)`` — the object holding ``c``'s sequential state;
      ``field(state, attr, index=None)`` reads one of its attributes (item
      ``index`` of a list attribute), ``set_field(state, attr, expr,
      index=None)`` writes one, and ``read_row(state, addr, depth)`` reads
      a memory/register-file row,
    * ``set_slot(slot, expr)`` — ``v[slot] = expr``; ``let(name, expr)``
      binds a local (named ``name`` on the scalar target) and reads it,
    * ``emit_abs(slot, expr)`` — ``v[slot] = |expr|`` for a signed ``expr``;
      ``emit_mux(slot, sel, data_slots)`` —
      ``v[slot] = v[data_slots[min(sel, n - 1)]]``.

    Each target also lowers the sequential kinds whose state layouts differ
    (FSM state name vs index, tuple pending write vs masked scatter):
    ``state_fsm``, ``capture_fsm``, ``capture_memory``, ``capture_regfile``
    (True when fused, like every emitter) and ``commit_memory``,
    ``commit_regfile``.
    """

    def __init__(self, slot_of: Dict[Net, int]) -> None:
        self.slot_of = slot_of
        self.n_fused = 0
        self._uid = 0

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def req(self, component, port_name: str) -> Optional[Expr]:
        """Slot read of a *required* input; None when unconnected.

        A ``None`` makes the caller fall back to the generic ``evaluate``
        path, which reproduces the interpreter's ``KeyError`` semantics for
        unconnected required inputs.
        """
        slot = self.out(component, port_name)
        return None if slot is None else SlotRef(slot)

    def opt(self, component, port_name: str, default: int = 0) -> Expr:
        """Slot read of an ``inputs.get(name, default)`` input."""
        expr = self.req(component, port_name)
        return Const(default) if expr is None else expr

    def out(self, component, port_name: str) -> Optional[int]:
        """Slot of a component port, or None when unconnected."""
        port = component.ports.get(port_name)
        if port is None or port.net is None:
            return None
        return self.slot_of[port.net]

    def connected_outputs(self, component) -> List[Tuple[str, int]]:
        return [
            (p.name, self.slot_of[p.net])
            for p in component.output_ports
            if p.net is not None
        ]

    def connected_inputs(self, component) -> List[Tuple[str, int]]:
        return [
            (p.name, self.slot_of[p.net])
            for p in component.input_ports
            if p.net is not None
        ]


class ScalarEmitter(SourceEmitter):
    """Target: one simulation, Python ints in a flat slot list.

    Accumulates source lines plus the exec environment they reference.
    """

    def __init__(self, slot_of: Dict[Net, int]) -> None:
        super().__init__(slot_of)
        self.n_fallback = 0
        self.env: Dict[str, object] = {}
        self.lines: List[str] = []

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def bind(self, name: str, obj: object) -> str:
        self.env[name] = obj
        return name

    def fits(self, bits: int) -> bool:
        return True  # Python ints never overflow

    def flag(self, cond: Expr) -> Expr:
        return where(cond, 1, 0)

    nonzero = flag  # a truth test of any int

    def table(self, values: Sequence[int]) -> str:
        return self.bind(f"_rom{self.uid()}", values)

    def state_ref(self, component) -> str:
        return self.bind(f"_c{self.uid()}", component)

    def field(self, state: str, attr: str, index: Optional[int] = None) -> Expr:
        return StateRef(f"{state}.{attr}" + ("" if index is None else f"[{index}]"))

    def read_row(self, state: str, addr: Expr, depth: int) -> Expr:
        return MemRead(f"{state}._state", addr % depth)

    def set_slot(self, slot: int, expr: Expr) -> None:
        self.emit(f"v[{slot}] = {py_source(expr)}")

    def set_field(self, state: str, attr: str, expr: Expr,
                  index: Optional[int] = None) -> None:
        self.emit(f"{py_source(self.field(state, attr, index))} = {py_source(expr)}")

    def let(self, name: str, expr: Expr) -> Expr:
        self.emit(f"{name} = {py_source(expr)}")
        return TempRef(name)

    def emit_abs(self, slot: int, expr: Expr) -> None:
        t = self.let("_t", expr)
        self.set_slot(slot, where(t.lt(0), -t, t))

    def emit_mux(self, slot: int, sel: Expr, data_slots: List[int]) -> None:
        table = self.bind(f"_mx{self.uid()}", tuple(data_slots))
        last = len(data_slots) - 1
        self.emit(f"_s = {py_source(sel)}")
        self.emit(f"if _s > {last}: _s = {last}")
        self.emit(f"v[{slot}] = v[{table}[_s]]")

    # ------------------------------------------------------------ fallbacks
    def fallback_evaluate(self, component, empty_inputs: bool = False) -> None:
        """Generic path: bound ``evaluate`` call fed by an inline dict literal."""
        outs = self.connected_outputs(component)
        if not outs:
            return
        name = self.bind(f"_ev{self.uid()}", component.evaluate)
        args = "{}" if empty_inputs else self._inputs_literal(component)
        self.emit(f"_o = {name}({args})")
        for port, slot in outs:
            self.emit(f"v[{slot}] = _o[{port!r}]")
        self.n_fallback += 1

    def fallback_capture(self, component) -> None:
        name = self.bind(f"_cap{self.uid()}", component.capture)
        self.emit(f"{name}({self._inputs_literal(component)})")
        self.n_fallback += 1

    def _inputs_literal(self, component) -> str:
        """The connected inputs as a dict literal over slot reads."""
        pairs = self.connected_inputs(component)
        return "{" + ", ".join(f"{port!r}: v[{slot}]" for port, slot in pairs) + "}"

    def commit_generic(self, component) -> None:
        name = self.bind(f"_cm{self.uid()}", component.commit)
        self.emit(f"{name}()")

    commit_memory = commit_regfile = commit_generic

    # ---------------------------------------------- per-target sequential
    def state_fsm(self, c) -> bool:
        from repro.netlist.signals import mask_value

        outs = self.connected_outputs(c)
        if not outs:
            return True
        table = {
            state: tuple(
                mask_value(assigns.get(port, 0), c.output_widths[port])
                for port, _ in outs
            )
            for state, assigns in c.moore_outputs.items()
        }
        uid = self.uid()
        obj = self.bind(f"_c{uid}", c)
        tbl = self.bind(f"_ft{uid}", table)
        self.emit(f"_o = {tbl}[{obj}._state]")
        for index, (_, slot) in enumerate(outs):
            self.emit(f"v[{slot}] = _o[{index}]")
        return True

    def capture_fsm(self, c) -> bool:
        return False  # the guard walk stays on the component's own capture

    def capture_memory(self, c) -> bool:
        obj = self.state_ref(c)
        addr = py_source(self.opt(c, "addr", 0))
        we = self.req(c, "we")
        wdata = py_source(self.opt(c, "wdata", 0))
        self.emit(f"_t = {addr} % {c.depth}")
        if we is not None:
            self.emit(f"{obj}._pending_write = (_t, {wdata}) if {py_source(we)} & 1 else None")
        else:
            self.emit(f"{obj}._pending_write = None")
        self.emit(f"{obj}._pending_read = {obj}._state[_t]")
        return True

    def capture_regfile(self, c) -> bool:
        obj = self.state_ref(c)
        we = self.req(c, "we")
        if we is None:
            self.emit(f"{obj}._pending_write = None")
        else:
            waddr = py_source(self.opt(c, "waddr", 0))
            wdata = py_source(self.opt(c, "wdata", 0))
            self.emit(
                f"{obj}._pending_write = ({waddr} % {c.depth}, {wdata}) "
                f"if {py_source(we)} & 1 else None"
            )
        return True


# ---------------------------------------------------------------------------
# Combinational (levelized) component emitters, shared by both targets.  Each
# returns True when it fused the component; False defers to the target's
# generic fallback.
# ---------------------------------------------------------------------------


def _emit_adder(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    terms = a + b
    cin = em.req(c, "cin") if c.with_carry_in else None
    if cin is not None:
        terms = terms + cin
    y, cout = em.out(c, "y"), em.out(c, "cout") if c.with_carry_out else None
    mask = _mask(c.width)
    if cout is not None:
        t = em.let("_t", terms)
        if y is not None:
            em.set_slot(y, t & mask)
        em.set_slot(cout, (t >> c.width) & 1)
    elif y is not None:
        em.set_slot(y, terms & mask)
    return True


def _emit_subtractor(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    y = em.out(c, "y")
    borrow = em.out(c, "borrow") if c.with_borrow_out else None
    mask = _mask(c.width)
    if borrow is not None:
        t = em.let("_t", a - b)
        if y is not None:
            em.set_slot(y, t & mask)
        em.set_slot(borrow, em.flag(t.lt(0)))
    elif y is not None:
        em.set_slot(y, (a - b) & mask)
    return True


def _emit_addsub(em: SourceEmitter, c) -> bool:
    a, b, sub = em.req(c, "a"), em.req(c, "b"), em.req(c, "sub")
    if a is None or b is None or sub is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        em.set_slot(y, where(sub & 1, a - b, a + b) & _mask(c.width))
    return True


def _emit_multiplier(em: SourceEmitter, c) -> bool:
    if not em.fits(c.width_a + c.width_b):
        return False  # the full product would overflow the target's word
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    y = em.out(c, "y")
    if y is None:
        return True
    if c.signed:
        a = _signed(a, c.width_a)
        b = _signed(b, c.width_b)
    em.set_slot(y, (a * b) & _mask(c.width_y))
    return True


def _emit_comparator(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    if c.signed:
        a = _signed(a, c.width)
        b = _signed(b, c.width)
    a = em.let("_a", a)
    b = em.let("_b", b)
    for port, op in (("lt", a.lt), ("eq", a.eq), ("gt", a.gt)):
        slot = em.out(c, port)
        if slot is not None:
            em.set_slot(slot, em.flag(op(b)))
    return True


def _emit_absval(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        # |to_signed(a)| <= 2^(width-1) always fits the unsigned output range.
        em.emit_abs(y, _signed(a, c.width))
    return True


def _emit_saturator(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is None:
        return True
    if c.signed:
        lo = -(1 << (c.width_out - 1))
        hi = (1 << (c.width_out - 1)) - 1
        mask = _mask(c.width_out)
        t = em.let("_t", _signed(a, c.width_in))
        upper = where(t.gt(hi), hi, t & mask)
        em.set_slot(y, where(t.lt(lo), lo & mask, upper))
    else:
        em.set_slot(y, minimum(a, _mask(c.width_out)))
    return True


def _emit_shift(em: SourceEmitter, c, a: Expr, amount, max_amount: int) -> bool:
    """Shifter body shared by the constant- and variable-amount kinds."""
    left = c.direction == "left"
    if not em.fits(max_amount + (c.width if left else 0)):
        return False  # result bits (or the shift amount) exceed the word
    y = em.out(c, "y")
    if y is None:
        return True
    mask = _mask(c.width)
    if left:
        em.set_slot(y, (a << amount) & mask)
    elif c.arithmetic:
        em.set_slot(y, (_signed(a, c.width) >> amount) & mask)
    else:
        em.set_slot(y, a >> amount)
    return True


def _emit_shifter_const(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    return a is not None and _emit_shift(em, c, a, c.amount, c.amount)


def _emit_shifter_var(em: SourceEmitter, c) -> bool:
    a, amount = em.req(c, "a"), em.req(c, "amount")
    if a is None or amount is None:
        return False
    return _emit_shift(em, c, a, amount, _mask(c.ports["amount"].width))


def _emit_mux(em: SourceEmitter, c) -> bool:
    sel = em.req(c, "sel")
    data = [c.ports[f"d{i}"].net for i in range(c.n_inputs)]
    if sel is None or any(net is None for net in data):
        return False
    y = em.out(c, "y")
    if y is not None:
        em.emit_mux(y, sel, [em.slot_of[net] for net in data])
    return True


#: bitwise logic op -> expression over (a, b, all-ones mask)
_LOGIC_EXPRS: Dict[str, Callable[[Expr, Expr, int], Expr]] = {
    "and": lambda a, b, m: a & b,
    "or": lambda a, b, m: a | b,
    "xor": lambda a, b, m: a ^ b,
    "nand": lambda a, b, m: (a & b) ^ m,
    "nor": lambda a, b, m: (a | b) ^ m,
    "xnor": lambda a, b, m: (a ^ b) ^ m,
}


def _emit_logic(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        em.set_slot(y, _LOGIC_EXPRS[c.op](a, b, _mask(c.width)))
    return True


def _emit_not(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        em.set_slot(y, a ^ _mask(c.width))
    return True


def _emit_reduce(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is None:
        return True
    if c.op == "and":
        em.set_slot(y, em.flag(a.eq(_mask(c.width))))
    elif c.op == "or":
        em.set_slot(y, em.nonzero(a))
    else:
        em.set_slot(y, Popcount(a) & 1)
    return True


def _emit_concat(em: SourceEmitter, c) -> bool:
    parts = []
    shift = 0
    for i, width in enumerate(c.widths):
        expr = em.req(c, f"i{i}")
        if expr is None:
            return False
        parts.append(expr if shift == 0 else expr << shift)
        shift += width
    y = em.out(c, "y")
    if y is not None:
        em.set_slot(y, reduce(or_, parts))
    return True


def _emit_slice(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        shifted = a if c.low == 0 else a >> c.low
        em.set_slot(y, shifted & _mask(c.width_out))
    return True


def _emit_extend(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        if c.signed:
            em.set_slot(y, _signed(a, c.width_in) & _mask(c.width_out))
        else:
            em.set_slot(y, a)
    return True


def _emit_decoder(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        em.set_slot(y, Const(1) << a)
    return True


def _emit_rom(em: SourceEmitter, c) -> bool:
    y = em.out(c, "rdata")
    if y is not None:
        em.set_slot(y, Table(em.table(c.contents), em.opt(c, "addr", 0) % c.depth))
    return True


def _emit_regfile_read(em: SourceEmitter, c) -> bool:
    state = em.state_ref(c)
    for i in range(c.n_read_ports):
        slot = em.out(c, f"rdata{i}")
        if slot is not None:
            addr = em.opt(c, f"raddr{i}", 0)
            em.set_slot(slot, em.read_row(state, addr, c.depth))
    return True


def _emit_memory_async_read(em: SourceEmitter, c) -> bool:
    if c.sync_read:
        return False
    slot = em.out(c, "rdata")
    if slot is not None:
        state = em.state_ref(c)
        addr = em.opt(c, "addr", 0)
        em.set_slot(slot, em.read_row(state, addr, c.depth))
    return True


# ---------------------------------------------------------------------------
# Sequential emitters, shared by both targets: state sources (outputs
# produced before combinational evaluation), captures (clock edge, before
# commit) and commits.  They read and write the component's own state
# attribute names (``_state``, ``_pending``, ``_total``, ...), which the lane
# target's holders share.  Kinds whose state layouts differ between targets
# dispatch to the target's own method through :func:`_per_target`.
# ---------------------------------------------------------------------------


def state_output(port: str, attr: str) -> Callable[[SourceEmitter, object], bool]:
    """State-source emitter driving ``port`` from one state attribute."""

    def emit(em: SourceEmitter, c) -> bool:
        slot = em.out(c, port)
        if slot is not None:
            em.set_slot(slot, em.field(em.state_ref(c), attr))
        return True

    return emit


def commit_pairs(*pairs: Tuple[str, str]) -> Callable[[SourceEmitter, object], None]:
    """Commit emitter assigning each ``(state, pending)`` attribute pair."""

    def commit(em: SourceEmitter, c) -> None:
        obj = em.state_ref(c)
        for state, pending in pairs:
            em.set_field(obj, state, em.field(obj, pending))

    return commit


def _per_target(method: str) -> Callable[[SourceEmitter, object], object]:
    """Dispatch-table entry for a kind each target lowers itself."""
    return lambda em, c: getattr(em, method)(c)


def emit_state_constant(em: SourceEmitter, c) -> bool:
    slot = em.out(c, "y")
    if slot is not None:
        em.set_slot(slot, const(c.value))
    return True


_memory_read_reg = state_output("rdata", "_read_reg")


def _state_memory(em: SourceEmitter, c) -> bool:
    # an asynchronous read port is levelized with the combinational logic
    return c.sync_read and _memory_read_reg(em, c)


def register_next(d: Expr, held: Expr, reset_value: int,
                  en: Optional[Expr], clr: Optional[Expr]) -> Expr:
    """A register's next value: clear, else load ``d`` if enabled, else hold."""
    nxt = d
    if en is not None:
        nxt = where(en & 1, d, held)
    if clr is not None:
        nxt = where(clr & 1, reset_value, nxt)
    return nxt


def _capture_register(em: SourceEmitter, c) -> bool:
    d = em.req(c, "d")
    if d is None:
        return False
    obj = em.state_ref(c)
    # an unconnected enable defaults to 1 in Register.capture
    en = em.req(c, "en") if c.has_enable else None
    clr = em.req(c, "clear") if c.has_clear else None
    nxt = register_next(d, em.field(obj, "_state"), c.reset_value, en, clr)
    em.set_field(obj, "_pending", nxt)
    return True


def _capture_counter(em: SourceEmitter, c) -> bool:
    load = em.req(c, "load") if c.has_load else None
    d = em.req(c, "d") if c.has_load else None
    if load is not None and d is None:
        return False
    en = em.req(c, "en")
    obj = em.state_ref(c)
    state = em.field(obj, "_state")
    if en is None and load is None:
        # en unconnected (reads as 0) and no load: the counter never moves
        em.set_field(obj, "_pending", state)
        return True
    mask = _mask(c.width)
    t = em.let("_t", state + 1)
    if c.wrap_at is not None:
        t = em.let("_t", where(t.ge(c.wrap_at), 0, t))
    t = em.let("_t", t & mask)
    nxt = state if en is None else where(en & 1, t, state)
    if load is not None:
        nxt = where(load & 1, d & mask, nxt)
    em.set_field(obj, "_pending", nxt)
    return True


def _capture_accumulator(em: SourceEmitter, c) -> bool:
    d = em.req(c, "d")
    en = em.req(c, "en")
    if en is not None and d is None:
        return False
    obj = em.state_ref(c)
    held = nxt = em.field(obj, "_state")
    if en is not None:
        nxt = where(en & 1, (held + d) & _mask(c.width), nxt)
    clr = em.req(c, "clear")
    if clr is not None:
        nxt = where(clr & 1, 0, nxt)
    em.set_field(obj, "_pending", nxt)
    return True


def _capture_aggregator(em: SourceEmitter, c) -> bool:
    obj = em.state_ref(c)
    terms = [em.req(c, f"e{i}") for i in range(c.n_inputs)]
    total = em.field(obj, "_total")
    connected = [t for t in terms if t is not None] or [Const(0)]
    nxt = reduce(lambda acc, term: acc + term, connected, total) & _mask(c.total_width)
    clr = em.req(c, "clear")
    if clr is not None:
        nxt = where(clr & 1, 0, nxt)
    em.set_field(obj, "_pending", nxt)
    return True


def _capture_strobe(em: SourceEmitter, c) -> bool:
    obj = em.state_ref(c)
    if c.period == 1:
        count, strobe = Const(0), Const(1)
    else:
        t = em.let("_t", em.field(obj, "_count") + 1)
        t = em.let("_t", where(t.ge(c.period), 0, t))
        count, strobe = t, t.eq(c.period - 1) * 1
    en = em.req(c, "enable")
    if en is not None:
        enabled = em.let("_en", en & 1)
        em.set_field(obj, "_pending_count",
                     where(enabled, count, em.field(obj, "_count")))
        em.set_field(obj, "_pending_strobe", where(enabled, strobe, 0))
    else:
        # an unconnected enable defaults to 1 in PowerStrobeGenerator.capture
        em.set_field(obj, "_pending_count", count)
        em.set_field(obj, "_pending_strobe", strobe)
    return True


def _capture_power_model(em: SourceEmitter, c) -> bool:
    """One table sum over the ports' toggle words plus the base energy into
    the accumulator, flushed on the strobe (an open port never toggles)."""
    if c.sample_on_strobe_only:
        return False  # paper-literal sampling stays on the component's capture
    obj = em.state_ref(c)
    terms = []
    for index, (_, in_name, _, tables) in enumerate(c._chunked):
        current = em.req(c, in_name)
        if current is not None:
            chunks = tuple((em.table(table), 8 * chunk) for chunk, table in enumerate(tables))
            terms.append((em.field(obj, "_previous", index), current, chunks))
    energy = em.let("_e", TableSum(tuple(terms))) if terms else Const(0)
    total = em.let("_a", em.field(obj, "_accumulated") + energy + c.base_code)
    strobed = em.let("_sb", em.opt(c, "strobe", 0) & 1)
    em.set_field(obj, "_pending_output", where(strobed, total & _mask(c.energy_width), 0))
    em.set_field(obj, "_pending_accumulated", where(strobed, 0, total))
    return True


def _commit_power_model(em: SourceEmitter, c) -> None:
    """``_previous[k]`` from its slot: the clock edge writes no slot."""
    if c.sample_on_strobe_only:
        em.commit_generic(c)  # its capture was the component's own (scalar only)
        return
    obj = em.state_ref(c)
    for index, (_, in_name, _, _) in enumerate(c._chunked):
        current = em.req(c, in_name)
        if current is not None:
            em.set_field(obj, "_previous", current, index)
    em.set_field(obj, "_accumulated", em.field(obj, "_pending_accumulated"))
    em.set_field(obj, "_output", em.field(obj, "_pending_output"))


def emitter_tables() -> tuple:
    """``(comb, state, capture, commit)``: component class -> emitter, one
    table per phase, shared by both targets (resolved lazily: avoids import
    cycles)."""
    global _TABLES
    if _TABLES is not None:
        return _TABLES

    from repro.core.aggregator import PowerAggregator
    from repro.core.power_model_hw import HardwarePowerModel
    from repro.core.strobe import PowerStrobeGenerator
    from repro.netlist import components as comps
    from repro.netlist import sequential as seq
    from repro.netlist.fsm import FSMController

    comb = {
        comps.Adder: _emit_adder,
        comps.Subtractor: _emit_subtractor,
        comps.AddSub: _emit_addsub,
        comps.Multiplier: _emit_multiplier,
        comps.Comparator: _emit_comparator,
        comps.AbsoluteValue: _emit_absval,
        comps.Saturator: _emit_saturator,
        comps.ShifterConst: _emit_shifter_const,
        comps.ShifterVar: _emit_shifter_var,
        comps.Mux: _emit_mux,
        comps.LogicOp: _emit_logic,
        comps.NotOp: _emit_not,
        comps.ReduceOp: _emit_reduce,
        comps.Concat: _emit_concat,
        comps.Slice: _emit_slice,
        comps.Extend: _emit_extend,
        comps.Decoder: _emit_decoder,
        seq.ROM: _emit_rom,
        seq.RegisterFile: _emit_regfile_read,
        seq.Memory: _emit_memory_async_read,
    }
    register_q = state_output("q", "_state")
    state = {
        seq.Register: register_q,
        seq.Counter: register_q,
        seq.Accumulator: register_q,
        seq.Memory: _state_memory,
        comps.Constant: emit_state_constant,
        FSMController: _per_target("state_fsm"),
        HardwarePowerModel: state_output("energy", "_output"),
        PowerAggregator: state_output("total", "_total"),
        PowerStrobeGenerator: state_output("strobe", "_strobe"),
    }
    capture = {
        seq.Register: _capture_register,
        seq.Counter: _capture_counter,
        seq.Accumulator: _capture_accumulator,
        seq.Memory: _per_target("capture_memory"),
        seq.RegisterFile: _per_target("capture_regfile"),
        FSMController: _per_target("capture_fsm"),
        HardwarePowerModel: _capture_power_model,
        PowerAggregator: _capture_aggregator,
        PowerStrobeGenerator: _capture_strobe,
    }
    commit_state = commit_pairs(("_state", "_pending"))
    commit = {
        seq.Register: commit_state,
        seq.Counter: commit_state,
        seq.Accumulator: commit_state,
        seq.Memory: _per_target("commit_memory"),
        seq.RegisterFile: _per_target("commit_regfile"),
        FSMController: commit_state,
        HardwarePowerModel: _commit_power_model,
        PowerAggregator: commit_pairs(("_total", "_pending")),
        PowerStrobeGenerator: commit_pairs(
            ("_count", "_pending_count"), ("_strobe", "_pending_strobe")
        ),
    }
    _TABLES = (comb, state, capture, commit)
    return _TABLES


def generate_source(
    module, schedule, slot_of: Dict[Net, int]
) -> Tuple[str, Dict[str, object], int, int]:
    """Generate ``_settle``/``_clock_edge`` source for a levelized module.

    Returns ``(source, env, n_fused, n_fallback)`` where ``env`` holds the
    objects (components, bound methods, lookup tables) the source refers to.
    """
    comb_table, state_table, capture_table, commit_table = emitter_tables()
    em = ScalarEmitter(slot_of)

    lines: List[str] = ["def _settle(v):"]
    em.lines = body = []
    for component in schedule.state_sources:
        emitter = state_table.get(type(component))
        if emitter is None or not emitter(em, component):
            em.fallback_evaluate(component, empty_inputs=True)
        else:
            em.n_fused += 1
    for component in schedule.ordered:
        emitter = comb_table.get(type(component))
        if emitter is None or not emitter(em, component):
            em.fallback_evaluate(component)
        else:
            em.n_fused += 1
    if not body:
        body.append("pass")
    lines.extend("    " + line for line in body)

    lines.append("")
    lines.append("def _clock_edge(v):")
    em.lines = body = []
    for component in schedule.sequential:
        emitter = capture_table.get(type(component))
        if emitter is None or not emitter(em, component):
            em.fallback_capture(component)
        else:
            em.n_fused += 1
    for component in schedule.sequential:
        committer = commit_table.get(type(component), ScalarEmitter.commit_generic)
        committer(em, component)
    if not body:
        body.append("pass")
    lines.extend("    " + line for line in body)

    return "\n".join(lines) + "\n", em.env, em.n_fused, em.n_fallback
