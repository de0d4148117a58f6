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
:class:`SourceEmitter`, and print every component kind for both targets:
:class:`ScalarEmitter` (Python ints in a slot list, this module) and
:class:`~repro.sim.batch.LaneEmitter` (NumPy ``(n_lanes,)`` rows of the lane
store, :mod:`repro.sim.batch`).  A target only spells what differs: 0/1 ints
vs bool arrays, ``a if c else b`` vs ``_where``, how a ROM table or a memory
row is bound and read, the lane store's int64 width guards, the mux
algorithm, and whether a value kept in state must be copied.  Sequential
emitters read and write the component's own state attribute names
(``_state``, ``_pending``, ``_total``, ...): the scalar target binds the
component itself, the lane target a holder whose rows carry the same names.
Only the kinds whose state layouts differ (FSM state name vs index, tuple
pending write vs masked scatter, port-keyed dict vs row list) are lowered by
each target itself, through one entry of the same dispatch table.

Fusion keys off the concrete component class (not ``type_name``), so a
subclass with an overridden ``evaluate`` is never fused incorrectly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netlist.nets import Net

# Dispatch tables are built lazily: the power-estimation component classes
# live in repro.core, which itself imports repro.sim, and resolving them at
# import time would create a cycle.  By the time a module is compiled (first
# Simulator construction) every involved module is importable.
_TABLES: Optional[tuple] = None


def _mask(width: int) -> int:
    return (1 << width) - 1


def _signed(expr: str, width: int) -> str:
    """Branchless two's-complement reinterpretation of a masked value."""
    sign = 1 << (width - 1)
    return f"(({expr} ^ {sign}) - {sign})"


class SourceEmitter:
    """Accumulates generated lines plus the exec environment they reference.

    Subclasses are the code-generation targets: they implement the target
    interface below, which is all the shared emitters need.
    """

    #: the literal 1 as a left-shift operand (one-hot decoder)
    one = "1"

    def __init__(self, slot_of: Dict[Net, int]) -> None:
        self.slot_of = slot_of
        self.env: Dict[str, object] = {}
        self.lines: List[str] = []
        self.n_fused = 0
        self.n_fallback = 0
        self._uid = 0

    # ------------------------------------------------------------- plumbing
    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def emit(self, line: str, indent: int = 0) -> None:
        self.lines.append("    " * indent + line)

    def bind(self, name: str, obj: object) -> str:
        self.env[name] = obj
        return name

    # ------------------------------------------------------- port accessors
    def req(self, component, port_name: str) -> Optional[str]:
        """Slot expression for a *required* input; None when unconnected.

        A ``None`` makes the caller fall back to the generic ``evaluate``
        path, which reproduces the interpreter's ``KeyError`` semantics for
        unconnected required inputs.
        """
        port = component.ports.get(port_name)
        if port is None or port.net is None:
            return None
        return f"v[{self.slot_of[port.net]}]"

    def opt(self, component, port_name: str, default: int = 0) -> str:
        """Slot expression for an ``inputs.get(name, default)`` input."""
        expr = self.req(component, port_name)
        return str(default) if expr is None else expr

    def out(self, component, port_name: str) -> Optional[int]:
        """Slot of a component output, or None when unconnected."""
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

    # ----------------------------------------------------- target interface
    def fits(self, bits: int) -> bool:
        """Whether a ``bits``-wide intermediate (or shift amount) is exact."""
        raise NotImplementedError

    def flag(self, cond: str) -> str:
        """The 0/1 value of a comparison."""
        raise NotImplementedError

    def nonzero(self, expr: str) -> str:
        """The 0/1 value of ``expr != 0``."""
        raise NotImplementedError

    def select(self, cond: str, if_true: str, if_false: str) -> str:
        raise NotImplementedError

    def minimum(self, a: str, b: str) -> str:
        raise NotImplementedError

    def popcount(self, expr: str) -> str:
        raise NotImplementedError

    def table(self, values: Sequence[int]) -> object:
        """The object a lookup table (ROM contents) is bound as."""
        raise NotImplementedError

    def state_ref(self, component) -> str:
        """Bind and name the object holding ``component``'s sequential state."""
        raise NotImplementedError

    def read_row(self, state: str, addr: str, depth: int) -> str:
        """Read of a memory/register-file row through :meth:`state_ref`."""
        raise NotImplementedError

    def emit_abs(self, slot: int, expr: str) -> None:
        """``v[slot] = |expr|`` for a signed ``expr``."""
        raise NotImplementedError

    def emit_mux(self, slot: int, sel: str, data_slots: List[int]) -> None:
        """``v[slot] = v[data_slots[min(sel, n - 1)]]``."""
        raise NotImplementedError

    def own(self, expr: str, like: str = "") -> str:
        """``expr`` as a value a state attribute may keep.

        Lane holder fields rebind rather than copy, so the lane target forces
        a fresh row; a constant ``expr`` takes the shape of the row ``like``.
        """
        raise NotImplementedError

    # Each target also lowers the sequential kinds whose state layouts
    # differ (FSM state name vs index, tuple pending write vs masked scatter,
    # port-keyed dict vs row list): ``state_fsm``, ``capture_fsm``,
    # ``capture_memory``, ``capture_regfile``, ``capture_power_model``
    # (True when fused, like every emitter) and ``commit_memory``,
    # ``commit_regfile``, ``commit_power_model``.


class ScalarEmitter(SourceEmitter):
    """Target: one simulation, Python ints in a flat slot list."""

    def fits(self, bits: int) -> bool:
        return True  # Python ints never overflow

    def flag(self, cond: str) -> str:
        return f"(1 if {cond} else 0)"

    def nonzero(self, expr: str) -> str:
        return f"(1 if {expr} else 0)"

    def select(self, cond: str, if_true: str, if_false: str) -> str:
        return f"({if_true} if {cond} else {if_false})"

    def minimum(self, a: str, b: str) -> str:
        return f"({a} if {a} <= {b} else {b})"

    def popcount(self, expr: str) -> str:
        return f"({expr}).bit_count()"

    def table(self, values: Sequence[int]) -> object:
        return values

    def state_ref(self, component) -> str:
        return self.bind(f"_c{self.uid()}", component)

    def read_row(self, state: str, addr: str, depth: int) -> str:
        return f"{state}._state[{addr} % {depth}]"

    def emit_abs(self, slot: int, expr: str) -> None:
        self.emit(f"_t = {expr}")
        self.emit(f"v[{slot}] = -_t if _t < 0 else _t")

    def emit_mux(self, slot: int, sel: str, data_slots: List[int]) -> None:
        table = self.bind(f"_mx{self.uid()}", tuple(data_slots))
        last = len(data_slots) - 1
        self.emit(f"_s = {sel}")
        self.emit(f"if _s > {last}: _s = {last}")
        self.emit(f"v[{slot}] = v[{table}[_s]]")

    # ------------------------------------------------------------ fallbacks
    def fallback_evaluate(self, component, empty_inputs: bool = False) -> None:
        """Generic path: bound ``evaluate`` call fed by an inline dict literal."""
        outs = self.connected_outputs(component)
        if not outs:
            return
        name = self.bind(f"_ev{self.uid()}", component.evaluate)
        if empty_inputs:
            args = "{}"
        else:
            items = ", ".join(
                f"{port!r}: v[{slot}]" for port, slot in self.connected_inputs(component)
            )
            args = "{" + items + "}"
        self.emit(f"_o = {name}({args})")
        for port, slot in outs:
            self.emit(f"v[{slot}] = _o[{port!r}]")
        self.n_fallback += 1

    def fallback_capture(self, component) -> None:
        name = self.bind(f"_cap{self.uid()}", component.capture)
        items = ", ".join(
            f"{port!r}: v[{slot}]" for port, slot in self.connected_inputs(component)
        )
        self.emit(f"{name}({{{items}}})")
        self.n_fallback += 1

    def commit_generic(self, component) -> None:
        name = self.bind(f"_cm{self.uid()}", component.commit)
        self.emit(f"{name}()")

    commit_memory = commit_regfile = commit_generic

    # ---------------------------------------------- per-target sequential
    def own(self, expr: str, like: str = "") -> str:
        return expr

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
        addr = self.opt(c, "addr", 0)
        we = self.req(c, "we")
        wdata = self.opt(c, "wdata", 0)
        self.emit(f"_t = {addr} % {c.depth}")
        if we is not None:
            self.emit(f"{obj}._pending_write = (_t, {wdata}) if {we} & 1 else None")
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
            waddr = self.opt(c, "waddr", 0)
            wdata = self.opt(c, "wdata", 0)
            self.emit(
                f"{obj}._pending_write = ({waddr} % {c.depth}, {wdata}) "
                f"if {we} & 1 else None"
            )
        return True

    def capture_power_model(self, c) -> bool:
        """Fully inline the hardware power model's toggle-counting capture.

        Reads monitored slots directly (they carry already-masked values) and
        charges energy via the model's per-byte coefficient tables, with a
        fixed number of table reads per port unrolled at compile time.
        """
        if c.sample_on_strobe_only:
            return False  # paper-literal sampling stays on the reference capture
        uid = self.uid()
        obj = self.bind(f"_c{uid}", c)
        strobe = self.opt(c, "strobe", 0)
        self.emit(f"_e = {c.base_code}")
        self.emit(f"_p = {obj}._previous")
        self.emit("_np = {}")
        for port_name, in_name, _, tables in c._chunked:
            cur = self.opt(c, in_name, 0)
            self.emit(f"_t = _p[{port_name!r}] ^ {cur}")
            self.emit(f"_np[{port_name!r}] = {cur}")
            reads = []
            for chunk, table in enumerate(tables):
                tname = self.bind(f"_tb{uid}_{self.uid()}", table)
                if chunk == 0:
                    index = "_t" if len(tables) == 1 else "_t & 255"
                else:
                    index = f"(_t >> {8 * chunk}) & 255"
                reads.append(f"{tname}[{index}]")
            self.emit("if _t:")
            self.emit("_e += " + " + ".join(reads), indent=1)
        self.emit(f"_a = {obj}._accumulated + _e")
        self.emit(f"if {strobe} & 1:")
        self.emit(f"{obj}._pending_output = _a & {_mask(c.energy_width)}", indent=1)
        self.emit(f"{obj}._pending_accumulated = 0", indent=1)
        self.emit("else:")
        self.emit(f"{obj}._pending_output = 0", indent=1)
        self.emit(f"{obj}._pending_accumulated = _a", indent=1)
        self.emit(f"{obj}._pending_previous = _np")
        return True

    def commit_power_model(self, c) -> None:
        obj = self.state_ref(c)
        for attr in ("_previous", "_accumulated", "_output"):
            self.emit(f"{obj}.{attr} = {obj}._pending{attr}")


# ---------------------------------------------------------------------------
# Combinational (levelized) component emitters, shared by both targets.  Each
# returns True when it fused the component; False defers to the target's
# generic fallback.
# ---------------------------------------------------------------------------


def _emit_adder(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    terms = f"{a} + {b}"
    if c.with_carry_in:
        cin = em.opt(c, "cin", 0)
        if cin != "0":
            terms += f" + {cin}"
    y, cout = em.out(c, "y"), em.out(c, "cout") if c.with_carry_out else None
    mask = _mask(c.width)
    if cout is not None:
        em.emit(f"_t = {terms}")
        if y is not None:
            em.emit(f"v[{y}] = _t & {mask}")
        em.emit(f"v[{cout}] = (_t >> {c.width}) & 1")
    elif y is not None:
        em.emit(f"v[{y}] = ({terms}) & {mask}")
    return True


def _emit_subtractor(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    y = em.out(c, "y")
    borrow = em.out(c, "borrow") if c.with_borrow_out else None
    mask = _mask(c.width)
    if borrow is not None:
        em.emit(f"_t = {a} - {b}")
        if y is not None:
            em.emit(f"v[{y}] = _t & {mask}")
        em.emit(f"v[{borrow}] = {em.flag('_t < 0')}")
    elif y is not None:
        em.emit(f"v[{y}] = ({a} - {b}) & {mask}")
    return True


def _emit_addsub(em: SourceEmitter, c) -> bool:
    a, b, sub = em.req(c, "a"), em.req(c, "b"), em.req(c, "sub")
    if a is None or b is None or sub is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        result = em.select(f"{sub} & 1", f"{a} - {b}", f"{a} + {b}")
        em.emit(f"v[{y}] = {result} & {_mask(c.width)}")
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
    mask = _mask(c.width_y)
    if c.signed:
        a = _signed(a, c.width_a)
        b = _signed(b, c.width_b)
    em.emit(f"v[{y}] = ({a} * {b}) & {mask}")
    return True


def _emit_comparator(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    if c.signed:
        a = _signed(a, c.width)
        b = _signed(b, c.width)
    em.emit(f"_a = {a}")
    em.emit(f"_b = {b}")
    for port, op in (("lt", "<"), ("eq", "=="), ("gt", ">")):
        slot = em.out(c, port)
        if slot is not None:
            em.emit(f"v[{slot}] = {em.flag(f'_a {op} _b')}")
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
        em.emit(f"_t = {_signed(a, c.width_in)}")
        upper = em.select(f"_t > {hi}", str(hi), f"_t & {mask}")
        em.emit(f"v[{y}] = {em.select(f'_t < {lo}', str(lo & mask), upper)}")
    else:
        em.emit(f"v[{y}] = {em.minimum(a, str(_mask(c.width_out)))}")
    return True


def _emit_shift(em: SourceEmitter, c, a: str, amount, max_amount: int) -> bool:
    """Shifter body shared by the constant- and variable-amount kinds."""
    left = c.direction == "left"
    if not em.fits(max_amount + (c.width if left else 0)):
        return False  # result bits (or the shift amount) exceed the word
    y = em.out(c, "y")
    if y is None:
        return True
    mask = _mask(c.width)
    if left:
        em.emit(f"v[{y}] = ({a} << {amount}) & {mask}")
    elif c.arithmetic:
        em.emit(f"v[{y}] = ({_signed(a, c.width)} >> {amount}) & {mask}")
    else:
        em.emit(f"v[{y}] = {a} >> {amount}")
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


_LOGIC_EXPRS = {
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "nand": "({a} & {b}) ^ {m}",
    "nor": "({a} | {b}) ^ {m}",
    "xnor": "({a} ^ {b}) ^ {m}",
}


def _emit_logic(em: SourceEmitter, c) -> bool:
    a, b = em.req(c, "a"), em.req(c, "b")
    if a is None or b is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        expr = _LOGIC_EXPRS[c.op].format(a=a, b=b, m=_mask(c.width))
        em.emit(f"v[{y}] = {expr}")
    return True


def _emit_not(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        em.emit(f"v[{y}] = {a} ^ {_mask(c.width)}")
    return True


def _emit_reduce(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is None:
        return True
    if c.op == "and":
        em.emit(f"v[{y}] = {em.flag(f'{a} == {_mask(c.width)}')}")
    elif c.op == "or":
        em.emit(f"v[{y}] = {em.nonzero(a)}")
    else:
        em.emit(f"v[{y}] = {em.popcount(a)} & 1")
    return True


def _emit_concat(em: SourceEmitter, c) -> bool:
    parts = []
    shift = 0
    for i, width in enumerate(c.widths):
        expr = em.req(c, f"i{i}")
        if expr is None:
            return False
        parts.append(expr if shift == 0 else f"({expr} << {shift})")
        shift += width
    y = em.out(c, "y")
    if y is not None:
        em.emit(f"v[{y}] = " + " | ".join(parts))
    return True


def _emit_slice(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        shifted = a if c.low == 0 else f"({a} >> {c.low})"
        em.emit(f"v[{y}] = {shifted} & {_mask(c.width_out)}")
    return True


def _emit_extend(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        if c.signed:
            em.emit(f"v[{y}] = {_signed(a, c.width_in)} & {_mask(c.width_out)}")
        else:
            em.emit(f"v[{y}] = {a}")
    return True


def _emit_decoder(em: SourceEmitter, c) -> bool:
    a = em.req(c, "a")
    if a is None:
        return False
    y = em.out(c, "y")
    if y is not None:
        em.emit(f"v[{y}] = {em.one} << {a}")
    return True


def _emit_rom(em: SourceEmitter, c) -> bool:
    y = em.out(c, "rdata")
    if y is not None:
        contents = em.bind(f"_rom{em.uid()}", em.table(c.contents))
        addr = em.opt(c, "addr", 0)
        em.emit(f"v[{y}] = {contents}[{addr} % {c.depth}]")
    return True


def _emit_regfile_read(em: SourceEmitter, c) -> bool:
    state = em.state_ref(c)
    for i in range(c.n_read_ports):
        slot = em.out(c, f"rdata{i}")
        if slot is not None:
            addr = em.opt(c, f"raddr{i}", 0)
            em.emit(f"v[{slot}] = {em.read_row(state, addr, c.depth)}")
    return True


def _emit_memory_async_read(em: SourceEmitter, c) -> bool:
    if c.sync_read:
        return False
    slot = em.out(c, "rdata")
    if slot is not None:
        state = em.state_ref(c)
        addr = em.opt(c, "addr", 0)
        em.emit(f"v[{slot}] = {em.read_row(state, addr, c.depth)}")
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
            em.emit(f"v[{slot}] = {em.state_ref(c)}.{attr}")
        return True

    return emit


def commit_pairs(*pairs: Tuple[str, str]) -> Callable[[SourceEmitter, object], None]:
    """Commit emitter assigning each ``(state, pending)`` attribute pair."""

    def commit(em: SourceEmitter, c) -> None:
        obj = em.state_ref(c)
        for state, pending in pairs:
            em.emit(f"{obj}.{state} = {obj}.{pending}")

    return commit


def _per_target(method: str) -> Callable[[SourceEmitter, object], object]:
    """Dispatch-table entry for a kind each target lowers itself."""
    return lambda em, c: getattr(em, method)(c)


def emit_state_constant(em: SourceEmitter, c) -> bool:
    slot = em.out(c, "y")
    if slot is not None:
        em.emit(f"v[{slot}] = {c.value}")
    return True


_memory_read_reg = state_output("rdata", "_read_reg")


def _state_memory(em: SourceEmitter, c) -> bool:
    # an asynchronous read port is levelized with the combinational logic
    return c.sync_read and _memory_read_reg(em, c)


def register_next(em: SourceEmitter, d: str, held: str, reset_value: int,
                  en: Optional[str], clr: Optional[str]) -> str:
    """A register's next value: clear, else load ``d`` if enabled, else hold."""
    nxt = d
    if en is not None:
        nxt = em.select(f"{en} & 1", d, held)
    if clr is not None:
        nxt = em.select(f"{clr} & 1", str(reset_value), nxt)
    return em.own(d) if nxt == d else nxt


def _capture_register(em: SourceEmitter, c) -> bool:
    d = em.req(c, "d")
    if d is None:
        return False
    obj = em.state_ref(c)
    # an unconnected enable defaults to 1 in Register.capture
    en = em.req(c, "en") if c.has_enable else None
    clr = em.req(c, "clear") if c.has_clear else None
    nxt = register_next(em, d, f"{obj}._state", c.reset_value, en, clr)
    em.emit(f"{obj}._pending = {nxt}")
    return True


def _capture_counter(em: SourceEmitter, c) -> bool:
    load = em.req(c, "load") if c.has_load else None
    d = em.req(c, "d") if c.has_load else None
    if load is not None and d is None:
        return False
    en = em.req(c, "en")
    obj = em.state_ref(c)
    held = em.own(f"{obj}._state")
    if en is None and load is None:
        # en unconnected (reads as 0) and no load: the counter never moves
        em.emit(f"{obj}._pending = {held}")
        return True
    mask = _mask(c.width)
    em.emit(f"_t = {obj}._state + 1")
    if c.wrap_at is not None:
        em.emit(f"_t = {em.select(f'_t >= {c.wrap_at}', '0', '_t')}")
    em.emit(f"_t = _t & {mask}")
    nxt = held if en is None else em.select(f"{en} & 1", "_t", f"{obj}._state")
    if load is not None:
        nxt = em.select(f"{load} & 1", f"{d} & {mask}", nxt)
    em.emit(f"{obj}._pending = {nxt}")
    return True


def _capture_accumulator(em: SourceEmitter, c) -> bool:
    d = em.req(c, "d")
    en = em.req(c, "en")
    if en is not None and d is None:
        return False
    obj = em.state_ref(c)
    held = nxt = f"{obj}._state"
    if en is not None:
        nxt = em.select(f"{en} & 1", f"({held} + {d}) & {_mask(c.width)}", nxt)
    clr = em.req(c, "clear")
    if clr is not None:
        nxt = em.select(f"{clr} & 1", "0", nxt)
    em.emit(f"{obj}._pending = {em.own(held) if nxt == held else nxt}")
    return True


def _capture_aggregator(em: SourceEmitter, c) -> bool:
    obj = em.state_ref(c)
    terms = [em.req(c, f"e{i}") for i in range(c.n_inputs)]
    total = " + ".join(t for t in terms if t is not None) or "0"
    nxt = f"({obj}._total + {total}) & {_mask(c.total_width)}"
    clr = em.req(c, "clear")
    if clr is not None:
        nxt = em.select(f"{clr} & 1", "0", nxt)
    em.emit(f"{obj}._pending = {nxt}")
    return True


def _capture_strobe(em: SourceEmitter, c) -> bool:
    obj = em.state_ref(c)
    if c.period == 1:
        count, strobe = "0", "1"
    else:
        em.emit(f"_t = {obj}._count + 1")
        em.emit(f"_t = {em.select(f'_t >= {c.period}', '0', '_t')}")
        count, strobe = "_t", f"(_t == {c.period - 1}) * 1"
    en = em.req(c, "enable")
    if en is not None:
        em.emit(f"_en = {en} & 1")
        em.emit(f"{obj}._pending_count = {em.select('_en', count, f'{obj}._count')}")
        em.emit(f"{obj}._pending_strobe = {em.select('_en', strobe, '0')}")
    else:
        # an unconnected enable defaults to 1 in PowerStrobeGenerator.capture
        em.emit(f"{obj}._pending_count = {em.own(count, f'{obj}._count')}")
        em.emit(f"{obj}._pending_strobe = {em.own(strobe, f'{obj}._strobe')}")
    return True


def _tables() -> tuple:
    """Lazily resolved class-keyed dispatch tables (avoids import cycles)."""
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
        HardwarePowerModel: _per_target("capture_power_model"),
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
        HardwarePowerModel: _per_target("commit_power_model"),
        PowerAggregator: commit_pairs(("_total", "_pending")),
        PowerStrobeGenerator: commit_pairs(
            ("_count", "_pending_count"), ("_strobe", "_pending_strobe")
        ),
    }
    _TABLES = (comb, state, capture, commit)
    return _TABLES


def emitter_tables() -> tuple:
    """``(comb, state, capture, commit)``: component class -> emitter, one
    table per phase, shared by both targets."""
    return _tables()


def generate_source(
    module, schedule, slot_of: Dict[Net, int]
) -> Tuple[str, Dict[str, object], int, int]:
    """Generate ``_settle``/``_clock_edge`` source for a levelized module.

    Returns ``(source, env, n_fused, n_fallback)`` where ``env`` holds the
    objects (components, bound methods, lookup tables) the source refers to.
    """
    comb_table, state_table, capture_table, commit_table = _tables()
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
