"""One typed IR for every lane program, printed for each executor.

The batch backend (:mod:`repro.sim.batch`) and the gate-level simulator
(:mod:`repro.gates.gatesim`) lower their schedules straight into this IR:
straight-line statements over a ``(n_slots, n_lanes)`` value store, with
per-lane sequential state held in holder objects: named ``(n_lanes,)``
rows, lists of such rows, and ``(depth, n_lanes)`` memories.  Expressions
are slot reads, state-row reads, constant-table lookups, per-lane memory
reads, a closed set of arithmetic/logic/select operators, each typed
``i64`` or ``bool``, and one power-hardware node, :class:`TableSum` (byte
tables summed over toggle words); :class:`Expr` carries Python operator
methods, so an emitter writes ``(a + b) & mask``.

The IR is built once and printed for each executor:
:func:`numpy_source` prints the plain lane program (the ``off`` kernel
backend, and the gate simulator's batch settle), :mod:`repro.sim.kernels.native`
prints one C kernel, and :mod:`repro.sim.codegen` prints the same
expressions as Python-int source for the scalar target.

A lane program always lowers completely (the batch backend refuses a
module with a component no lane emitter fuses).  Only a gate netlist may
hold a cell with no IR builder: that cell is one opaque :class:`Fallback`
statement, which the NumPy printer calls and
:meth:`KernelIR.require_kernelizable` refuses with
:class:`KernelUnsupportedError`, so the gate simulator stays on its NumPy
settle.  Kernels therefore never change results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: IR value types: 60-bit-safe int64 lanes, or 0/1 booleans from comparisons
I64 = "i64"
BOOL = "bool"


class KernelUnsupportedError(Exception):
    """The lane program contains constructs the kernel IR cannot express."""


# ---------------------------------------------------------------------------
# Expression nodes.
# ---------------------------------------------------------------------------


class Expr:
    """Base expression node; every node carries a value type ``ty``.

    Operators build nodes (Python ints become :class:`Const`); comparisons
    are the methods :meth:`lt`, :meth:`le`, :meth:`eq`, :meth:`ne`,
    :meth:`gt` and :meth:`ge`, since ``==`` stays structural equality.
    Nothing is folded: the tree is exactly what the emitter wrote.
    """

    __slots__ = ()
    ty: str = I64

    def __add__(self, other): return binary("+", self, other)
    def __radd__(self, other): return binary("+", other, self)
    def __sub__(self, other): return binary("-", self, other)
    def __rsub__(self, other): return binary("-", other, self)
    def __mul__(self, other): return binary("*", self, other)
    def __rmul__(self, other): return binary("*", other, self)
    def __and__(self, other): return binary("&", self, other)
    def __rand__(self, other): return binary("&", other, self)
    def __or__(self, other): return binary("|", self, other)
    def __ror__(self, other): return binary("|", other, self)
    def __xor__(self, other): return binary("^", self, other)
    def __rxor__(self, other): return binary("^", other, self)
    def __lshift__(self, other): return binary("<<", self, other)
    def __rlshift__(self, other): return binary("<<", other, self)
    def __rshift__(self, other): return binary(">>", self, other)
    def __mod__(self, other): return binary("%", self, other)

    def __neg__(self):
        return Const(-self.value) if isinstance(self, Const) else Unary("neg", self)

    def __invert__(self):
        return Unary("inv", self, self.ty)

    def lt(self, other): return binary("<", self, other)
    def le(self, other): return binary("<=", self, other)
    def eq(self, other): return binary("==", self, other)
    def ne(self, other): return binary("!=", self, other)
    def gt(self, other): return binary(">", self, other)
    def ge(self, other): return binary(">=", self, other)


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Lane(Expr):
    """The lane index (``_lidx`` in lane programs, the loop variable in C)."""


@dataclass(frozen=True)
class SlotRef(Expr):
    """Read of one value-store row (``v[slot]``)."""

    slot: int


@dataclass(frozen=True)
class StateRef(Expr):
    """Read of one per-lane sequential-state row (``S[row]``).

    The lane builder names the row by its live location, ``(holder, field,
    index)``, and :meth:`KernelBuilder.add` numbers it; the scalar target
    names it by its source spelling (``"_c3._state"``).
    """

    row: object


@dataclass(frozen=True)
class TempRef(Expr):
    """Read of an SSA-renamed local temporary."""

    name: str
    ty: str = I64


@dataclass(frozen=True)
class Table(Expr):
    """Constant-table lookup (ROM contents, FSM outputs, power coefficients).

    The lane builder passes the int64 array itself, and
    :meth:`KernelBuilder.add` numbers it (one table per array object); the
    scalar target passes the table's bound name.
    """

    table: object
    index: Expr


@dataclass(frozen=True)
class MemRead(Expr):
    """Per-lane read of a ``(depth, n_lanes)`` memory column.

    The lane builder names the memory as ``(holder, field)``, and
    :meth:`KernelBuilder.add` numbers it; the scalar target names the
    storage list by its source spelling.
    """

    mem: object
    addr: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "inv" (bitwise/logical not) or "neg"
    a: Expr
    ty: str = I64


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # + - * & | ^ << >> % < <= == != > >=
    a: Expr
    b: Expr
    ty: str = I64


@dataclass(frozen=True)
class Where(Expr):
    cond: Expr
    a: Expr
    b: Expr
    ty: str = I64


@dataclass(frozen=True)
class Min(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Abs(Expr):
    a: Expr


@dataclass(frozen=True)
class Popcount(Expr):
    a: Expr


@dataclass(frozen=True)
class Select(Expr):
    """N-way select by a clamped index (the lane form of a mux)."""

    index: Expr
    choices: Tuple[Expr, ...]


@dataclass(frozen=True)
class TableSum(Expr):
    """Byte-table lookups summed over toggle words: a power model's adder tree.

    Each term ``(previous, current, chunks)`` (one or more) is a port: the
    XOR of a :class:`StateRef` and a :class:`SlotRef`, the toggles, adds
    ``table[(toggles >> shift) & 255]`` per ``(table, shift)`` chunk, tables
    named as in :class:`Table`.  Lane printers bind it to a temporary.
    """

    terms: Tuple[Tuple[StateRef, SlotRef, Tuple[Tuple[object, int], ...]], ...]


_COMPARISONS = frozenset(("<", "<=", "==", "!=", ">", ">="))


def const(value) -> Expr:
    """``value`` as an expression (ints become :class:`Const`)."""
    return value if isinstance(value, Expr) else Const(int(value))


def binary(op: str, a, b) -> Bin:
    """``a op b``: comparisons are ``bool``, so are logic ops on two bools."""
    a, b = const(a), const(b)
    if op in _COMPARISONS:
        ty = BOOL
    elif op in "&|^" and a.ty == BOOL and b.ty == BOOL:
        ty = BOOL
    else:
        ty = I64
    return Bin(op, a, b, ty)


def where(cond, a, b) -> Where:
    a, b = const(a), const(b)
    return Where(const(cond), a, b, BOOL if a.ty == BOOL and b.ty == BOOL else I64)


def minimum(a, b) -> Min:
    return Min(const(a), const(b))


# ---------------------------------------------------------------------------
# Statement nodes.
# ---------------------------------------------------------------------------


class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class SetTemp(Stmt):
    name: str
    expr: Expr


@dataclass(frozen=True)
class SetSlot(Stmt):
    slot: int
    expr: Expr


@dataclass(frozen=True)
class SetState(Stmt):
    row: object
    expr: Expr


@dataclass(frozen=True)
class MemWrite(Stmt):
    """Masked per-lane memory store: ``if enable: mem[addr, lane] = data``."""

    mem: object
    addr: Expr
    data: Expr
    enable: Expr


@dataclass(frozen=True)
class Fallback(Stmt):
    """Opaque step over the whole value store: ``call(v)``.

    A gate-netlist cell with no IR builder (it runs its own ``evaluate``).
    The NumPy printer calls it; kernels refuse it.
    """

    call: Callable[[np.ndarray], None]


# ---------------------------------------------------------------------------
# The program.
# ---------------------------------------------------------------------------


@dataclass
class KernelIR:
    """One module's lane program as typed IR plus its runtime bindings.

    ``state_specs`` and ``mem_specs`` name per-lane state arrays as
    ``(holder, field, index)`` and ``(holder, field)``.  Those arrays are
    fixed storage: every writer (both printed programs, holder resets, lane
    view backdoors) writes into them in place, so each printer binds them
    once.  ``tables`` are immutable int64 constant arrays safe to embed into
    generated code.
    """

    n_slots: int
    phases: Dict[str, List[Stmt]]
    state_specs: List[Tuple[object, str, Optional[int]]] = field(default_factory=list)
    mem_specs: List[Tuple[object, str]] = field(default_factory=list)
    tables: List[np.ndarray] = field(default_factory=list)
    #: numpy dtype of the value store ("int64" lane stores or "int8" gates)
    dtype: str = "int64"
    #: the module has a job testbench's ``start`` input and ``done`` output:
    #: its native kernel's ``run`` carries the job handshake
    job_handshake: bool = False

    # ----------------------------------------------------------- bind helpers
    def state_arrays(self) -> List[np.ndarray]:
        """The per-lane state rows, in ``StateRef.row`` order."""
        arrays = []
        for holder, name, index in self.state_specs:
            value = getattr(holder, name)
            arrays.append(value[index] if index is not None else value)
        return arrays

    def mem_arrays(self) -> List[np.ndarray]:
        """The ``(depth, n_lanes)`` memory arrays, in ``mem`` id order."""
        return [getattr(holder, name) for holder, name in self.mem_specs]

    def require_kernelizable(self) -> None:
        """Raise :class:`KernelUnsupportedError` if a fused kernel cannot run
        this program (it contains gate cells without an IR builder)."""
        for stmts in self.phases.values():
            if any(isinstance(stmt, Fallback) for stmt in stmts):
                raise KernelUnsupportedError(
                    "program not kernelizable: gate netlist has cells without "
                    "an IR builder"
                )


# ---------------------------------------------------------------------------
# Building: statements in program order, state/memory/tables numbered as
# they are first read or written.
# ---------------------------------------------------------------------------


class KernelBuilder:
    """Appends statements to a :class:`KernelIR`, one phase at a time.

    Expressions name state rows, memories and tables by their live objects
    (see :class:`StateRef`, :class:`MemRead`, :class:`Table`);
    :meth:`add` numbers each on first use, walking every statement target
    first and then its operands left to right (a :class:`Select`'s choices
    before its index).  Tables are numbered by content, so equal tables
    share one number.  The numbering, and so the printed program, depends
    only on the statements' order and shape, never on object addresses.
    SSA temporaries are ``t1``, ``t2``, ... across all phases.
    """

    def __init__(self, n_slots: int, dtype: str = "int64") -> None:
        self.ir = KernelIR(n_slots=n_slots, phases={}, dtype=dtype)
        self.stmts: List[Stmt] = []
        self._rows: Dict[tuple, int] = {}
        self._mems: Dict[tuple, int] = {}
        self._tables: Dict[tuple, int] = {}
        self._n_temps = 0

    def phase(self, name: str) -> None:
        """Direct the following statements to phase ``name``."""
        self.stmts = self.ir.phases.setdefault(name, [])

    def temp(self, expr: Expr) -> TempRef:
        """Bind ``expr`` to a fresh SSA temporary and return a read of it."""
        self._n_temps += 1
        ref = TempRef(f"t{self._n_temps}", expr.ty)
        self.add(SetTemp(ref.name, expr))
        return ref

    def add(self, stmt: Stmt) -> None:
        resolve = self._expr
        if isinstance(stmt, SetSlot):
            stmt = SetSlot(stmt.slot, resolve(stmt.expr))
        elif isinstance(stmt, SetTemp):
            stmt = SetTemp(stmt.name, resolve(stmt.expr))
        elif isinstance(stmt, SetState):
            stmt = SetState(self._row(stmt.row), resolve(stmt.expr))
        elif isinstance(stmt, MemWrite):
            stmt = MemWrite(self._mem(stmt.mem), resolve(stmt.addr),
                            resolve(stmt.data), resolve(stmt.enable))
        self.stmts.append(stmt)

    # ------------------------------------------------------------ numbering
    @staticmethod
    def _number(numbers: Dict[tuple, int], specs: list, key: tuple, spec) -> int:
        number = numbers.get(key)
        if number is None:
            number = numbers[key] = len(specs)
            specs.append(spec)
        return number

    def _row(self, row: Tuple[object, str, Optional[int]]) -> int:
        holder, name, index = row
        return self._number(self._rows, self.ir.state_specs, (id(holder), name, index), row)

    def _mem(self, mem: Tuple[object, str]) -> int:
        return self._number(self._mems, self.ir.mem_specs, (id(mem[0]), mem[1]), mem)

    def _table(self, array: np.ndarray) -> int:
        # numbered by content: equal tables (a ROM or power-model coefficient
        # table emitted once per component) share one number
        return self._number(self._tables, self.ir.tables,
                            (array.dtype.str, array.shape, array.tobytes()), array)

    def _expr(self, x: Expr) -> Expr:
        resolve = self._expr
        kind = type(x)
        if kind is Bin:
            return Bin(x.op, resolve(x.a), resolve(x.b), x.ty)
        if kind is StateRef:
            return StateRef(self._row(x.row))
        if kind is Where:
            return Where(resolve(x.cond), resolve(x.a), resolve(x.b), x.ty)
        if kind is Table:
            return Table(self._table(x.table), resolve(x.index))
        if kind is MemRead:
            return MemRead(self._mem(x.mem), resolve(x.addr))
        if kind is Unary:
            return Unary(x.op, resolve(x.a), x.ty)
        if kind is Select:
            choices = tuple(resolve(choice) for choice in x.choices)
            return Select(resolve(x.index), choices)
        if kind is Min:
            return Min(resolve(x.a), resolve(x.b))
        if kind is Abs or kind is Popcount:
            return kind(resolve(x.a))
        if kind is TableSum:
            return TableSum(tuple(
                (StateRef(self._row(previous.row)), current,
                 tuple((self._table(table), shift) for table, shift in chunks))
                for previous, current, chunks in x.terms
            ))
        return x  # Const, Lane, SlotRef, TempRef


# ---------------------------------------------------------------------------
# The NumPy printer (the plain lane program).
# ---------------------------------------------------------------------------


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized population count (used by parity-reduce)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)
    x = values.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def table_sum(v: np.ndarray, plan) -> np.ndarray:
    """A :class:`TableSum` over the store ``v``: ``(row, slot, chunks)`` per port."""
    total = np.zeros(v.shape[1], dtype=np.int64)
    for previous, slot, chunks in plan:
        toggles = previous ^ v[slot]
        for table, shift in chunks:
            total += table[(toggles >> shift) & 255]
    return total


def _temps_read(node) -> List[str]:
    """Names of the SSA temporaries a statement or expression reads."""
    if type(node) is TempRef:
        return [node.name]
    names = []
    for value in vars(node).values():
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expr):
                names.extend(_temps_read(child))
    return names


def numpy_source(ir: KernelIR) -> Tuple[str, Dict[str, object]]:
    """The IR as NumPy source: one ``_<phase>(v)`` function per phase.

    Returns ``(source, env)``; the caller adds ``_lidx`` (``arange(n_lanes)``)
    when the program reads lane indices.  Every statement is one elementwise
    array operation over all lanes.  State rows (``_S<n>``) and memories
    (``_M<n>``) are bound once and written in place (``_S3[...] = expr``),
    as the C kernel writes ``S[3]``.  A temporary bound to a bare row is a
    view of it, where C copies, so no phase may write a row while such a
    temporary of it is still read: captures write only pending rows, and
    commits read no temporaries of the rows they write.
    """
    env: Dict[str, object] = {
        "_where": np.where, "_minimum": np.minimum, "_abs": np.abs,
        "_stack": np.stack, "_popcount": popcount_u64, "_table_sum": table_sum,
    }
    for number, array in enumerate(ir.state_arrays()):
        env[f"_S{number}"] = array
    for number, array in enumerate(ir.mem_arrays()):
        env[f"_M{number}"] = array
    for number, table in enumerate(ir.tables):
        env[f"_T{number}"] = table

    def e(x: Expr) -> str:
        kind = type(x)
        if kind is SlotRef:
            return f"v[{x.slot}]"
        if kind is Bin:
            return f"({e(x.a)} {x.op} {e(x.b)})"
        if kind is Const:
            return str(x.value) if x.value >= 0 else f"({x.value})"
        if kind is TempRef:
            return local[x.name]
        if kind is StateRef:
            return f"_S{x.row}"
        if kind is Where:
            return f"_where({e(x.cond)}, {e(x.a)}, {e(x.b)})"
        if kind is Table:
            return f"_T{x.table}[{e(x.index)}]"
        if kind is MemRead:
            return f"_M{x.mem}[{e(x.addr)}, _lidx]"
        if kind is Unary:
            return f"({'-' if x.op == 'neg' else '~'}{e(x.a)})"
        if kind is Lane:
            return "_lidx"
        if kind is Min:
            return f"_minimum({e(x.a)}, {e(x.b)})"
        if kind is Abs:
            return f"_abs({e(x.a)})"
        if kind is Popcount:
            return f"_popcount({e(x.a)})"
        if kind is Select:
            choices = ", ".join(e(choice) for choice in x.choices)
            return f"_stack(({choices},))[{e(x.index)}, _lidx]"
        if kind is TableSum:
            name = f"_P{len(env)}"
            env[name] = tuple(
                (env[f"_S{previous.row}"], current.slot,
                 tuple((ir.tables[table], shift) for table, shift in chunks))
                for previous, current, chunks in x.terms
            )
            return f"_table_sum(v, {name})"
        raise TypeError(f"unprintable IR node {x!r}")

    lines: List[str] = []
    for phase, stmts in ir.phases.items():
        lines.append(f"def _{phase}(v):")
        # SSA temps share a few Python locals: a local is reused once its
        # temp's last read is printed, so the lane arrays it held are freed
        reads = [dict.fromkeys(_temps_read(stmt)) for stmt in stmts]
        last_read = {name: i for i, names in enumerate(reads) for name in names}
        local: Dict[str, str] = {}
        free: List[str] = []
        n_locals = 0
        body = []
        for i, stmt in enumerate(stmts):
            kind = type(stmt)
            if kind is SetTemp:
                value = e(stmt.expr)
            elif kind is SetSlot:
                body.append(f"v[{stmt.slot}] = {e(stmt.expr)}")
            elif kind is SetState:
                body.append(f"_S{stmt.row}[...] = {e(stmt.expr)}")
            elif kind is MemWrite:
                mask = e(stmt.enable)
                body.append(f"_M{stmt.mem}[{e(stmt.addr)}[{mask}], _lidx[{mask}]] "
                            f"= {e(stmt.data)}[{mask}]")
            elif kind is Fallback:
                name = f"_F{len(env)}"
                env[name] = stmt.call
                body.append(f"{name}(v)")
            else:
                raise TypeError(f"unprintable IR statement {stmt!r}")
            free.extend(local[name] for name in reads[i] if last_read[name] == i)
            if kind is SetTemp:
                if not free:
                    free.append(f"_t{n_locals}")
                    n_locals += 1
                local[stmt.name] = free.pop()
                body.append(f"{local[stmt.name]} = {value}")
                if stmt.name not in last_read:  # never read: free at once
                    free.append(local[stmt.name])
        lines.extend("    " + line for line in body or ["pass"])
        lines.append("")
    return "\n".join(lines), env
