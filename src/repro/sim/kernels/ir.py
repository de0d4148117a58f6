"""Typed expression IR for fused lane kernels.

The batch backend (:mod:`repro.sim.batch`) and the gate-level simulator
(:mod:`repro.gates.gatesim`) both lower their schedules into *lane programs*:
straight-line NumPy source over a ``(n_slots, n_lanes)`` value store, with
per-lane sequential state held in holder objects bound into the exec
environment: named ``(n_lanes,)`` rows, lists of such rows, and
``(depth, n_lanes)`` memories.  Those programs are shape-stable and branch-free, which makes
them a compiler IR in disguise — this module makes the IR explicit.

:func:`extract_ir` parses a generated lane program (source + exec
environment) into a small typed expression IR: slot reads/writes, per-lane
state rows, constant-table lookups, per-lane memory access, and a closed set
of arithmetic/logic/select operators, each typed ``i64`` or ``bool``.  The
kernel code generator, :mod:`repro.sim.kernels.native`, consumes nothing but
this IR: it prints it as C — one per-lane loop of straight-line scalar code
— compiled via ``cc`` and called through cffi.

Extraction is *conservative*: any statement outside the closed grammar (in
practice, the lane-scalar fallback calls emitted for subclassed or
user-defined components, and whole-module object-dtype fallbacks) raises
:class:`KernelUnsupportedError`, and the caller stays on the plain batch
path.  Kernels therefore never change results — a module either lowers
completely, or runs exactly as before.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Base expression node; every node carries a value type ``ty``."""

    __slots__ = ()
    ty: str = I64


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
    """Read of one per-lane sequential-state row (``S[row]``)."""

    row: int


@dataclass(frozen=True)
class TempRef(Expr):
    """Read of an SSA-renamed local temporary."""

    name: str
    ty: str = I64


@dataclass(frozen=True)
class Table(Expr):
    """Constant-table lookup (ROM contents, FSM outputs, power coefficients)."""

    table: int
    index: Expr


@dataclass(frozen=True)
class MemRead(Expr):
    """Per-lane read of a ``(depth, n_lanes)`` memory column."""

    mem: int
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
    row: int
    expr: Expr


@dataclass(frozen=True)
class MemWrite(Stmt):
    """Masked per-lane memory store: ``if enable: mem[addr, lane] = data``."""

    mem: int
    addr: Expr
    data: Expr
    enable: Expr


# ---------------------------------------------------------------------------
# The extracted program.
# ---------------------------------------------------------------------------


@dataclass
class KernelIR:
    """One module's lane program as typed IR plus its runtime bindings.

    ``state_specs`` and ``mem_specs`` name per-lane state arrays as
    ``(holder, field, index)`` — resolved with ``getattr`` at bind time, so a
    kernel always sees the holder's *current* arrays.  ``tables`` are
    immutable int64 constant arrays safe to embed into generated code.
    """

    n_slots: int
    phases: Dict[str, List[Stmt]]
    state_specs: List[Tuple[object, str, Optional[int]]] = field(default_factory=list)
    mem_specs: List[Tuple[object, str]] = field(default_factory=list)
    mem_depths: List[int] = field(default_factory=list)
    tables: List[np.ndarray] = field(default_factory=list)
    #: numpy dtype of the value store ("int64" lane stores or "int8" gates)
    dtype: str = "int64"

    # ----------------------------------------------------------- bind helpers
    def state_arrays(self) -> List[np.ndarray]:
        """The live per-lane state rows, in ``StateRef.row`` order."""
        arrays = []
        for holder, name, index in self.state_specs:
            value = getattr(holder, name)
            arrays.append(value[index] if index is not None else value)
        return arrays

    def mem_arrays(self) -> List[np.ndarray]:
        """The live ``(depth, n_lanes)`` memory arrays, in ``mem`` id order."""
        return [getattr(holder, name) for holder, name in self.mem_specs]

    def n_statements(self) -> int:
        return sum(len(stmts) for stmts in self.phases.values())


# ---------------------------------------------------------------------------
# Extraction (generated lane source + exec environment -> KernelIR).
# ---------------------------------------------------------------------------

_BIN_OPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.BitAnd: "&",
    ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
    ast.Mod: "%",
}
_CMP_OPS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Gt: ">", ast.GtE: ">=",
}


def _unsupported(reason: str) -> KernelUnsupportedError:
    return KernelUnsupportedError(f"lane program not kernelizable: {reason}")


class _Extractor:
    def __init__(self, env: Dict[str, object], n_slots: int, dtype: str) -> None:
        self.env = env
        self.ir = KernelIR(n_slots=n_slots, phases={}, dtype=dtype)
        self._state_ids: Dict[Tuple[int, str, Optional[int]], int] = {}
        self._mem_ids: Dict[Tuple[int, str], int] = {}
        self._table_ids: Dict[int, int] = {}
        #: current SSA name per source-level temp (reset per function)
        self._temps: Dict[str, TempRef] = {}
        self._n_versions = 0

    # ------------------------------------------------------------- registries
    def _state_row(self, holder: object, name: str, index: Optional[int]) -> int:
        key = (id(holder), name, index)
        row = self._state_ids.get(key)
        if row is None:
            value = getattr(holder, name)
            array = value[index] if index is not None else value
            if not (isinstance(array, np.ndarray) and array.ndim == 1):
                raise _unsupported(f"state field {name!r} is not a lane row")
            row = len(self.ir.state_specs)
            self._state_ids[key] = row
            self.ir.state_specs.append((holder, name, index))
        return row

    def _mem_id(self, holder: object, name: str) -> int:
        key = (id(holder), name)
        mem = self._mem_ids.get(key)
        if mem is None:
            array = getattr(holder, name)
            if not (isinstance(array, np.ndarray) and array.ndim == 2):
                raise _unsupported(f"memory field {name!r} is not (depth, lanes)")
            mem = len(self.ir.mem_specs)
            self._mem_ids[key] = mem
            self.ir.mem_specs.append((holder, name))
            self.ir.mem_depths.append(int(array.shape[0]))
        return mem

    def _table_id(self, array: np.ndarray) -> int:
        table = self._table_ids.get(id(array))
        if table is None:
            table = len(self.ir.tables)
            self._table_ids[id(array)] = table
            self.ir.tables.append(np.ascontiguousarray(array, dtype=np.int64))
        return table

    def _holder_field(self, node: ast.Attribute):
        """Resolve ``_sK.field`` to (holder, field, live value) or raise."""
        if not isinstance(node.value, ast.Name):
            raise _unsupported(f"nested attribute access {ast.dump(node)}")
        holder = self.env.get(node.value.id)
        if holder is None or isinstance(holder, np.ndarray):
            raise _unsupported(f"unknown environment object {node.value.id!r}")
        try:
            value = getattr(holder, node.attr)
        except AttributeError:
            raise _unsupported(
                f"environment object {node.value.id!r} has no field {node.attr!r}"
            ) from None
        return holder, node.attr, value

    # ------------------------------------------------------------ expressions
    def expr(self, node: ast.AST) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise _unsupported(f"non-integer constant {node.value!r}")
            return Const(int(node.value))
        if isinstance(node, ast.Name):
            temp = self._temps.get(node.id)
            if temp is not None:
                return temp
            if node.id == "_lidx":
                return Lane()
            if node.id == "_one":
                return Const(1)
            raise _unsupported(f"unknown name {node.id!r}")
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise _unsupported(f"operator {type(node.op).__name__}")
            a, b = self.expr(node.left), self.expr(node.right)
            ty = BOOL if (op in "&|^" and a.ty == BOOL and b.ty == BOOL) else I64
            return Bin(op, a, b, ty)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                a = self.expr(node.operand)
                if isinstance(a, Const):
                    return Const(-a.value)
                return Unary("neg", a)
            if isinstance(node.op, ast.Invert):
                a = self.expr(node.operand)
                return Unary("inv", a, ty=a.ty)
            raise _unsupported(f"unary {type(node.op).__name__}")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise _unsupported("chained comparison")
            op = _CMP_OPS.get(type(node.ops[0]))
            if op is None:
                raise _unsupported(f"comparison {type(node.ops[0]).__name__}")
            return Bin(op, self.expr(node.left), self.expr(node.comparators[0]), BOOL)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.Attribute):
            holder, name, value = self._holder_field(node)
            return StateRef(self._state_row(holder, name, None))
        raise _unsupported(f"expression {type(node).__name__}")

    def _call(self, node: ast.Call) -> Expr:
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise _unsupported("call through attribute or with keywords")
        name, args = node.func.id, node.args
        if name == "_where" and len(args) == 3:
            cond, a, b = (self.expr(arg) for arg in args)
            ty = BOOL if a.ty == BOOL and b.ty == BOOL else I64
            return Where(cond, a, b, ty)
        if name == "_minimum" and len(args) == 2:
            return Min(self.expr(args[0]), self.expr(args[1]))
        if name == "_abs" and len(args) == 1:
            return Abs(self.expr(args[0]))
        if name == "_popcount" and len(args) == 1:
            return Popcount(self.expr(args[0]))
        raise _unsupported(f"call to {name!r}")

    def _subscript(self, node: ast.Subscript) -> Expr:
        value, index = node.value, node.slice
        if isinstance(value, ast.Name):
            if value.id == "v":
                if not (isinstance(index, ast.Constant) and isinstance(index.value, int)):
                    raise _unsupported("non-constant slot index")
                return SlotRef(int(index.value))
            array = self.env.get(value.id)
            if isinstance(array, np.ndarray) and array.ndim == 1:
                return Table(self._table_id(array), self.expr(index))
            raise _unsupported(f"subscript of {value.id!r}")
        if isinstance(value, ast.Call):
            # _stack((r0, r1, ...))[idx, _lidx] — the lane form of a mux
            if (
                isinstance(value.func, ast.Name)
                and value.func.id == "_stack"
                and len(value.args) == 1
                and isinstance(value.args[0], ast.Tuple)
                and isinstance(index, ast.Tuple)
                and len(index.elts) == 2
                and isinstance(index.elts[1], ast.Name)
                and index.elts[1].id == "_lidx"
            ):
                choices = tuple(self.expr(e) for e in value.args[0].elts)
                return Select(self.expr(index.elts[0]), choices)
            raise _unsupported("unrecognized call subscript")
        if isinstance(value, ast.Attribute):
            holder, name, live = self._holder_field(value)
            if isinstance(live, np.ndarray) and live.ndim == 2:
                if not (
                    isinstance(index, ast.Tuple)
                    and len(index.elts) == 2
                    and isinstance(index.elts[1], ast.Name)
                    and index.elts[1].id == "_lidx"
                ):
                    raise _unsupported("memory read must be [addr, _lidx]")
                return MemRead(self._mem_id(holder, name), self.expr(index.elts[0]))
            if isinstance(live, list):
                if not (isinstance(index, ast.Constant) and isinstance(index.value, int)):
                    raise _unsupported("non-constant state list index")
                return StateRef(self._state_row(holder, name, int(index.value)))
            raise _unsupported(f"subscript of state field {name!r}")
        raise _unsupported(f"subscript of {type(value).__name__}")

    # ------------------------------------------------------------- statements
    def _assign(self, node: ast.Assign, out: List[Stmt]) -> None:
        if len(node.targets) != 1:
            raise _unsupported("multiple assignment targets")
        target = node.targets[0]
        if isinstance(target, ast.Name):
            expr = self.expr(node.value)
            self._n_versions += 1
            temp = TempRef(f"t{self._n_versions}", expr.ty)
            self._temps[target.id] = temp
            out.append(SetTemp(temp.name, expr))
            return
        if isinstance(target, ast.Subscript):
            value, index = target.value, target.slice
            if isinstance(value, ast.Name) and value.id == "v":
                if not (isinstance(index, ast.Constant) and isinstance(index.value, int)):
                    raise _unsupported("non-constant slot store index")
                out.append(SetSlot(int(index.value), self.expr(node.value)))
                return
            if isinstance(value, ast.Attribute):
                holder, name, live = self._holder_field(value)
                if isinstance(live, list):
                    if not (isinstance(index, ast.Constant) and isinstance(index.value, int)):
                        raise _unsupported("non-constant state list store index")
                    row = self._state_row(holder, name, int(index.value))
                    out.append(SetState(row, self.expr(node.value)))
                    return
                if isinstance(live, np.ndarray) and live.ndim == 2:
                    out.append(self._mem_write(holder, name, target, node.value))
                    return
            raise _unsupported(f"store through {ast.dump(target)}")
        if isinstance(target, ast.Attribute):
            holder, name, live = self._holder_field(target)
            if isinstance(live, np.ndarray) and live.ndim == 1:
                out.append(SetState(self._state_row(holder, name, None), self.expr(node.value)))
                return
            if isinstance(live, list):
                # a row-list commit (power-model ports, register limbs):
                # `_state = _pending` swaps the row lists, then
                # `_pending = list(_state)` re-aliases.  In value semantics
                # that is a per-row copy plus a no-op.
                if (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "list"
                ):
                    return  # re-aliasing after the copy: nothing to do
                if isinstance(node.value, ast.Attribute):
                    src_holder, src_name, src_live = self._holder_field(node.value)
                    if isinstance(src_live, list) and len(src_live) == len(live):
                        for i in range(len(live)):
                            out.append(SetState(
                                self._state_row(holder, name, i),
                                StateRef(self._state_row(src_holder, src_name, i)),
                            ))
                        return
            raise _unsupported(f"store to state field {name!r}")
        raise _unsupported(f"assignment to {type(target).__name__}")

    def _mem_write(self, holder, name: str, target: ast.Subscript, value: ast.AST) -> MemWrite:
        """``mem[addr[_msk], _lidx[_msk]] = data[_msk]`` -> guarded store."""

        def unmask(node: ast.AST) -> Tuple[ast.AST, str]:
            if not (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Name)
                and node.slice.id in self._temps
                and self._temps[node.slice.id].ty == BOOL
            ):
                raise _unsupported("memory store is not a masked scatter")
            return node.value, node.slice.id

        index = target.slice
        if not (isinstance(index, ast.Tuple) and len(index.elts) == 2):
            raise _unsupported("memory store must index [addr, lane]")
        addr_node, mask_a = unmask(index.elts[0])
        lane_node, mask_b = unmask(index.elts[1])
        data_node, mask_c = unmask(value)
        if not (isinstance(lane_node, ast.Name) and lane_node.id == "_lidx"):
            raise _unsupported("memory store lane index must be _lidx")
        if len({mask_a, mask_b, mask_c}) != 1:
            raise _unsupported("memory store masks disagree")
        return MemWrite(
            mem=self._mem_id(holder, name),
            addr=self.expr(addr_node),
            data=self.expr(data_node),
            enable=self._temps[mask_a],
        )

    def function(self, node: ast.FunctionDef) -> List[Stmt]:
        self._temps = {}
        out: List[Stmt] = []
        for stmt in node.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Assign):
                self._assign(stmt, out)
                continue
            if isinstance(stmt, ast.Expr):
                # lane-scalar fallback calls (`_lcK.evaluate(v)`): the module
                # contains components the batch compiler could not fuse
                raise _unsupported("module uses the lane-scalar fallback path")
            raise _unsupported(f"statement {type(stmt).__name__}")
        return out


def extract_ir(
    source: str,
    env: Dict[str, object],
    n_slots: int,
    functions: Sequence[Tuple[str, str]] = (("_settle", "settle"), ("_clock_edge", "clock_edge")),
    dtype: str = "int64",
) -> KernelIR:
    """Extract the typed kernel IR from one generated lane program.

    ``functions`` maps source-level function names to IR phase names.  Raises
    :class:`KernelUnsupportedError` when any statement falls outside the
    closed lane-program grammar.
    """
    tree = ast.parse(source)
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    extractor = _Extractor(env, n_slots, dtype)
    for source_name, phase in functions:
        fn = defs.get(source_name)
        if fn is None:
            raise _unsupported(f"program has no function {source_name!r}")
        extractor.ir.phases[phase] = extractor.function(fn)
    return extractor.ir
