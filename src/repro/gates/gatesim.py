"""Levelized, compiled gate-level simulation.

Two-valued (0/1), cycle-less evaluation: a settle of the combinational gate
network has no state, so any number of independent input vectors settle at
once, one per *lane* of a ``(n_slots, n_lanes)`` array.  Consecutive vectors
yield per-net toggle information which the power calculator converts into
switching energy — this is the "gate-level implementation" reference used to
characterize RTL power macromodels, and the engine behind the slow
gate-level estimation baseline.

Like the RTL simulator's lane backend, the gate network is lowered once into
the typed kernel IR (:mod:`repro.sim.kernels.ir`) over dense integer slots:
every net gets a slot (aliases share the slot of the net they resolve to, so
alias propagation disappears entirely) and each gate of the levelized order
becomes one slot assignment built by its cell function's IR builder
(:data:`_CELL_IR`).  Unknown cells become an opaque call of their own
``CellType.evaluate``, lane by lane, so custom libraries keep working.

The IR is printed twice, both as a batch settle over the lane array:

* *batch* — NumPy source; every fused gate is one elementwise array
  expression (:attr:`GateProgram.batch_fn`, the default),
* *native* — the same settle as a C kernel, on an explicit
  ``kernel_backend="native"`` when a compiler exists and every cell has an
  IR builder.

Port values up to :data:`MAX_LANE_PORT_WIDTH` bits travel as ``int64``
columns; wider ports take object (Python-int) columns, in and out, through
the same settle.

Lowering is cached *across simulator instances*: compiled programs are keyed
on a structural fingerprint of the netlist (gates, aliases, constants, I/O),
so characterizing the same component type twice — or re-running a holdout
evaluation on a freshly technology-mapped copy — reuses the levelization,
the IR and every compiled form instead of recompiling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.gates import cells as _cells
from repro.gates.gate_netlist import GateInstance, GateNetlist, bit_net
from repro.sim.kernels.ir import (
    Expr, Fallback, KernelBuilder, KernelIR, SetSlot, SlotRef, numpy_source, where,
)

#: IR builder per standard-cell function; inputs are 0/1, so every cell's
#: expression already is 0/1 (no trailing ``& 1`` needed)
_CELL_IR: Dict[object, Callable[..., Expr]] = {
    _cells._inv: lambda a: 1 - a,
    _cells._buf: lambda a: a,
    _cells._nand2: lambda a, b: 1 - (a & b),
    _cells._nand3: lambda a, b, c: 1 - (a & b & c),
    _cells._nor2: lambda a, b: 1 - (a | b),
    _cells._nor3: lambda a, b, c: 1 - (a | b | c),
    _cells._and2: lambda a, b: a & b,
    _cells._and3: lambda a, b, c: a & b & c,
    _cells._or2: lambda a, b: a | b,
    _cells._or3: lambda a, b, c: a | b | c,
    _cells._xor2: lambda a, b: a ^ b,
    _cells._xnor2: lambda a, b: 1 - (a ^ b),
    _cells._mux2: lambda a, b, s: where(s.ne(0), b, a),
    _cells._aoi21: lambda a, b, c: 1 - ((a & b) | c),
    _cells._oai21: lambda a, b, c: 1 - ((a | b) & c),
    _cells._maj3: lambda a, b, c: (a + b + c).ge(2) * 1,
    _cells._xor3: lambda a, b, c: a ^ b ^ c,
}

#: dtype of the batch lane arrays; gate values are 0/1 so one byte suffices
LANE_DTYPE = np.int8

#: widest port (in bits) that packs into an ``int64`` column; wider ports
#: travel as object columns of exact Python ints
MAX_LANE_PORT_WIDTH = 62


def port_column(values, width: int) -> np.ndarray:
    """One port's lane column of ``values``: ``int64``, or exact Python ints
    in an object column when ``width`` exceeds :data:`MAX_LANE_PORT_WIDTH`."""
    return np.array(values, dtype=object if width > MAX_LANE_PORT_WIDTH else np.int64)


def _cell_call(evaluate: Callable, out: int, ins: List[int], v: np.ndarray) -> None:
    """A gate whose cell has no IR builder: its own ``evaluate``, lane by lane."""
    columns = [v[slot] for slot in ins]
    v[out] = [evaluate(tuple(int(c[lane]) for c in columns))
              for lane in range(v.shape[1])]


@dataclass
class GateProgram:
    """The compiled, shareable form of one gate netlist's levelized order.

    Everything here is a pure function of the netlist *structure*, so one
    program serves every :class:`GateLevelSimulator` built over a structurally
    identical netlist (see :func:`netlist_fingerprint`); per-simulator state
    is just the lane array.
    """

    n_slots: int
    #: net name -> dense slot (aliases share their source's slot)
    slots: Dict[str, int]
    #: the settle as kernel IR; both executors below are printed from it
    ir: KernelIR
    const_pairs: List[Tuple[int, int]]
    input_pairs: List[Tuple[str, int]]
    output_triples: List[Tuple[str, int, int]]
    #: strong refs to the cell objects the fingerprint identifies by id()
    cells: Tuple[object, ...] = ()
    #: lazily compiled batch settle function over a (n_slots, n_lanes) array
    _batch_fn: Optional[Callable[[np.ndarray], None]] = field(default=None, repr=False)
    #: lazily compiled native (C) batch settle kernel; False = unavailable
    _native_kernel: object = field(default=None, repr=False)

    @property
    def batch_fn(self) -> Callable[[np.ndarray], None]:
        if self._batch_fn is None:
            source, namespace = numpy_source(self.ir)
            namespace["__builtins__"] = {}
            exec(compile(source, "<gatesim:batch>", "exec"), namespace)
            self._batch_fn = namespace["_settle"]
        return self._batch_fn

    def native_batch_fn(self) -> Optional[Callable[[np.ndarray], None]]:
        """The batch settle as a fused C kernel, or None when unavailable.

        The gate settle is stateless (pure ``v[i] = expr`` rows), so its IR
        compiles as is; netlists with cells that have no IR builder and
        compiler-less hosts return None and stay on the NumPy ``batch_fn``.
        Shared across simulators like the other compiled forms.
        """
        if self._native_kernel is None:
            from repro.sim.kernels import (
                KernelUnsupportedError, NativeToolchainError, compile_kernel,
            )

            self._native_kernel = False
            try:
                self.ir.require_kernelizable()
                self._native_kernel = compile_kernel(self.ir, 0)
            except (KernelUnsupportedError, NativeToolchainError):
                pass
        if self._native_kernel is False:
            return None
        return self._native_kernel.settle


def netlist_fingerprint(netlist: GateNetlist) -> tuple:
    """Structural identity of a gate netlist (the program-cache key).

    Cell types are identified by ``id``; cached programs keep strong
    references to the cell objects so an id can never be recycled while the
    entry is alive.
    """
    return (
        tuple((id(g.cell), g.output, tuple(g.inputs)) for g in netlist.gates),
        tuple(sorted(netlist.aliases.items())),
        tuple(sorted(netlist.constants.items())),
        tuple(netlist.primary_inputs),
        tuple(netlist.primary_outputs),
    )


#: fingerprint -> GateProgram; bounded FIFO so pathological sweeps over many
#: distinct structures cannot grow it without limit
_PROGRAM_CACHE: Dict[tuple, GateProgram] = {}
_PROGRAM_CACHE_MAX = 256


def _levelize(netlist: GateNetlist, resolve: Callable[[str], str]) -> List[GateInstance]:
    producers: Dict[str, GateInstance] = {g.output: g for g in netlist.gates}

    indegree: Dict[GateInstance, int] = {}
    successors: Dict[GateInstance, List[GateInstance]] = {g: [] for g in netlist.gates}
    for gate in netlist.gates:
        count = 0
        for net in gate.inputs:
            source = producers.get(resolve(net))
            if source is not None and source is not gate:
                successors[source].append(gate)
                count += 1
        indegree[gate] = count

    order: List[GateInstance] = []
    queue = deque(g for g in netlist.gates if indegree[g] == 0)
    while queue:
        gate = queue.popleft()
        order.append(gate)
        for succ in successors[gate]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    if len(order) != len(netlist.gates):
        raise ValueError(
            f"gate netlist {netlist.name!r} contains a combinational cycle"
        )
    return order


def _lower_settle(
    order: List[GateInstance], slots: Dict[str, int], resolved: Dict[str, str],
    n_slots: int,
) -> KernelIR:
    """The levelized gate order as one ``settle`` phase of kernel IR."""
    kb = KernelBuilder(n_slots, dtype="int8")
    kb.phase("settle")
    for gate in order:
        ins = [slots[resolved.get(net, net)] for net in gate.inputs]
        out = slots[resolved.get(gate.output, gate.output)]
        build = _CELL_IR.get(gate.cell.function)
        if build is not None and gate.cell.n_inputs == len(ins):
            kb.add(SetSlot(out, build(*(SlotRef(slot) for slot in ins))))
        else:
            kb.add(Fallback(partial(_cell_call, gate.cell.evaluate, out, ins)))
    return kb.ir


def compile_gate_netlist(netlist: GateNetlist) -> GateProgram:
    """Levelize + compile ``netlist`` (cached across simulator instances)."""
    key = netlist_fingerprint(netlist)
    program = _PROGRAM_CACHE.get(key)
    if program is not None:
        return program

    resolver = _build_alias_resolver(netlist)
    resolved: Dict[str, str] = {net: resolver(net) for net in netlist.all_nets()}
    order = _levelize(netlist, resolver)

    # Dense slots; an alias is the same wire as its resolved source, so it
    # shares the source's slot and needs no propagation pass.
    slots: Dict[str, int] = {}
    for net in netlist.all_nets():
        source = resolved[net]
        if source not in slots:
            slots[source] = len(slots)
        slots.setdefault(net, slots[source])

    output_triples: List[Tuple[str, int, int]] = []
    for net in netlist.primary_outputs:
        port, index = _split_bit_net(net)
        output_triples.append((port, index, slots[resolved[net]]))

    n_slots = max(slots.values()) + 1 if slots else 0
    ir = _lower_settle(order, slots, resolved, n_slots)
    program = GateProgram(
        n_slots=n_slots,
        slots=slots,
        ir=ir,
        const_pairs=[(slots[n], v & 1) for n, v in netlist.constants.items()],
        input_pairs=[(n, slots[n]) for n in netlist.primary_inputs],
        output_triples=output_triples,
        cells=tuple({id(g.cell): g.cell for g in netlist.gates}.values()),
    )
    if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
        _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
    _PROGRAM_CACHE[key] = program
    return program


class GateLevelSimulator:
    """Settles a :class:`GateNetlist` for a block of input vectors, one per lane."""

    def __init__(self, netlist: GateNetlist, kernel_backend: Optional[str] = None) -> None:
        self.netlist = netlist
        self.program = compile_gate_netlist(netlist)
        #: requested lane-kernel backend; only ``native`` changes execution
        #: (the NumPy batch_fn already is one fused pass)
        from repro.sim.kernels import resolve_kernel_backend

        self._kernel_request = resolve_kernel_backend(kernel_backend)
        self._settle_fn: Optional[Callable[[np.ndarray], None]] = None
        #: kernel backend actually serving settles ("native" or "off")
        self.kernel_backend = "off"
        #: output ports too wide for an int64 column
        self._wide_outputs = {
            port for port, index, _ in self.program.output_triples
            if index >= MAX_LANE_PORT_WIDTH
        }
        #: lane array, allocated on first settle (n_slots, n_lanes)
        self._bv: Optional[np.ndarray] = None

    def _lane_array(self, n_lanes: int) -> np.ndarray:
        if n_lanes < 1:
            raise ValueError(f"batch evaluation needs n_lanes >= 1, got {n_lanes}")
        if self._bv is None or self._bv.shape[1] != n_lanes:
            self._bv = np.zeros((self.program.n_slots, n_lanes), dtype=LANE_DTYPE)
        return self._bv

    def settle_batch(self, input_bits: Mapping[str, np.ndarray], n_lanes: int) -> np.ndarray:
        """Settle ``n_lanes`` independent input vectors in one vectorized pass.

        ``input_bits`` maps primary-input bit-net names to ``(n_lanes,)``
        integer arrays of 0/1 values (a missing net is 0).  Returns the live
        ``(n_slots, n_lanes)`` lane array (row ``slots[net]`` holds that
        net's per-lane values).
        """
        v = self._lane_array(n_lanes)
        for slot, value in self.program.const_pairs:
            v[slot] = value
        get = input_bits.get
        for net, slot in self.program.input_pairs:
            bits = get(net, 0)
            v[slot] = bits & 1 if isinstance(bits, int) else np.asarray(bits) & 1
        if self._settle_fn is None:
            self._settle_fn = self.program.batch_fn
            if self._kernel_request == "native":
                native = self.program.native_batch_fn()
                if native is not None:
                    self._settle_fn = native
                    self.kernel_backend = "native"
        self._settle_fn(v)
        return v

    def evaluate_ports_batch(
        self,
        port_values: Mapping[str, np.ndarray],
        port_widths: Mapping[str, int],
    ) -> Dict[str, np.ndarray]:
        """Bit-blast RTL port columns, settle them as lanes, reassemble outputs.

        ``port_values`` maps RTL port names to ``(n_lanes,)`` integer columns
        (object columns of Python ints for ports wider than
        :data:`MAX_LANE_PORT_WIDTH`); the return maps each output port to an
        ``(n_lanes,)`` ``int64`` column, or an object column when the port is
        wider than that.
        """
        if not port_values:
            raise ValueError("evaluate_ports_batch needs at least one input port array")
        input_bits: Dict[str, np.ndarray] = {}
        for port, value in port_values.items():
            value = np.asarray(value)
            if value.dtype != object:
                value = value.astype(np.int64, copy=False)
            for i in range(port_widths.get(port, 1)):
                input_bits[bit_net(port, i)] = (value >> i) & 1
        v = self.settle_batch(input_bits, value.shape[0])
        outputs: Dict[str, np.ndarray] = {}
        wide = self._wide_outputs
        for port, index, slot in self.program.output_triples:
            bits = v[slot].astype(object if port in wide else np.int64) << index
            if port in outputs:
                outputs[port] |= bits
            else:
                outputs[port] = bits
        return outputs

    def snapshot_batch(self) -> np.ndarray:
        """Copy of the ``(n_slots, n_lanes)`` lane array after a settle."""
        if self._bv is None:
            raise RuntimeError("no batch settle has run yet; call settle_batch first")
        return self._bv.copy()


def _build_alias_resolver(netlist: GateNetlist):
    cache: Dict[str, str] = {}

    def resolve(net: str) -> str:
        if net not in cache:
            current = net
            seen = set()
            while current in netlist.aliases:
                if current in seen:
                    raise ValueError(f"alias cycle through net {current!r}")
                seen.add(current)
                current = netlist.aliases[current]
            cache[net] = current
        return cache[net]

    return resolve


def _split_bit_net(net: str) -> tuple:
    if not net.endswith("]") or "[" not in net:
        return net, 0
    base, _, index = net.rpartition("[")
    return base, int(index[:-1])
