"""Levelized, compiled gate-level simulation.

Two-valued (0/1), cycle-less evaluation: each call settles the combinational
gate network for one input vector.  Consecutive vectors yield per-net toggle
information which the power calculator converts into switching energy — this
is the "gate-level implementation" reference used to characterize RTL power
macromodels, and the engine behind the slow gate-level estimation baseline.

Like the RTL simulator's compiled backend, the gate network is lowered once
into the typed kernel IR (:mod:`repro.sim.kernels.ir`) over dense integer
slots: every net gets a slot (aliases share the slot of the net they resolve
to, so alias propagation disappears entirely) and each gate of the levelized
order becomes one slot assignment built by its cell function's IR builder
(:data:`_CELL_IR`).  Unknown cells become an opaque call of their own
``CellType.evaluate``, so custom libraries keep working.

Three executors are printed from that one IR:

* *scalar* — Python-int source over a flat ``List[int]`` slot list, one
  input vector at a time (the default),
* *batch* — NumPy source over a ``(n_slots, n_lanes)`` array; every fused
  gate is one elementwise array expression, so hundreds of characterization
  stimuli settle in a single pass (see :meth:`GateLevelSimulator.settle_batch`),
* *native* — the same batch settle as a C kernel, when a compiler exists and
  every cell has an IR builder.

Lowering is cached *across simulator instances*: compiled programs are keyed
on a structural fingerprint of the netlist (gates, aliases, constants, I/O),
so characterizing the same component type twice — or re-running a holdout
evaluation on a freshly technology-mapped copy — reuses the levelization,
the IR and every compiled form instead of recompiling.
"""

from __future__ import annotations

from collections import deque
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.gates import cells as _cells
from repro.gates.gate_netlist import GateInstance, GateNetlist, bit_net
from repro.sim.codegen import py_source
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


def _cell_call(evaluate: Callable, out: int, ins: List[int], v) -> None:
    """A gate whose cell has no IR builder: its own ``evaluate`` on the slots,
    lane by lane on a batch array."""
    columns = [v[slot] for slot in ins]
    if isinstance(v, np.ndarray):
        v[out] = [evaluate(tuple(int(c[lane]) for c in columns))
                  for lane in range(v.shape[1])]
    else:
        v[out] = evaluate(tuple(columns))


class GateValues(MutableMapping):
    """Live, name-keyed mapping view over the gate simulator's slot list.

    Reads and writes go straight through to the slots, so forcing a net with
    ``sim.values["w3"] = 1`` behaves exactly like it did when ``values`` was
    a plain dict.  Aliased names share one slot with their resolved source.
    """

    __slots__ = ("_slots", "_v")

    def __init__(self, slots: Dict[str, int], values: List[int]) -> None:
        self._slots = slots
        self._v = values

    def __getitem__(self, net: str) -> int:
        return self._v[self._slots[net]]

    def __setitem__(self, net: str, value: int) -> None:
        self._v[self._slots[net]] = value & 1

    def __delitem__(self, net: str) -> None:
        raise TypeError("net values cannot be deleted")

    def __iter__(self):
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


@dataclass
class GateProgram:
    """The compiled, shareable form of one gate netlist's levelized order.

    Everything here is a pure function of the netlist *structure*, so one
    program serves every :class:`GateLevelSimulator` built over a structurally
    identical netlist (see :func:`netlist_fingerprint`); per-simulator state
    is just the slot value list.
    """

    n_slots: int
    #: net name -> dense slot (aliases share their source's slot)
    slots: Dict[str, int]
    #: net name -> resolved source name
    resolved: Dict[str, str]
    #: the settle as kernel IR; every executor below is printed from it
    ir: KernelIR
    #: scalar settle function over the flat slot list
    fn: Callable[[List[int]], None]
    snap_pairs: List[Tuple[str, int]]
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


def _scalar_settle(ir: KernelIR) -> Callable[[List[int]], None]:
    """The IR printed as one straight-line function over the flat slot list."""
    namespace: Dict[str, object] = {"__builtins__": {}}
    body = []
    for stmt in ir.phases["settle"]:
        if isinstance(stmt, SetSlot):
            body.append(f"v[{stmt.slot}] = {py_source(stmt.expr)}")
        else:
            name = f"_g{len(namespace)}"
            namespace[name] = stmt.call
            body.append(f"{name}(v)")
    source = "def _evaluate(v):\n" + "\n".join("    " + line for line in body or ["pass"])
    exec(compile(source, "<gatesim:scalar>", "exec"), namespace)
    return namespace["_evaluate"]


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
        resolved=resolved,
        ir=ir,
        fn=_scalar_settle(ir),
        snap_pairs=sorted(slots.items()),
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
    """Evaluates a :class:`GateNetlist` one input vector (or lane batch) at a time."""

    def __init__(self, netlist: GateNetlist, kernel_backend: Optional[str] = None) -> None:
        self.netlist = netlist
        self.program = compile_gate_netlist(netlist)
        program = self.program
        #: requested lane-kernel backend for batch settles; only ``native``
        #: changes execution (the NumPy batch_fn already is one fused pass)
        from repro.sim.kernels import resolve_kernel_backend

        self._kernel_request = resolve_kernel_backend(kernel_backend)
        self._batch_settle_fn: Optional[Callable[[np.ndarray], None]] = None
        #: kernel backend actually serving batch settles ("native" or "off")
        self.kernel_backend = "off"
        self._slots = program.slots
        self._resolved = program.resolved
        self._snap_pairs = program.snap_pairs
        self._const_pairs = program.const_pairs
        self._input_pairs = program.input_pairs
        self._output_triples = program.output_triples
        self._fn = program.fn
        self._n_slots = program.n_slots
        self._v: List[int] = [0] * self._n_slots
        #: live name-keyed view over the slots (reads and writes pass through)
        self.values = GateValues(self._slots, self._v)
        #: batch lane array, allocated on first batch call (n_slots, n_lanes)
        self._bv: Optional[np.ndarray] = None
        self.reset()

    # ------------------------------------------------------------- controls
    def reset(self) -> None:
        """Zero every net (and re-apply constants)."""
        self._v[:] = [0] * self._n_slots
        for slot, value in self._const_pairs:
            self._v[slot] = value
        self._bv = None

    def resolve(self, net: str) -> str:
        """Follow alias chains to the net that actually carries the value."""
        resolved = self._resolved.get(net)
        if resolved is None:
            resolved = _build_alias_resolver(self.netlist)(net)
            self._resolved[net] = resolved
        return resolved

    # ------------------------------------------------------ scalar execution
    def _settle(self, input_bits: Mapping[str, int]) -> None:
        v = self._v
        for slot, value in self._const_pairs:
            v[slot] = value
        get = input_bits.get
        for net, slot in self._input_pairs:
            v[slot] = get(net, 0) & 1
        self._fn(v)

    def evaluate(self, input_bits: Mapping[str, int]) -> "GateValues":
        """Settle the network for one vector of primary-input bit values.

        Returns the live :class:`GateValues` view of the settled net values.
        """
        self._settle(input_bits)
        return self.values

    def evaluate_ports(self, port_values: Mapping[str, int],
                       port_widths: Mapping[str, int]) -> Dict[str, int]:
        """Bit-blast RTL port values, evaluate, and reassemble output ports."""
        input_bits: Dict[str, int] = {}
        for port, value in port_values.items():
            width = port_widths.get(port, 1)
            for i in range(width):
                input_bits[bit_net(port, i)] = (value >> i) & 1
        self._settle(input_bits)
        v = self._v
        outputs: Dict[str, int] = {}
        for port, index, slot in self._output_triples:
            outputs[port] = outputs.get(port, 0) | (v[slot] << index)
        return outputs

    def snapshot(self) -> Dict[str, int]:
        """Copy of the current net values (for toggle counting across vectors)."""
        v = self._v
        return {net: v[slot] for net, slot in self._snap_pairs}

    # ------------------------------------------------------- batch execution
    def _lane_array(self, n_lanes: int) -> np.ndarray:
        if n_lanes < 1:
            raise ValueError(f"batch evaluation needs n_lanes >= 1, got {n_lanes}")
        if self._bv is None or self._bv.shape[1] != n_lanes:
            self._bv = np.zeros((self._n_slots, n_lanes), dtype=LANE_DTYPE)
        return self._bv

    def settle_batch(self, input_bits: Mapping[str, np.ndarray], n_lanes: int) -> np.ndarray:
        """Settle ``n_lanes`` independent input vectors in one vectorized pass.

        ``input_bits`` maps primary-input bit-net names to ``(n_lanes,)``
        integer arrays of 0/1 values.  Returns the live ``(n_slots, n_lanes)``
        lane array (row ``slots[net]`` holds that net's per-lane values).
        """
        v = self._lane_array(n_lanes)
        for slot, value in self._const_pairs:
            v[slot] = value
        get = input_bits.get
        zero = 0
        for net, slot in self._input_pairs:
            bits = get(net, zero)
            v[slot] = bits & 1 if isinstance(bits, int) else np.asarray(bits) & 1
        if self._batch_settle_fn is None:
            self._batch_settle_fn = self.program.batch_fn
            if self._kernel_request == "native":
                native = self.program.native_batch_fn()
                if native is not None:
                    self._batch_settle_fn = native
                    self.kernel_backend = "native"
        self._batch_settle_fn(v)
        return v

    def evaluate_ports_batch(
        self,
        port_values: Mapping[str, np.ndarray],
        port_widths: Mapping[str, int],
    ) -> Dict[str, np.ndarray]:
        """Batched :meth:`evaluate_ports`: port arrays in, port arrays out.

        ``port_values`` maps RTL port names to ``(n_lanes,)`` integer arrays;
        the return maps each output port to an ``(n_lanes,)`` ``int64`` array.
        """
        arrays = {p: np.asarray(a, dtype=np.int64) for p, a in port_values.items()}
        if not arrays:
            raise ValueError("evaluate_ports_batch needs at least one input port array")
        n_lanes = next(iter(arrays.values())).shape[0]
        input_bits: Dict[str, np.ndarray] = {}
        for port, value in arrays.items():
            width = port_widths.get(port, 1)
            for i in range(width):
                input_bits[bit_net(port, i)] = (value >> i) & 1
        v = self.settle_batch(input_bits, n_lanes)
        outputs: Dict[str, np.ndarray] = {}
        for port, index, slot in self._output_triples:
            bits = v[slot].astype(np.int64) << index
            if port in outputs:
                outputs[port] |= bits
            else:
                outputs[port] = bits
        return outputs

    def snapshot_batch(self) -> np.ndarray:
        """Copy of the ``(n_slots, n_lanes)`` lane array after a batch settle."""
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
