"""Fluent netlist construction API.

:class:`NetlistBuilder` is the ergonomic front end used by the benchmark
designs and by generated datapaths (power-emulation instrumentation).
Every operation instantiates the corresponding RTL component, wires its
inputs, creates an output net and returns that net, so structural RTL can be
written almost like dataflow expressions::

    b = NetlistBuilder("binary_search")
    first = b.register("reg_first", 10)
    last = b.register("reg_last", 10)
    mid = b.shr(b.add(first, last), 1)          # (first + last) >> 1
    b.output("mid", mid)

Feedback paths (register/counter inputs that depend on their own outputs) are
expressed by declaring the storage element first and driving it later with
:meth:`NetlistBuilder.drive`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.netlist.components import (
    AbsoluteValue,
    Adder,
    AddSub,
    Comparator,
    Concat,
    Constant,
    Component,
    Decoder,
    Extend,
    LogicOp,
    Multiplier,
    Mux,
    NotOp,
    ReduceOp,
    Saturator,
    ShifterConst,
    ShifterVar,
    Slice,
    Subtractor,
)
from repro.netlist.fsm import FSMController
from repro.netlist.module import Module
from repro.netlist.nets import Net
from repro.netlist.sequential import (
    Accumulator,
    Counter,
    Memory,
    RegisterFile,
    Register,
    ROM,
    SequentialComponent,
)

NetOrInt = Union[Net, int]


class NetlistBuilder:
    """Incrementally builds a :class:`~repro.netlist.module.Module`."""

    def __init__(self, name: str) -> None:
        self.module = Module(name)
        self._counters: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------ utilities
    def _auto_name(self, prefix: str) -> str:
        index = self._counters[prefix]
        self._counters[prefix] += 1
        return f"{prefix}_{index}"

    def _new_net(self, width: int, name: Optional[str] = None) -> Net:
        net_name = name if name is not None else self._auto_name("n")
        return self.module.add_net(net_name, width)

    def _as_net(self, value: NetOrInt, width: Optional[int] = None) -> Net:
        """Coerce an integer literal into a constant-driven net."""
        if isinstance(value, Net):
            return value
        if width is None:
            raise ValueError(
                "an integer operand needs an explicit width or a Net on the other side"
            )
        return self.const(value, width)

    def _add(self, component: Component, inputs: Mapping[str, NetOrInt]) -> Component:
        """Register a component and connect its input ports."""
        self.module.add_component(component)
        for port_name, value in inputs.items():
            width = component.ports[port_name].width
            net = self._as_net(value, width)
            component.connect(port_name, net)
        return component

    def _connect_outputs(
        self, component: Component, names: Optional[Mapping[str, str]] = None
    ) -> Dict[str, Net]:
        """Create and connect one net per output port; return them by port name."""
        created: Dict[str, Net] = {}
        for port in component.output_ports:
            net_name = (names or {}).get(port.name, f"{component.name}_{port.name}")
            net = self._new_net(port.width, net_name)
            component.connect(port.name, net)
            created[port.name] = net
        return created

    # ------------------------------------------------------------ I/O, nets
    def input(self, name: str, width: int) -> Net:
        """Declare a module input port and return its net."""
        return self.module.add_input(name, width)

    def output(self, name: str, net: Net) -> Net:
        """Expose ``net`` as a module output port."""
        self.module.add_output(name, net)
        return net

    def const(self, value: int, width: int, name: Optional[str] = None) -> Net:
        """Drive a constant value onto a new net."""
        comp_name = name if name is not None else self._auto_name("const")
        comp = Constant(comp_name, width, value)
        self.module.add_component(comp)
        return self._connect_outputs(comp)["y"]

    # ------------------------------------------------------------ arithmetic
    def add(self, a: NetOrInt, b: NetOrInt, width: Optional[int] = None,
            name: Optional[str] = None) -> Net:
        """Adder ``y = a + b`` (width defaults to the wider operand)."""
        width = width or self._infer_width(a, b)
        comp = Adder(name or self._auto_name("add"), width)
        self._add(comp, {"a": self._resize(a, width), "b": self._resize(b, width)})
        return self._connect_outputs(comp)["y"]

    def sub(self, a: NetOrInt, b: NetOrInt, width: Optional[int] = None,
            name: Optional[str] = None) -> Net:
        """Subtractor ``y = a - b``."""
        width = width or self._infer_width(a, b)
        comp = Subtractor(name or self._auto_name("sub"), width)
        self._add(comp, {"a": self._resize(a, width), "b": self._resize(b, width)})
        return self._connect_outputs(comp)["y"]

    def addsub(self, a: NetOrInt, b: NetOrInt, sub: Net, width: Optional[int] = None,
               name: Optional[str] = None) -> Net:
        """Shared adder/subtractor controlled by the 1-bit ``sub`` input."""
        width = width or self._infer_width(a, b)
        comp = AddSub(name or self._auto_name("addsub"), width)
        self._add(comp, {"a": self._resize(a, width), "b": self._resize(b, width), "sub": sub})
        return self._connect_outputs(comp)["y"]

    def mul(self, a: Net, b: NetOrInt, width_y: Optional[int] = None,
            signed: bool = False, name: Optional[str] = None) -> Net:
        """Multiplier; result width defaults to ``a.width + b.width``."""
        b_net = self._as_net(b, a.width)
        comp = Multiplier(
            name or self._auto_name("mul"),
            width_a=a.width,
            width_b=b_net.width,
            width_y=width_y,
            signed=signed,
        )
        self._add(comp, {"a": a, "b": b_net})
        return self._connect_outputs(comp)["y"]

    def absval(self, a: Net, name: Optional[str] = None) -> Net:
        comp = AbsoluteValue(name or self._auto_name("abs"), a.width)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    def saturate(self, a: Net, width_out: int, signed: bool = True,
                 name: Optional[str] = None) -> Net:
        comp = Saturator(name or self._auto_name("sat"), a.width, width_out, signed)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    def compare(self, a: NetOrInt, b: NetOrInt, signed: bool = False,
                name: Optional[str] = None) -> Tuple[Net, Net, Net]:
        """Comparator; returns the ``(lt, eq, gt)`` flag nets."""
        width = self._infer_width(a, b)
        comp = Comparator(name or self._auto_name("cmp"), width, signed)
        self._add(comp, {"a": self._resize(a, width), "b": self._resize(b, width)})
        outs = self._connect_outputs(comp)
        return outs["lt"], outs["eq"], outs["gt"]

    def eq(self, a: NetOrInt, b: NetOrInt, name: Optional[str] = None) -> Net:
        """Equality flag only (still instantiates a comparator)."""
        return self.compare(a, b, name=name)[1]

    # --------------------------------------------------------------- shifts
    def shl(self, a: Net, amount: NetOrInt, name: Optional[str] = None) -> Net:
        if isinstance(amount, int):
            comp = ShifterConst(name or self._auto_name("shl"), a.width, amount, "left")
            self._add(comp, {"a": a})
        else:
            comp = ShifterVar(name or self._auto_name("shl"), a.width, amount.width, "left")
            self._add(comp, {"a": a, "amount": amount})
        return self._connect_outputs(comp)["y"]

    def shr(self, a: Net, amount: NetOrInt, arithmetic: bool = False,
            name: Optional[str] = None) -> Net:
        if isinstance(amount, int):
            comp = ShifterConst(
                name or self._auto_name("shr"), a.width, amount, "right", arithmetic
            )
            self._add(comp, {"a": a})
        else:
            comp = ShifterVar(
                name or self._auto_name("shr"), a.width, amount.width, "right", arithmetic
            )
            self._add(comp, {"a": a, "amount": amount})
        return self._connect_outputs(comp)["y"]

    # ------------------------------------------------------------- steering
    def mux(self, sel: Net, *inputs: NetOrInt, name: Optional[str] = None) -> Net:
        """N-way mux: ``inputs[sel]``."""
        if len(inputs) < 2:
            raise ValueError("mux needs at least two data inputs")
        width = self._infer_width(*inputs)
        comp = Mux(name or self._auto_name("mux"), width, len(inputs))
        port_map: Dict[str, NetOrInt] = {
            f"d{i}": self._resize(value, width) for i, value in enumerate(inputs)
        }
        sel_net = sel
        if sel.width != comp.sel_width:
            sel_net = self.resize(sel, comp.sel_width)
        port_map["sel"] = sel_net
        self._add(comp, port_map)
        return self._connect_outputs(comp)["y"]

    # ---------------------------------------------------------------- logic
    def logic(self, op: str, a: NetOrInt, b: NetOrInt, name: Optional[str] = None) -> Net:
        width = self._infer_width(a, b)
        comp = LogicOp(name or self._auto_name(op), op, width)
        self._add(comp, {"a": self._resize(a, width), "b": self._resize(b, width)})
        return self._connect_outputs(comp)["y"]

    def and_(self, a: NetOrInt, b: NetOrInt, name: Optional[str] = None) -> Net:
        return self.logic("and", a, b, name)

    def or_(self, a: NetOrInt, b: NetOrInt, name: Optional[str] = None) -> Net:
        return self.logic("or", a, b, name)

    def xor_(self, a: NetOrInt, b: NetOrInt, name: Optional[str] = None) -> Net:
        return self.logic("xor", a, b, name)

    def not_(self, a: Net, name: Optional[str] = None) -> Net:
        comp = NotOp(name or self._auto_name("not"), a.width)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    def reduce(self, op: str, a: Net, name: Optional[str] = None) -> Net:
        comp = ReduceOp(name or self._auto_name(f"red{op}"), op, a.width)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    # --------------------------------------------------------- bit plumbing
    def concat(self, *parts: Net, name: Optional[str] = None) -> Net:
        """Concatenate nets; the first argument lands in the least-significant bits."""
        comp = Concat(name or self._auto_name("cat"), [p.width for p in parts])
        self._add(comp, {f"i{i}": p for i, p in enumerate(parts)})
        return self._connect_outputs(comp)["y"]

    def slice(self, a: Net, high: int, low: int, name: Optional[str] = None) -> Net:
        comp = Slice(name or self._auto_name("slice"), a.width, high, low)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    def bit(self, a: Net, index: int, name: Optional[str] = None) -> Net:
        """Extract a single bit."""
        return self.slice(a, index, index, name)

    def zext(self, a: Net, width_out: int, name: Optional[str] = None) -> Net:
        comp = Extend(name or self._auto_name("zext"), a.width, width_out, signed=False)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    def sext(self, a: Net, width_out: int, name: Optional[str] = None) -> Net:
        comp = Extend(name or self._auto_name("sext"), a.width, width_out, signed=True)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    def resize(self, a: Net, width_out: int, signed: bool = False,
               name: Optional[str] = None) -> Net:
        """Zero/sign-extend or truncate ``a`` to ``width_out`` bits."""
        if a.width == width_out:
            return a
        if a.width < width_out:
            return self.sext(a, width_out, name) if signed else self.zext(a, width_out, name)
        return self.slice(a, width_out - 1, 0, name)

    def decoder(self, a: Net, name: Optional[str] = None) -> Net:
        comp = Decoder(name or self._auto_name("dec"), a.width)
        self._add(comp, {"a": a})
        return self._connect_outputs(comp)["y"]

    # ---------------------------------------------------------------- state
    def register(
        self,
        name: str,
        width: int,
        reset_value: int = 0,
        has_enable: bool = False,
        has_clear: bool = False,
    ) -> Net:
        """Declare a register and return its ``q`` net; drive ``d`` later with :meth:`drive`."""
        comp = Register(name, width, reset_value, has_enable, has_clear)
        self.module.add_component(comp)
        return self._connect_outputs(comp, {"q": f"{name}_q"})["q"]

    def pipe(self, d: Net, name: Optional[str] = None, reset_value: int = 0) -> Net:
        """Simple pipeline register: declare and drive in one step."""
        reg_name = name or self._auto_name("reg")
        q = self.register(reg_name, d.width, reset_value)
        self.drive(reg_name, d=d)
        return q

    def counter(
        self,
        name: str,
        width: int,
        has_load: bool = False,
        wrap_at: Optional[int] = None,
    ) -> Net:
        comp = Counter(name, width, has_load, wrap_at)
        self.module.add_component(comp)
        return self._connect_outputs(comp, {"q": f"{name}_q"})["q"]

    def accumulator(self, name: str, width: int) -> Net:
        comp = Accumulator(name, width)
        self.module.add_component(comp)
        return self._connect_outputs(comp, {"q": f"{name}_q"})["q"]

    def drive(self, component_name: str, **connections: NetOrInt) -> None:
        """Connect input ports of an already-declared component by name."""
        comp = self.module.get_component(component_name)
        for port_name, value in connections.items():
            width = comp.ports[port_name].width
            comp.connect(port_name, self._as_net(value, width))

    def memory(
        self,
        name: str,
        width: int,
        depth: int,
        we: Net,
        addr: Net,
        wdata: Net,
        sync_read: bool = True,
        initial: Optional[Sequence[int]] = None,
    ) -> Net:
        """Single-port memory; returns the read-data net."""
        comp = Memory(name, width, depth, sync_read, initial)
        self._add(comp, {"we": we, "addr": self.resize(addr, comp.addr_width),
                         "wdata": wdata})
        return self._connect_outputs(comp, {"rdata": f"{name}_rdata"})["rdata"]

    def regfile(
        self,
        name: str,
        width: int,
        depth: int,
        we: Net,
        waddr: Net,
        wdata: Net,
        raddrs: Sequence[Net],
        initial: Optional[Sequence[int]] = None,
    ) -> Tuple[Net, ...]:
        """Register file; returns one read-data net per read address."""
        comp = RegisterFile(name, width, depth, n_read_ports=len(raddrs), initial=initial)
        inputs: Dict[str, NetOrInt] = {
            "we": we,
            "waddr": self.resize(waddr, comp.addr_width),
            "wdata": wdata,
        }
        for i, raddr in enumerate(raddrs):
            inputs[f"raddr{i}"] = self.resize(raddr, comp.addr_width)
        self._add(comp, inputs)
        outs = self._connect_outputs(comp)
        return tuple(outs[f"rdata{i}"] for i in range(len(raddrs)))

    def rom(self, name: str, width: int, contents: Sequence[int], addr: Net) -> Net:
        comp = ROM(name, width, contents)
        self._add(comp, {"addr": self.resize(addr, comp.addr_width)})
        return self._connect_outputs(comp, {"rdata": f"{name}_rdata"})["rdata"]

    def fsm(
        self,
        name: str,
        states: Sequence[str],
        inputs: Mapping[str, Net],
        outputs: Mapping[str, int],
        moore_outputs: Optional[Mapping[str, Mapping[str, int]]] = None,
        reset_state: Optional[str] = None,
    ) -> Tuple[FSMController, Dict[str, Net]]:
        """Instantiate a Moore FSM controller.

        ``inputs`` maps status-signal names to the nets carrying them;
        ``outputs`` maps control-signal names to widths.  Returns the FSM
        component (so transitions can be added) and its output nets.
        """
        comp = FSMController(
            name,
            states=states,
            inputs={n: net.width for n, net in inputs.items()},
            outputs=outputs,
            moore_outputs=moore_outputs,
            reset_state=reset_state,
        )
        self._add(comp, dict(inputs))
        out_nets = self._connect_outputs(comp)
        return comp, out_nets

    # -------------------------------------------------------------- helpers
    def _infer_width(self, *operands: NetOrInt) -> int:
        widths = [v.width for v in operands if isinstance(v, Net)]
        if not widths:
            raise ValueError("cannot infer width from integer-only operands")
        return max(widths)

    def _resize(self, value: NetOrInt, width: int) -> NetOrInt:
        if isinstance(value, Net) and value.width != width:
            return self.resize(value, width)
        return value

    def build(self) -> Module:
        """Return the constructed module."""
        return self.module
