"""The compiled (slot-indexed) simulation backend.

This is the Verilator-style move that makes the reproduction's hot path fast:
instead of interpreting the levelized schedule — rebuilding a
``{port_name: value}`` dict and calling a virtual ``evaluate`` for every
component, every cycle — every net is assigned a dense integer slot in a flat
``values`` list and the whole combinational schedule is code-generated (see
:mod:`repro.sim.codegen`) into one straight-line, allocation-free Python
function per module, plus a matching ``clock_edge`` that captures/commits
sequential state without dict churn.

Compilation happens once per module per process: :func:`compile_module` keeps
a weak per-module cache (invalidated when the module's
:func:`~repro.sim.scheduler.module_mutation_key` changes), so registry
designs that are re-simulated dozens of times across the benchmark suite pay
for ``levelize()`` + codegen exactly once.

:class:`SlotValues` keeps the public ``Simulator.values`` mapping (keyed by
:class:`~repro.netlist.nets.Net`) working on top of the slot list, so
observers, traces and waveform recorders run unchanged on either backend.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.netlist.module import Module
from repro.netlist.nets import Net
from repro.sim.codegen import generate_source
from repro.sim.scheduler import Schedule, module_mutation_key, schedule_for


class CompilationError(Exception):
    """Raised when a module cannot be lowered to slot-indexed code."""


@dataclass
class CompiledProgram:
    """The executable form of one module's levelized schedule."""

    n_slots: int
    #: Net -> dense slot index into the value list
    slot_of: Dict[Net, int]
    #: settle(values_list) — full combinational propagation
    settle: Callable[[List[int]], None]
    #: clock_edge(values_list) — sequential capture + commit
    clock_edge: Callable[[List[int]], None]
    #: generated Python source (for debugging and tests)
    source: str
    #: components fused into inline expressions
    n_fused: int
    #: components executed through the generic evaluate/capture fallback
    n_fallback: int


class SlotValues(MutableMapping):
    """Net-keyed mapping view over the compiled backend's slot list."""

    __slots__ = ("_slot_of", "_v")

    def __init__(self, slot_of: Dict[Net, int], values: List[int]) -> None:
        self._slot_of = slot_of
        self._v = values

    def __getitem__(self, net: Net) -> int:
        return self._v[self._slot_of[net]]

    def __setitem__(self, net: Net, value: int) -> None:
        # mask like the interpreter's capture paths do, so forced values
        # behave identically on both backends
        self._v[self._slot_of[net]] = value & ((1 << net.width) - 1)

    def __delitem__(self, net: Net) -> None:
        raise TypeError("net values cannot be deleted")

    def __iter__(self):
        return iter(self._slot_of)

    def __len__(self) -> int:
        return len(self._slot_of)


#: module -> (module_mutation_key, schedule, program); weak so modules
#: (and the component objects their programs close over) can be collected.
_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Module, tuple]" = weakref.WeakKeyDictionary()

#: serializes :func:`compile_module`'s cache lookups and builds, so threads
#: asking for one module's program at once get one program
_PROGRAM_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    # another thread may have held the lock at the fork
    global _PROGRAM_LOCK
    _PROGRAM_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def compile_module(module: Module, schedule: Optional[Schedule] = None) -> CompiledProgram:
    """Compile ``module``'s schedule into a :class:`CompiledProgram` (cached)."""
    with _PROGRAM_LOCK:
        return _compile_module(module, schedule)


def _compile_module(module: Module, schedule: Optional[Schedule]) -> CompiledProgram:
    if schedule is None:
        schedule = schedule_for(module)
    key = module_mutation_key(module)
    cached = _PROGRAM_CACHE.get(module)
    if cached is not None and cached[0] == key and cached[1] is schedule:
        return cached[2]

    slot_of = {net: slot for slot, net in enumerate(module.nets.values())}
    try:
        source, env, n_fused, n_fallback = generate_source(module, schedule, slot_of)
        code = compile(source, f"<compiled:{module.name}>", "exec")
        namespace = dict(env)
        namespace["__builtins__"] = {}
        exec(code, namespace)
    except Exception as error:
        raise CompilationError(
            f"failed to compile module {module.name!r}: {error}"
        ) from error

    program = CompiledProgram(
        n_slots=len(module.nets),
        slot_of=slot_of,
        settle=namespace["_settle"],
        clock_edge=namespace["_clock_edge"],
        source=source,
        n_fused=n_fused,
        n_fallback=n_fallback,
    )
    try:
        _PROGRAM_CACHE[module] = (key, schedule, program)
    except TypeError:  # pragma: no cover - unweakrefable module subclass
        pass
    return program

