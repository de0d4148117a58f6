"""Combinational levelization (static scheduling) for the cycle simulator.

A flat module's components are split into:

* *state sources* — sequential components whose outputs depend only on their
  internal state (registers, FSMs, synchronous-read memories); their outputs
  are produced before any combinational evaluation,
* *combinationally evaluated* components — everything with an input→output
  combinational path, ordered topologically so a single pass per cycle
  suffices.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netlist.components import Component
from repro.netlist.module import Module
from repro.netlist.nets import Net


class SchedulingError(Exception):
    """Raised when the combinational network cannot be ordered (cycle present)."""


@dataclass
class Schedule:
    """Static evaluation schedule for one module."""

    #: sequential components with purely registered outputs, evaluated first
    state_sources: List[Component] = field(default_factory=list)
    #: combinational (and combinational-through sequential) components, in order
    ordered: List[Component] = field(default_factory=list)
    #: all sequential components (clocked at the end of the cycle)
    sequential: List[Component] = field(default_factory=list)
    #: logic depth (number of levels) of the combinational network
    depth: int = 0


def levelize(module: Module) -> Schedule:
    """Build the static evaluation schedule for a flat module."""
    if module.is_hierarchical:
        raise SchedulingError(
            f"module {module.name!r} is hierarchical; flatten() it before simulation"
        )

    schedule = Schedule()
    comb: List[Component] = []
    for component in module.components.values():
        if component.is_sequential:
            schedule.sequential.append(component)
        if component.has_comb_path:
            comb.append(component)
        elif component.is_sequential or component.type_name == "constant":
            schedule.state_sources.append(component)

    # Map each net to the combinational component driving it (if any).
    driven_by: Dict[Net, Component] = {}
    for component in comb:
        for net in component.output_nets():
            driven_by[net] = component

    successors: Dict[Component, List[Component]] = {c: [] for c in comb}
    indegree: Dict[Component, int] = {c: 0 for c in comb}
    for component in comb:
        for net in component.input_nets():
            producer = driven_by.get(net)
            if producer is not None and producer is not component:
                successors[producer].append(component)
                indegree[component] += 1

    level: Dict[Component, int] = {}
    queue = deque(sorted((c for c, d in indegree.items() if d == 0), key=lambda c: c.name))
    for component in queue:
        level[component] = 0
    while queue:
        current = queue.popleft()
        schedule.ordered.append(current)
        for succ in successors[current]:
            indegree[succ] -= 1
            level[succ] = max(level.get(succ, 0), level[current] + 1)
            if indegree[succ] == 0:
                queue.append(succ)

    if len(schedule.ordered) != len(comb):
        unresolved = sorted(c.name for c, d in indegree.items() if d > 0)
        raise SchedulingError(
            "combinational loop detected; unresolved components: "
            + ", ".join(unresolved[:10])
        )
    schedule.depth = (max(level.values()) + 1) if level else 0
    return schedule


#: module -> ((n_components, n_nets), schedule); weak so modules can be freed
_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[Module, tuple]" = weakref.WeakKeyDictionary()

#: serializes :func:`schedule_for`'s cache lookups and levelizations, so
#: threads asking for one module's schedule at once get one schedule
_SCHEDULE_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    # another thread may have held the lock at the fork
    global _SCHEDULE_LOCK
    _SCHEDULE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def module_mutation_key(module: Module) -> tuple:
    """Staleness key shared by the schedule and compiled-program caches.

    An identity fingerprint of the module's structure: every component, every
    net, and every port connection.  Additions, removals, swaps at constant
    count and rewires all change it.  Cached entries hold strong references
    to the fingerprinted objects (schedules reference components, programs
    reference nets), so a cached key's ids cannot be recycled onto new
    objects while the entry is alive.  Building it is O(ports) — negligible
    next to re-levelizing, which is what a key mismatch triggers.
    """
    parts = [id(net) for net in module.nets.values()]
    for component in module.components.values():
        parts.append(id(component))
        parts.extend(id(port.net) for port in component.ports.values())
    return tuple(parts)


def schedule_for(module: Module, key: Optional[tuple] = None) -> Schedule:
    """Per-process cached :func:`levelize`.

    Registry designs are re-simulated dozens of times across the benchmark
    suite; the cache makes levelization a once-per-module cost.  The cache is
    invalidated when the module's component/net counts change (the only
    supported post-simulation mutation pattern); modules rewired in place at
    constant size should call :func:`levelize` directly.  ``key`` is the
    module's :func:`module_mutation_key` when the caller has just built it.
    """
    with _SCHEDULE_LOCK:
        if key is None:
            key = module_mutation_key(module)
        entry = _SCHEDULE_CACHE.get(module)
        if entry is not None and entry[0] == key:
            return entry[1]
        schedule = levelize(module)
        try:
            _SCHEDULE_CACHE[module] = (key, schedule)
        except TypeError:  # pragma: no cover - unweakrefable module subclass
            pass
        return schedule
