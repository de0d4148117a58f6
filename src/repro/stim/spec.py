"""Declarative stimulus specifications.

A :class:`StimulusSpec` describes a workload scenario — which input ports to
drive, with what kind of stream, for how many cycles, under which seed —
without a single line of imperative testbench code.  Specs are frozen,
hashable dataclasses with JSON round-trips, so they ride inside
:class:`~repro.api.spec.RunSpec`, persist in the result cache, and travel
through shard-pool workers unchanged.

Port streams come in six kinds:

* :class:`UniformSpec` — fresh uniform-random bits every ``hold`` cycles,
* :class:`ConstantSpec` — one held value,
* :class:`BurstSpec` — duty-cycled activity: ``active`` random cycles, then
  ``idle`` cycles at ``idle_value``,
* :class:`MarkovSpec` — per-bit two-state Markov chains (correlated toggle
  streams with tunable 0→1 / 1→0 probabilities),
* :class:`MixtureSpec` — a per-cycle weighted choice between sub-streams,
* :class:`ReplaySpec` — replay of a recorded value sequence (from arrays or,
  via :func:`replay_from_vcd`, from a VCD dump).

Lowering a spec into executable ``(n_cycles, n_ports, n_lanes)`` stimulus
tensors is :mod:`repro.stim.compile`'s job; this module is pure description.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "PortSpec",
    "UniformSpec",
    "ConstantSpec",
    "BurstSpec",
    "MarkovSpec",
    "MixtureSpec",
    "ReplaySpec",
    "StimulusSpec",
    "PORT_SPEC_KINDS",
    "port_spec_from_dict",
    "parse_stimulus",
    "replay_from_vcd",
]


def port_entropy(name: str) -> int:
    """Stable per-port entropy word (order-independent seeding)."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass(frozen=True)
class PortSpec:
    """Base class of one port's stream description."""

    kind = "abstract"

    def to_dict(self) -> Dict[str, object]:
        # a shallow copy: every field is an immutable scalar or a tuple of them
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["kind"] = self.kind
        return payload

    def describe(self) -> str:
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in dataclasses.fields(self)
        )
        return f"{self.kind}({parts})"


@dataclass(frozen=True)
class UniformSpec(PortSpec):
    """Fresh uniform-random bits every ``hold`` cycles."""

    kind = "uniform"

    hold: int = 1

    def __post_init__(self) -> None:
        if self.hold < 1:
            raise ValueError(f"uniform stimulus needs hold >= 1, got {self.hold}")


@dataclass(frozen=True)
class ConstantSpec(PortSpec):
    """One value, held for the whole run."""

    kind = "constant"

    value: int = 0


@dataclass(frozen=True)
class BurstSpec(PortSpec):
    """Duty-cycled activity: ``active`` random cycles, ``idle`` quiet cycles.

    Each burst starts with a fresh draw; within the active window a new value
    is drawn every ``hold`` cycles.  ``phase`` shifts the duty pattern so
    multiple ports can burst out of step with each other.
    """

    kind = "burst"

    active: int = 8
    idle: int = 8
    hold: int = 1
    phase: int = 0
    idle_value: int = 0

    def __post_init__(self) -> None:
        if self.active < 1:
            raise ValueError(f"burst needs active >= 1, got {self.active}")
        if self.idle < 0:
            raise ValueError(f"burst needs idle >= 0, got {self.idle}")
        if self.hold < 1:
            raise ValueError(f"burst needs hold >= 1, got {self.hold}")

    @property
    def period(self) -> int:
        return self.active + self.idle


@dataclass(frozen=True)
class MarkovSpec(PortSpec):
    """Per-bit two-state Markov chains: correlated (bursty) toggle activity.

    ``p01`` is the per-cycle probability of a 0-bit turning 1, ``p10`` the
    probability of a 1-bit turning 0; the stationary activity factor is
    ``p01 / (p01 + p10)`` and the expected toggle rate per bit per cycle is
    ``2 * p01 * p10 / (p01 + p10)``.
    """

    kind = "markov"

    p01: float = 0.1
    p10: float = 0.1
    init: int = 0

    def __post_init__(self) -> None:
        for name in ("p01", "p10"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"markov {name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class MixtureSpec(PortSpec):
    """A weighted per-cycle choice between sub-streams.

    Every component stream advances every cycle (so the mixture's draws stay
    chunk-invariant); the selector re-draws which component's value is visible
    every ``hold`` cycles.
    """

    kind = "mixture"

    components: Tuple[Tuple[float, PortSpec], ...] = ()
    hold: int = 1

    def __post_init__(self) -> None:
        components = tuple(
            (float(weight), spec) for weight, spec in self.components
        )
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("mixture needs at least one (weight, spec) component")
        if any(weight < 0 for weight, _ in components):
            raise ValueError("mixture weights must be non-negative")
        if sum(weight for weight, _ in components) <= 0:
            raise ValueError("mixture weights must not all be zero")
        if self.hold < 1:
            raise ValueError(f"mixture needs hold >= 1, got {self.hold}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "hold": self.hold,
            "components": [
                [weight, spec.to_dict()] for weight, spec in self.components
            ],
        }


@dataclass(frozen=True)
class ReplaySpec(PortSpec):
    """Replay a recorded value sequence, one value per cycle.

    After the sequence is exhausted the stream wraps around when ``repeat``
    is set, holds the last value when ``hold_last`` is set, and drives 0
    otherwise.
    """

    kind = "replay"

    values: Tuple[int, ...] = ()
    repeat: bool = False
    hold_last: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ValueError("replay needs at least one value")


PORT_SPEC_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (UniformSpec, ConstantSpec, BurstSpec, MarkovSpec, MixtureSpec, ReplaySpec)
}


def port_spec_from_dict(payload: Mapping[str, object]) -> PortSpec:
    """Reconstruct any :class:`PortSpec` from its ``to_dict`` payload."""
    payload = dict(payload)
    kind = payload.pop("kind", None)
    try:
        cls = PORT_SPEC_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown stimulus kind {kind!r}; expected one of "
            f"{', '.join(sorted(PORT_SPEC_KINDS))}"
        ) from None
    if cls is MixtureSpec:
        payload["components"] = tuple(
            (float(weight), port_spec_from_dict(spec))
            for weight, spec in payload.get("components", ())
        )
    if cls is ReplaySpec:
        payload["values"] = tuple(payload.get("values", ()))
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in fields})


# ---------------------------------------------------------------------------
# The top-level scenario description.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StimulusSpec:
    """One complete scenario: named port streams + a default for the rest.

    ``ports`` maps input-port names to :class:`PortSpec` streams (a mapping
    is accepted and normalized to a name-sorted tuple of pairs, keeping the
    spec hashable and its JSON canonical); ``default`` applies to every input
    port not named explicitly (``None`` leaves those ports undriven).
    ``seed`` is the base stimulus seed — scalar and lane runs re-seed it per
    testbench, so the same spec fans out into independent Monte-Carlo lanes.
    """

    n_cycles: int
    ports: Tuple[Tuple[str, PortSpec], ...] = ()
    default: Optional[PortSpec] = field(default_factory=lambda: UniformSpec())
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cycles < 1:
            raise ValueError(f"stimulus needs n_cycles >= 1, got {self.n_cycles}")
        ports = self.ports
        if isinstance(ports, Mapping):
            pairs = tuple(sorted(ports.items(), key=lambda pair: pair[0]))
        else:
            pairs = tuple(
                sorted(((str(name), spec) for name, spec in ports),
                       key=lambda pair: pair[0])
            )
        names = [name for name, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate port names in stimulus spec: {names}")
        object.__setattr__(self, "ports", pairs)

    # ------------------------------------------------------------ resolution
    def port_map(self) -> Dict[str, PortSpec]:
        return dict(self.ports)

    def resolve(self, input_widths: Mapping[str, int]) -> List[Tuple[str, PortSpec, int]]:
        """Bind the spec to a module's input ports.

        Returns ``(name, port_spec, width)`` triples in a canonical (sorted)
        order: explicitly named ports must exist as inputs, and the default
        stream (when set) covers every remaining input.
        """
        explicit = self.port_map()
        unknown = sorted(set(explicit) - set(input_widths))
        if unknown:
            raise KeyError(
                f"stimulus names port(s) {', '.join(unknown)} not among the "
                f"module's inputs: {', '.join(sorted(input_widths)) or '<none>'}"
            )
        resolved = []
        for name in sorted(input_widths):
            spec = explicit.get(name, self.default)
            if spec is not None:
                resolved.append((name, spec, input_widths[name]))
        if not resolved:
            raise ValueError(
                "stimulus drives no ports: no explicit port matched and no "
                "default stream is set"
            )
        return resolved

    # ------------------------------------------------------------- variants
    def replace(self, **changes) -> "StimulusSpec":
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        lines = [f"stimulus: {self.n_cycles} cycles, seed {self.seed}"]
        for name, spec in self.ports:
            lines.append(f"  {name:16s} {spec.describe()}")
        default = self.default.describe() if self.default is not None else "undriven"
        lines.append(f"  {'<other inputs>':16s} {default}")
        return "\n".join(lines)

    # -------------------------------------------------------- serialization
    @cached_property
    def shared_dict(self) -> Dict[str, object]:
        """The :meth:`to_dict` payload, built once per (frozen) spec and
        shared by every reader: read it, never mutate it."""
        return self.to_dict()

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_cycles": self.n_cycles,
            "seed": self.seed,
            "ports": [[name, spec.to_dict()] for name, spec in self.ports],
            "default": self.default.to_dict() if self.default is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StimulusSpec":
        default = payload.get("default")
        return cls(
            n_cycles=int(payload["n_cycles"]),
            seed=int(payload.get("seed", 0)),
            ports=tuple(
                (name, port_spec_from_dict(spec))
                for name, spec in payload.get("ports", ())
            ),
            default=port_spec_from_dict(default) if default is not None else None,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StimulusSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# CLI shorthand parsing.
# ---------------------------------------------------------------------------

#: StimulusSpec-level keys accepted by the shorthand grammar
_SPEC_KEYS = ("cycles", "seed")


def _coerce(value: str) -> object:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def parse_stimulus(text: str, default_cycles: int = 256) -> StimulusSpec:
    """Parse the CLI's ``--stimulus`` argument into a :class:`StimulusSpec`.

    Three forms are accepted::

        @scenario.json                   # a StimulusSpec JSON file
        {"n_cycles": 64, ...}            # inline StimulusSpec JSON
        burst:active=4,idle=12,cycles=96 # shorthand kind[:key=value,...]

    Shorthand builds a default-port spec of the named kind; the ``cycles``
    and ``seed`` keys set the spec-level fields, everything else goes to the
    port-spec constructor.
    """
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:]) as handle:
                return StimulusSpec.from_json(handle.read())
        except OSError as error:
            raise ValueError(
                f"cannot read stimulus file {text[1:]!r}: {error}"
            ) from None
    if text.startswith("{"):
        return StimulusSpec.from_json(text)
    kind, _, arg_text = text.partition(":")
    if kind not in PORT_SPEC_KINDS:
        raise ValueError(
            f"unknown stimulus shorthand {kind!r}; expected @file, inline "
            f"JSON, or one of {', '.join(sorted(PORT_SPEC_KINDS))}"
        )
    port_args: Dict[str, object] = {}
    spec_args: Dict[str, int] = {}
    for item in filter(None, (part.strip() for part in arg_text.split(","))):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(
                f"malformed stimulus argument {item!r}; expected key=value"
            )
        if key in _SPEC_KEYS:
            spec_args[key] = int(value)
        else:
            port_args[key] = _coerce(value)
    if kind == "replay" and "values" in port_args:
        port_args["values"] = tuple(
            int(v) for v in str(port_args["values"]).split("+")
        )
    try:
        default = PORT_SPEC_KINDS[kind](**port_args)
    except TypeError as error:
        raise ValueError(f"bad {kind} stimulus arguments: {error}") from None
    return StimulusSpec(
        n_cycles=spec_args.get("cycles", default_cycles),
        seed=spec_args.get("seed", 0),
        default=default,
    )


# ---------------------------------------------------------------------------
# Recorded-trace replay from a VCD dump.
# ---------------------------------------------------------------------------


def replay_from_vcd(
    vcd_text: str,
    ports: Optional[Mapping[str, str]] = None,
    period: int = 1,
    offset: int = 0,
    n_cycles: Optional[int] = None,
    default: Optional[PortSpec] = None,
    seed: int = 0,
) -> StimulusSpec:
    """Build a replay :class:`StimulusSpec` from a VCD dump.

    Each selected signal is sampled every ``period`` VCD time units starting
    at ``offset`` and becomes a :class:`ReplaySpec` port stream.  ``ports``
    maps port names to VCD signal names (plain or scope-qualified); when
    omitted, every signal in the dump replays onto the port of the same name.
    """
    from repro.vcd.parser import parse_vcd

    vcd = parse_vcd(vcd_text)
    by_name: Dict[str, "object"] = {}
    for signal in vcd.signals.values():
        by_name.setdefault(signal.name, signal)
        by_name[signal.full_name] = signal
    if ports is None:
        selected = {
            signal.name: signal
            for signal in vcd.signals.values()
        }
    else:
        selected = {}
        for port_name, signal_name in ports.items():
            try:
                selected[port_name] = by_name[signal_name]
            except KeyError:
                raise KeyError(
                    f"VCD dump has no signal {signal_name!r} (wanted for port "
                    f"{port_name!r}); signals: "
                    f"{', '.join(sorted({s.name for s in vcd.signals.values()}))}"
                ) from None
    if period < 1:
        raise ValueError(f"VCD sampling period must be >= 1, got {period}")
    cycles = n_cycles
    if cycles is None:
        cycles = max(1, (vcd.end_time - offset) // period + 1)
    port_specs = {
        name: ReplaySpec(
            values=tuple(
                signal.value_at(offset + cycle * period) for cycle in range(cycles)
            )
        )
        for name, signal in selected.items()
    }
    return StimulusSpec(n_cycles=cycles, ports=port_specs, default=default, seed=seed)
