"""Lowering stimulus specs into chunked ``(n_cycles, n_ports, n_lanes)`` tensors.

Every :class:`~repro.stim.spec.PortSpec` kind compiles into a *stream* — a
small stateful generator that produces that port's values for one lane, chunk
by chunk, using a dedicated ``numpy`` bit generator seeded from
``(salt, lane seed, port name)``.  Two invariants make the whole subsystem
trustworthy:

* **Chunk invariance** — a stream's values depend only on absolute cycle
  indices, never on how the run is split into chunks.  Draw counts per chunk
  are fully determined by the cycle range (uniform/burst draw exactly one
  value per refresh cycle, Markov draws exactly ``width`` uniforms per cycle,
  mixture children advance every cycle), so a scalar testbench pulling one
  cycle at a time and a 1024-lane driver pulling 256-cycle chunks read the
  same stream.
* **Per-(seed, port) independence** — lane ``i``'s stream is a pure function
  of ``(seeds[i], port name)``.  A scalar run re-seeded with ``seeds[i]``
  therefore reproduces lane ``i`` bit for bit, which is what makes
  spec-driven scalar and lane power estimates identical.

Ports wider than the int64 lane store's :data:`~repro.sim.batch.MAX_LANE_WIDTH`
bits generate object-dtype columns of Python ints (each value assembled from
fixed 32-bit draws, keeping chunk invariance).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.batch import MAX_LANE_WIDTH
from repro.stim.spec import (
    BurstSpec,
    ConstantSpec,
    MarkovSpec,
    MixtureSpec,
    PortSpec,
    ReplaySpec,
    StimulusSpec,
    UniformSpec,
    port_entropy,
)

#: default cycles per generated chunk (bounds tensor memory at high lane counts)
CHUNK_CYCLES = 256

#: salt separating stimulus streams from every other RNG consumer in the repo
_STIM_SALT = 0x5717_0001


def _stream_rng(entropy: Tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


class _Stream:
    """One (lane, port) value stream; ``take`` must be called sequentially."""

    def __init__(self, spec: PortSpec, width: int, entropy: Tuple[int, ...]) -> None:
        self.spec = spec
        self.width = width
        self.mask = (1 << width) - 1
        self.wide = width > MAX_LANE_WIDTH
        self._entropy = entropy
        self._cycle = 0

    @cached_property
    def _rng(self) -> np.random.Generator:  # seeded on first draw: constants never draw
        return _stream_rng(self._entropy)

    # ------------------------------------------------------------- raw draws
    def _draw(self, k: int) -> np.ndarray:
        """``k`` uniform values of this port's width (chunk-invariant)."""
        if k <= 0:
            return (
                np.empty(0, dtype=object) if self.wide else np.empty(0, dtype=np.int64)
            )
        if not self.wide:
            # power-of-two range: masked generation, one raw draw per value
            return self._rng.integers(0, 1 << self.width, size=k, dtype=np.int64)
        n_words = (self.width + 31) // 32
        words = self._rng.integers(0, 1 << 32, size=(k, n_words), dtype=np.int64)
        out = np.empty(k, dtype=object)
        for i in range(k):
            value = 0
            for j in range(n_words):
                value |= int(words[i, j]) << (32 * j)
            out[i] = value & self.mask
        return out

    def _empty(self, n: int) -> np.ndarray:
        return np.empty(n, dtype=object if self.wide else np.int64)

    # ------------------------------------------------------------------- API
    def take(self, n: int) -> np.ndarray:
        """The next ``n`` values (cycles ``self._cycle .. self._cycle + n``)."""
        start = self._cycle
        out = self._generate(start, n)
        self._cycle = start + n
        return out

    def _generate(self, start: int, n: int) -> np.ndarray:
        raise NotImplementedError


class _ConstantStream(_Stream):
    def _generate(self, start: int, n: int) -> np.ndarray:
        out = self._empty(n)
        out[:] = int(self.spec.value) & self.mask
        return out


class _HeldDrawStream(_Stream):
    """Shared machinery for uniform/burst: draw at refresh cycles, hold between.

    Subclasses define which absolute cycles are refresh cycles and which are
    quiet (driven with a fixed idle value instead of the held draw).
    """

    def __init__(self, spec, width, entropy, predraw: bool) -> None:
        super().__init__(spec, width, entropy)
        #: value held from the most recent refresh (predrawn when a stream can
        #: start mid-hold, e.g. a phase-shifted burst)
        self._current = self._draw(1)[0] if predraw else None

    def _refresh_mask(self, cycles: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quiet_mask(self, cycles: np.ndarray) -> Optional[np.ndarray]:
        return None

    def _generate(self, start: int, n: int) -> np.ndarray:
        cycles = np.arange(start, start + n)
        refresh = self._refresh_mask(cycles)
        draws = self._draw(int(refresh.sum()))
        table = self._empty(len(draws) + 1)
        table[0] = self._current if self._current is not None else 0
        table[1:] = draws
        index = np.cumsum(refresh)  # 0 before the chunk's first refresh
        values = table[index]
        if len(draws):
            self._current = table[-1]
        quiet = self._quiet_mask(cycles)
        if quiet is None:
            return values
        out = self._empty(n)
        out[:] = values
        out[quiet] = int(getattr(self.spec, "idle_value", 0)) & self.mask
        return out


class _UniformStream(_HeldDrawStream):
    def __init__(self, spec: UniformSpec, width, entropy) -> None:
        super().__init__(spec, width, entropy, predraw=False)

    def _refresh_mask(self, cycles: np.ndarray) -> np.ndarray:
        return cycles % self.spec.hold == 0


class _BurstStream(_HeldDrawStream):
    def __init__(self, spec: BurstSpec, width, entropy) -> None:
        # a phase-shifted stream can start inside a hold window
        super().__init__(spec, width, entropy, predraw=True)

    def _position(self, cycles: np.ndarray) -> np.ndarray:
        return (cycles + self.spec.phase) % self.spec.period

    def _refresh_mask(self, cycles: np.ndarray) -> np.ndarray:
        position = self._position(cycles)
        return (position < self.spec.active) & (position % self.spec.hold == 0)

    def _quiet_mask(self, cycles: np.ndarray) -> np.ndarray:
        return self._position(cycles) >= self.spec.active


class _MarkovStream(_Stream):
    def __init__(self, spec: MarkovSpec, width, entropy) -> None:
        super().__init__(spec, width, entropy)
        init = int(spec.init) & self.mask
        self._bits = np.array(
            [(init >> b) & 1 for b in range(width)], dtype=np.int8
        )
        if not self.wide:
            self._pow2 = np.int64(1) << np.arange(width, dtype=np.int64)

    def _generate(self, start: int, n: int) -> np.ndarray:
        spec = self.spec
        uniforms = self._rng.random((n, self.width))
        out = self._empty(n)
        bits = self._bits
        for i in range(n):
            row = uniforms[i]
            bits = np.where(
                bits == 1,
                (row >= spec.p10).astype(np.int8),
                (row < spec.p01).astype(np.int8),
            )
            if self.wide:
                value = 0
                for b in range(self.width):
                    value |= int(bits[b]) << b
                out[i] = value
            else:
                out[i] = int(bits.astype(np.int64) @ self._pow2)
        self._bits = bits
        return out


class _MixtureStream(_Stream):
    def __init__(self, spec: MixtureSpec, width, entropy) -> None:
        super().__init__(spec, width, entropy)
        self._children = [
            _make_stream(child, width, entropy + (index,))
            for index, (_, child) in enumerate(spec.components)
        ]
        weights = np.array([w for w, _ in spec.components], dtype=np.float64)
        self._cumulative = np.cumsum(weights / weights.sum())
        self._selected = 0

    def _generate(self, start: int, n: int) -> np.ndarray:
        cycles = np.arange(start, start + n)
        refresh = cycles % self.spec.hold == 0
        draws = self._rng.random(int(refresh.sum()))
        selections = np.searchsorted(self._cumulative, draws, side="right")
        selections = np.minimum(selections, len(self._children) - 1)
        table = np.empty(len(selections) + 1, dtype=np.int64)
        table[0] = self._selected
        table[1:] = selections
        per_cycle = table[np.cumsum(refresh)]
        if len(selections):
            self._selected = int(table[-1])
        # every child advances every cycle, selected or not (chunk invariance)
        stacks = [child.take(n) for child in self._children]
        out = self._empty(n)
        for i in range(n):
            out[i] = stacks[per_cycle[i]][i]
        return out


class _ReplayStream(_Stream):
    def __init__(self, spec: ReplaySpec, width, entropy) -> None:
        super().__init__(spec, width, entropy)
        self._values = [int(v) & self.mask for v in spec.values]

    def _generate(self, start: int, n: int) -> np.ndarray:
        values = self._values
        length = len(values)
        spec = self.spec
        out = self._empty(n)
        for i in range(n):
            cycle = start + i
            if cycle < length:
                out[i] = values[cycle]
            elif spec.repeat:
                out[i] = values[cycle % length]
            elif spec.hold_last:
                out[i] = values[-1]
            else:
                out[i] = 0
        return out


_STREAMS = {
    ConstantSpec: _ConstantStream,
    UniformSpec: _UniformStream,
    BurstSpec: _BurstStream,
    MarkovSpec: _MarkovStream,
    MixtureSpec: _MixtureStream,
    ReplaySpec: _ReplayStream,
}


def _make_stream(spec: PortSpec, width: int, entropy: Tuple[int, ...]) -> _Stream:
    try:
        cls = _STREAMS[type(spec)]
    except KeyError:
        raise TypeError(
            f"no stream lowering for port spec {type(spec).__name__}"
        ) from None
    return cls(spec, width, entropy)


# ---------------------------------------------------------------------------
# The compiled form.
# ---------------------------------------------------------------------------


class CompiledStimulus:
    """A spec lowered against concrete port widths and lane seeds.

    Values are produced as chunked ``(chunk_cycles, n_ports, n_lanes)``
    tensors; :meth:`values_at` exposes them per cycle for interleaved
    simulate/observe loops, :meth:`chunks` iterates whole tensors, and
    :meth:`tensor` materializes the full run (previews, tests).  Access is
    forward-only — streams are sequential — but independent of chunk size.
    """

    def __init__(
        self,
        spec: StimulusSpec,
        input_widths: Mapping[str, int],
        seeds: Sequence[int],
        dtype=np.int64,
        chunk_cycles: int = CHUNK_CYCLES,
    ) -> None:
        if not seeds:
            raise ValueError("compile_stimulus needs at least one lane seed")
        if chunk_cycles < 1:
            raise ValueError(f"chunk_cycles must be >= 1, got {chunk_cycles}")
        self.spec = spec
        self.seeds = [int(seed) for seed in seeds]
        self.n_lanes = len(self.seeds)
        self.n_cycles = spec.n_cycles
        self.chunk_cycles = chunk_cycles
        resolved = spec.resolve(input_widths)
        self.port_names: List[str] = [name for name, _, _ in resolved]
        self.port_widths: List[int] = [width for _, _, width in resolved]
        self.dtype = (
            object
            if dtype is object or any(w > MAX_LANE_WIDTH for w in self.port_widths)
            else np.int64
        )
        self._resolved = resolved
        self._streams: List[List[_Stream]] = []
        self._chunk: Optional[np.ndarray] = None
        self._chunk_start = 0
        self.restart()

    @property
    def n_ports(self) -> int:
        return len(self.port_names)

    def restart(self) -> None:
        """Rewind to cycle 0 (streams are deterministic, so values repeat)."""
        self._streams = [
            [
                _make_stream(
                    port_spec, width, (_STIM_SALT, seed % 2**64, port_entropy(name))
                )
                for seed in self.seeds
            ]
            for name, port_spec, width in self._resolved
        ]
        self._chunk = None
        self._chunk_start = 0

    # ------------------------------------------------------------ generation
    def _generate_chunk(self, start: int) -> np.ndarray:
        n = min(self.chunk_cycles, self.n_cycles - start)
        out = np.empty((n, self.n_ports, self.n_lanes), dtype=self.dtype)
        for p, lanes in enumerate(self._streams):
            for lane, stream in enumerate(lanes):
                column = stream.take(n)
                if self.dtype is object and column.dtype != object:
                    out[:, p, lane] = [int(v) for v in column]
                else:
                    out[:, p, lane] = column
        return out

    def values_at(self, cycle: int) -> np.ndarray:
        """The ``(n_ports, n_lanes)`` stimulus slice for one cycle."""
        if not 0 <= cycle < self.n_cycles:
            raise IndexError(
                f"cycle {cycle} outside the stimulus range 0..{self.n_cycles - 1}"
            )
        if cycle == 0 and self._chunk_start != 0:
            self.restart()
        chunk = self._chunk
        if chunk is None or cycle >= self._chunk_start + len(chunk):
            expected = 0 if chunk is None else self._chunk_start + len(chunk)
            if cycle != expected:
                raise ValueError(
                    f"stimulus access must be sequential: expected cycle "
                    f"{expected}, got {cycle}"
                )
            self._chunk_start = cycle
            self._chunk = chunk = self._generate_chunk(cycle)
        offset = cycle - self._chunk_start
        if offset < 0:
            raise ValueError(
                f"stimulus access must be sequential: cycle {cycle} precedes "
                f"the current chunk at {self._chunk_start}"
            )
        return chunk[offset]

    def chunks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Iterate ``(start_cycle, (chunk, n_ports, n_lanes))`` tensors
        from cycle 0 (any prior consumption of this object is rewound)."""
        self.restart()
        start = 0
        while start < self.n_cycles:
            chunk = self._generate_chunk(start)
            self._chunk = chunk
            self._chunk_start = start
            yield start, chunk
            start += len(chunk)

    def tensor(self) -> np.ndarray:
        """The full ``(n_cycles, n_ports, n_lanes)`` stimulus tensor."""
        return np.concatenate([chunk for _, chunk in self.chunks()], axis=0)

    # --------------------------------------------------------------- summary
    def port_statistics(self, tensor: Optional[np.ndarray] = None) -> List[Dict[str, object]]:
        """Per-port activity stats over the whole run (lane 0): duty + toggles.

        Pass a tensor from a previous :meth:`tensor` call to avoid
        regenerating the run.
        """
        if tensor is None:
            tensor = self.tensor()
        stats = []
        for p, (name, width) in enumerate(zip(self.port_names, self.port_widths)):
            lane0 = [int(v) for v in tensor[:, p, 0]]
            toggles = sum(
                bin(a ^ b).count("1") for a, b in zip(lane0, lane0[1:])
            )
            per_bit_cycle = (
                toggles / (width * max(1, len(lane0) - 1)) if width else 0.0
            )
            nonzero = sum(1 for v in lane0 if v) / max(1, len(lane0))
            stats.append(
                {
                    "port": name,
                    "width": width,
                    "toggle_rate": per_bit_cycle,
                    "nonzero_duty": nonzero,
                }
            )
        return stats


def compile_stimulus(
    spec: StimulusSpec,
    input_widths: Mapping[str, int],
    seeds: Sequence[int],
    dtype=np.int64,
    chunk_cycles: int = CHUNK_CYCLES,
) -> CompiledStimulus:
    """Lower ``spec`` against ``input_widths`` for one seed per lane."""
    return CompiledStimulus(spec, input_widths, seeds, dtype, chunk_cycles)
