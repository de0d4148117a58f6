"""Lowering stimulus specs into chunked ``(n_cycles, n_ports, n_lanes)`` tensors.

Every :class:`~repro.stim.spec.PortSpec` kind compiles into one *block
stream* per port: a small stateful generator that produces that port's
``(cycles, n_lanes)`` values for the whole lane block, chunk by chunk.  The
work that does not depend on the lane — refresh schedules and their gather
index, burst quiet masks, mixture refresh masks, replay indices — is done
once per chunk for the block; constant and replay ports broadcast one column
across the lanes.  Only the draws are per lane: lane ``i`` draws from its own
``numpy`` PCG64 generator, seeded from ``(salt, seeds[i], port name)`` on its
first draw.  Two invariants make the whole subsystem trustworthy:

* **Chunk invariance** — a stream's values depend only on absolute cycle
  indices, never on how the run is split into chunks.  Draw counts per chunk
  are fully determined by the cycle range (uniform/burst draw exactly one
  value per refresh cycle, Markov draws exactly ``width`` uniforms per cycle,
  mixture children advance every cycle), so a scalar testbench pulling one
  cycle at a time and a 1024-lane driver pulling 256-cycle chunks read the
  same stream.
* **Per-(seed, port) independence** — lane ``i``'s values are a pure
  function of ``(seeds[i], port name)``, whatever the other lanes of the
  block are.  A scalar run (a 1-lane block) re-seeded with ``seeds[i]``
  therefore reproduces lane ``i`` bit for bit, which is what makes
  spec-driven scalar and lane power estimates identical.

Ports wider than the int64 lane store's :data:`~repro.sim.batch.MAX_LANE_WIDTH`
bits generate object-dtype columns of Python ints (each value assembled from
fixed 32-bit draws, keeping chunk invariance).
"""

from __future__ import annotations

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


def _join(fields: np.ndarray, step: int) -> np.ndarray:
    """Exact Python-int values (object dtype) of little-endian ``step``-bit
    fields along the last axis."""
    out = fields[..., 0].astype(object)
    for j in range(1, fields.shape[-1]):
        out |= fields[..., j].astype(object) << (step * j)
    return out


class _BlockStream:
    """One port's values over a lane block; ``take`` must be called sequentially."""

    def __init__(
        self, spec: PortSpec, width: int, entropies: Sequence[Tuple[int, ...]]
    ) -> None:
        self.spec = spec
        self.width = width
        self.mask = (1 << width) - 1
        self.wide = width > MAX_LANE_WIDTH
        self.dtype = object if self.wide else np.int64
        self.n_lanes = len(entropies)
        self._entropies = entropies
        self._rngs: List[Optional[np.random.Generator]] = [None] * self.n_lanes
        self._cycle = 0

    def _rng(self, lane: int) -> np.random.Generator:
        rng = self._rngs[lane]
        if rng is None:  # seeded on first draw: constants never draw
            rng = self._rngs[lane] = _stream_rng(self._entropies[lane])
        return rng

    def _fill(self, rows: np.ndarray) -> None:
        """Write ``len(rows)`` uniform values of this port's width per lane
        into that lane's column of ``rows`` (chunk-invariant)."""
        k = len(rows)
        if k == 0:
            return
        if not self.wide:
            # power-of-two range: one raw draw per value
            for lane in range(self.n_lanes):
                rows[:, lane] = self._rng(lane).integers(
                    0, 1 << self.width, size=k, dtype=np.int64
                )
            return
        n_words = (self.width + 31) // 32
        words = np.empty((k, self.n_lanes, n_words), dtype=np.int64)
        for lane in range(self.n_lanes):
            words[:, lane] = self._rng(lane).integers(
                0, 1 << 32, size=(k, n_words), dtype=np.int64
            )
        rows[...] = _join(words, 32) & self.mask

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` cycles' ``(n, n_lanes)`` values."""
        out = self._generate(self._cycle, n)
        self._cycle += n
        return out

    def _generate(self, start: int, n: int) -> np.ndarray:
        raise NotImplementedError


class _ConstantBlock(_BlockStream):
    def _generate(self, start: int, n: int) -> np.ndarray:
        value = int(self.spec.value) & self.mask
        return np.full((n, self.n_lanes), value, dtype=self.dtype)


class _HeldDrawBlock(_BlockStream):
    """Shared machinery for uniform/burst: draw at refresh cycles, hold between.

    Subclasses define which absolute cycles are refresh cycles and which are
    quiet (driven with a fixed idle value instead of the held draw).
    """

    #: the first draw is the value held before the first refresh (a
    #: phase-shifted burst can start inside a hold window)
    predraw = False

    def __init__(self, spec, width, entropies) -> None:
        super().__init__(spec, width, entropies)
        #: per-lane value held from the most recent refresh
        self._current: Optional[np.ndarray] = None

    def _refresh_mask(self, cycles: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quiet_mask(self, cycles: np.ndarray) -> Optional[np.ndarray]:
        return None

    def _generate(self, start: int, n: int) -> np.ndarray:
        cycles = np.arange(start, start + n)
        refresh = self._refresh_mask(cycles)
        table = np.empty((int(refresh.sum()) + 1, self.n_lanes), dtype=self.dtype)
        if self._current is None and self.predraw:
            self._fill(table)
        else:
            table[0] = 0 if self._current is None else self._current
            self._fill(table[1:])
        self._current = table[-1]
        values = table[np.cumsum(refresh)]  # row 0 before the chunk's first refresh
        quiet = self._quiet_mask(cycles)
        if quiet is not None:
            values[quiet] = int(self.spec.idle_value) & self.mask
        return values


class _UniformBlock(_HeldDrawBlock):
    def _refresh_mask(self, cycles: np.ndarray) -> np.ndarray:
        return cycles % self.spec.hold == 0


class _BurstBlock(_HeldDrawBlock):
    predraw = True

    def _position(self, cycles: np.ndarray) -> np.ndarray:
        return (cycles + self.spec.phase) % self.spec.period

    def _refresh_mask(self, cycles: np.ndarray) -> np.ndarray:
        position = self._position(cycles)
        return (position < self.spec.active) & (position % self.spec.hold == 0)

    def _quiet_mask(self, cycles: np.ndarray) -> np.ndarray:
        return self._position(cycles) >= self.spec.active


class _MarkovBlock(_BlockStream):
    """Per-bit chains packed little-endian into 64-bit words (the values),
    stepped bytewise; each lane's uniforms are packed as soon as drawn."""

    def __init__(self, spec: MarkovSpec, width, entropies) -> None:
        super().__init__(spec, width, entropies)
        self._n_bytes = 8 * ((width + 63) // 64)
        init = (int(spec.init) & self.mask).to_bytes(self._n_bytes, "little")
        #: ``(n_lanes, n_bytes)`` current bits
        self._bits = np.broadcast_to(
            np.frombuffer(init, dtype=np.uint8), (self.n_lanes, self._n_bytes)
        )

    def _generate(self, start: int, n: int) -> np.ndarray:
        used = (self.width + 7) // 8
        stay = np.zeros((n, self.n_lanes, self._n_bytes), dtype=np.uint8)
        rise = np.zeros_like(stay)
        for lane in range(self.n_lanes):
            uniforms = self._rng(lane).random((n, self.width))
            # next bit where the bit is 1 / where it is 0
            stay[:, lane, :used] = np.packbits(uniforms >= self.spec.p10, -1, "little")
            rise[:, lane, :used] = np.packbits(uniforms < self.spec.p01, -1, "little")
        current = self._bits
        for i in range(n):  # stay[i] is read once, then holds cycle i's bits
            current = stay[i] = (current & stay[i]) | (~current & rise[i])
        self._bits = current
        if not self.wide:
            return stay.view("<u8")[..., 0].astype(np.int64)
        return _join(stay.view("<u8"), 64)


class _MixtureBlock(_BlockStream):
    def __init__(self, spec: MixtureSpec, width, entropies) -> None:
        super().__init__(spec, width, entropies)
        self._children = [
            _make_stream(child, width, [entropy + (index,) for entropy in entropies])
            for index, (_, child) in enumerate(spec.components)
        ]
        weights = np.array([w for w, _ in spec.components], dtype=np.float64)
        self._cumulative = np.cumsum(weights / weights.sum())
        #: per-lane selected child, drawn at refresh cycles
        self._selected = np.zeros(self.n_lanes, dtype=np.int64)

    def _generate(self, start: int, n: int) -> np.ndarray:
        refresh = np.arange(start, start + n) % self.spec.hold == 0
        k = int(refresh.sum())
        table = np.empty((k + 1, self.n_lanes), dtype=np.int64)
        table[0] = self._selected
        if k:
            draws = np.empty((k, self.n_lanes))
            for lane in range(self.n_lanes):
                draws[:, lane] = self._rng(lane).random(k)
            selections = np.searchsorted(self._cumulative, draws, side="right")
            table[1:] = np.minimum(selections, len(self._children) - 1)
            self._selected = table[-1]
        per_cycle = table[np.cumsum(refresh)]
        # every child advances every cycle, selected or not (chunk invariance)
        stacks = np.stack([child.take(n) for child in self._children])
        return np.take_along_axis(stacks, per_cycle[np.newaxis], axis=0)[0]


class _ReplayBlock(_BlockStream):
    def __init__(self, spec: ReplaySpec, width, entropies) -> None:
        super().__init__(spec, width, entropies)
        self._values = np.array(
            [int(v) & self.mask for v in spec.values], dtype=self.dtype
        )

    def _generate(self, start: int, n: int) -> np.ndarray:
        cycles = np.arange(start, start + n)
        length = len(self._values)
        if self.spec.repeat:
            column = self._values[cycles % length]
        else:
            column = self._values[np.minimum(cycles, length - 1)]
            if not self.spec.hold_last:
                column[cycles >= length] = 0
        return np.broadcast_to(column[:, np.newaxis], (n, self.n_lanes))


_STREAMS = {
    ConstantSpec: _ConstantBlock,
    UniformSpec: _UniformBlock,
    BurstSpec: _BurstBlock,
    MarkovSpec: _MarkovBlock,
    MixtureSpec: _MixtureBlock,
    ReplaySpec: _ReplayBlock,
}


def _make_stream(
    spec: PortSpec, width: int, entropies: Sequence[Tuple[int, ...]]
) -> _BlockStream:
    try:
        cls = _STREAMS[type(spec)]
    except KeyError:
        raise TypeError(
            f"no stream lowering for port spec {type(spec).__name__}"
        ) from None
    return cls(spec, width, entropies)


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
        #: object when a port is wider than the int64 lane range: its
        #: columns carry exact Python ints
        self.dtype = (
            object if any(w > MAX_LANE_WIDTH for w in self.port_widths) else np.int64
        )
        self._resolved = resolved
        self._streams: List[_BlockStream] = []
        self._chunk: Optional[np.ndarray] = None
        self._chunk_start = 0
        self.restart()

    @property
    def n_ports(self) -> int:
        return len(self.port_names)

    def restart(self) -> None:
        """Rewind to cycle 0 (streams are deterministic, so values repeat)."""
        self._streams = [
            _make_stream(
                port_spec,
                width,
                [(_STIM_SALT, seed % 2**64, port_entropy(name)) for seed in self.seeds],
            )
            for name, port_spec, width in self._resolved
        ]
        self._chunk = None
        self._chunk_start = 0

    # ------------------------------------------------------------ generation
    def _generate_chunk(self, start: int) -> np.ndarray:
        n = min(self.chunk_cycles, self.n_cycles - start)
        out = np.empty((n, self.n_ports, self.n_lanes), dtype=self.dtype)
        for p, stream in enumerate(self._streams):
            out[:, p] = stream.take(n)  # int64 columns become exact ints
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
    chunk_cycles: int = CHUNK_CYCLES,
) -> CompiledStimulus:
    """Lower ``spec`` against ``input_widths`` for one seed per lane."""
    return CompiledStimulus(spec, input_widths, seeds, chunk_cycles)
