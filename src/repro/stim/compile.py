"""Lowering stimulus specs into chunked ``(n_cycles, n_ports, n_lanes)`` tensors.

Every :class:`~repro.stim.spec.PortSpec` kind compiles into one *block
stream* per port: a small stateful generator that produces that port's
``(cycles, n_lanes)`` values for the whole lane block, chunk by chunk.  The
work that does not depend on the lane — refresh schedules and their gather
index, burst quiet masks, mixture refresh masks, replay indices — is done
once per chunk for the block; constant and replay ports broadcast one column
across the lanes.  The draws are array code across the block too: lane
``i`` of a drawing stream reads the values ``np.random.default_rng(
np.random.SeedSequence((salt, seeds[i], port entropy, *mixture path)))``
would give it, and :class:`_LanePCG64` computes them for all lanes at once
(the seed hashing on ``uint32`` lane arrays, the 128-bit PCG64 states as
two ``uint64`` limbs stepped by lane-independent jump constants).  The
values therefore follow NumPy's generator algorithm, which NEP 19 does not
freeze; ``tests/test_stim.py`` compares the two directly, so an upgrade
that changes it shows there.  A stream seeds on its first draw, so
constants and replays never do.  Two invariants make the whole subsystem
trustworthy:

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

import math
from functools import lru_cache
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

# ---------------------------------------------------------------------------
# NumPy's SeedSequence + PCG64, across the lanes of a block.
# ---------------------------------------------------------------------------

_U32 = np.uint32
_U64 = np.uint64
_LOW32 = _U64(0xFFFF_FFFF)

#: ``SeedSequence`` hashing constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT_LIMBS = (_U64(_PCG_MULT >> 64), _U64(_PCG_MULT & _MASK64))

#: states per lane block kept by a generator (bounds its working set)
_WINDOW_ELEMENTS = 1 << 14
_MAX_WINDOW_ROWS = 256
#: uniforms a Markov stream draws at once across its lanes (bounds its arrays)
_MARKOV_DRAWS = 1 << 16


def _int_words(value: int) -> List[int]:
    """``SeedSequence``'s little-endian 32-bit words of a non-negative int."""
    words = [value & 0xFFFF_FFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFF_FFFF)
        value >>= 32
    return words


@lru_cache(maxsize=None)
def _hash_constants(first: int, mult: int, n: int) -> np.ndarray:
    """``n + 1`` successive values of a ``SeedSequence`` hash constant, as a
    ``(n + 1, 1)`` ``uint32`` column: call ``k`` xors with row ``k`` and
    multiplies by row ``k + 1``."""
    values = [first]
    for _ in range(n):
        values.append((values[-1] * mult) & 0xFFFF_FFFF)
    column = np.array(values, dtype=_U32)[:, np.newaxis]
    column.flags.writeable = False  # cached: shared by every caller
    return column


def _seed_words(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for every lane,
    from its ``(n_words, n_lanes)`` ``uint32`` entropy words: ``(4, n_lanes)``.

    The hash constants do not depend on the values, so each step hashes the
    pool rows it touches at once.
    """
    n_calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, len(words) - _POOL_SIZE)
    constants = _hash_constants(_INIT_A, _MULT_A, n_calls)
    calls = 0

    def hashmix(values: np.ndarray, n: int) -> np.ndarray:
        nonlocal calls
        values = (values ^ constants[calls:calls + n]) * constants[calls + 1:calls + n + 1]
        calls += n
        return values ^ (values >> _U32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y
        return result ^ (result >> _U32(16))

    pool = np.zeros((_POOL_SIZE, words.shape[1]), dtype=_U32)
    pool[:len(words)] = words[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    # mix every pool word into every other, then any entropy past the pool
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], _POOL_SIZE - 1))
    for word in words[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, _POOL_SIZE))
    # generate_state: eight uint32 words cycling through the pool, paired
    # little-endian into four uint64s
    state_constants = _hash_constants(_INIT_B, _MULT_B, 8)
    state = (np.tile(pool, (2, 1)) ^ state_constants[:8]) * state_constants[1:]
    state = (state ^ (state >> _U32(16))).astype(_U64).reshape(4, 2, -1)
    return state[:, 0] | (state[:, 1] << _U64(32))


def _muladd(a, s, d, out, work) -> None:
    """``out = a * s + d (mod 2**128)`` on ``(hi, lo)`` ``uint64`` limb pairs
    (arrays or scalars, broadcasting to ``out``'s shape); ``work`` holds four
    scratch arrays of that shape.  ``out`` may alias ``s`` but not ``d``."""
    a_hi, a_lo = a
    s_hi, s_lo = s
    d_hi, d_lo = d
    out_hi, out_lo = out
    s0, s1, t, u = work
    a0 = a_lo & _LOW32
    a1 = a_lo >> _U64(32)
    # the high word of a_lo * s_lo, from its 32-bit partial products
    np.bitwise_and(s_lo, _LOW32, out=s0)
    np.right_shift(s_lo, _U64(32), out=s1)
    np.multiply(s0, a1, out=t)
    np.multiply(s0, a0, out=u)
    np.right_shift(u, _U64(32), out=u)
    t += u
    np.multiply(s1, a0, out=u)
    np.bitwise_and(t, _LOW32, out=s0)
    u += s0
    np.right_shift(t, _U64(32), out=t)
    np.right_shift(u, _U64(32), out=u)
    t += u
    np.multiply(s1, a1, out=s1)
    t += s1
    # the cross terms, then the addend and the carry out of the low word
    np.multiply(a_hi, s_lo, out=s1)
    t += s1
    np.multiply(a_lo, s_hi, out=s1)
    t += s1
    t += d_hi
    np.multiply(a_lo, s_lo, out=out_lo)
    out_lo += d_lo
    np.less(out_lo, d_lo, out=s0)
    np.add(t, s0, out=out_hi)


@lru_cache(maxsize=None)
def _jump_constants(n: int):
    """``(A_j, C_j)`` for ``j = 1..n`` as ``(n,)`` limb rows: ``j`` LCG steps
    take any state ``s`` to ``A_j * s + C_j * inc`` (Brown 1994)."""
    a, c = 1, 0
    a_rows, c_rows = [], []
    for _ in range(n):
        a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        a_rows.append(a)
        c_rows.append(c)

    def limbs(values):
        pair = tuple(
            np.array([(v >> shift) & _MASK64 for v in values], dtype=_U64)
            for shift in (64, 0)
        )
        for limb in pair:
            limb.flags.writeable = False  # cached: shared by every caller
        return pair

    return limbs(a_rows), limbs(c_rows)


def _work(shape, count: int = 4) -> Tuple[np.ndarray, ...]:
    return tuple(np.empty(shape, dtype=_U64) for _ in range(count))


class _LanePCG64:
    """``np.random.default_rng(np.random.SeedSequence((_STIM_SALT, seeds[i],
    *key)))`` for every lane ``i`` at once, bit for bit.

    Each lane's 128-bit state is two ``uint64`` limbs.  The generator keeps a
    ``(n_lanes, rows)`` *window* of each lane's next states: the first is
    reached from the seeded states with lane-independent jump constants,
    every later one steps all rows at once (``S <- A_rows * S + C_rows *
    inc``).  Draws come back lane-major, ``(n_lanes, n)``.  Draw counts never
    depend on the lane, so the 32-bit half ``next_uint32`` buffers is held
    for all lanes or for none.
    """

    def __init__(self, seeds: np.ndarray, key: Tuple[int, ...]) -> None:
        seeds = np.asarray(seeds, dtype=_U64)
        self.n_lanes = n = len(seeds)
        self._state = (np.empty(n, _U64), np.empty(n, _U64))
        self._inc = (np.empty(n, _U64), np.empty(n, _U64))
        head = _int_words(_STIM_SALT)
        tail = [word for value in key for word in _int_words(int(value))]
        wide = seeds > _LOW32
        # lanes grouped by entropy word count: a seed past 2**32 adds a word
        for group, n_seed_words in ((~wide, 1), (wide, 2)):
            lanes = np.flatnonzero(group)
            if not len(lanes):
                continue
            seed = seeds[lanes]
            words = np.empty((len(head) + n_seed_words + len(tail), len(lanes)), _U32)
            words[:len(head)] = np.array(head, dtype=_U32)[:, np.newaxis]
            for k in range(n_seed_words):
                words[len(head) + k] = (seed >> _U64(32 * k)) & _LOW32
            words[len(head) + n_seed_words:] = np.array(tail, dtype=_U32)[:, np.newaxis]
            v0, v1, v2, v3 = _seed_words(words)
            # pcg64_srandom_r: inc = (seq << 1) | 1, state = (inc + seed) * M + inc
            inc = ((v2 << _U64(1)) | (v3 >> _U64(63)), (v3 << _U64(1)) | _U64(1))
            lo = v1 + inc[1]
            start = (v0 + inc[0] + (lo < v1), lo)
            state = (np.empty_like(lo), np.empty_like(lo))
            _muladd(_PCG_MULT_LIMBS, start, inc, state, _work(lo.shape))
            for mine, value in zip(self._state + self._inc, state + inc):
                mine[lanes] = value
        #: states per lane in the window (fixed at the first draw)
        self.rows = max(1, min(_MAX_WINDOW_ROWS, _WINDOW_ELEMENTS // n))
        self._window: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: the window's outputs, read from ``_position`` on
        self._outputs: Optional[np.ndarray] = None
        self._position = 0
        #: ``(A_rows, C_rows * inc)``: one window step
        self._step = None
        #: per-lane high halves of the last output, when ``next32`` holds them
        self._held: Optional[np.ndarray] = None

    def _advance(self) -> None:
        work = _work((self.n_lanes, self.rows))
        if self._window is None:
            jump, carry = _jump_constants(self.rows)
            zero = (_U64(0), _U64(0))
            inc = tuple(limb[:, np.newaxis] for limb in self._inc)
            state = tuple(limb[:, np.newaxis] for limb in self._state)
            offsets = _work((self.n_lanes, self.rows), 2)
            _muladd(carry, inc, zero, offsets, work)
            self._window = _work((self.n_lanes, self.rows), 2)
            _muladd(jump, state, offsets, self._window, work)
            # C_rows * inc is the offsets' last column
            self._step = (
                tuple(limb[-1] for limb in jump),
                tuple(limb[:, -1:].copy() for limb in offsets),
            )
            self._outputs = np.empty((self.n_lanes, self.rows), dtype=_U64)
        else:
            step, increment = self._step
            _muladd(step, self._window, increment, self._window, work)
        # XSL-RR: hi ^ lo rotated right by the state's top six bits
        hi, lo = self._window
        x, rotate, left = self._outputs, work[0], work[1]
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U64(58), out=rotate)
        np.negative(rotate, out=left)
        left &= _U64(63)
        np.left_shift(x, left, out=left)
        np.right_shift(x, rotate, out=x)
        x |= left
        self._position = 0

    def next64(self, n: int) -> np.ndarray:
        """The next ``n`` 64-bit outputs, ``(n_lanes, n)`` ``uint64``."""
        out = np.empty((self.n_lanes, n), dtype=_U64)
        done = 0
        while done < n:
            if self._window is None or self._position == self.rows:
                self._advance()
            take = min(n - done, self.rows - self._position)
            out[:, done:done + take] = self._outputs[:, self._position:][:, :take]
            self._position += take
            done += take
        return out

    def next32(self, n: int) -> np.ndarray:
        """The next ``n`` 32-bit outputs, ``(n_lanes, n)`` ``uint32``: each
        64-bit output's low half, then its high half, which a call that
        ends between the two holds over to the next."""
        held = self._held if n else None
        if held is not None:
            self._held = None
            n -= 1
        raw = self.next64((n + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")  # low, high, ...
        if n % 2:
            self._held = halves[:, -1].copy()
        if held is None:
            return halves[:, :n]
        return np.concatenate([held[:, np.newaxis], halves[:, :n]], axis=1)

    def integers(self, n: int, width: int) -> np.ndarray:
        """``integers(0, 2**width, size=n)`` per lane (``width <= 60``): a
        power-of-two range never rejects, so each value is the top ``width``
        bits of one 32-bit output (``width <= 32``) or 64-bit output."""
        if width <= 32:
            values = self.next32(n)
            values >>= _U32(32 - width)
        else:
            values = self.next64(n)
            values >>= _U64(64 - width)
        return values

    def random(self, n: int) -> np.ndarray:
        """``random(n)`` per lane: ``(x >> 11) * 2**-53``."""
        return (self.next64(n) >> _U64(11)) * 2.0**-53


def _join(fields: np.ndarray, step: int) -> np.ndarray:
    """Exact Python-int values (object dtype) of little-endian ``step``-bit
    fields along the last axis."""
    out = fields[..., 0].astype(object)
    for j in range(1, fields.shape[-1]):
        out |= fields[..., j].astype(object) << (step * j)
    return out


class _BlockStream:
    """One port's values over a lane block; ``take`` must be called sequentially.

    Lane ``i`` draws from ``(_STIM_SALT, seeds[i], *key)``'s stream.
    """

    def __init__(
        self, spec: PortSpec, width: int, seeds: np.ndarray, key: Tuple[int, ...]
    ) -> None:
        self.spec = spec
        self.width = width
        self.mask = (1 << width) - 1
        self.wide = width > MAX_LANE_WIDTH
        self.dtype = object if self.wide else np.int64
        self.n_lanes = len(seeds)
        self._seeds = seeds
        self._key = key
        self._generator: Optional[_LanePCG64] = None
        self._cycle = 0

    @property
    def rng(self) -> _LanePCG64:
        if self._generator is None:  # seeded on first draw: constants never draw
            self._generator = _LanePCG64(self._seeds, self._key)
        return self._generator

    def _fill(self, rows: np.ndarray) -> None:
        """Write ``len(rows)`` uniform values of this port's width per lane
        into ``rows`` (chunk-invariant)."""
        k = len(rows)
        if k == 0:
            return
        if not self.wide:
            rows[...] = self.rng.integers(k, self.width).T
            return
        n_words = (self.width + 31) // 32
        words = self.rng.next32(k * n_words).reshape(self.n_lanes, k, n_words)
        rows[...] = _join(words.transpose(1, 0, 2), 32) & self.mask

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` cycles' ``(n, n_lanes)`` values."""
        out = self._generate(self._cycle, n)
        self._cycle += n
        return out

    def _generate(self, start: int, n: int) -> np.ndarray:
        raise NotImplementedError


class _ConstantBlock(_BlockStream):
    def _generate(self, start: int, n: int) -> np.ndarray:
        value = np.array(int(self.spec.value) & self.mask, dtype=self.dtype)
        return np.broadcast_to(value, (n, self.n_lanes))


class _HeldDrawBlock(_BlockStream):
    """Shared machinery for uniform/burst: draw at refresh cycles, hold between.

    Subclasses define which absolute cycles are refresh cycles and which are
    quiet (driven with a fixed idle value instead of the held draw).
    """

    #: the first draw is the value held before the first refresh (a
    #: phase-shifted burst can start inside a hold window)
    predraw = False

    def __init__(self, spec, width, seeds, key) -> None:
        super().__init__(spec, width, seeds, key)
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
        if len(table) == n + 1:  # every cycle refreshes
            values = table[1:]
        else:  # row 0 before the chunk's first refresh
            values = table[np.cumsum(refresh)]
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
    stepped bytewise; uniforms are drawn and packed for the whole block a
    bounded number of cycles at a time."""

    def __init__(self, spec: MarkovSpec, width, seeds, key) -> None:
        super().__init__(spec, width, seeds, key)
        self._n_bytes = 8 * ((width + 63) // 64)
        init = (int(spec.init) & self.mask).to_bytes(self._n_bytes, "little")
        #: ``(n_lanes, n_bytes)`` current bits
        self._bits = np.broadcast_to(
            np.frombuffer(init, dtype=np.uint8), (self.n_lanes, self._n_bytes)
        )
        # a uniform ``m * 2**-53`` is >= p exactly when ``m >= ceil(p * 2**53)``
        self._stay_from = _U64(math.ceil(spec.p10 * 2.0**53))
        self._rise_below = _U64(math.ceil(spec.p01 * 2.0**53))
        #: cycles whose uniforms are drawn at once (bounds the draw arrays)
        self._cycles_per_draw = max(1, _MARKOV_DRAWS // (width * self.n_lanes))

    def _generate(self, start: int, n: int) -> np.ndarray:
        used = (self.width + 7) // 8
        stay = np.zeros((n, self.n_lanes, self._n_bytes), dtype=np.uint8)
        rise = np.zeros_like(stay)
        # each cycle's bits padded to whole bytes, so one packbits call over a
        # lane's row packs every cycle of the draw
        step = min(n, self._cycles_per_draw)
        bits = np.zeros((self.n_lanes, step, 8 * used), dtype=bool)
        for first in range(0, n, step):
            k = min(n - first, step)
            draws = self.rng.next64(k * self.width) >> _U64(11)
            draws = draws.reshape(self.n_lanes, k, self.width)
            # next bit where the bit is 1 / where it is 0
            for packed, compare, threshold in (
                (stay, np.greater_equal, self._stay_from),
                (rise, np.less, self._rise_below),
            ):
                compare(draws, threshold, out=bits[:, :k, :self.width])
                packed[first:first + k, :, :used] = np.packbits(
                    bits[:, :k].reshape(self.n_lanes, -1), axis=-1, bitorder="little"
                ).reshape(self.n_lanes, k, used).transpose(1, 0, 2)
        current = self._bits
        for i in range(n):  # stay[i] is read once, then holds cycle i's bits
            current = stay[i] = (current & stay[i]) | (~current & rise[i])
        self._bits = current
        if not self.wide:
            return stay.view("<u8")[..., 0].astype(np.int64)
        return _join(stay.view("<u8"), 64)


class _MixtureBlock(_BlockStream):
    def __init__(self, spec: MixtureSpec, width, seeds, key) -> None:
        super().__init__(spec, width, seeds, key)
        self._children = [
            _make_stream(child, width, seeds, key + (index,))
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
            draws = self.rng.random(k).T
            selections = np.searchsorted(self._cumulative, draws, side="right")
            table[1:] = np.minimum(selections, len(self._children) - 1)
            self._selected = table[-1]
        per_cycle = table[np.cumsum(refresh)]
        # every child advances every cycle, selected or not (chunk invariance)
        stacks = np.stack([child.take(n) for child in self._children])
        return np.take_along_axis(stacks, per_cycle[np.newaxis], axis=0)[0]


class _ReplayBlock(_BlockStream):
    def __init__(self, spec: ReplaySpec, width, seeds, key) -> None:
        super().__init__(spec, width, seeds, key)
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
    spec: PortSpec, width: int, seeds: np.ndarray, key: Tuple[int, ...]
) -> _BlockStream:
    try:
        cls = _STREAMS[type(spec)]
    except KeyError:
        raise TypeError(
            f"no stream lowering for port spec {type(spec).__name__}"
        ) from None
    return cls(spec, width, seeds, key)


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
        self._lane_seeds = np.array([seed % 2**64 for seed in self.seeds], dtype=_U64)
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
            _make_stream(port_spec, width, self._lane_seeds, (port_entropy(name),))
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
        if self._chunk is not None:
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
