"""Stimulus generation shared by the benchmark designs and their testbenches.

Includes the scaled integer DCT basis used by the DCT/IDCT engines, a simple
prefix (unary) code used by the VLD benchmark and the MPEG4 composite, and
random block/stream generators with fixed seeds for reproducibility.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.netlist.signals import from_signed, to_signed

#: scale factor of the integer DCT basis (coefficients are round(SCALE * basis))
DCT_SCALE = 256
#: number of fractional bits implied by :data:`DCT_SCALE`
DCT_SHIFT = 8


# ---------------------------------------------------------------------------
# DCT / IDCT reference math
# ---------------------------------------------------------------------------
def dct_basis_matrix() -> List[List[int]]:
    """8x8 integer DCT basis ``C[u][x] = round(SCALE * c(u)/2 * cos((2x+1)u*pi/16))``."""
    matrix: List[List[int]] = []
    for u in range(8):
        cu = math.sqrt(0.5) if u == 0 else 1.0
        row = [
            int(round(DCT_SCALE * 0.5 * cu * math.cos((2 * x + 1) * u * math.pi / 16.0)))
            for x in range(8)
        ]
        matrix.append(row)
    return matrix


def reference_dct2d(block: Sequence[int]) -> List[int]:
    """Floating-point 2-D DCT of a row-major 8x8 block (reference for tests)."""
    out = [[0.0] * 8 for _ in range(8)]
    for u in range(8):
        for v in range(8):
            cu = math.sqrt(0.5) if u == 0 else 1.0
            cv = math.sqrt(0.5) if v == 0 else 1.0
            total = 0.0
            for x in range(8):
                for y in range(8):
                    total += (
                        block[x * 8 + y]
                        * math.cos((2 * x + 1) * u * math.pi / 16.0)
                        * math.cos((2 * y + 1) * v * math.pi / 16.0)
                    )
            out[u][v] = 0.25 * cu * cv * total
    return [int(round(out[u][v])) for u in range(8) for v in range(8)]


def reference_idct2d(coefficients: Sequence[int]) -> List[int]:
    """Floating-point 2-D inverse DCT (reference for tests)."""
    out = [[0.0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            total = 0.0
            for u in range(8):
                for v in range(8):
                    cu = math.sqrt(0.5) if u == 0 else 1.0
                    cv = math.sqrt(0.5) if v == 0 else 1.0
                    total += (
                        cu * cv * coefficients[u * 8 + v]
                        * math.cos((2 * x + 1) * u * math.pi / 16.0)
                        * math.cos((2 * y + 1) * v * math.pi / 16.0)
                    )
            out[x][y] = 0.25 * total
    return [int(round(out[x][y])) for x in range(8) for y in range(8)]


def random_pixel_block(seed: int = 0, amplitude: int = 255) -> List[int]:
    """A smooth-ish random 8x8 pixel block (row-major, unsigned)."""
    rng = random.Random(seed)
    base = rng.randint(32, amplitude - 32)
    return [
        max(0, min(amplitude, base + rng.randint(-30, 30) + 3 * (x + y)))
        for x in range(8)
        for y in range(8)
    ]


def random_coefficient_block(seed: int = 0, magnitude: int = 200, density: float = 0.25) -> List[int]:
    """A sparse block of signed DCT-domain coefficients (row-major)."""
    rng = random.Random(seed)
    block = []
    for i in range(64):
        if i == 0:
            block.append(rng.randint(-magnitude, magnitude))
        elif rng.random() < density:
            block.append(rng.randint(-magnitude // 4, magnitude // 4))
        else:
            block.append(0)
    return block


# ---------------------------------------------------------------------------
# Prefix (unary) code used by the VLD benchmark
# ---------------------------------------------------------------------------
#: maximum symbol value representable by the unary code (also the EOB marker)
VLD_MAX_SYMBOL = 7
#: number of buffer bits inspected per decode step
VLD_LOOKUP_BITS = 8


def vld_encode_symbol(symbol: int) -> Tuple[int, int]:
    """Encode a symbol as (code bits, length): ``symbol`` zeros followed by a one.

    The all-zeros 8-bit pattern is the end-of-block marker.
    """
    if not 0 <= symbol <= VLD_MAX_SYMBOL:
        raise ValueError(f"symbol {symbol} out of range 0..{VLD_MAX_SYMBOL}")
    length = symbol + 1
    return 1, length  # 'symbol' zeros then a 1 => value 1 in 'length' bits


def vld_encode(symbols: Sequence[int], word_bits: int = 16) -> List[int]:
    """Encode a symbol sequence (terminated by EOB) into memory words, MSB first."""
    bits: List[int] = []
    for symbol in symbols:
        _, length = vld_encode_symbol(symbol)
        bits.extend([0] * (length - 1) + [1])
    bits.extend([0] * VLD_LOOKUP_BITS)  # end-of-block marker
    while len(bits) % word_bits:
        bits.append(0)
    words = []
    for i in range(0, len(bits), word_bits):
        word = 0
        for bit in bits[i:i + word_bits]:
            word = (word << 1) | bit
        words.append(word)
    return words


def vld_decode_table() -> List[int]:
    """ROM contents: for each 8-bit prefix, ``(length << 8) | symbol``.

    ``length == 0`` encodes the end-of-block marker.
    """
    table = []
    for prefix in range(1 << VLD_LOOKUP_BITS):
        leading_zeros = 0
        for bit_index in range(VLD_LOOKUP_BITS - 1, -1, -1):
            if (prefix >> bit_index) & 1:
                break
            leading_zeros += 1
        if leading_zeros >= VLD_LOOKUP_BITS:
            table.append(0)  # EOB
        else:
            symbol = leading_zeros
            length = leading_zeros + 1
            table.append((length << 8) | symbol)
    return table


def vld_reference_decode(words: Sequence[int], word_bits: int = 16) -> List[int]:
    """Software reference decoder for the unary code (for checking the RTL)."""
    bits: List[int] = []
    for word in words:
        bits.extend((word >> (word_bits - 1 - i)) & 1 for i in range(word_bits))
    symbols: List[int] = []
    index = 0
    while index + VLD_LOOKUP_BITS <= len(bits) + VLD_LOOKUP_BITS:
        window = bits[index:index + VLD_LOOKUP_BITS]
        window += [0] * (VLD_LOOKUP_BITS - len(window))
        if all(bit == 0 for bit in window):
            break
        zeros = 0
        for bit in window:
            if bit:
                break
            zeros += 1
        symbols.append(zeros)
        index += zeros + 1
    return symbols


# ---------------------------------------------------------------------------
# Generic streams
# ---------------------------------------------------------------------------
def _random_words(rng: random.Random, n: int, width: int) -> np.ndarray:
    """``[rng.getrandbits(width) for _ in range(n)]`` in one draw, as an int64
    array (``1 <= width <= 32``).

    ``getrandbits(32 * n)`` packs the generator's next ``n`` 32-bit outputs
    little-endian, and ``getrandbits(width)`` is one output's top ``width``
    bits, so the values and the generator's final state equal the loop's.
    """
    words = np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")
    return (words >> (32 - width)).astype(np.int64)


def _random_bits(rng: random.Random, n: int, width: int) -> List[int]:
    """``[rng.getrandbits(width) for _ in range(n)]``, in one draw when
    ``width <= 32``."""
    if not 1 <= width <= 32:
        return [rng.getrandbits(width) for _ in range(n)]
    return _random_words(rng, n, width).tolist()


def random_pixels(n: int, seed: int = 0, width: int = 8) -> np.ndarray:
    """``n`` random ``width``-bit pixels as an int64 array: a stream
    testbench keeps it as it is and stacks lanes of it at once."""
    rng = random.Random(seed)
    if 1 <= width <= 32:
        return _random_words(rng, n, width)
    return np.array(_random_bits(rng, n, width), dtype=np.int64)


def random_sorted_array(n: int, seed: int = 0, width: int = 16) -> List[int]:
    rng = random.Random(seed)
    values = sorted(rng.sample(range(1 << width), n))
    return values


def random_array(n: int, seed: int = 0, width: int = 16) -> List[int]:
    return _random_bits(random.Random(seed), n, width)


def signed_to_field(value: int, width: int) -> int:
    """Encode a signed integer into an unsigned memory field."""
    return from_signed(value, width)


def field_to_signed(value: int, width: int) -> int:
    return to_signed(value, width)
