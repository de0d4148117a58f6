"""HVPeakF: a peaking (sharpening) image filter.

A streaming datapath that enhances high-frequency content of a pixel stream:

    high  = 2*x[n-1] - x[n] - x[n-2]          (discrete Laplacian)
    y     = clamp( x[n-1] + (GAIN * high) >> SHIFT, 0, 255 )

One pixel is accepted per cycle when ``valid`` is high; the filtered pixel
appears two cycles later with ``valid_out`` asserted.  The structure (delay
line registers, constant multiplier, adder tree, saturator) mirrors the kind
of video peaking filters used in display pipelines.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.sim.declarative import SeededStreams, StreamTestbench

#: peaking gain and normalization shift: y = center + (GAIN * high) >> SHIFT
GAIN = 3
SHIFT = 3
PIXEL_WIDTH = 8
#: internal signed arithmetic width
WORK_WIDTH = 14
#: stimulus seed of the standard testbench
DEFAULT_SEED = 5


def reference_filter(pixels: Sequence[int]) -> List[int]:
    """Software reference of the streaming filter (one output per input pixel).

    Output ``i`` corresponds to input pixel ``i-1`` (one pixel of latency in
    the window); the first two outputs are warm-up values.
    """
    outputs: List[int] = []
    d1 = d2 = 0
    for x in pixels:
        high = 2 * d1 - x - d2
        y = d1 + ((GAIN * high) >> SHIFT)
        outputs.append(max(0, min(255, y)))
        d2, d1 = d1, x
    return outputs


def filter_lanes(pixels: np.ndarray) -> np.ndarray:
    """:func:`reference_filter` of every column of a ``(cycles, lanes)``
    pixel array at once."""
    x = pixels.astype(np.int64)
    d1 = np.zeros_like(x)
    d1[1:] = x[:-1]
    d2 = np.zeros_like(x)
    d2[2:] = x[:-2]
    high = 2 * d1 - x - d2
    return np.clip(d1 + ((GAIN * high) >> SHIFT), 0, 255)


def build() -> Module:
    """Build the streaming peaking filter."""
    b = NetlistBuilder("HVPeakF")
    pixel = b.input("pixel", PIXEL_WIDTH)
    valid = b.input("valid", 1)

    # delay line x[n], x[n-1], x[n-2]
    d1 = b.register("reg_d1", PIXEL_WIDTH, has_enable=True)
    d2 = b.register("reg_d2", PIXEL_WIDTH, has_enable=True)
    b.drive("reg_d1", d=pixel, en=valid)
    b.drive("reg_d2", d=d1, en=valid)

    # Laplacian: 2*d1 - pixel - d2 (signed working width)
    x0 = b.zext(pixel, WORK_WIDTH)
    x1 = b.zext(d1, WORK_WIDTH)
    x2 = b.zext(d2, WORK_WIDTH)
    twice_center = b.shl(x1, 1, name="center_x2")
    high1 = b.sub(twice_center, x0, name="lap_sub1")
    high = b.sub(high1, x2, name="lap_sub2")

    # gain multiply and normalize (arithmetic shift keeps the sign)
    boosted = b.mul(high, b.const(GAIN, 4, name="const_gain"), width_y=WORK_WIDTH + 4,
                    signed=True, name="gain_mult")
    scaled = b.shr(boosted, SHIFT, arithmetic=True, name="gain_shift")

    # add back to the (delayed) center pixel and clamp to the 0..255 pixel range
    enhanced = b.add(scaled, b.zext(x1, WORK_WIDTH + 4), name="recombine")
    sign = b.bit(enhanced, WORK_WIDTH + 3, name="clamp_sign")
    overflow_bits = b.slice(enhanced, WORK_WIDTH + 2, PIXEL_WIDTH, name="clamp_high")
    overflow = b.and_(b.not_(sign, name="clamp_pos"),
                      b.reduce("or", overflow_bits, name="clamp_any"), name="clamp_over")
    low_bits = b.slice(enhanced, PIXEL_WIDTH - 1, 0, name="clamp_low")
    upper_sel = b.mux(overflow, low_bits, b.const(255, PIXEL_WIDTH, name="const_max"),
                      name="clamp_mux_hi")
    clamped = b.mux(sign, upper_sel, b.const(0, PIXEL_WIDTH, name="const_min"),
                    name="clamp_mux")

    # output pipeline registers
    out_q = b.register("reg_out", PIXEL_WIDTH, has_enable=True)
    valid_q = b.pipe(valid, name="reg_valid")
    b.drive("reg_out", d=clamped, en=valid)

    b.output("pixel_out", out_q)
    b.output("valid_out", valid_q)

    module = b.build()
    module.attributes["description"] = "peaking (sharpening) image filter"
    return module


class PeakingFilterTestbench(StreamTestbench):
    """Streams pixels and checks the output against the software reference.

    The output for input pixel ``k`` appears one cycle later (registered
    output), flagged by ``valid_out``.  Its seeded stimulus is a random
    pixel stream with ``valid`` held high.
    """

    idle = {"valid": 0}
    latency = 1
    gate = "valid_out"
    tail = 2
    slack = 4
    item = "pixel"

    @staticmethod
    def seeded_streams(seeds, n_items, draw):
        return {"pixel": draw(seeds, n_items, PIXEL_WIDTH), "valid": 1}

    def __init__(self, pixels: Sequence[int], name: str = "hvpeakf_tb") -> None:
        super().__init__({"pixel": pixels, "valid": 1}, name)
        self.pixels = self.streams["pixel"]

    @classmethod
    def from_streams(cls, streams):
        return cls(streams["pixel"])

    @cached_property
    def expected(self) -> List[int]:
        return reference_filter(np.asarray(self.pixels).tolist())

    def reference(self):
        return {"pixel_out": self.expected}

    @classmethod
    def golden_lanes(cls, testbenches, streams, n_items):
        return {"pixel_out": filter_lanes(streams["pixel"][:n_items])}

    def captured(self):
        return {"pixels_checked": self._checked}


def testbench(n_pixels: int = 600, seed: int = DEFAULT_SEED) -> PeakingFilterTestbench:
    """Standard stimulus: a pseudo-random pixel stream, the one-lane case of
    :func:`lanes`."""
    return PeakingFilterTestbench.from_seed(seed, n_pixels)


def lanes(seeds: Sequence[Optional[int]], n_pixels: int = 600) -> SeededStreams:
    """A lane block of standard stimuli, one lane per seed (``None``:
    :data:`DEFAULT_SEED`), drawn and lowered straight from the seeds."""
    return SeededStreams(PeakingFilterTestbench,
                         [DEFAULT_SEED if seed is None else seed for seed in seeds], n_pixels)
