"""Wide_Checksum: a 168-bit rolling-checksum datapath.

A streaming mixer in the style of wide CRC/fingerprint pipelines: each cycle
a 48-bit word is spread across a 168-bit lane, XOR-folded into the running
state, rotated, and passed through an add/subtract/select network before
being folded back into the state register.  Every interesting net is 61-240
bits wide, so the whole datapath exercises the lane store's limb-array
representation (:mod:`repro.sim.batch`): 60-bit int64 limbs, up to the
240-bit ceiling past which lane programs refuse a module.

Not a paper benchmark (``in_figure3=False``); it exists to keep a >60-bit
design on the fused batch + kernel paths in the registry, CLI and sweeps.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Dict, List, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.sim.declarative import StreamTestbench

#: state/datapath width: three 60-bit limbs in the lane store
WIDTH = 168
_MASK = (1 << WIDTH) - 1
#: rotate-left distance applied to the folded state each cycle
ROTATE = 107
WORD_WIDTH = 48

#: mixing constants (pi/golden-ratio digits, as in split-mix style mixers)
C_SUB = int("0x9e3779b97f4a7c15f39cc0605cedc8341082276bf3a27251", 16) & _MASK
C_CMP = int("0x243f6a8885a308d313198a2e037073440a4093822299f31d", 16) & _MASK


def reference_checksum(words: Sequence[int]) -> List[Dict[str, int]]:
    """Software reference: the per-cycle outputs for a fully-valid stream."""
    outputs: List[Dict[str, int]] = []
    state = 0
    for word in words:
        spread = word | (word << WORD_WIDTH) | (word << (2 * WORD_WIDTH))
        x = state ^ spread
        rot = ((x >> (WIDTH - ROTATE)) | (x << ROTATE)) & _MASK
        total = (x + rot) & _MASK
        diff = (total - C_SUB) & _MASK
        parity = bin(x).count("1") & 1
        mix = diff if parity else total
        inv = ~mix & _MASK
        outputs.append({
            "digest_lo": inv & ((1 << WORD_WIDTH) - 1),
            "parity": parity,
            "match": int(mix == C_CMP),
            "less": int(mix < C_CMP),
            "nonzero": int(mix != 0),
        })
        state = mix
    return outputs


def build() -> Module:
    """Build the 168-bit rolling-checksum datapath."""
    b = NetlistBuilder("Wide_Checksum")
    data = b.input("data", WORD_WIDTH)
    valid = b.input("valid", 1)

    state = b.register("state", WIDTH, has_enable=True)

    # spread the input word across the full width and fold it into the state
    spread = b.zext(b.concat(data, data, data, name="cat_spread"), WIDTH,
                    name="spread")
    x = b.xor_(state, spread, name="fold_xor")

    # rotate-left by ROTATE bits (pure wiring: two slices and a concat)
    rot = b.concat(b.slice(x, WIDTH - 1, WIDTH - ROTATE, name="rot_hi"),
                   b.slice(x, WIDTH - ROTATE - 1, 0, name="rot_lo"),
                   name="rot")

    # add/subtract/select mixing network
    total = b.add(x, rot, name="mix_add")
    diff = b.sub(total, b.const(C_SUB, WIDTH, name="const_sub"), name="mix_sub")
    parity = b.reduce("xor", x, name="fold_parity")
    mix = b.mux(parity, total, diff, name="mix_mux")

    # observation taps: wide compare, reduction and inverted digest
    lt, eq, _gt = b.compare(mix, b.const(C_CMP, WIDTH, name="const_cmp"),
                            name="match_cmp")
    nonzero = b.reduce("or", mix, name="mix_nonzero")
    inv = b.not_(mix, name="mix_not")
    digest = b.slice(inv, WORD_WIDTH - 1, 0, name="digest_slice")

    b.drive("state", d=mix, en=valid)

    b.output("digest_lo", digest)
    b.output("parity", parity)
    b.output("match", eq)
    b.output("less", lt)
    b.output("nonzero", nonzero)

    module = b.build()
    module.attributes["description"] = "168-bit rolling-checksum datapath"
    return module


class WideChecksumTestbench(StreamTestbench):
    """Streams words and checks every output against the software reference.

    The datapath is combinational: word ``k``'s outputs settle in cycle ``k``.
    """

    idle = {"valid": 0}
    slack = 2
    item = "word"

    def __init__(self, words: Sequence[int], name: str = "wide_checksum_tb") -> None:
        super().__init__({"data": words, "valid": 1}, name)
        self.words = self.streams["data"]

    @cached_property
    def expected(self) -> List[Dict[str, int]]:
        return reference_checksum(self.words)

    def reference(self):
        if not self.expected:
            return {}
        return {port: [out[port] for out in self.expected] for port in self.expected[0]}

    def captured(self):
        return {"words_checked": self._checked}


def random_words(n: int, seed: int = 0) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(WORD_WIDTH) for _ in range(n)]


def testbench(n_words: int = 192, seed: int = 9) -> WideChecksumTestbench:
    """Standard stimulus: a pseudo-random word stream."""
    return WideChecksumTestbench(random_words(n_words, seed=seed))
