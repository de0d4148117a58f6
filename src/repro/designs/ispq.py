"""Ispq benchmark: MPEG-style inverse quantization of an 8x8 coefficient block.

For each quantized coefficient ``Q`` and quantizer scale ``QP`` the block
reconstructs

    F = 0                                                   if Q == 0
    F = sign(Q) * min( ((2*|Q| + 1) * QP) >> 1, 2047 )      otherwise

(the "method 2" style reconstruction without the mismatch-control term).  The
engine streams the 64 coefficients of a block out of an input memory, runs
them through an absolute-value unit, a shift/increment stage, a multiplier, a
sign-reapplication adder/subtractor and a saturator, and writes the results to
an output memory.

Interface: ``start``, ``qp`` (5 bits); ``done``.  The testbench loads
``in_mem`` and reads ``out_mem`` through the backdoor.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.netlist.signals import from_signed, to_signed
from repro.sim.declarative import JobsTestbench
from repro.designs import stimuli

COEFF_WIDTH = 12
QP_WIDTH = 5
WORK_WIDTH = 20
#: cycles per 8x8 block (3-state loop per coefficient plus control overhead)
CYCLES_PER_BLOCK = 64 * 3 + 8


def reference_dequant(coefficients: Sequence[int], qp: int) -> List[int]:
    """Bit-accurate software model of the engine."""
    out = []
    for q in coefficients:
        if q == 0:
            out.append(0)
            continue
        magnitude = min(((2 * abs(q) + 1) * qp) >> 1, 2047)
        out.append(magnitude if q > 0 else -magnitude)
    return out


def build() -> Module:
    """Build the inverse-quantizer engine."""
    b = NetlistBuilder("Ispq")
    start = b.input("start", 1)
    qp = b.input("qp", QP_WIDTH)

    # ---------------------------------------------------------------- state
    idx_q = b.register("reg_idx", 6, has_enable=True, has_clear=True)
    coeff_q = b.register("reg_coeff", COEFF_WIDTH, has_enable=True)
    result_q = b.register("reg_result", COEFF_WIDTH, has_enable=True)

    one6 = b.const(1, 6, name="const_one6")
    idx_next = b.add(idx_q, one6, name="idx_inc")
    idx_last = b.eq(idx_q, b.const(63, 6, name="const_63"), name="idx_last")

    # ----------------------------------------------------------- controller
    fsm, ctrl = b.fsm(
        "ctrl",
        states=["IDLE", "CLEAR", "READ", "EXEC", "WRITE", "FINISH"],
        inputs={"start": start, "idx_last": idx_last},
        outputs={"idx_en": 1, "idx_clear": 1, "coeff_en": 1, "result_en": 1,
                 "we": 1, "done": 1},
        moore_outputs={
            "CLEAR": {"idx_clear": 1, "idx_en": 1},
            "READ": {},
            "EXEC": {"coeff_en": 1},
            "WRITE": {"result_en": 1, "we": 1, "idx_en": 1},
            "FINISH": {"done": 1},
        },
    )
    fsm.when("IDLE", "CLEAR", start=1)
    fsm.otherwise("CLEAR", "READ")
    fsm.otherwise("READ", "EXEC")
    fsm.otherwise("EXEC", "WRITE")
    fsm.when("WRITE", "FINISH", idx_last=1)
    fsm.otherwise("WRITE", "READ")
    fsm.otherwise("FINISH", "IDLE")

    # --------------------------------------------------------------- memory
    zero1 = b.const(0, 1, name="const_zero1")
    zero_c = b.const(0, COEFF_WIDTH, name="const_zero_c")
    in_rdata = b.memory("in_mem", COEFF_WIDTH, 64, we=zero1, addr=idx_q,
                        wdata=zero_c, sync_read=True)

    # ------------------------------------------------------------- datapath
    # |Q|, zero detection
    magnitude = b.absval(coeff_q, name="abs_q")
    is_zero = b.eq(coeff_q, zero_c, name="q_zero")
    sign = b.bit(coeff_q, COEFF_WIDTH - 1, name="q_sign")

    # (2*|Q| + 1) * QP >> 1
    doubled = b.shl(b.zext(magnitude, WORK_WIDTH, name="mag_ext"), 1, name="double")
    incremented = b.add(doubled, b.const(1, WORK_WIDTH, name="const_one_w"), name="plus1")
    scaled = b.mul(incremented, b.zext(qp, WORK_WIDTH, name="qp_ext"),
                   width_y=WORK_WIDTH + QP_WIDTH, signed=False, name="quant_mult")
    halved = b.shr(scaled, 1, name="halve")

    # clamp magnitude to 2047, re-apply the sign, force zero for Q == 0
    sat_width = COEFF_WIDTH - 1
    too_big = b.reduce("or", b.slice(halved, WORK_WIDTH + QP_WIDTH - 1, sat_width,
                                     name="over_bits"), name="too_big")
    clipped = b.mux(too_big, b.slice(halved, sat_width - 1, 0, name="low_bits"),
                    b.const(2047, sat_width, name="const_2047"), name="clip_mux")
    positive = b.zext(clipped, COEFF_WIDTH, name="pos_val")
    negative = b.sub(b.const(0, COEFF_WIDTH, name="const_zero_neg"), positive, name="negate")
    signed_value = b.mux(sign, positive, negative, name="sign_mux")
    final = b.mux(is_zero, signed_value, zero_c, name="zero_mux")

    b.drive("reg_coeff", d=in_rdata, en=ctrl["coeff_en"])
    b.drive("reg_result", d=final, en=ctrl["result_en"])
    b.drive("reg_idx", d=idx_next, en=ctrl["idx_en"], clear=ctrl["idx_clear"])

    # output memory: written during WRITE at the current index
    b.memory("out_mem", COEFF_WIDTH, 64, we=ctrl["we"], addr=idx_q, wdata=final,
             sync_read=True)

    b.output("done", ctrl["done"])

    module = b.build()
    module.attributes["in_memory"] = "in_mem"
    module.attributes["out_memory"] = "out_mem"
    module.attributes["description"] = "MPEG-style inverse quantizer"
    return module


class IspqTestbench(JobsTestbench):
    """Dequantizes blocks and compares against the software reference."""

    def __init__(self, blocks: Sequence[Sequence[int]], qp: int = 12,
                 name: str = "ispq_tb") -> None:
        blocks = [list(block) for block in blocks]
        super().__init__(len(blocks), name)
        self.blocks = blocks
        self.qp = qp
        self.expected = [reference_dequant(block, qp) for block in self.blocks]
        self.max_cycles = (CYCLES_PER_BLOCK + 30) * max(1, len(self.blocks))

    def job_inputs(self, job):
        return {"qp": self.qp}

    def job_memories(self, job):
        return [("in_mem", 0, [from_signed(v, COEFF_WIDTH) for v in self.blocks[job]])]

    def verify(self, job, dut) -> None:
        actual = [to_signed(word, COEFF_WIDTH) for word in dut.memory("out_mem", 64)]
        assert actual == self.expected[job], f"block {job}: dequant mismatch"

    def captured(self):
        return {"blocks_checked": self._checked}


def testbench(n_blocks: int = 3, seed: int = 6, qp: int = 12) -> IspqTestbench:
    """Standard stimulus: sparse quantized coefficient blocks."""
    blocks = [stimuli.random_coefficient_block(seed=seed + i, magnitude=900)
              for i in range(n_blocks)]
    return IspqTestbench(blocks, qp=qp)
