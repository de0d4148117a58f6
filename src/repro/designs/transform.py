"""Shared 2-D 8x8 transform engine used by the DCT and IDCT benchmarks.

The engine computes ``Y = C · X · C^T`` (forward DCT) or ``Y = C^T · X · C``
(inverse DCT) as two passes of 1-D transforms through a multiply-accumulate
datapath:

* pass 1 (rows):    ``M[r][v] = sum_k X[r][k] * B[v][k]``
* pass 2 (columns): ``Y[u][v] = (sum_r B2[u][r] * M[r][v])``

where ``B``/``B2`` are integer basis ROMs scaled by ``stimuli.DCT_SCALE``;
each pass rescales by an arithmetic shift.  Data lives in three on-chip
memories (input block, intermediate, output block) accessed through a single
MAC loop driven by an FSM — the classic behavioral-synthesis result for a
transform kernel.

Interface: ``start``/``done``; the testbench loads ``in_mem`` and reads
``out_mem`` through the backdoor.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.netlist.signals import from_signed, to_signed
from repro.sim.declarative import JobsTestbench
from repro.designs import stimuli

#: element widths
IN_WIDTH = 12          # signed input samples / coefficients
MID_WIDTH = 16         # intermediate (after pass 1)
OUT_WIDTH = 14         # signed outputs
COEFF_WIDTH = 11       # signed basis coefficients (scaled by 256)
ACC_WIDTH = 30


def cycles_per_block() -> int:
    """Cycle count of one 8x8 block through the engine (both passes)."""
    # per output value: 8 taps x 2 cycles (READ + MAC) + 3 control cycles
    per_output = 8 * 2 + 3
    return 2 * 64 * per_output + 16


def reference_transform(block: Sequence[int], forward: bool) -> List[int]:
    """Bit-accurate software model of the engine (for testbench checking)."""
    basis = stimuli.dct_basis_matrix()
    pass1 = [[0] * 8 for _ in range(8)]
    for r in range(8):
        for v in range(8):
            acc = 0
            for k in range(8):
                coeff = basis[v][k] if forward else basis[k][v]
                acc += block[r * 8 + k] * coeff
            pass1[r][v] = _clamp(acc >> stimuli.DCT_SHIFT, MID_WIDTH)
    out = [[0] * 8 for _ in range(8)]
    for u in range(8):
        for v in range(8):
            acc = 0
            for r in range(8):
                coeff = basis[u][r] if forward else basis[r][u]
                acc += pass1[r][v] * coeff
            out[u][v] = _clamp(acc >> stimuli.DCT_SHIFT, OUT_WIDTH)
    return [out[u][v] for u in range(8) for v in range(8)]


def _clamp(value: int, width: int) -> int:
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    return max(lo, min(hi, value))


def build_transform(name: str, forward: bool) -> Module:
    """Build the transform engine (forward or inverse)."""
    basis = stimuli.dct_basis_matrix()
    # Pass-1 ROM holds B[v][k] addressed by {v,k}; for the inverse transform the
    # transposed basis is used.  Pass-2 uses the same ROM with swapped roles.
    rom_contents = []
    for v in range(8):
        for k in range(8):
            coeff = basis[v][k] if forward else basis[k][v]
            rom_contents.append(from_signed(coeff, COEFF_WIDTH))

    b = NetlistBuilder(name)
    start = b.input("start", 1)

    # ------------------------------------------------------------- counters
    # o = output index within a 1-D transform, blk = row/column index,
    # k = MAC tap index, pass_q = 0 (rows) / 1 (columns)
    o_q = b.register("reg_o", 3, has_enable=True, has_clear=True)
    blk_q = b.register("reg_blk", 3, has_enable=True, has_clear=True)
    k_q = b.register("reg_k", 3, has_enable=True, has_clear=True)
    pass_q = b.register("reg_pass", 1, has_enable=True, has_clear=True)
    acc_q = b.register("reg_acc", ACC_WIDTH, has_enable=True, has_clear=True)

    one3 = b.const(1, 3, name="const_one3")
    k_next = b.add(k_q, one3, name="k_inc")
    o_next = b.add(o_q, one3, name="o_inc")
    blk_next = b.add(blk_q, one3, name="blk_inc")
    seven = b.const(7, 3, name="const_seven")
    k_last = b.eq(k_q, seven, name="k_last")
    o_last = b.eq(o_q, seven, name="o_last")
    blk_last = b.eq(blk_q, seven, name="blk_last")

    # ----------------------------------------------------------- controller
    fsm, ctrl = b.fsm(
        "ctrl",
        states=["IDLE", "CLEAR", "READ", "MAC", "WRITE", "NEXT_OUT", "NEXT_BLK",
                "NEXT_PASS", "FINISH"],
        inputs={"start": start, "k_last": k_last, "o_last": o_last,
                "blk_last": blk_last, "pass_bit": pass_q},
        outputs={
            "clear_all": 1, "acc_clear": 1, "acc_en": 1,
            "k_en": 1, "k_clear": 1, "o_en": 1, "o_clear": 1,
            "blk_en": 1, "blk_clear": 1, "pass_en": 1,
            "mid_we": 1, "out_we": 1, "done": 1,
        },
        moore_outputs={
            "CLEAR": {"clear_all": 1, "k_clear": 1, "k_en": 1, "o_clear": 1, "o_en": 1,
                      "blk_clear": 1, "blk_en": 1, "acc_clear": 1, "acc_en": 1},
            "MAC": {"acc_en": 1, "k_en": 1},
            "WRITE": {"mid_we": 1, "out_we": 1},  # gated by the pass bit below
            "NEXT_OUT": {"o_en": 1, "k_clear": 1, "k_en": 1, "acc_clear": 1, "acc_en": 1},
            "NEXT_BLK": {"blk_en": 1, "o_clear": 1, "o_en": 1, "k_clear": 1, "k_en": 1,
                         "acc_clear": 1, "acc_en": 1},
            "NEXT_PASS": {"pass_en": 1, "blk_clear": 1, "blk_en": 1, "o_clear": 1,
                          "o_en": 1, "k_clear": 1, "k_en": 1, "acc_clear": 1, "acc_en": 1},
            "FINISH": {"done": 1},
        },
    )
    fsm.when("IDLE", "CLEAR", start=1)
    fsm.otherwise("CLEAR", "READ")
    fsm.otherwise("READ", "MAC")
    fsm.when("MAC", "WRITE", k_last=1)
    fsm.otherwise("MAC", "READ")
    fsm.when("WRITE", "NEXT_BLK", o_last=1)
    fsm.otherwise("WRITE", "NEXT_OUT")
    fsm.otherwise("NEXT_OUT", "READ")
    fsm.when("NEXT_BLK", "NEXT_PASS", blk_last=1)
    fsm.otherwise("NEXT_BLK", "READ")
    fsm.when("NEXT_PASS", "FINISH", pass_bit=1)
    fsm.otherwise("NEXT_PASS", "READ")
    fsm.otherwise("FINISH", "IDLE")

    # --------------------------------------------------------------- memory
    zero1 = b.const(0, 1, name="const_zero1")
    zero_in = b.const(0, IN_WIDTH, name="const_zero_in")
    # pass 1 reads in_mem[blk*8 + k]; pass 2 reads mid_mem[k*8 + blk]
    addr_p1 = b.concat(k_q, blk_q, name="addr_pass1")      # blk*8 + k
    addr_p2 = b.concat(blk_q, k_q, name="addr_pass2")      # k*8 + blk
    read_addr = b.mux(pass_q, addr_p1, addr_p2, name="read_addr_mux")

    in_rdata = b.memory("in_mem", IN_WIDTH, 64, we=zero1, addr=read_addr,
                        wdata=zero_in, sync_read=True)

    # intermediate memory: written in pass 1 at [blk*8 + o], read in pass 2
    mid_waddr = b.concat(o_q, blk_q, name="mid_waddr")      # blk*8 + o
    mid_we = b.and_(ctrl["mid_we"], b.not_(pass_q, name="pass_inv"), name="mid_we_gate")
    mid_addr = b.mux(pass_q, mid_waddr, read_addr, name="mid_addr_mux")

    # MAC datapath
    coeff_addr = b.concat(k_q, o_q, name="coeff_addr")      # o*8 + k
    coeff = b.rom("coeff_rom", COEFF_WIDTH, rom_contents, coeff_addr)
    sample_p1 = b.sext(in_rdata, MID_WIDTH, name="sample_p1")

    # accumulate: acc += sample * coeff
    acc_scaled = b.shr(acc_q, stimuli.DCT_SHIFT, arithmetic=True, name="acc_rescale")
    result_p1 = b.saturate(acc_scaled, MID_WIDTH, signed=True, name="sat_mid")
    result_p2 = b.saturate(acc_scaled, OUT_WIDTH, signed=True, name="sat_out")

    mid_rdata = b.memory("mid_mem", MID_WIDTH, 64, we=mid_we, addr=mid_addr,
                         wdata=result_p1, sync_read=True)

    sample = b.mux(pass_q, sample_p1, b.sext(mid_rdata, MID_WIDTH, name="sample_p2"),
                   name="sample_mux")
    product = b.mul(sample, b.sext(coeff, MID_WIDTH, name="coeff_ext"),
                    width_y=ACC_WIDTH, signed=True, name="mac_mult")
    acc_sum = b.add(acc_q, product, name="mac_add")
    b.drive("reg_acc", d=acc_sum, en=ctrl["acc_en"], clear=ctrl["acc_clear"])

    # output memory: written in pass 2 at [o*8 + blk] (= Y[u][v] with u=o, v=blk)
    out_waddr = b.concat(blk_q, o_q, name="out_waddr")
    out_we = b.and_(ctrl["out_we"], pass_q, name="out_we_gate")
    b.memory("out_mem", OUT_WIDTH, 64, we=out_we, addr=out_waddr,
             wdata=b.slice(result_p2, OUT_WIDTH - 1, 0, name="out_trunc"), sync_read=True)

    # ------------------------------------------------------ counter updates
    b.drive("reg_k", d=k_next, en=ctrl["k_en"], clear=ctrl["k_clear"])
    b.drive("reg_o", d=o_next, en=ctrl["o_en"], clear=ctrl["o_clear"])
    b.drive("reg_blk", d=blk_next, en=ctrl["blk_en"], clear=ctrl["blk_clear"])
    b.drive("reg_pass", d=b.const(1, 1, name="const_one1"), en=ctrl["pass_en"],
            clear=ctrl["clear_all"])

    b.output("done", ctrl["done"])

    module = b.build()
    module.attributes["forward"] = forward
    module.attributes["in_memory"] = "in_mem"
    module.attributes["out_memory"] = "out_mem"
    module.attributes["description"] = (
        "2-D 8x8 forward DCT engine" if forward else "2-D 8x8 inverse DCT engine"
    )
    return module


class TransformTestbench(JobsTestbench):
    """Runs one or more blocks through the engine and checks the outputs."""

    def __init__(self, blocks: Sequence[Sequence[int]], forward: bool,
                 name: str = "transform_tb") -> None:
        blocks = [list(block) for block in blocks]
        super().__init__(len(blocks), name)
        self.blocks = blocks
        self.forward = forward
        self.expected = [reference_transform(block, forward) for block in self.blocks]
        self.max_cycles = (cycles_per_block() + 50) * max(1, len(self.blocks))

    def job_memories(self, job):
        return [("in_mem", 0, [from_signed(v, IN_WIDTH) for v in self.blocks[job]])]

    def verify(self, job, dut) -> None:
        actual = [to_signed(word, OUT_WIDTH) for word in dut.memory("out_mem", 64)]
        expected = self.expected[job]
        assert actual == expected, (
            f"block {job}: transform mismatch "
            f"(first diff at {next(i for i in range(64) if actual[i] != expected[i])})"
        )

    def captured(self):
        return {"blocks_checked": self._checked}
