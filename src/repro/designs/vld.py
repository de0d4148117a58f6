"""Vld benchmark: a variable-length (prefix-code) decoder.

The decoder consumes a packed bitstream held in an on-chip memory and emits
one symbol per table lookup: a 24-bit left-justified bit buffer is refilled
16 bits at a time from the bitstream memory, the top 8 buffer bits index a
code-table ROM that returns ``(code length, symbol)``, the symbol is written
to an output memory, and a barrel shifter discards the consumed bits.  The
all-zero prefix is the end-of-block marker.  This is the front-end structure
of the MPEG4 decoder's VLD stage (bit buffer + barrel shifter + code table +
control FSM), using the simple unary code from :mod:`repro.designs.stimuli`.

Interface: ``start``; ``done``, ``count`` (number of decoded symbols).
The testbench loads ``bitstream_mem`` and reads ``out_mem`` via the backdoor.
"""

from __future__ import annotations

from typing import Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.sim.declarative import JobsTestbench
from repro.designs import stimuli

WORD_BITS = 16
BUFFER_BITS = 24
BITSTREAM_DEPTH = 128
OUTPUT_DEPTH = 256
#: average cycles needed per decoded symbol (decode + emit + check + amortized refill)
CYCLES_PER_SYMBOL = 5


def build(bitstream_depth: int = BITSTREAM_DEPTH, output_depth: int = OUTPUT_DEPTH) -> Module:
    """Build the variable-length decoder."""
    table = stimuli.vld_decode_table()

    b = NetlistBuilder("Vld")
    start = b.input("start", 1)

    # ---------------------------------------------------------------- state
    buf_q = b.register("reg_buf", BUFFER_BITS, has_enable=True, has_clear=True)
    cnt_q = b.register("reg_cnt", 6, has_enable=True, has_clear=True)
    wptr_q = b.register("reg_wptr", 8, has_enable=True, has_clear=True)
    optr_q = b.register("reg_optr", 9, has_enable=True, has_clear=True)

    # ----------------------------------------------------------- code table
    prefix = b.slice(buf_q, BUFFER_BITS - 1, BUFFER_BITS - stimuli.VLD_LOOKUP_BITS,
                     name="prefix")
    entry = b.rom("code_table", 12, table, prefix)
    length = b.slice(entry, 11, 8, name="code_length")
    symbol = b.slice(entry, 7, 0, name="code_symbol")
    is_eob = b.eq(length, b.const(0, 4, name="const_len0"), name="is_eob")

    # -------------------------------------------------------- status signals
    need_fill = b.compare(cnt_q, b.const(9, 6, name="const_nine"), name="cmp_fill")[0]

    # ----------------------------------------------------------- controller
    fsm, ctrl = b.fsm(
        "ctrl",
        states=["IDLE", "CLEAR", "CHECK", "FILL_REQ", "FILL", "DECODE", "EMIT", "FINISH"],
        inputs={"start": start, "need_fill": need_fill, "eob": is_eob},
        outputs={"clear_all": 1, "buf_en": 1, "buf_fill": 1, "cnt_en": 1,
                 "wptr_en": 1, "optr_en": 1, "we": 1, "done": 1},
        moore_outputs={
            "CLEAR": {"clear_all": 1},
            "FILL": {"buf_en": 1, "buf_fill": 1, "cnt_en": 1, "wptr_en": 1},
            "EMIT": {"buf_en": 1, "cnt_en": 1, "optr_en": 1, "we": 1},
            "FINISH": {"done": 1},
        },
    )
    fsm.when("IDLE", "CLEAR", start=1)
    fsm.otherwise("CLEAR", "CHECK")
    fsm.when("CHECK", "FILL_REQ", need_fill=1)
    fsm.otherwise("CHECK", "DECODE")
    fsm.otherwise("FILL_REQ", "FILL")
    fsm.otherwise("FILL", "CHECK")
    fsm.when("DECODE", "FINISH", eob=1)
    fsm.otherwise("DECODE", "EMIT")
    fsm.otherwise("EMIT", "CHECK")
    fsm.otherwise("FINISH", "IDLE")

    # --------------------------------------------------------------- memory
    zero1 = b.const(0, 1, name="const_zero1")
    zero_w = b.const(0, WORD_BITS, name="const_zero_w")
    word = b.memory("bitstream_mem", WORD_BITS, bitstream_depth, we=zero1,
                    addr=wptr_q, wdata=zero_w, sync_read=True)
    b.memory("out_mem", 8, output_depth, we=ctrl["we"], addr=optr_q, wdata=symbol,
             sync_read=True)

    # ------------------------------------------------------------- datapath
    # refill: insert the fetched word so that its MSB lands just below the
    # currently valid bits: buf |= word << (BUFFER_BITS - WORD_BITS - cnt)
    shift_room = b.sub(b.const(BUFFER_BITS - WORD_BITS, 6, name="const_room"), cnt_q,
                       name="fill_shift_amt")
    word_ext = b.zext(word, BUFFER_BITS, name="word_ext")
    word_shifted = b.shl(word_ext, b.slice(shift_room, 3, 0, name="fill_amt4"),
                         name="fill_shifter")
    buf_filled = b.or_(buf_q, word_shifted, name="buf_or")
    cnt_filled = b.add(cnt_q, b.const(WORD_BITS, 6, name="const_16"), name="cnt_fill")

    # consume: drop the decoded code's bits
    buf_consumed = b.shl(buf_q, b.zext(length, 5, name="len_ext"), name="consume_shifter")
    cnt_consumed = b.sub(cnt_q, b.zext(length, 6, name="len_ext6"), name="cnt_consume")

    b.drive("reg_buf", d=b.mux(ctrl["buf_fill"], buf_consumed, buf_filled, name="buf_mux"),
            en=ctrl["buf_en"], clear=ctrl["clear_all"])
    b.drive("reg_cnt", d=b.mux(ctrl["buf_fill"], cnt_consumed, cnt_filled, name="cnt_mux"),
            en=ctrl["cnt_en"], clear=ctrl["clear_all"])
    b.drive("reg_wptr", d=b.add(wptr_q, b.const(1, 8, name="const_one8"), name="wptr_inc"),
            en=ctrl["wptr_en"], clear=ctrl["clear_all"])
    b.drive("reg_optr", d=b.add(optr_q, b.const(1, 9, name="const_one9"), name="optr_inc"),
            en=ctrl["optr_en"], clear=ctrl["clear_all"])

    b.output("done", ctrl["done"])
    b.output("count", optr_q)

    module = b.build()
    module.attributes["bitstream_memory"] = "bitstream_mem"
    module.attributes["out_memory"] = "out_mem"
    module.attributes["description"] = "variable-length (prefix code) decoder"
    return module


class VldTestbench(JobsTestbench):
    """Encodes a symbol stream, decodes it in hardware and compares."""

    def __init__(self, symbols: Sequence[int], name: str = "vld_tb") -> None:
        super().__init__(1, name)
        self.symbols = list(symbols)
        self.words = stimuli.vld_encode(self.symbols, word_bits=WORD_BITS)
        self.max_cycles = CYCLES_PER_SYMBOL * len(self.symbols) + len(self.words) * 3 + 100

    def job_memories(self, job):
        return [("bitstream_mem", 0, self.words)]

    def verify(self, job, dut) -> None:
        count = dut.output("count")
        assert count == len(self.symbols), (
            f"decoded {count} symbols, expected {len(self.symbols)}"
        )
        decoded = dut.memory("out_mem", count)
        assert decoded == self.symbols, "decoded symbol stream mismatch"
        self.capture("decoded", decoded)


def testbench(n_symbols: int = 120, seed: int = 8) -> VldTestbench:
    """Standard stimulus: a random symbol stream within the code's range."""
    import random

    rng = random.Random(seed)
    symbols = [rng.randint(0, stimuli.VLD_MAX_SYMBOL) for _ in range(n_symbols)]
    return VldTestbench(symbols)
