"""MPEG4 benchmark: a texture-decoding block pipeline.

This is the largest design of the benchmark set, mirroring the role of the
MPEG4 decoder in the paper (whose IDCT, inverse-quantization and VLD
sub-blocks are the ``IDCT``, ``Ispq`` and ``Vld`` benchmarks).  For every
8x8 block it performs the four texture-decoding stages of an MPEG-4 intra/
inter block:

1. **VLD** — a bit buffer, barrel shifter and code-table ROM decode 64
   variable-length symbols from the bitstream memory into quantized
   coefficient levels,
2. **IQ** — the inverse quantizer reconstructs coefficients
   (``sign(Q) * min(((2|Q|+1)*QP) >> 1, 2047)``),
3. **IDCT** — a two-pass 8x8 inverse DCT through a MAC datapath,
4. **MC** — motion compensation: the residual is added to the prediction
   block fetched from the prediction memory, clamped to 0..255 and written
   into the frame store.

One Moore FSM sequences all four stages; each stage has its own counters and
datapath, so the design's size is roughly the sum of the Vld/Ispq/IDCT
benchmarks plus the motion-compensation back end — matching the relative
design sizes in the paper's Figure 3.

Interface: ``start``, ``qp`` (5), ``block_index`` (3, selects one of the 6
blocks of a macroblock in the prediction/frame memories); ``done``.
The testbench loads ``bitstream_mem`` and ``pred_mem`` and reads
``frame_mem`` through the backdoor.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.netlist.signals import from_signed
from repro.sim.declarative import JobsTestbench
from repro.designs import stimuli
from repro.designs.ispq import reference_dequant
from repro.designs.transform import reference_transform

WORD_BITS = 16
BUFFER_BITS = 24
COEFF_WIDTH = 12
MID_WIDTH = 16
REC_WIDTH = 14
PIXEL_WIDTH = 8
ACC_WIDTH = 30
QP_WIDTH = 5
BITSTREAM_DEPTH = 128
FRAME_BLOCKS = 6
#: approximate cycles to decode one 8x8 block through all four stages
CYCLES_PER_BLOCK = 64 * 4 + 64 * 3 + 2 * 64 * 19 + 64 * 4 + 40


def reference_decode_block(
    symbols: Sequence[int], prediction: Sequence[int], qp: int
) -> List[int]:
    """Bit-accurate software model of the full block pipeline."""
    levels = [s - 3 for s in symbols]
    coefficients = reference_dequant(levels, qp)
    residual = reference_transform(coefficients, forward=False)
    return [
        max(0, min(255, prediction[i] + residual[i]))
        for i in range(64)
    ]


def build() -> Module:
    """Build the MPEG4 block-decoder composite."""
    b = NetlistBuilder("MPEG4")
    start = b.input("start", 1)
    qp = b.input("qp", QP_WIDTH)
    block_index = b.input("block_index", 3)

    zero1 = b.const(0, 1, name="const_zero1")

    # =====================================================================
    # Stage 1: VLD (bit buffer + barrel shifter + code table)
    # =====================================================================
    table = stimuli.vld_decode_table()
    buf_q = b.register("vld_buf", BUFFER_BITS, has_enable=True, has_clear=True)
    cnt_q = b.register("vld_cnt", 6, has_enable=True, has_clear=True)
    wptr_q = b.register("vld_wptr", 8, has_enable=True, has_clear=True)
    vidx_q = b.register("vld_idx", 6, has_enable=True, has_clear=True)

    prefix = b.slice(buf_q, BUFFER_BITS - 1, BUFFER_BITS - stimuli.VLD_LOOKUP_BITS,
                     name="vld_prefix")
    entry = b.rom("vld_table", 12, table, prefix)
    length = b.slice(entry, 11, 8, name="vld_length")
    symbol = b.slice(entry, 7, 0, name="vld_symbol")
    need_fill = b.compare(cnt_q, b.const(9, 6, name="const_nine"), name="vld_cmp_fill")[0]
    vidx_last = b.eq(vidx_q, b.const(63, 6, name="const_63v"), name="vld_idx_last")

    # level = symbol - 3, stored as a signed 12-bit coefficient
    level = b.sub(b.zext(symbol, COEFF_WIDTH, name="vld_sym_ext"),
                  b.const(3, COEFF_WIDTH, name="const_bias"), name="vld_level")

    # =====================================================================
    # Stage 2: IQ (inverse quantizer)
    # =====================================================================
    qidx_q = b.register("iq_idx", 6, has_enable=True, has_clear=True)
    qcoeff_q = b.register("iq_coeff", COEFF_WIDTH, has_enable=True)
    qidx_last = b.eq(qidx_q, b.const(63, 6, name="const_63q"), name="iq_idx_last")

    magnitude = b.absval(qcoeff_q, name="iq_abs")
    is_zero = b.eq(qcoeff_q, b.const(0, COEFF_WIDTH, name="const_zero_c"), name="iq_zero")
    sign = b.bit(qcoeff_q, COEFF_WIDTH - 1, name="iq_sign")
    doubled = b.shl(b.zext(magnitude, 20, name="iq_mag_ext"), 1, name="iq_double")
    incremented = b.add(doubled, b.const(1, 20, name="const_one20"), name="iq_plus1")
    scaled = b.mul(incremented, b.zext(qp, 20, name="iq_qp_ext"), width_y=25,
                   signed=False, name="iq_mult")
    halved = b.shr(scaled, 1, name="iq_halve")
    too_big = b.reduce("or", b.slice(halved, 24, COEFF_WIDTH - 1, name="iq_over"),
                       name="iq_too_big")
    clipped = b.mux(too_big, b.slice(halved, COEFF_WIDTH - 2, 0, name="iq_low"),
                    b.const(2047, COEFF_WIDTH - 1, name="const_2047"), name="iq_clip")
    positive = b.zext(clipped, COEFF_WIDTH, name="iq_pos")
    negative = b.sub(b.const(0, COEFF_WIDTH, name="const_zero_n"), positive, name="iq_neg")
    iq_value = b.mux(is_zero,
                     b.mux(sign, positive, negative, name="iq_sign_mux"),
                     b.const(0, COEFF_WIDTH, name="const_zero_f"), name="iq_final")

    # =====================================================================
    # Stage 3: IDCT (two-pass MAC engine)
    # =====================================================================
    basis = stimuli.dct_basis_matrix()
    rom_contents = [from_signed(basis[k][v], 11) for v in range(8) for k in range(8)]
    # contents indexed by {o,k}: rom[o*8 + k] = basis[k][o] (inverse transform)

    o_q = b.register("t_o", 3, has_enable=True, has_clear=True)
    blk_q = b.register("t_blk", 3, has_enable=True, has_clear=True)
    k_q = b.register("t_k", 3, has_enable=True, has_clear=True)
    pass_q = b.register("t_pass", 1, has_enable=True, has_clear=True)
    acc_q = b.register("t_acc", ACC_WIDTH, has_enable=True, has_clear=True)

    one3 = b.const(1, 3, name="const_one3")
    seven = b.const(7, 3, name="const_seven")
    k_last = b.eq(k_q, seven, name="t_k_last")
    o_last = b.eq(o_q, seven, name="t_o_last")
    blk_last = b.eq(blk_q, seven, name="t_blk_last")

    addr_p1 = b.concat(k_q, blk_q, name="t_addr_p1")
    addr_p2 = b.concat(blk_q, k_q, name="t_addr_p2")
    read_addr = b.mux(pass_q, addr_p1, addr_p2, name="t_read_addr")
    coeff_addr = b.concat(k_q, o_q, name="t_coeff_addr")
    coeff = b.rom("t_coeff_rom", 11, rom_contents, coeff_addr)

    # =====================================================================
    # Stage 4: MC (prediction add + clamp + frame store)
    # =====================================================================
    midx_q = b.register("mc_idx", 6, has_enable=True, has_clear=True)
    rec_q = b.register("mc_rec", REC_WIDTH, has_enable=True)
    midx_last = b.eq(midx_q, b.const(63, 6, name="const_63m"), name="mc_idx_last")
    frame_addr = b.concat(midx_q, block_index, name="mc_frame_addr")  # block*64 + idx

    # =====================================================================
    # Controller
    # =====================================================================
    fsm, ctrl = b.fsm(
        "ctrl",
        states=[
            "IDLE",
            # VLD
            "VCLEAR", "VCHECK", "VFILL_REQ", "VFILL", "VDECODE", "VEMIT",
            # IQ
            "QCLEAR", "QREAD", "QEXEC", "QWRITE",
            # IDCT
            "TCLEAR", "TREAD", "TMAC", "TWRITE", "TNEXT_OUT", "TNEXT_BLK", "TNEXT_PASS",
            # MC
            "MCLEAR", "MREAD", "MCAPT", "MWRITE",
            "FINISH",
        ],
        inputs={
            "start": start, "need_fill": need_fill, "vidx_last": vidx_last,
            "qidx_last": qidx_last, "k_last": k_last, "o_last": o_last,
            "blk_last": blk_last, "pass_bit": pass_q, "midx_last": midx_last,
        },
        outputs={
            "vclear": 1, "buf_en": 1, "buf_fill": 1, "cnt_en": 1, "wptr_en": 1,
            "vidx_en": 1, "coeff_we": 1,
            "qclear": 1, "qidx_en": 1, "qcoeff_en": 1, "iq_we": 1,
            "tclear": 1, "acc_en": 1, "acc_clear": 1, "k_en": 1, "k_clear": 1,
            "o_en": 1, "o_clear": 1, "blk_en": 1, "blk_clear": 1, "pass_en": 1,
            "mid_we": 1, "rec_we": 1,
            "mclear": 1, "midx_en": 1, "rec_en": 1, "frame_we": 1,
            "done": 1,
        },
        moore_outputs={
            "VCLEAR": {"vclear": 1},
            "VFILL": {"buf_en": 1, "buf_fill": 1, "cnt_en": 1, "wptr_en": 1},
            "VEMIT": {"buf_en": 1, "cnt_en": 1, "vidx_en": 1, "coeff_we": 1},
            "QCLEAR": {"qclear": 1},
            "QEXEC": {"qcoeff_en": 1},
            "QWRITE": {"iq_we": 1, "qidx_en": 1},
            "TCLEAR": {"tclear": 1, "acc_clear": 1, "acc_en": 1, "k_clear": 1, "k_en": 1,
                       "o_clear": 1, "o_en": 1, "blk_clear": 1, "blk_en": 1},
            "TMAC": {"acc_en": 1, "k_en": 1},
            "TWRITE": {"mid_we": 1, "rec_we": 1},
            "TNEXT_OUT": {"o_en": 1, "k_clear": 1, "k_en": 1, "acc_clear": 1, "acc_en": 1},
            "TNEXT_BLK": {"blk_en": 1, "o_clear": 1, "o_en": 1, "k_clear": 1, "k_en": 1,
                          "acc_clear": 1, "acc_en": 1},
            "TNEXT_PASS": {"pass_en": 1, "blk_clear": 1, "blk_en": 1, "o_clear": 1,
                           "o_en": 1, "k_clear": 1, "k_en": 1, "acc_clear": 1, "acc_en": 1},
            "MCLEAR": {"mclear": 1},
            "MCAPT": {"rec_en": 1},
            "MWRITE": {"frame_we": 1, "midx_en": 1},
            "FINISH": {"done": 1},
        },
    )
    # stage 1: VLD decodes exactly 64 levels
    fsm.when("IDLE", "VCLEAR", start=1)
    fsm.otherwise("VCLEAR", "VCHECK")
    fsm.when("VCHECK", "VFILL_REQ", need_fill=1)
    fsm.otherwise("VCHECK", "VDECODE")
    fsm.otherwise("VFILL_REQ", "VFILL")
    fsm.otherwise("VFILL", "VCHECK")
    fsm.otherwise("VDECODE", "VEMIT")
    fsm.when("VEMIT", "QCLEAR", vidx_last=1)
    fsm.otherwise("VEMIT", "VCHECK")
    # stage 2: IQ over 64 coefficients
    fsm.otherwise("QCLEAR", "QREAD")
    fsm.otherwise("QREAD", "QEXEC")
    fsm.otherwise("QEXEC", "QWRITE")
    fsm.when("QWRITE", "TCLEAR", qidx_last=1)
    fsm.otherwise("QWRITE", "QREAD")
    # stage 3: IDCT (two passes)
    fsm.otherwise("TCLEAR", "TREAD")
    fsm.otherwise("TREAD", "TMAC")
    fsm.when("TMAC", "TWRITE", k_last=1)
    fsm.otherwise("TMAC", "TREAD")
    fsm.when("TWRITE", "TNEXT_BLK", o_last=1)
    fsm.otherwise("TWRITE", "TNEXT_OUT")
    fsm.otherwise("TNEXT_OUT", "TREAD")
    fsm.when("TNEXT_BLK", "TNEXT_PASS", blk_last=1)
    fsm.otherwise("TNEXT_BLK", "TREAD")
    fsm.when("TNEXT_PASS", "MCLEAR", pass_bit=1)
    fsm.otherwise("TNEXT_PASS", "TREAD")
    # stage 4: motion compensation over 64 pixels
    fsm.otherwise("MCLEAR", "MREAD")
    fsm.otherwise("MREAD", "MCAPT")
    fsm.otherwise("MCAPT", "MWRITE")
    fsm.when("MWRITE", "FINISH", midx_last=1)
    fsm.otherwise("MWRITE", "MREAD")
    fsm.otherwise("FINISH", "IDLE")

    # =====================================================================
    # Memories
    # =====================================================================
    word = b.memory("bitstream_mem", WORD_BITS, BITSTREAM_DEPTH, we=zero1,
                    addr=wptr_q, wdata=b.const(0, WORD_BITS, name="const_zero_w"),
                    sync_read=True)
    coeff_rdata = b.memory("coeff_mem", COEFF_WIDTH, 64, we=ctrl["coeff_we"],
                           addr=b.mux(ctrl["coeff_we"], qidx_q, vidx_q, name="coeff_addr_mux"),
                           wdata=level, sync_read=True)
    iq_rdata = b.memory("iq_mem", COEFF_WIDTH, 64, we=ctrl["iq_we"],
                        addr=b.mux(ctrl["iq_we"], read_addr, qidx_q, name="iq_addr_mux"),
                        wdata=iq_value, sync_read=True)

    # VLD refill datapath (needs the bitstream word read port)
    shift_room = b.sub(b.const(BUFFER_BITS - WORD_BITS, 6, name="const_room"), cnt_q,
                       name="vld_fill_amt")
    word_shifted = b.shl(b.zext(word, BUFFER_BITS, name="vld_word_ext"),
                         b.slice(shift_room, 3, 0, name="vld_fill_amt4"),
                         name="vld_fill_shifter")
    buf_filled = b.or_(buf_q, word_shifted, name="vld_buf_or")
    buf_consumed = b.shl(buf_q, b.zext(length, 5, name="vld_len_ext"), name="vld_consume")
    cnt_filled = b.add(cnt_q, b.const(WORD_BITS, 6, name="const_16"), name="vld_cnt_fill")
    cnt_consumed = b.sub(cnt_q, b.zext(length, 6, name="vld_len6"), name="vld_cnt_consume")

    b.drive("vld_buf", d=b.mux(ctrl["buf_fill"], buf_consumed, buf_filled, name="vld_buf_mux"),
            en=ctrl["buf_en"], clear=ctrl["vclear"])
    b.drive("vld_cnt", d=b.mux(ctrl["buf_fill"], cnt_consumed, cnt_filled, name="vld_cnt_mux"),
            en=ctrl["cnt_en"], clear=ctrl["vclear"])
    b.drive("vld_wptr", d=b.add(wptr_q, b.const(1, 8, name="const_one8"), name="vld_wptr_inc"),
            en=ctrl["wptr_en"], clear=ctrl["vclear"])
    b.drive("vld_idx", d=b.add(vidx_q, b.const(1, 6, name="const_one6"), name="vld_idx_inc"),
            en=ctrl["vidx_en"], clear=ctrl["vclear"])

    # IQ stage registers
    b.drive("iq_idx", d=b.add(qidx_q, b.const(1, 6, name="const_one6q"), name="iq_idx_inc"),
            en=ctrl["qidx_en"], clear=ctrl["qclear"])
    b.drive("iq_coeff", d=coeff_rdata, en=ctrl["qcoeff_en"])

    # IDCT MAC datapath
    sample_p1 = b.sext(iq_rdata, MID_WIDTH, name="t_sample_p1")
    acc_scaled = b.shr(acc_q, stimuli.DCT_SHIFT, arithmetic=True, name="t_acc_rescale")
    result_p1 = b.saturate(acc_scaled, MID_WIDTH, signed=True, name="t_sat_mid")
    result_p2 = b.saturate(acc_scaled, REC_WIDTH, signed=True, name="t_sat_rec")

    mid_we = b.and_(ctrl["mid_we"], b.not_(pass_q, name="t_pass_inv"), name="t_mid_we")
    mid_waddr = b.concat(o_q, blk_q, name="t_mid_waddr")
    mid_addr = b.mux(pass_q, mid_waddr, read_addr, name="t_mid_addr")
    mid_rdata = b.memory("t_mid_mem", MID_WIDTH, 64, we=mid_we, addr=mid_addr,
                         wdata=result_p1, sync_read=True)

    sample = b.mux(pass_q, sample_p1, b.sext(mid_rdata, MID_WIDTH, name="t_sample_p2"),
                   name="t_sample_mux")
    product = b.mul(sample, b.sext(coeff, MID_WIDTH, name="t_coeff_ext"),
                    width_y=ACC_WIDTH, signed=True, name="t_mac_mult")
    b.drive("t_acc", d=b.add(acc_q, product, name="t_mac_add"),
            en=ctrl["acc_en"], clear=ctrl["acc_clear"])

    rec_we = b.and_(ctrl["rec_we"], pass_q, name="t_rec_we")
    rec_waddr = b.concat(blk_q, o_q, name="t_rec_waddr")
    rec_rdata = b.memory("rec_mem", REC_WIDTH, 64, we=rec_we,
                         addr=b.mux(rec_we, midx_q, rec_waddr, name="rec_addr_mux"),
                         wdata=b.slice(result_p2, REC_WIDTH - 1, 0, name="t_rec_trunc"),
                         sync_read=True)

    # IDCT counters
    b.drive("t_k", d=b.add(k_q, one3, name="t_k_inc"), en=ctrl["k_en"], clear=ctrl["k_clear"])
    b.drive("t_o", d=b.add(o_q, one3, name="t_o_inc"), en=ctrl["o_en"], clear=ctrl["o_clear"])
    b.drive("t_blk", d=b.add(blk_q, one3, name="t_blk_inc"), en=ctrl["blk_en"],
            clear=ctrl["blk_clear"])
    b.drive("t_pass", d=b.const(1, 1, name="const_one1"), en=ctrl["pass_en"],
            clear=ctrl["tclear"])

    # MC stage: prediction fetch, residual add, clamp, frame store
    pred_rdata = b.memory("pred_mem", PIXEL_WIDTH, FRAME_BLOCKS * 64, we=zero1,
                          addr=frame_addr, wdata=b.const(0, PIXEL_WIDTH, name="const_zero_p"),
                          sync_read=True)
    b.drive("mc_rec", d=rec_rdata, en=ctrl["rec_en"])
    b.drive("mc_idx", d=b.add(midx_q, b.const(1, 6, name="const_one6m"), name="mc_idx_inc"),
            en=ctrl["midx_en"], clear=ctrl["mclear"])

    mc_sum = b.add(b.sext(rec_q, REC_WIDTH + 2, name="mc_rec_ext"),
                   b.zext(pred_rdata, REC_WIDTH + 2, name="mc_pred_ext"), name="mc_add")
    mc_sign = b.bit(mc_sum, REC_WIDTH + 1, name="mc_sign")
    mc_over = b.and_(b.not_(mc_sign, name="mc_pos"),
                     b.reduce("or", b.slice(mc_sum, REC_WIDTH, PIXEL_WIDTH, name="mc_high"),
                              name="mc_any"), name="mc_overflow")
    mc_upper = b.mux(mc_over, b.slice(mc_sum, PIXEL_WIDTH - 1, 0, name="mc_low"),
                     b.const(255, PIXEL_WIDTH, name="const_255"), name="mc_clamp_hi")
    mc_pixel = b.mux(mc_sign, mc_upper, b.const(0, PIXEL_WIDTH, name="const_zero_px"),
                     name="mc_clamp")

    b.memory("frame_mem", PIXEL_WIDTH, FRAME_BLOCKS * 64, we=ctrl["frame_we"],
             addr=frame_addr, wdata=mc_pixel, sync_read=True)

    b.output("done", ctrl["done"])

    module = b.build()
    module.attributes["bitstream_memory"] = "bitstream_mem"
    module.attributes["prediction_memory"] = "pred_mem"
    module.attributes["frame_memory"] = "frame_mem"
    module.attributes["description"] = "MPEG4 block decoder composite"
    return module


class Mpeg4Testbench(JobsTestbench):
    """Decodes blocks and compares the frame store with the software reference."""

    def __init__(self, blocks: Sequence[Sequence[int]],
                 predictions: Sequence[Sequence[int]], qp: int = 8,
                 name: str = "mpeg4_tb") -> None:
        if len(blocks) != len(predictions):
            raise ValueError("need one prediction block per coefficient block")
        if len(blocks) > FRAME_BLOCKS:
            raise ValueError(f"at most {FRAME_BLOCKS} blocks per run")
        super().__init__(len(blocks), name)
        self.symbol_blocks = [list(block) for block in blocks]
        self.predictions = [list(p) for p in predictions]
        self.qp = qp
        self.expected = [
            reference_decode_block(symbols, prediction, qp)
            for symbols, prediction in zip(self.symbol_blocks, self.predictions)
        ]
        self.max_cycles = (CYCLES_PER_BLOCK + 200) * max(1, len(blocks))

    def job_inputs(self, job):
        return {"qp": self.qp, "block_index": job % FRAME_BLOCKS}

    def job_memories(self, job):
        words = stimuli.vld_encode(self.symbol_blocks[job], word_bits=WORD_BITS)
        return [("bitstream_mem", 0, words),
                ("pred_mem", job * 64, self.predictions[job])]

    def verify(self, job, dut) -> None:
        actual = dut.memory("frame_mem", 64, offset=job * 64)
        expected = self.expected[job]
        assert actual == expected, (
            f"block {job}: decoded pixels mismatch "
            f"(first diff at {next(i for i in range(64) if actual[i] != expected[i])})"
        )

    def captured(self):
        return {"blocks_checked": self._checked}


def testbench(n_blocks: int = 1, seed: int = 10, qp: int = 8) -> Mpeg4Testbench:
    """Standard stimulus: random coded blocks plus random prediction blocks."""
    import random

    rng = random.Random(seed)
    blocks = []
    predictions = []
    for i in range(n_blocks):
        # mostly near-zero levels with a stronger DC term, like real residuals
        symbols = [rng.choice([2, 3, 3, 3, 4, 1, 5]) for _ in range(64)]
        symbols[0] = rng.randint(0, 7)
        blocks.append(symbols)
        predictions.append(stimuli.random_pixel_block(seed=seed + 100 + i))
    return Mpeg4Testbench(blocks, predictions, qp=qp)
