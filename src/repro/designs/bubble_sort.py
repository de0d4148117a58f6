"""Bubble Sort benchmark: an in-memory sorting engine.

The engine sorts ``depth`` words held in an on-chip single-port RAM.  An FSM
walks the classic nested loops; the inner-loop body reads two adjacent
elements (two cycles each through the synchronous read port), compares them
and writes them back swapped if they are out of order.

Interface
---------
inputs  : ``start`` (1)
outputs : ``done`` (1), ``swaps`` (16)

The testbench loads the memory through the backdoor, pulses ``start``, waits
for ``done`` and verifies the memory contents are sorted.
"""

from __future__ import annotations

from typing import Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.sim.declarative import JobsTestbench
from repro.designs import stimuli

DEFAULT_DEPTH = 32
DEFAULT_WIDTH = 16


def build(depth: int = DEFAULT_DEPTH, width: int = DEFAULT_WIDTH) -> Module:
    """Build the bubble-sort engine for ``depth`` words of ``width`` bits."""
    addr_width = max(1, (depth - 1).bit_length())
    count_width = addr_width + 1

    b = NetlistBuilder("Bubble_Sort")
    start = b.input("start", 1)

    # ---------------------------------------------------------------- state
    i_q = b.register("reg_i", count_width, has_enable=True)       # outer index
    j_q = b.register("reg_j", count_width, has_enable=True)       # inner index
    a_q = b.register("reg_a", width, has_enable=True)             # element a[j]
    bb_q = b.register("reg_b", width, has_enable=True)            # element a[j+1]
    swaps_q = b.register("reg_swaps", 16, has_enable=True)        # swap counter

    # ------------------------------------------------------------- datapath
    one = b.const(1, count_width, name="const_one")
    j_plus1 = b.add(j_q, one, name="j_inc")
    i_plus1 = b.add(i_q, one, name="i_inc")
    limit_n1 = b.const(depth - 1, count_width, name="const_n1")
    inner_limit = b.sub(limit_n1, i_q, name="inner_limit")        # N-1-i

    # ----------------------------------------------------------- controller
    # status signals
    swap_needed = b.compare(a_q, bb_q, name="cmp_elems")[2]          # a > b
    inner_done = b.compare(j_plus1, inner_limit, name="cmp_inner")[0]  # j+1 < N-1-i -> continue
    outer_done = b.compare(i_plus1, limit_n1, name="cmp_outer")[0]     # i+1 < N-1   -> continue

    fsm, ctrl = b.fsm(
        "ctrl",
        states=["IDLE", "OUTER_INIT", "INNER_INIT", "READ1", "READ2", "CMPST",
                "DECIDE", "WRITE1", "WRITE2", "NEXT", "OUTER_NEXT", "FINISH"],
        inputs={
            "start": start,
            "swap": swap_needed,
            "inner_more": inner_done,
            "outer_more": outer_done,
        },
        outputs={
            "i_init": 1, "i_en": 1,
            "j_init": 1, "j_en": 1,
            "a_en": 1, "b_en": 1,
            "addr_sel": 1, "we": 1, "wd_sel": 1,
            "swaps_en": 1, "swaps_clear": 1,
            "done": 1,
        },
        moore_outputs={
            "OUTER_INIT": {"i_init": 1, "i_en": 1, "swaps_clear": 1, "swaps_en": 1},
            "INNER_INIT": {"j_init": 1, "j_en": 1},
            "READ1": {"addr_sel": 0},
            "READ2": {"a_en": 1, "addr_sel": 1},
            "CMPST": {"b_en": 1},
            "WRITE1": {"we": 1, "addr_sel": 0, "wd_sel": 0, "swaps_en": 1},
            "WRITE2": {"we": 1, "addr_sel": 1, "wd_sel": 1},
            "NEXT": {"j_en": 1},
            "OUTER_NEXT": {"i_en": 1},
            "FINISH": {"done": 1},
        },
    )
    fsm.when("IDLE", "OUTER_INIT", start=1)
    fsm.otherwise("OUTER_INIT", "INNER_INIT")
    fsm.otherwise("INNER_INIT", "READ1")
    fsm.otherwise("READ1", "READ2")
    fsm.otherwise("READ2", "CMPST")
    # both elements are registered after CMPST; the comparison result is acted
    # on in DECIDE when reg_a and reg_b are stable
    fsm.otherwise("CMPST", "DECIDE")
    fsm.when("DECIDE", "WRITE1", swap=1)
    fsm.otherwise("DECIDE", "NEXT")
    fsm.otherwise("WRITE1", "WRITE2")
    fsm.otherwise("WRITE2", "NEXT")
    fsm.when("NEXT", "READ1", inner_more=1)
    fsm.otherwise("NEXT", "OUTER_NEXT")
    fsm.when("OUTER_NEXT", "INNER_INIT", outer_more=1)
    fsm.otherwise("OUTER_NEXT", "FINISH")
    fsm.otherwise("FINISH", "IDLE")

    # ----------------------------------------------------------- memory port
    zero_c = b.const(0, count_width, name="const_zero")
    addr = b.mux(ctrl["addr_sel"], j_q, j_plus1, name="addr_mux")
    wdata = b.mux(ctrl["wd_sel"], bb_q, a_q, name="wdata_mux")
    rdata = b.memory("array", width, depth, we=ctrl["we"],
                     addr=b.slice(addr, addr_width - 1, 0), wdata=wdata, sync_read=True)

    # --------------------------------------------------------- state update
    b.drive("reg_i", d=b.mux(ctrl["i_init"], i_plus1, zero_c, name="i_mux"), en=ctrl["i_en"])
    b.drive("reg_j", d=b.mux(ctrl["j_init"], j_plus1, zero_c, name="j_mux"), en=ctrl["j_en"])
    b.drive("reg_a", d=rdata, en=ctrl["a_en"])
    b.drive("reg_b", d=rdata, en=ctrl["b_en"])
    swaps_inc = b.add(swaps_q, b.const(1, 16, name="const_one16"), name="swaps_inc")
    b.drive("reg_swaps",
            d=b.mux(ctrl["swaps_clear"], swaps_inc, b.const(0, 16, name="const_zero16"),
                    name="swaps_mux"),
            en=ctrl["swaps_en"])

    b.output("done", ctrl["done"])
    b.output("swaps", swaps_q)

    module = b.build()
    module.attributes["depth"] = depth
    module.attributes["width"] = width
    module.attributes["memory"] = "array"
    module.attributes["description"] = "bubble sort engine over on-chip RAM"
    return module


def cycles_per_sort(depth: int) -> int:
    """Rough cycle count of one full sort (used for nominal workload sizing)."""
    comparisons = depth * (depth - 1) // 2
    return 6 * comparisons + 3 * depth + 10


class BubbleSortTestbench(JobsTestbench):
    """Loads data, runs the sort, verifies the memory is sorted."""

    def __init__(self, data: Sequence[int], name: str = "bubble_sort_tb") -> None:
        super().__init__(1, name)
        self.data = list(data)
        self.max_cycles = cycles_per_sort(len(self.data)) * 3 + 100

    def job_memories(self, job):
        return [("array", 0, self.data)]

    def verify(self, job, dut) -> None:
        contents = dut.memory("array", len(self.data))
        assert contents == sorted(self.data), "memory is not sorted after done"
        self.capture("sorted", contents)
        self.capture("swaps", dut.output("swaps"))


def testbench(depth: int = DEFAULT_DEPTH, seed: int = 11,
              width: int = DEFAULT_WIDTH) -> BubbleSortTestbench:
    """Standard stimulus: a random array filling the engine's memory."""
    return BubbleSortTestbench(stimuli.random_array(depth, seed=seed, width=width))
