"""The paper's Figure 1 example: an RTL binary-search circuit.

The datapath follows the figure: registers ``first``/``last``/``mid``/``out``,
an adder and a ``>> 1`` shifter computing the midpoint, an adder/subtractor
stepping the bounds by +1/-1, comparators, a data memory holding the sorted
table, and a Moore FSM controller sequencing the search.

Interface
---------
inputs  : ``start`` (1), ``key`` (W)
outputs : ``done`` (1), ``found`` (1), ``index`` (address width)

Protocol: drive ``key``, pulse ``start``; ``done`` is asserted for one cycle
with ``found``/``index`` valid (``index`` holds the match position when
``found`` is 1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.netlist.builder import NetlistBuilder
from repro.netlist.module import Module
from repro.sim.declarative import JobsTestbench
from repro.designs import stimuli

#: default table size (entries) and data width
DEFAULT_DEPTH = 64
DEFAULT_WIDTH = 16


def build(depth: int = DEFAULT_DEPTH, width: int = DEFAULT_WIDTH,
          table: Optional[Sequence[int]] = None) -> Module:
    """Build the binary-search circuit over a sorted table of ``depth`` entries."""
    if table is None:
        table = stimuli.random_sorted_array(depth, seed=1, width=width)
    if len(table) != depth:
        raise ValueError(f"table must have exactly {depth} entries")
    addr_width = max(1, (depth - 1).bit_length())

    b = NetlistBuilder("binary_search")
    start = b.input("start", 1)
    key = b.input("key", width)

    # ---------------------------------------------------------------- state
    first_q = b.register("reg_first", addr_width + 2, has_enable=True)
    last_q = b.register("reg_last", addr_width + 2, has_enable=True)
    mid_q = b.register("reg_mid", addr_width + 2, has_enable=True)
    out_q = b.register("reg_out", addr_width, has_enable=True)
    found_q = b.register("reg_found", 1, has_enable=True)

    # ------------------------------------------------------------- datapath
    # mid = (first + last) >> 1   (the adder + shifter of Fig. 1)
    mid_sum = b.add(first_q, last_q, name="mid_adder")
    mid_next = b.shr(mid_sum, 1, name="mid_shifter")

    # first/last stepping: mid +/- 1 through a shared adder/subtractor
    one = b.const(1, addr_width + 2, name="const_one")

    # table lookup (asynchronous ROM models the sorted data memory)
    data = b.rom("table", width, [v for v in table], b.slice(mid_q, addr_width - 1, 0))

    # comparators: key vs data, and range-empty check (first > last)
    key_lt, key_eq, key_gt = b.compare(key, data, name="cmp_key")
    range_gt = b.compare(first_q, last_q, signed=True, name="cmp_range")[2]

    # ----------------------------------------------------------- controller
    fsm, ctrl = b.fsm(
        "ctrl",
        states=["IDLE", "INIT", "CHECK", "COMPARE", "STEP_RIGHT", "STEP_LEFT",
                "FOUND", "NOTFOUND", "REPORT"],
        inputs={"start": start, "eq": key_eq, "gt": key_gt, "empty": range_gt},
        outputs={
            "init": 1,
            "first_en": 1,
            "last_en": 1,
            "mid_en": 1,
            "out_en": 1,
            "found_set": 1,
            "found_en": 1,
            "done": 1,
        },
        moore_outputs={
            "INIT": {"init": 1, "first_en": 1, "last_en": 1, "found_en": 1},
            "CHECK": {"mid_en": 1},
            "STEP_RIGHT": {"first_en": 1},
            "STEP_LEFT": {"last_en": 1},
            # result registers capture in FOUND/NOTFOUND and are reported (with
            # done high) in the following REPORT state
            "FOUND": {"out_en": 1, "found_set": 1, "found_en": 1},
            "NOTFOUND": {"found_en": 1},
            "REPORT": {"done": 1},
        },
    )
    fsm.when("IDLE", "INIT", start=1)
    fsm.otherwise("INIT", "CHECK")
    fsm.when("CHECK", "NOTFOUND", empty=1)
    fsm.otherwise("CHECK", "COMPARE")
    fsm.when("COMPARE", "FOUND", eq=1)
    fsm.when("COMPARE", "STEP_RIGHT", gt=1)
    fsm.otherwise("COMPARE", "STEP_LEFT")
    fsm.otherwise("STEP_RIGHT", "CHECK")
    fsm.otherwise("STEP_LEFT", "CHECK")
    fsm.otherwise("FOUND", "REPORT")
    fsm.otherwise("NOTFOUND", "REPORT")
    fsm.otherwise("REPORT", "IDLE")

    # --------------------------------------------------------- state update
    step_up = b.add(mid_q, one, name="step_adder")      # mid + 1
    step_down = b.sub(mid_q, one, name="step_subber")   # mid - 1
    zero = b.const(0, addr_width + 2, name="const_zero")
    limit = b.const(depth - 1, addr_width + 2, name="const_limit")

    b.drive("reg_first", d=b.mux(ctrl["init"], step_up, zero, name="first_mux"),
            en=ctrl["first_en"])
    b.drive("reg_last", d=b.mux(ctrl["init"], step_down, limit, name="last_mux"),
            en=ctrl["last_en"])
    b.drive("reg_mid", d=mid_next, en=ctrl["mid_en"])
    b.drive("reg_out", d=b.slice(mid_q, addr_width - 1, 0), en=ctrl["out_en"])
    b.drive("reg_found", d=ctrl["found_set"], en=ctrl["found_en"])

    b.output("done", ctrl["done"])
    b.output("found", found_q)
    b.output("index", out_q)

    module = b.build()
    module.attributes["table"] = list(table)
    module.attributes["description"] = "Fig. 1 binary search example circuit"
    return module


class BinarySearchTestbench(JobsTestbench):
    """Searches a sequence of keys and checks found/index against the table."""

    def __init__(self, module: Module, keys: Sequence[int], name: str = "binary_search_tb") -> None:
        keys = list(keys)
        super().__init__(len(keys), name)
        self.table: List[int] = list(module.attributes["table"])
        self.keys = keys
        self.max_cycles = 40 * max(1, len(self.keys))

    def job_inputs(self, job):
        return {"key": self.keys[job]} if job < len(self.keys) else {}

    def verify(self, job, dut) -> None:
        key = self.keys[job]
        found = dut.output("found")
        index = dut.output("index")
        if key in self.table:
            assert found == 1, f"key {key} should have been found"
            assert self.table[index] == key, (
                f"index {index} holds {self.table[index]}, expected {key}"
            )
        else:
            assert found == 0, f"key {key} reported found but is absent"

    def captured(self):
        return {"searches_checked": self._checked}


def testbench(n_searches: int = 8, seed: int = 3,
              module: Optional[Module] = None) -> BinarySearchTestbench:
    """Standard stimulus: a mix of present and absent keys."""
    target = module if module is not None else build()
    table = list(target.attributes["table"])
    import random

    rng = random.Random(seed)
    keys = []
    for i in range(n_searches):
        if i % 2 == 0:
            keys.append(rng.choice(table))
        else:
            keys.append(rng.getrandbits(DEFAULT_WIDTH))
    return BinarySearchTestbench(target, keys)
