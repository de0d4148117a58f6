"""Functional-equivalence tests: gate mappings must match RTL component semantics."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gates import GateLevelSimulator, TechmapError, TechnologyMapper
from repro.netlist.components import (
    AbsoluteValue,
    Adder,
    AddSub,
    Comparator,
    Concat,
    Decoder,
    Extend,
    LogicOp,
    Multiplier,
    Mux,
    NotOp,
    ReduceOp,
    Saturator,
    ShifterConst,
    ShifterVar,
    Slice,
    Subtractor,
)
from repro.netlist.sequential import Register

MAPPER = TechnologyMapper()


def check_equivalence(component, n_vectors=40, seed=0):
    """Drive random vectors through both the RTL model and its gate mapping,
    all vectors settling at once as lanes."""
    rng = random.Random(seed)
    netlist = MAPPER.map_component(component)
    simulator = GateLevelSimulator(netlist)
    port_widths = {p.name: p.width for p in component.ports.values()}
    vectors = [{p.name: rng.getrandbits(p.width) for p in component.input_ports}
               for _ in range(n_vectors)]
    actual = simulator.evaluate_ports_batch(
        {p.name: np.array([v[p.name] for v in vectors]) for p in component.input_ports},
        port_widths)
    for lane, vector in enumerate(vectors):
        for port, value in component.evaluate(vector).items():
            got = int(actual[port][lane]) if port in actual else 0
            assert got == value, (
                f"{component.type_name} mismatch on {port}: {vector} -> "
                f"expected {value}, got {got}"
            )
    return netlist


def test_adder_mapping_equivalent():
    netlist = check_equivalence(Adder("a", 8, with_carry_in=True, with_carry_out=True))
    assert netlist.n_gates > 0


def test_subtractor_mapping_equivalent():
    check_equivalence(Subtractor("s", 8, with_borrow_out=True))


def test_addsub_mapping_equivalent():
    check_equivalence(AddSub("as", 8))


def test_multiplier_unsigned_mapping_equivalent():
    check_equivalence(Multiplier("m", 6), n_vectors=30)


def test_multiplier_signed_mapping_equivalent():
    check_equivalence(Multiplier("ms", 6, signed=True), n_vectors=30)


def test_multiplier_truncated_output_mapping():
    check_equivalence(Multiplier("mt", 8, width_y=8), n_vectors=30)


def test_comparator_mapping_equivalent():
    check_equivalence(Comparator("c", 8))
    check_equivalence(Comparator("cs", 8, signed=True))


def test_absval_and_saturator_mapping():
    check_equivalence(AbsoluteValue("abs", 8))
    check_equivalence(Saturator("sat", 12, 8, signed=True))
    check_equivalence(Saturator("satu", 12, 8, signed=False))


def test_shifter_mappings():
    check_equivalence(ShifterConst("shl", 8, 3, "left"))
    check_equivalence(ShifterConst("shr", 8, 2, "right"))
    check_equivalence(ShifterConst("sra", 8, 2, "right", arithmetic=True))
    check_equivalence(ShifterVar("bl", 8, 3, "left"))
    check_equivalence(ShifterVar("br", 8, 3, "right"))
    check_equivalence(ShifterVar("bra", 8, 3, "right", arithmetic=True))


def test_mux_mappings_various_sizes():
    for n in (2, 3, 4, 5):
        check_equivalence(Mux(f"mux{n}", 8, n))


def test_logic_not_reduce_mappings():
    for op in ("and", "or", "xor", "nand", "nor", "xnor"):
        check_equivalence(LogicOp(f"l_{op}", op, 8))
    check_equivalence(NotOp("n", 8))
    for op in ("and", "or", "xor"):
        check_equivalence(ReduceOp(f"r_{op}", op, 8))


def test_plumbing_mappings():
    check_equivalence(Concat("cat", [4, 8, 4]))
    check_equivalence(Slice("sl", 16, 11, 4))
    check_equivalence(Extend("ze", 4, 12, signed=False))
    check_equivalence(Extend("se", 4, 12, signed=True))
    check_equivalence(Decoder("dec", 4))


def test_unmappable_component_raises():
    with pytest.raises(TechmapError):
        MAPPER.map_component(Register("r", 8))
    assert not MAPPER.can_map(Register("r2", 8))
    assert MAPPER.can_map(Adder("a", 8))


def test_gate_netlist_statistics():
    netlist = MAPPER.map_component(Multiplier("m", 8))
    assert netlist.n_gates > 100
    assert netlist.total_area_um2() > 0
    assert netlist.total_leakage_nw() > 0
    histogram = netlist.gate_histogram()
    assert histogram.get("AND2", 0) > 0
    assert set(netlist.primary_inputs) >= {"a[0]", "b[7]"}
    loads = netlist.load_capacitance_ff(MAPPER.library)
    assert all(value >= 0 for value in loads.values())


def test_adder_gate_count_scales_with_width():
    small = MAPPER.map_component(Adder("a8", 8)).n_gates
    large = MAPPER.map_component(Adder("a16", 16)).n_gates
    assert large == pytest.approx(2 * small, rel=0.2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_adder10_equivalence_property(a, b):
    component = Adder("prop", 10)
    netlist = MAPPER.map_component(component)
    sim = GateLevelSimulator(netlist)
    widths = {"a": 10, "b": 10, "y": 10}
    out = sim.evaluate_ports_batch({"a": np.array([a]), "b": np.array([b])}, widths)
    assert out["y"].tolist() == [(a + b) & 0x3FF]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_comparator_equivalence_property(a, b):
    component = Comparator("prop", 8)
    netlist = MAPPER.map_component(component)
    sim = GateLevelSimulator(netlist)
    widths = {"a": 8, "b": 8, "lt": 1, "eq": 1, "gt": 1}
    out = sim.evaluate_ports_batch({"a": np.array([a]), "b": np.array([b])}, widths)
    assert out["lt"].tolist() == [int(a < b)]
    assert out["eq"].tolist() == [int(a == b)]
    assert out["gt"].tolist() == [int(a > b)]
