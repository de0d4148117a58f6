"""Tests for gate-level simulation details and power computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gates import (
    GateLevelSimulator,
    GatePowerCalculator,
    TechnologyMapper,
)
from repro.gates.gate_netlist import GateNetlist, bit_net
from repro.gates.cells import CB013_LIBRARY
from repro.netlist.components import Adder, Multiplier

MAPPER = TechnologyMapper()


def test_gatesim_detects_combinational_cycle():
    netlist = GateNetlist("cyclic")
    netlist.add_input("a")
    inv = CB013_LIBRARY.cell("INV")
    and2 = CB013_LIBRARY.cell("AND2")
    netlist.add_gate(and2, ["a", "loop"], "x")
    netlist.add_gate(inv, ["x"], "loop")
    with pytest.raises(ValueError, match="cycle"):
        GateLevelSimulator(netlist)


def test_alias_cycle_detected():
    netlist = GateNetlist("aliascycle")
    netlist.add_alias("p", "q")
    netlist.add_alias("q", "p")
    netlist.add_input("a")
    netlist.add_gate(CB013_LIBRARY.cell("INV"), ["p"], "y")
    with pytest.raises(ValueError, match="alias cycle"):
        GateLevelSimulator(netlist)


def test_zero_transition_zero_energy():
    adder = Adder("a", 8)
    netlist = MAPPER.map_component(adder)
    calc = GatePowerCalculator(netlist)
    sim = GateLevelSimulator(netlist)
    widths = {"a": 8, "b": 8, "y": 8}
    energies = calc.run_vector_sequence(
        [{"a": 12, "b": 7}, {"a": 12, "b": 7}, {"a": 12, "b": 7}], widths, sim
    )
    assert energies.n_lanes == 2
    assert energies.total_fj.tolist() == [0.0, 0.0]


def test_more_toggles_more_energy():
    adder = Adder("a", 8)
    netlist = MAPPER.map_component(adder)
    calc = GatePowerCalculator(netlist)
    widths = {"a": 8, "b": 8, "y": 8}
    quiet = calc.run_vector_sequence([{"a": 0, "b": 0}, {"a": 1, "b": 0}], widths)
    busy = calc.run_vector_sequence([{"a": 0, "b": 0}, {"a": 0xFF, "b": 0xFF}], widths)
    assert busy.total_fj[0] > quiet.total_fj[0] > 0.0
    assert busy.n_toggled_nets[0] > quiet.n_toggled_nets[0]


def test_multiplier_consumes_more_than_adder():
    widths = {"a": 8, "b": 8, "y": 16}
    vectors = [{"a": 0, "b": 0}, {"a": 0xAA, "b": 0x55}, {"a": 0x55, "b": 0xAA}]
    add_netlist = MAPPER.map_component(Adder("a", 8))
    mul_netlist = MAPPER.map_component(Multiplier("m", 8))
    add_energy = GatePowerCalculator(add_netlist).run_vector_sequence(
        vectors, {"a": 8, "b": 8, "y": 8}).total_fj.sum()
    mul_energy = GatePowerCalculator(mul_netlist).run_vector_sequence(
        vectors, widths).total_fj.sum()
    assert mul_energy > 3 * add_energy


def test_vector_pair_energy_and_leakage():
    adder = Adder("a", 8)
    netlist = MAPPER.map_component(adder)
    calc = GatePowerCalculator(netlist)
    sim = GateLevelSimulator(netlist)
    widths = {"a": 8, "b": 8, "y": 8}
    energy = calc.vector_pair_energy(
        sim, {"a": np.array([0]), "b": np.array([0])},
        {"a": np.array([255]), "b": np.array([255])}, widths)
    assert energy.n_lanes == 1
    assert energy.total_fj[0] > 0
    assert energy.switching_fj[0] > 0
    assert energy.internal_fj[0] > 0
    assert calc.leakage_power_nw() > 0
    assert calc.area_um2() == netlist.total_area_um2()


def test_energy_breakdown_consistency():
    netlist = MAPPER.map_component(Adder("a", 4))
    calc = GatePowerCalculator(netlist)
    widths = {"a": 4, "b": 4, "y": 4}
    e = calc.run_vector_sequence([{"a": 0, "b": 0}, {"a": 0xF, "b": 0xF}], widths)
    assert e.total_fj[0] == e.switching_fj[0] + e.internal_fj[0]


def test_bit_net_naming_and_snapshot():
    assert bit_net("data", 3) == "data[3]"
    netlist = MAPPER.map_component(Adder("a", 4))
    sim = GateLevelSimulator(netlist)
    sim.evaluate_ports_batch({"a": np.array([5]), "b": np.array([3])},
                             {"a": 4, "b": 4, "y": 4})
    snap = sim.snapshot_batch()
    slots = sim.program.slots
    assert snap[slots["a[0]"], 0] == 1 and snap[slots["a[1]"], 0] == 0
    # snapshot is an independent copy
    snap[slots["a[0]"], 0] = 0
    assert sim.snapshot_batch()[slots["a[0]"], 0] == 1


def _reference_energies(calc, previous, current):
    """The per-net definition, one transition at a time: every toggled
    physical net adds its switching energy and its driving cell's internal
    energy, nets taken in the netlist's order."""
    switching = internal = 0.0
    drivers = {gate.output: gate.cell for gate in calc.netlist.gates}
    for net in calc.netlist.all_nets():
        if net in calc.netlist.aliases or net in calc.netlist.constants:
            continue
        if previous[net] == current[net]:
            continue
        switching += calc.library.switching_energy_fj(calc.loads_ff.get(net, 0.0))
        if net in drivers:
            internal += drivers[net].intrinsic_energy_fj
    return switching, internal


def test_transition_energy_batch_equals_per_net_sum():
    """Every lane's energy equals the per-net sum bit for bit, in any block."""
    netlist = GateNetlist("small")
    for net in ("a", "b", "c"):
        netlist.add_input(net)
    nand = netlist.add_gate(CB013_LIBRARY.cell("NAND2"), ["a", "b"])
    netlist.add_alias("n_alias", nand)
    xor = netlist.add_gate(CB013_LIBRARY.cell("XOR2"), ["n_alias", "c"])
    netlist.add_output(netlist.add_gate(CB013_LIBRARY.cell("INV"), [xor], "y"))
    netlist.add_output(netlist.add_gate(CB013_LIBRARY.cell("AND2"), [xor, "a"], "z"))
    calc = GatePowerCalculator(netlist)
    sim = GateLevelSimulator(netlist)
    rng = np.random.default_rng(4)
    bits = {net: rng.integers(0, 2, size=33) for net in ("a", "b", "c")}
    v = sim.settle_batch(bits, 33).copy()
    values = [{net: int(v[slot, lane]) for net, slot in sim.program.slots.items()}
              for lane in range(33)]
    reference = [_reference_energies(calc, values[lane - 1], values[lane])
                 for lane in range(1, 33)]
    for lo, hi in ((1, 33), (1, 2), (5, 12)):
        energies = calc.transition_energy_batch(sim, v[:, lo - 1:hi - 1], v[:, lo:hi])
        assert energies.switching_fj.tolist() == [s for s, _ in reference[lo - 1:hi - 1]]
        assert energies.internal_fj.tolist() == [i for _, i in reference[lo - 1:hi - 1]]
        assert energies.total_fj.tolist() == [s + i for s, i in reference[lo - 1:hi - 1]]


def test_wide_ports_take_object_columns():
    """Ports wider than an int64 lane go in and come out as Python ints."""
    component = Adder("wide", 100)
    netlist = MAPPER.map_component(component)
    sim = GateLevelSimulator(netlist)
    widths = {p.name: p.width for p in component.ports.values()}
    a = np.array([2**99 + 5, 3, 2**100 - 1], dtype=object)
    b = np.array([2**99 + 7, 2**64, 1], dtype=object)
    y = sim.evaluate_ports_batch({"a": a, "b": b}, widths)["y"]
    assert y.dtype == object
    assert y.tolist() == [(x + z) % 2**100 for x, z in zip(a, b)]
