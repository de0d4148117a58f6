"""Tests for the software RTL estimator, the gate-level baseline and reports."""

from __future__ import annotations

import dataclasses

import pytest

from repro.netlist import NetlistBuilder, flatten
from repro.power import (
    CB130M_TECHNOLOGY,
    GateLevelPowerEstimator,
    NEC_RTPOWER,
    POWERTHEATER,
    RTLPowerEstimator,
    build_seed_library,
    calibrate_tool,
)
from repro.designs.registry import build_flat, get_design
from repro.sim import RandomTestbench, VectorTestbench


def build_small_datapath():
    """8-bit multiply-accumulate with an output register."""
    b = NetlistBuilder("small_datapath")
    a = b.input("a", 8)
    x = b.input("x", 8)
    en = b.input("en", 1)
    product = b.mul(a, x, name="mult")
    acc = b.accumulator("acc", 20)
    b.drive("acc", d=b.zext(product, 20), en=en, clear=b.const(0, 1))
    out = b.pipe(acc, name="out_reg")
    b.output("result", out)
    return flatten(b.build())


@pytest.fixture(scope="module")
def datapath():
    return build_small_datapath()


@pytest.fixture(scope="module")
def rtl_report(datapath):
    estimator = RTLPowerEstimator(datapath)
    return estimator.estimate(RandomTestbench(200, seed=11))


def test_rtl_estimator_produces_consistent_report(rtl_report):
    assert rtl_report.cycles == 200
    assert rtl_report.total_energy_fj > 0
    assert rtl_report.average_power_mw > 0
    assert rtl_report.peak_power_mw >= rtl_report.average_power_mw
    # per-component energies add up to the total
    assert sum(c.energy_fj for c in rtl_report.components.values()) == pytest.approx(
        rtl_report.total_energy_fj
    )
    # per-cycle trace adds up to the total too
    assert sum(rtl_report.cycle_energy_fj) == pytest.approx(rtl_report.total_energy_fj)
    assert rtl_report.estimation_time_s > 0


def test_rtl_estimator_component_breakdown(rtl_report):
    assert "mult" in rtl_report.components
    by_type = rtl_report.energy_by_type()
    assert by_type.get("multiplier", 0) > 0
    top = rtl_report.top_consumers(3)
    assert len(top) == 3
    assert top[0].energy_fj >= top[1].energy_fj
    assert 0.0 <= rtl_report.component_share("mult") <= 1.0
    assert "small_datapath" in rtl_report.table()


def test_rtl_estimator_activity_sensitivity(datapath):
    """A busy stimulus consumes more power than an idle one."""
    estimator = RTLPowerEstimator(datapath)
    idle = estimator.estimate(VectorTestbench([{"a": 0, "x": 0, "en": 0}] * 100))
    busy = estimator.estimate(RandomTestbench(100, seed=3))
    assert busy.average_power_mw > idle.average_power_mw
    # idle power is not zero: register clock power remains
    assert idle.average_power_mw > 0


def test_rtl_estimator_deterministic(datapath):
    e1 = RTLPowerEstimator(datapath).estimate(RandomTestbench(50, seed=5))
    e2 = RTLPowerEstimator(datapath).estimate(RandomTestbench(50, seed=5))
    assert e1.total_energy_fj == pytest.approx(e2.total_energy_fj)


def test_rtl_estimator_rejects_hierarchical_module():
    from repro.netlist.module import Module

    child = build_small_datapath()
    parent = Module("p")
    a = parent.add_input("a", 8)
    x = parent.add_input("x", 8)
    en = parent.add_input("en", 1)
    r = parent.add_net("r", 20)
    parent.add_instance("u", child, {"a": a, "x": x, "en": en, "result": r})
    with pytest.raises(ValueError, match="hierarchical"):
        RTLPowerEstimator(parent)


def test_model_for_lookup(datapath):
    estimator = RTLPowerEstimator(datapath)
    assert estimator.model_for("mult").component_type == "multiplier"
    with pytest.raises(KeyError):
        estimator.model_for("nonexistent")


def test_gate_level_estimator_agrees_in_trend(datapath):
    """The gate-level baseline tracks the same activity trends, slower."""
    library = build_seed_library()
    rtl = RTLPowerEstimator(datapath, library=library)
    gate = GateLevelPowerEstimator(datapath, library=library)
    tb_idle = VectorTestbench([{"a": 0, "x": 0, "en": 0}] * 40)
    tb_busy = RandomTestbench(40, seed=9)
    gate_idle = gate.estimate(tb_idle)
    gate_busy = gate.estimate(tb_busy)
    assert gate_busy.average_power_mw > gate_idle.average_power_mw
    assert gate_busy.notes["n_gate_mapped"] >= 2
    # and it really is slower per cycle than the RTL estimator
    rtl_busy = rtl.estimate(RandomTestbench(40, seed=9))
    assert gate_busy.estimation_time_s > rtl_busy.estimation_time_s


@pytest.mark.parametrize("design", ["datapath", "Wide_Checksum"])
def test_gate_level_results_do_not_depend_on_block_length(monkeypatch, datapath, design):
    """Settling a block of cycles as lanes changes no report, profile or
    cycle trace, whatever the block length: 1 cycle, 7 cycles, the whole run
    (Wide_Checksum's 168-bit ports travel as object columns)."""
    from repro.power import block as power_block
    from repro.power.profile import ProfileConfig

    if design == "datapath":
        module, testbench, max_cycles = datapath, lambda: RandomTestbench(60, seed=3), None
    else:
        module, testbench, max_cycles = build_flat(design), get_design(design).testbench, 40
    estimator = GateLevelPowerEstimator(module, library=build_seed_library())
    assert estimator.gate_mapped
    n_slots = max(sim.program.n_slots for _, sim, *_ in estimator.gate_mapped.values())
    runs = []
    for cycles in (1, 7, 1 << 30):
        monkeypatch.setattr(power_block, "BLOCK_ELEMENTS", cycles * n_slots)
        report = estimator.estimate(testbench(), max_cycles=max_cycles,
                                    profile=ProfileConfig(window_cycles=5))
        runs.append((dataclasses.replace(report, estimation_time_s=0.0),
                     estimator.last_profile))
    (report, profile), *others = runs
    assert report.total_energy_fj > 0 and len(report.cycle_energy_fj) == report.cycles
    for other_report, other_profile in others:
        assert other_report == report
        assert other_report.cycle_energy_fj == report.cycle_energy_fj
        assert other_profile == profile


def test_report_relative_error(rtl_report, datapath):
    other = RTLPowerEstimator(datapath).estimate(RandomTestbench(200, seed=11))
    assert rtl_report.relative_error_to(other) == pytest.approx(0.0, abs=1e-9)


def test_commercial_tool_models():
    t = POWERTHEATER.estimate_runtime_s(n_cycles=100_000, monitored_bits=2_000)
    assert t > POWERTHEATER.setup_time_s
    # more signals -> more time
    assert POWERTHEATER.estimate_runtime_s(100_000, 4_000) > t
    assert NEC_RTPOWER.throughput_cycles_per_s(2_000) > 0
    with pytest.raises(ValueError):
        POWERTHEATER.estimate_runtime_s(-1, 10)


def test_commercial_tool_calibration():
    calibrated = calibrate_tool(POWERTHEATER, n_cycles=1_000_000, monitored_bits=4_000,
                                target_runtime_s=2580.0)
    assert calibrated.estimate_runtime_s(1_000_000, 4_000) == pytest.approx(2580.0)
    with pytest.raises(ValueError):
        calibrate_tool(POWERTHEATER, 10, 10, target_runtime_s=1.0)
    with pytest.raises(ValueError):
        calibrate_tool(POWERTHEATER, 0, 10, target_runtime_s=100.0)


def test_technology_conversions():
    tech = CB130M_TECHNOLOGY
    assert tech.clock_period_ns == pytest.approx(5.0)
    power = tech.energy_to_power_mw(1000.0)
    assert tech.power_to_energy_fj(power) == pytest.approx(1000.0)
    faster = tech.scaled(400.0)
    assert faster.clock_mhz == 400.0
    assert faster.energy_to_power_mw(1000.0) == pytest.approx(2 * power)
