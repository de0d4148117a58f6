"""Tests for the FPGA device models, synthesis estimator, emulation platform and flow."""

from __future__ import annotations

import pytest

from repro.core import (
    EmulationPlatform,
    FPGADevice,
    InstrumentationConfig,
    PowerEmulationFlow,
    ResourceEstimate,
    SynthesisEstimator,
    VIRTEX2_DEVICES,
    instrument,
    smallest_fitting_device,
    sweep_coefficient_bits,
)
from repro.core.emulator import CapacityError, HostInterface
from repro.netlist import NetlistBuilder, flatten
from repro.power import NEC_RTPOWER, POWERTHEATER, RTLPowerEstimator, build_seed_library
from repro.sim import RandomTestbench


def build_design(width=8, name="dut"):
    b = NetlistBuilder(name)
    a = b.input("a", width)
    x = b.input("x", width)
    product = b.mul(a, x, width_y=2 * width, name="mult")
    acc = b.accumulator("acc", 2 * width + 8)
    b.drive("acc", d=b.zext(product, 2 * width + 8), en=b.const(1, 1), clear=b.const(0, 1))
    b.output("acc", acc)
    mem_rdata = b.memory("buffer", width, 256, we=b.const(0, 1), addr=b.slice(a, 7, 0),
                         wdata=x, sync_read=True)
    b.output("probe", mem_rdata)
    return b.build()


@pytest.fixture(scope="module")
def library():
    return build_seed_library()


# ------------------------------------------------------------------ synthesis
def test_resource_estimate_arithmetic():
    a = ResourceEstimate(luts=10, ffs=5, logic_depth=3)
    b = ResourceEstimate(luts=2, ffs=1, bram_kbits=18, logic_depth=5)
    total = a + b
    assert total.luts == 12 and total.ffs == 6 and total.bram_kbits == 18
    assert total.logic_depth == 5
    assert a.scaled(2.0).luts == 20
    overhead = total.overhead_relative_to(a)
    assert overhead["luts"] == pytest.approx(0.2)
    assert overhead["bram_kbits"] == float("inf")


def test_synthesis_estimator_module_totals(library):
    estimator = SynthesisEstimator()
    flat = flatten(build_design())
    result = estimator.estimate_module(flat)
    assert result.resources.luts > 0
    assert result.resources.ffs > 0
    assert result.resources.bram_kbits > 0      # the 256x8 buffer maps to BRAM
    assert result.resources.multipliers >= 1    # 8x8 multiplier uses a MULT18
    assert 0 < result.achievable_clock_mhz < 700
    assert result.per_component["mult"].multipliers == 1
    assert "LUTs" in result.summary()


def test_synthesis_wider_design_uses_more_resources():
    estimator = SynthesisEstimator()
    small = estimator.estimate_module(flatten(build_design(width=8, name="small")))
    large = estimator.estimate_module(flatten(build_design(width=16, name="large")))
    assert large.resources.luts > small.resources.luts
    assert large.resources.ffs > small.resources.ffs


def test_synthesis_rejects_hierarchical():
    from repro.netlist.module import Module

    child = build_design()
    parent = Module("p")
    a = parent.add_input("a", 8)
    x = parent.add_input("x", 8)
    acc = parent.add_net("acc", 24)
    probe = parent.add_net("probe", 8)
    parent.add_instance("u", child, {"a": a, "x": x, "acc": acc, "probe": probe})
    with pytest.raises(ValueError, match="hierarchical"):
        SynthesisEstimator().estimate_module(parent)


def test_instrumentation_overhead_is_visible(library):
    estimator = SynthesisEstimator()
    module = build_design()
    base = estimator.estimate_module(flatten(module))
    enhanced = estimator.estimate_module(instrument(module, library).module)
    assert enhanced.resources.luts > base.resources.luts
    assert enhanced.resources.ffs > base.resources.ffs


# ----------------------------------------------------------------------- FPGA
def test_device_fit_and_utilization():
    device = VIRTEX2_DEVICES["XC2V1000"]
    small = ResourceEstimate(luts=1000, ffs=800, bram_kbits=72, multipliers=2)
    too_big = ResourceEstimate(luts=500_000, ffs=10, bram_kbits=0, multipliers=0)
    assert device.fits(small)
    assert not device.fits(too_big)
    util = device.utilization(small)
    assert 0 < util["luts"] < 1
    assert smallest_fitting_device(small).name == "XC2V250" or smallest_fitting_device(small).fits(small)
    assert smallest_fitting_device(too_big) is None


def test_device_family_is_ordered():
    sizes = [d.luts for d in sorted(VIRTEX2_DEVICES.values(), key=lambda d: d.luts)]
    assert sizes == sorted(sizes)
    assert len(VIRTEX2_DEVICES) >= 6


# ------------------------------------------------------------------- platform
def test_emulation_platform_run(library):
    module = build_design()
    design = instrument(module, library, InstrumentationConfig(coefficient_bits=16))
    platform = EmulationPlatform()
    result = platform.run(design, RandomTestbench(200, seed=5), workload_cycles=1_000_000)
    assert result.device.fits(result.synthesis.resources)
    assert result.executed_cycles == 200
    assert result.workload_cycles == 1_000_000
    assert result.emulation_clock_mhz <= result.device.max_clock_mhz
    assert result.power_report.average_power_mw > 0
    assert result.power_report.estimator == "power-emulation"
    breakdown = result.time_breakdown
    assert breakdown.total_s == pytest.approx(
        breakdown.download_s + breakdown.execute_s + breakdown.stimulus_s + breakdown.readback_s
    )
    assert breakdown.execute_s == pytest.approx(
        1_000_000 / (result.emulation_clock_mhz * 1e6)
    )
    assert 0 < result.utilization["luts"] <= 1


def test_host_simulation_time_excludes_simulator_construction(library, monkeypatch):
    """``host_simulation_s`` times the simulation only: a slow simulator
    construction (compiling the instrumented module) does not count."""
    import time

    from repro.core import emulator

    class SlowToBuild(emulator.Simulator):
        def __init__(self, *args, **kwargs):
            time.sleep(0.25)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(emulator, "Simulator", SlowToBuild)
    design = instrument(build_design(), library)
    result = EmulationPlatform().run(design, RandomTestbench(20, seed=2))
    assert result.executed_cycles == 20
    assert 0 < result.host_simulation_s < 0.25
    assert (result.power_report.notes["host_functional_simulation_s"]
            == result.host_simulation_s)


def test_emulation_platform_capacity_error(library):
    tiny = FPGADevice("tiny", luts=10, ffs=10, bram_kbits=0, multipliers_18x18=0,
                      max_clock_mhz=50.0, bitstream_mbits=0.1)
    design = instrument(build_design(), library)
    with pytest.raises(CapacityError):
        EmulationPlatform(device=tiny).run(design, RandomTestbench(10, seed=0))


def test_host_stimulus_streaming_cost(library):
    design = instrument(build_design(), library)
    platform = EmulationPlatform(host=HostInterface(stimulus_cycles_per_s=100_000.0))
    streamed = platform.run(design, RandomTestbench(50, seed=1), workload_cycles=500_000,
                            testbench_on_fpga=False)
    onboard = platform.run(design, RandomTestbench(50, seed=1), workload_cycles=500_000,
                           testbench_on_fpga=True)
    assert streamed.time_breakdown.stimulus_s > 0
    assert onboard.time_breakdown.stimulus_s == 0
    assert streamed.time_breakdown.total_s > onboard.time_breakdown.total_s


# ----------------------------------------------------------------------- flow
def test_power_emulation_flow_end_to_end(library):
    flow = PowerEmulationFlow(library=library)
    module = build_design()
    report = flow.run(module, RandomTestbench(150, seed=7), workload_cycles=2_000_000)
    assert report.design == module.name
    assert report.instrumented.n_power_models > 0
    assert report.instrumentation_overhead["luts"] > 0
    assert report.emulation_time_s > 0
    # power emulation beats both software tools on a multi-million-cycle workload
    assert report.speedup_over(POWERTHEATER) > 1
    assert report.speedup_over(NEC_RTPOWER) > 1
    assert "power-emulation flow report" in report.summary()
    # flow's emulated power agrees with the software estimator
    reference = RTLPowerEstimator(flatten(module), library=library).estimate(
        RandomTestbench(150, seed=7)
    )
    assert report.power_report.average_power_mw == pytest.approx(
        reference.average_power_mw, rel=0.02
    )


def test_sweep_coefficient_bits_monotone_trend(library):
    module = build_design()
    results = sweep_coefficient_bits(
        module,
        lambda: RandomTestbench(80, seed=13),
        bits_values=(4, 8, 16),
        library=library,
    )
    errors = {bits: abs(acc.relative_error) for bits, acc in results}
    assert errors[16] <= errors[4]
    assert errors[16] < 0.01
    for _, accuracy in results:
        assert "vs" in accuracy.summary()
