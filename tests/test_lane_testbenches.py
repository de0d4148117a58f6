"""Lane-native testbenches: registry testbenches run whole lane blocks.

Every registry design's testbench derives a scalar form and a lane form
from one declaration (:mod:`repro.sim.declarative`).  The contract checked
here: a lane run through the lane form reports exactly what the scalar
compiled engine reports for the same seed (``==``, not approx), whatever
the lane count and wherever the budget stops the run; both forms check the
design's outputs, and a mismatch names the lane and the cycle or job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.designs import hvpeakf, wide_checksum
from repro.designs.registry import all_designs, build_flat, get_design
from repro.power import build_seed_library
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.sim import declarative
from repro.sim.testbench import LaneLoop
from repro.stim import SpecTestbench

#: seeds per design; the job designs' seeds finish on different cycles
SEEDS = {
    "Bubble_Sort": [11, 12, 13],
    "binary_search": [3, 4, 5],
    "Vld": [8, 9, 10],
    "MPEG4": [0, 1],
    "DCT": [2, 3],
    "IDCT": [4, 5],
    "Ispq": [6, 7],
    "HVPeakF": [5, 6, 7],
    "Wide_Checksum": [9, 10],
}
LANE_FORMS = {"HVPeakF": "stream", "Wide_Checksum": "stream"}


@pytest.fixture(scope="module")
def library():
    return build_seed_library()


def _signature(report):
    return (
        report.cycles,
        report.total_energy_fj,
        report.peak_power_mw,
        {name: c.energy_fj for name, c in report.components.items()},
        list(report.cycle_energy_fj),
    )


def _scalar(name, library, testbench, max_cycles=None):
    return RTLPowerEstimator(build_flat(name), library=library).estimate(
        testbench, max_cycles=max_cycles)


def test_every_registry_design_is_covered():
    assert set(SEEDS) == set(all_designs())


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_lane_form_equals_scalar_compiled(name, library):
    entry = get_design(name)
    seeds = SEEDS[name]
    testbenches = [entry.make_testbench(s) for s in seeds]
    lanes = BatchRTLPowerEstimator(
        build_flat(name), library=library, kernel_backend="off",
    ).estimate_all(testbenches)
    assert {r.notes["stimulus_driver"] for r in lanes} == {LANE_FORMS.get(name, "jobs")}
    for seed, testbench, report in zip(seeds, testbenches, lanes):
        scalar_tb = entry.make_testbench(seed)
        assert _signature(report) == _signature(_scalar(name, library, scalar_tb))
        # the lane form keeps the per-seed testbench's captured results
        assert testbench.captured() == scalar_tb.captured()
    if name in ("Bubble_Sort", "binary_search", "Vld", "MPEG4"):
        assert len({r.cycles for r in lanes}) > 1


@pytest.mark.parametrize("name, max_cycles", [("HVPeakF", 300), ("binary_search", 90)])
def test_129_lanes_stopped_mid_run_equal_scalar(name, max_cycles, library):
    entry = get_design(name)
    seeds = list(range(100, 229))
    lanes = BatchRTLPowerEstimator(build_flat(name), library=library,
                                   kernel_backend="off").estimate_all(
        [entry.make_testbench(s) for s in seeds], max_cycles=max_cycles)
    assert len(lanes) == 129
    assert {r.cycles for r in lanes} == {max_cycles}
    for seed, report in zip(seeds, lanes):
        scalar = _scalar(name, library, entry.make_testbench(seed), max_cycles)
        assert _signature(report) == _signature(scalar)


def test_vectorized_golden_equals_scalar_reference():
    rng = np.random.default_rng(3)
    pixel_lanes = [
        [0, 255] * 40,              # drives the clamp at both ends
        [255] * 80,
        list(rng.integers(0, 256, size=80)),
    ]
    testbenches = [hvpeakf.PeakingFilterTestbench(p) for p in pixel_lanes]
    streams = {"pixel": np.array(pixel_lanes).T.copy()}
    golden = hvpeakf.PeakingFilterTestbench.golden_lanes(testbenches, streams, 80)
    for lane, pixels in enumerate(pixel_lanes):
        assert golden["pixel_out"][:, lane].tolist() == hvpeakf.reference_filter(pixels)
    # the default block form stacks each lane's scalar reference
    words = [wide_checksum.random_words(20, seed=s) for s in (1, 2)]
    checksums = [wide_checksum.WideChecksumTestbench(w) for w in words]
    stacked = wide_checksum.WideChecksumTestbench.golden_lanes(checksums, {}, 12)
    for lane, tb_words in enumerate(words):
        reference = wide_checksum.reference_checksum(tb_words)[:12]
        for port, values in stacked.items():
            assert values[:, lane].tolist() == [out[port] for out in reference]


def _corrupt_golden(monkeypatch, flips):
    """Flip bit 0 of golden values, ``{(port, item, lane), ...}``; a
    ``valid_out`` flip also checks the gate as a golden output (all ones)."""
    golden_lanes = hvpeakf.PeakingFilterTestbench.golden_lanes.__func__

    def corrupted(cls, testbenches, streams, n_items):
        golden = golden_lanes(cls, testbenches, streams, n_items)
        if any(port == "valid_out" for port, _, _ in flips):
            golden["valid_out"] = np.ones_like(golden["pixel_out"])
        for port, item, lane in flips:
            golden[port][item, lane] ^= 1
        return golden

    monkeypatch.setattr(hvpeakf.PeakingFilterTestbench, "golden_lanes",
                        classmethod(corrupted))


@pytest.mark.parametrize("backend", ["off", "native"])
@pytest.mark.parametrize("flips, message", [
    ({("pixel_out", 50, 3)}, r"^lane 3 cycle 51: pixel 50 output pixel_out"),
    # the earliest cycle wins over the port order ...
    ({("pixel_out", 40, 1), ("valid_out", 30, 2)},
     r"^lane 2 cycle 31: pixel 30 output valid_out: expected 0, got 1$"),
    # ... the port order over the lane order, on one cycle
    ({("pixel_out", 30, 4), ("valid_out", 30, 2)},
     r"^lane 4 cycle 31: pixel 30 output pixel_out"),
], ids=["one-flip", "earliest-cycle", "port-order"])
def test_stream_mismatch_names_lane_and_cycle(monkeypatch, library, backend, flips,
                                              message):
    """The per-cycle loop (``off``) and the native run, which checks the
    outputs it captured after the run, report the same first mismatch."""
    entry = get_design("HVPeakF")
    _corrupt_golden(monkeypatch, flips)
    estimator = BatchRTLPowerEstimator(build_flat("HVPeakF"), library=library,
                                       kernel_backend=backend)
    with pytest.raises(AssertionError, match=message):
        estimator.estimate_all([entry.make_testbench(s) for s in range(5)], max_cycles=64)


def test_stream_scalar_form_checks_the_same_declaration(monkeypatch, library):
    reference_filter = hvpeakf.reference_filter

    def corrupted(pixels):
        outputs = reference_filter(pixels)
        outputs[50] ^= 1
        return outputs

    monkeypatch.setattr(hvpeakf, "reference_filter", corrupted)
    with pytest.raises(AssertionError, match=r"^cycle 51: pixel 50 output pixel_out"):
        _scalar("HVPeakF", library, get_design("HVPeakF").make_testbench(0), 64)


def test_job_mismatch_names_lane_and_job(library):
    entry = get_design("Vld")
    testbenches = [entry.make_testbench(s) for s in (1, 2, 3)]
    testbenches[1].symbols[5] += 1  # the decoder still decodes the old words
    estimator = BatchRTLPowerEstimator(build_flat("Vld"), library=library,
                                       kernel_backend="off")
    with pytest.raises(AssertionError,
                       match=r"^lane 1 cycle \d+: job 0: decoded symbol stream mismatch"):
        estimator.estimate_all(testbenches)
    scalar_tb = entry.make_testbench(2)
    scalar_tb.symbols[5] += 1
    with pytest.raises(AssertionError, match="decoded symbol stream mismatch"):
        _scalar("Vld", library, scalar_tb)


def test_redefined_scalar_methods_take_the_per_lane_loop(library):
    calls = []

    class Counting(hvpeakf.PeakingFilterTestbench):
        def check(self, cycle, simulator):
            calls.append(cycle)
            super().check(cycle, simulator)

    assert Counting.lanes.__func__ is declarative.Testbench.lanes.__func__
    pixels = [get_design("HVPeakF").make_testbench(s).pixels[:20] for s in (0, 1)]
    reports = BatchRTLPowerEstimator(build_flat("HVPeakF"), library=library,
                                     kernel_backend="off").estimate_all(
        [Counting(p) for p in pixels])
    assert all(r.notes["stimulus_driver"] == LaneLoop.name for r in reports)
    assert len(calls) == 2 * 22


def test_limb_store_stream_lanes_keep_the_cycle_loop(library):
    """Wide_Checksum keeps its 168-bit state in limb rows, so its monitored
    components are generic: its stream lanes keep the per-cycle loop on a
    native kernel (no ``run_s``) and report what the ``off`` loop reports."""
    entry = get_design("Wide_Checksum")
    seeds = SEEDS["Wide_Checksum"]
    reports = {}
    for backend in ("off", "native"):
        estimator = BatchRTLPowerEstimator(build_flat("Wide_Checksum"), library=library,
                                           kernel_backend=backend)
        testbenches = [entry.make_testbench(s) for s in seeds]
        reports[backend] = estimator.estimate_all(testbenches)
        assert "run_s" not in estimator.last_phase_s
        assert [tb.captured()["words_checked"] for tb in testbenches] == [192, 192]
    assert ([_signature(r) for r in reports["native"]]
            == [_signature(r) for r in reports["off"]])


def test_wide_checksum_design_spec_runs_on_the_array_driver(library):
    """Limb-store designs take the array driver too, bit for bit."""
    spec = get_design("Wide_Checksum").make_stimulus_spec().replace(n_cycles=24)
    estimator = BatchRTLPowerEstimator(build_flat("Wide_Checksum"), library=library,
                                       kernel_backend="off")
    seeds = range(5)
    array = estimator.estimate_all([SpecTestbench(spec, seed=s) for s in seeds])
    loop = estimator.estimate_all([SpecTestbench(spec, seed=s) for s in seeds],
                                  use_array_driver=False)
    assert all(r.notes["stimulus_driver"] == "array" for r in array)
    assert [_signature(r) for r in array] == [_signature(r) for r in loop]
