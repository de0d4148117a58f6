"""Seeded stream blocks: HVPeakF lanes lowered straight from their seeds.

The contract checked here:

* the seeded draw (:func:`repro.sim.kernels.draw_words`), in the lane
  kernel's C ``mt_draw`` and in its one-``random.Random`` fallback, gives
  ``random.Random(seed).getrandbits(32 * n)``'s words bit for bit, across
  the twist boundary, for multi-word and negative seeds and for blocks
  mixing key lengths;
* a :class:`~repro.sim.declarative.SeededStreams` block's reports (cycle
  traces included), per-lane check counts, ``captured()`` values and
  mismatch text are ``==`` to the same lanes run as per-lane testbenches,
  on ``off``, ``native`` and an ``auto`` handover mid-run, whatever the
  budget;
* ``estimate_many`` passes a seeded block for plain registry specs (one
  registry lookup, no per-lane testbench) and keeps the per-lane path for
  spec stimuli and explicit testbench factories;
* a routed one-lane ``estimate`` looks the module's set-up up once.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.api import RTLEstimatorAdapter, RunSpec
from repro.designs import hvpeakf, registry, stimuli
from repro.designs.registry import build_flat, get_design
from repro.power import ProfileConfig
from repro.power import rtl_estimator
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.sim import batch, scheduler
from repro.sim.batch import compile_module_batch
from repro.sim.declarative import SeededStreams
from repro.sim.kernels import draw_bits, draw_words, find_compiler

needs_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler on this host")

#: seeds of one, two and three key words, the largest one-word seed, a
#: negative seed (its absolute value keys the generator) and zero
SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, -7]
#: draw lengths around MT19937's 624-word twist
LENGTHS = [1, 255, 600, 624, 625, 1300]


def _reference(seeds, n):
    """``(n, lanes)``: each lane's ``getrandbits(32 * n)`` split into its
    little-endian 32-bit words."""
    return np.array([
        [(random.Random(seed).getrandbits(32 * n) >> (32 * k)) & 0xFFFFFFFF
         for k in range(n)]
        for seed in seeds
    ], dtype=np.uint32).reshape(len(seeds), n).T


@pytest.fixture(scope="module")
def kernel():
    """HVPeakF's one-lane native kernel: every kernel carries ``mt_draw``."""
    if find_compiler() is None:
        pytest.skip("no C compiler on this host")
    program = compile_module_batch(build_flat("HVPeakF"), 1)
    return batch._kernel_build(program, background=False).result()


# ------------------------------------------------------------------ the draw
@pytest.mark.parametrize("n", LENGTHS)
def test_fallback_draw_equals_getrandbits(n):
    assert (draw_words(SEEDS, n) == _reference(SEEDS, n)).all()


@needs_cc
@pytest.mark.parametrize("n", LENGTHS)
def test_kernel_draw_equals_getrandbits(kernel, n):
    words = kernel.draw_words(SEEDS, n)  # the C draw itself, no fallback
    assert words is not None and words.dtype == np.uint32
    assert (words == _reference(SEEDS, n)).all()
    assert (draw_words(SEEDS, n, kernel) == words).all()


@needs_cc
def test_kernel_draw_per_lane_equals_block(kernel):
    """Every seed drawn alone equals its lane of the mixed block: lanes of
    one, two and three key words share lane blocks of the C draw."""
    block = kernel.draw_words(SEEDS * 5, 625)  # 35 lanes: two C lane blocks
    for lane, seed in enumerate(SEEDS * 5):
        assert (kernel.draw_words([seed], 625)[:, 0] == block[:, lane]).all()


@needs_cc
def test_draw_mixes_key_lengths_and_long_keys(kernel):
    """Blocks mixing key lengths up to the 624-word limit draw in C; a key
    past it sends the block to the fallback, with the same words."""
    longest = 2**(32 * 624) - 1  # 624 key words: still the C draw
    seeds = [3, 2**40 + 3, longest, -(2**95), 2**(32 * 300) + 11]
    words = kernel.draw_words(seeds, 700)
    assert words is not None and (words == _reference(seeds, 700)).all()
    too_long = seeds + [2**(32 * 624)]
    assert kernel.draw_words(too_long, 8) is None
    assert (draw_words(too_long, 8, kernel) == _reference(too_long, 8)).all()


@needs_cc
def test_draw_of_nothing(kernel):
    for kernel_or_none in (kernel, None):
        assert draw_words(SEEDS, 0, kernel_or_none).shape == (0, len(SEEDS))


def test_draw_bits_takes_the_top_bits():
    for width in (1, 8, 31, 32):
        bits = draw_bits([4, 9], 50, width)
        assert bits.dtype == np.int64
        for lane, seed in enumerate([4, 9]):
            rng = random.Random(seed)
            assert bits[:, lane].tolist() == [rng.getrandbits(width) for _ in range(50)]
    with pytest.raises(ValueError):
        draw_bits([4], 3, 33)


def test_default_seed_and_one_lane_case():
    """``None`` is the design's default seed; a lane's testbench is the
    scalar testbench of its seed, whose pixels are the pre-block stream."""
    entry = get_design("HVPeakF")
    block = entry.make_seeded_block([None, 12, -3])
    assert block.seeds == [hvpeakf.DEFAULT_SEED, 12, -3]
    for lane, seed in enumerate(block.seeds):
        pixels = block[lane].pixels
        assert pixels.tolist() == stimuli.random_pixels(600, seed=seed).tolist()
        assert pixels.tolist() == entry.make_testbench(seed).pixels.tolist()
    assert block[0].pixels.tolist() == entry.make_testbench().pixels.tolist()
    assert block.max_cycles == entry.make_testbench(12).max_cycles == 604


# --------------------------------------------------------- block vs per-lane
def _lanes(n_lanes):
    """Seeds of one lane block: one-word, negative and two-word seeds."""
    return [-7919 * lane if lane % 3 == 1 else 7919 * lane + (lane % 5 == 2) * 2**40
            for lane in range(n_lanes)]


def _run(make, backend, max_cycles, keep=True, profile=None):
    """Reports (wall time zeroed), check counts, ``captured()`` values and
    the estimator of one run of the lanes ``make()`` returns."""
    estimator = BatchRTLPowerEstimator(build_flat("HVPeakF"), kernel_backend=backend)
    lanes = make()
    reports = estimator.estimate_all(lanes, max_cycles=max_cycles,
                                     keep_cycle_trace=keep, profile=profile)
    reports = [dataclasses.replace(r, estimation_time_s=0.0) for r in reports]
    if isinstance(lanes, SeededStreams):
        checks = lanes.checked.tolist()
        assert [lanes[lane]._checked for lane in range(len(lanes))] == checks
    else:
        checks = [tb._checked for tb in lanes]
    captured = [lanes[lane].captured() for lane in range(len(lanes))]
    return (reports, estimator.last_profiles, checks, captured), estimator


@needs_cc
@pytest.mark.parametrize("n_lanes", [1, 7, 256])
@pytest.mark.parametrize("max_cycles", [0, 1, 256, None])
def test_seeded_block_equals_per_lane_testbenches(n_lanes, max_cycles):
    seeds = _lanes(n_lanes)
    entry = get_design("HVPeakF")
    per_lane = lambda: [entry.make_testbench(seed) for seed in seeds]  # noqa: E731
    seeded = lambda: entry.make_seeded_block(seeds)  # noqa: E731
    want, _ = _run(per_lane, "off", max_cycles)
    assert {r.cycles for r in want[0]} == {602 if max_cycles is None else max_cycles}
    for backend in ("off", "native"):
        got, estimator = _run(seeded, backend, max_cycles)
        assert got == want, (backend, n_lanes, max_cycles)
        assert ("run_s" in estimator.last_phase_s) == (backend == "native")
        assert (estimator.last_kernel_backend == "native") == (backend == "native")
        assert _run(per_lane, backend, max_cycles)[0] == want
    expected_checks = {None: 600, 0: 0, 1: 0, 256: 255}[max_cycles]
    assert want[2] == [expected_checks] * n_lanes
    assert want[3] == [{"pixels_checked": expected_checks}] * n_lanes


@needs_cc
def test_seeded_block_keeps_profiles_and_trace_flags():
    seeds = _lanes(5)
    entry = get_design("HVPeakF")
    keep = [True, False, True, False, True]
    profiles = [ProfileConfig(window_cycles=7, max_windows=4), None,
                ProfileConfig(window_cycles=50)] + [None] * 2
    want, _ = _run(lambda: [entry.make_testbench(seed) for seed in seeds], "off", 300,
                   keep, profiles)
    for backend in ("off", "native"):
        got, _ = _run(lambda: entry.make_seeded_block(seeds), backend, 300, keep, profiles)
        assert got == want


@needs_cc
def test_seeded_block_hands_over_mid_run(monkeypatch):
    """``auto`` lowers the block with the fallback draw while the kernel
    compiles, then continues fused: results equal a pure ``off`` run
    whatever cycle the kernel arrives at, also on cycle 0 (the C draw)."""
    seeds = _lanes(7)
    entry = get_design("HVPeakF")
    want, _ = _run(lambda: [entry.make_testbench(seed) for seed in seeds], "off", 40)
    _run(lambda: entry.make_seeded_block(seeds), "native", 40)  # builds the kernel
    for swap in (0, 1, 17, 39, 40):
        def finished(simulator, swap=swap):
            future = simulator._compile
            future.result()
            return future if simulator.cycle >= swap else None

        monkeypatch.setattr(batch, "_finished_compile", finished)
        got, estimator = _run(lambda: entry.make_seeded_block(seeds), "auto", 40)
        assert got == want, swap
        decision = estimator.last_kernel_decision
        assert decision == ("auto -> native (kernel ready)" if swap == 0
                            else "auto -> off (native kernel compiling)" if swap == 40
                            else f"auto -> native from cycle {swap}"), decision


@needs_cc
@pytest.mark.parametrize("n_lanes", [1, 7, 256])
def test_corrupted_golden_raises_the_same_text(monkeypatch, n_lanes):
    golden_lanes = hvpeakf.PeakingFilterTestbench.golden_lanes.__func__
    lane = n_lanes // 2

    def corrupted(cls, testbenches, streams, n_items):
        golden = golden_lanes(cls, testbenches, streams, n_items)
        golden["pixel_out"][100, lane] ^= 1
        return golden

    monkeypatch.setattr(hvpeakf.PeakingFilterTestbench, "golden_lanes",
                        classmethod(corrupted))
    seeds = _lanes(n_lanes)
    entry = get_design("HVPeakF")
    texts = set()
    for backend in ("off", "native"):
        for make in (lambda: [entry.make_testbench(seed) for seed in seeds],
                     lambda: entry.make_seeded_block(seeds)):
            with pytest.raises(AssertionError) as error:
                _run(make, backend, None)
            texts.add(str(error.value))
    assert len(texts) == 1
    assert texts.pop().startswith(f"lane {lane} cycle 101: pixel 100 output pixel_out: ")


def test_per_lane_loop_builds_the_lanes_testbenches():
    """``use_array_driver=False`` runs a seeded block's lanes through their
    own testbenches, which keep their check counts."""
    entry = get_design("HVPeakF")
    block = entry.make_seeded_block([1, 2, 3])
    estimator = BatchRTLPowerEstimator(build_flat("HVPeakF"), kernel_backend="off")
    reports = estimator.estimate_all(block, max_cycles=30, use_array_driver=False)
    testbenches = [entry.make_testbench(seed) for seed in (1, 2, 3)]
    want = estimator.estimate_all(testbenches, max_cycles=30)
    assert [dataclasses.replace(r, estimation_time_s=0.0, notes={}) for r in reports] == \
        [dataclasses.replace(r, estimation_time_s=0.0, notes={}) for r in want]
    assert [block[lane]._checked for lane in range(3)] == [29, 29, 29]


# -------------------------------------------------------------- the adapter
def _spy(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_estimate_many_passes_a_seeded_block(monkeypatch):
    specs = [RunSpec(design="HVPeakF", seed=seed, max_cycles=64, kernel_backend="off",
                     keep_cycle_trace=True) for seed in (None, 3, -4, 2**40)]
    want = [BatchRTLPowerEstimator(build_flat("HVPeakF"), kernel_backend="off")
            .estimate_all([get_design("HVPeakF").make_testbench(spec.seed)], max_cycles=64)[0]
            for spec in specs]
    lookups = _spy(monkeypatch, registry, "get")
    builds = _spy(monkeypatch, registry.BenchmarkDesign, "make_testbench")
    blocks = _spy(monkeypatch, hvpeakf, "lanes")
    results = RTLEstimatorAdapter().estimate_many(specs)
    assert len(lookups) == 1 and len(blocks) == 1 and not builds
    assert blocks[0][0] == [None, 3, -4, 2**40]
    for result, report in zip(results, want):
        assert result.report.total_energy_fj == report.total_energy_fj
        assert result.report.components == report.components
        assert result.report.cycle_energy_fj == report.cycle_energy_fj


def test_estimate_many_keeps_per_lane_testbenches_where_asked(monkeypatch):
    """A spec stimulus or an explicit testbench factory builds one
    testbench per spec; so does a design with no seeded block."""
    stimulus = get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=16)
    blocks = _spy(monkeypatch, hvpeakf, "lanes")
    results = RTLEstimatorAdapter().estimate_many(
        [RunSpec(design="HVPeakF", seed=s, stimulus=stimulus, kernel_backend="off")
         for s in (1, 2)])
    assert {r.report.notes["stimulus_driver"] for r in results} == {"array"}
    factory_calls = []

    def factory(seed):
        factory_calls.append(seed)
        return hvpeakf.testbench(n_pixels=40, seed=seed)

    adapter = RTLEstimatorAdapter(module=hvpeakf.build(), testbench_factory=factory)
    results = adapter.estimate_many([RunSpec(design="HVPeakF", seed=s, kernel_backend="off")
                                     for s in (1, 2)])
    assert factory_calls == [1, 2] and {r.report.cycles for r in results} == {42}
    assert get_design("Vld").make_seeded_block([1]) is None
    assert not blocks


# ---------------------------------------------------------- routed set-up
@needs_cc
def test_routed_estimate_looks_its_set_up_up_once(monkeypatch):
    spec = RunSpec(design="DCT", seed=3, max_cycles=64, kernel_backend="auto")
    flat = build_flat("DCT")
    batch._kernel_build(compile_module_batch(flat, 1), background=False).result()
    want = RTLEstimatorAdapter().estimate(spec)
    assert want.backend == "batch[1]"
    keys = _spy(monkeypatch, batch, "module_mutation_key")
    schedule_keys = _spy(monkeypatch, scheduler, "module_mutation_key")
    monitored = _spy(monkeypatch, rtl_estimator, "monitored_components")
    routed = RTLEstimatorAdapter().estimate(spec)
    assert routed.backend == "batch[1]"
    assert routed.metadata["kernel_decision"] == "auto -> native (kernel ready)"
    assert len(keys) + len(schedule_keys) == 1 and len(monitored) == 1
    assert routed.report.components == want.report.components
    assert routed.report.cycle_energy_fj == want.report.cycle_energy_fj
