"""Job testbenches run to completion in the lane kernel.

A native lane block of a :class:`~repro.sim.declarative.JobsTestbench`
hands the ``start``/``done`` handshake, the job inputs and the memory
preloads to the kernel's ``run`` entry point and verifies each segment's
done records afterwards; the ``off`` per-cycle loop runs the same
handshake in NumPy over the same job state.  The contract checked here:
reports (cycle traces included), profiles, check counts, ``captured()``
values and mismatch text are ``==`` between the two, whatever the lane
count, thread count and budget, and equal to per-seed runs of the scalar
testbench on the scalar compiled engine (an independent reference); a
segment is one kernel call with no per-cycle settle, clock edge or
observe.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from repro.designs import binary_search, ispq
from repro.designs.registry import build_flat, get_design
from repro.netlist.builder import NetlistBuilder
from repro.power import ProfileConfig, RTLPowerEstimator
from repro.power import block as power_block
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.sim.batch import compile_module_batch
from repro.sim.declarative import JobsTestbench
from repro.sim.kernels import compile_kernel, find_compiler, native

needs_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler on this host")

#: the registry designs whose testbenches are job testbenches
JOB_DESIGNS = ("binary_search", "Bubble_Sort", "Ispq", "Vld", "DCT", "IDCT", "MPEG4")
#: per-lane profiles: windows that cut segments mid-job, and lanes with none
PROFILES = (ProfileConfig(window_cycles=37, max_windows=16),
            ProfileConfig(window_cycles=5, max_windows=4), None)
#: elements per trace buffer: 40 rows at 1-128 lanes, 20 at 129-256
TRACE_ELEMENTS = 40 * 128


def _budgets(cycles):
    """Per-lane budgets from each lane's unbudgeted run length ``c`` (its
    last done is on cycle ``c - 1``): before the first done, mid-job,
    just before the last done, exactly at it, past it and none."""
    return [(3, c // 2, c - 1, c, c + 5, None)[lane % 6] for lane, c in enumerate(cycles)]


def _lane_run(module, testbenches, backend, n_threads=1):
    """Every lane's report (wall time zeroed), profile, captured values and
    check count, and the estimator."""
    estimator = BatchRTLPowerEstimator(
        module, kernel_backend=backend, kernel_threads=n_threads)
    reports = estimator.estimate_all(
        testbenches,
        profile=[PROFILES[lane % len(PROFILES)] for lane in range(len(testbenches))])
    assert estimator.last_kernel_backend == backend
    assert all(r.notes["stimulus_driver"] == "jobs" for r in reports)
    reports = [dataclasses.replace(r, estimation_time_s=0.0) for r in reports]
    return (reports, estimator.last_profiles,
            [(tb.captured(), tb._checked, tb._job) for tb in testbenches], estimator)


def _registry_lanes(design_name, n_lanes, budgets=None):
    entry = get_design(design_name)
    testbenches = [entry.make_testbench(lane) for lane in range(n_lanes)]
    for testbench, budget in zip(testbenches, budgets or ()):
        testbench.max_cycles = budget
    return testbenches


def _scalar_runs(module, testbenches, lanes):
    """Lanes ``lanes`` of a block, each run alone on the scalar compiled
    engine: report signature, profile and captured values."""
    runs = []
    for lane in lanes:
        estimator = RTLPowerEstimator(module)
        report = estimator.estimate(testbenches[lane], profile=PROFILES[lane % len(PROFILES)])
        testbench = testbenches[lane]
        runs.append((_signature(report), _profile(estimator.last_profile),
                     (testbench.captured(), testbench._checked, testbench._job)))
    return runs


def _signature(report):
    return (report.cycles, report.total_energy_fj, report.peak_power_mw,
            {name: c.energy_fj for name, c in report.components.items()},
            list(report.cycle_energy_fj))


def _profile(profile):
    return None if profile is None else (profile.window_cycles, profile.energy_fj)


def _assert_fused_equals_loop(module, make, thread_counts, fused=True):
    want = _lane_run(module, make(), "off")[:3]
    assert any(r.cycle_energy_fj for r in want[0])
    # every budget kind, and the block's last lane, against scalar runs
    lanes = sorted({*range(min(6, len(want[0]))), len(want[0]) - 1})
    assert _scalar_runs(module, make(), lanes) == [
        (_signature(want[0][lane]), _profile(want[1][lane]), want[2][lane])
        for lane in lanes]
    for n_threads in thread_counts:
        *got, estimator = _lane_run(module, make(), "native", n_threads)
        assert ("run_s" in estimator.last_phase_s) == fused  # the fused path ran
        assert got[0] == want[0], n_threads
        assert got[1] == want[1], n_threads
        assert got[2] == want[2], n_threads


@needs_cc
@pytest.mark.parametrize("n_lanes", (1, 129))
@pytest.mark.parametrize("design_name", JOB_DESIGNS)
def test_fused_jobs_equal_cycle_loop(monkeypatch, design_name, n_lanes):
    """Segments cut by profile windows and trace buffers, lanes stopping
    before, during, at and after their jobs: the ``off`` loop's results."""
    monkeypatch.setattr(power_block, "BLOCK_ELEMENTS", TRACE_ELEMENTS)
    module = build_flat(design_name)
    full = BatchRTLPowerEstimator(module, kernel_backend="native").estimate_all(
        _registry_lanes(design_name, n_lanes))
    budgets = _budgets([report.cycles for report in full])
    threads = (1, 2) if design_name in ("binary_search", "Vld") else (1,)
    _assert_fused_equals_loop(
        module, lambda: _registry_lanes(design_name, n_lanes, budgets), threads)


@needs_cc
@pytest.mark.parametrize("n_lanes", (7, 129))
def test_fused_jobs_with_different_job_counts(n_lanes):
    """Lanes of one block run 0 to 5 jobs (a lane with none stops after
    one cycle) and hold different inputs per job."""
    module = build_flat("binary_search")
    table = module.attributes["table"]

    def make():
        return [binary_search.BinarySearchTestbench(
            module, [table[(lane + k) % len(table)] + (k % 2) for k in range(lane % 6)])
            for lane in range(n_lanes)]

    assert {tb.n_jobs for tb in make()} == set(range(min(n_lanes, 6)))
    _assert_fused_equals_loop(module, make, (1, 2))


@needs_cc
def test_fused_jobs_preload_every_job():
    """Ispq lanes of 1 to 4 blocks: each next block's preload is written by
    the kernel on the previous block's done cycle."""
    module = build_flat("Ispq")

    def block(lane, k):
        return np.random.default_rng(lane * 10 + k).integers(-40, 40, 64).tolist()

    def make():
        return [ispq.IspqTestbench([block(lane, k) for k in range(1 + lane % 4)], qp=3 + lane)
                for lane in range(9)]

    _assert_fused_equals_loop(module, make, (1,))


@needs_cc
@pytest.mark.parametrize("n_lanes", (3, 129))
def test_fused_job_mismatch_raises_the_loops_text(n_lanes):
    """A corrupted expected value in one lane raises the same text on the
    fused and the loop path, after the same checks."""
    module = build_flat("Ispq")
    outcomes = []
    for backend in ("off", "native"):
        testbenches = _registry_lanes("Ispq", n_lanes)
        testbenches[2].expected[1][7] += 1
        estimator = BatchRTLPowerEstimator(module, kernel_backend=backend)
        with pytest.raises(AssertionError) as error:
            estimator.estimate_all(testbenches)
        outcomes.append((str(error.value), [(tb._checked, tb._job) for tb in testbenches]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].startswith("lane 2 cycle ")
    assert ": job 1: block 1: dequant mismatch" in outcomes[0][0]


@pytest.mark.parametrize("backend", ("off", pytest.param("native", marks=needs_cc)))
@pytest.mark.parametrize("offset", (-1, 1))
def test_job_preloads_outside_their_memory_raise_when_lowered(backend, offset):
    """A preload that starts below 0 or runs past its memory's depth raises
    before any cycle runs, on either backend, naming where it is."""
    testbenches = _registry_lanes("Ispq", 3)
    memories = testbenches[2].job_memories
    testbenches[2].job_memories = lambda job: [
        (suffix, offset if job == 1 else start, words) for suffix, start, words in memories(job)]
    estimator = BatchRTLPowerEstimator(build_flat("Ispq"), kernel_backend=backend)
    message = (f"lane 2 job 1: 64 preload words at offset {offset} fall outside "
               f"memory 'in_mem' of depth 64")
    with pytest.raises(ValueError, match=f"^{message}$"):
        estimator.estimate_all(testbenches)
    assert [tb._checked for tb in testbenches] == [0, 0, 0]


#: the generated job module's wide ports: two limbs of the lane store
WIDE = 70
STAMP = (1 << 69) | 12345


def _wide_job_module(adder: bool):
    """A start/done module with limb-store outputs: ``echo`` passes the
    70-bit job input ``key`` through and ``stamp`` is a 70-bit constant
    (so every monitored component is narrow); with ``adder``, a 70-bit
    adder, a generic power component, also drives ``sum``.  A job is done
    ``steps`` cycles after its start."""
    b = NetlistBuilder("wide_job")
    start = b.input("start", 1)
    key = b.input("key", WIDE)
    steps = b.input("steps", 3)
    busy = b.register("reg_busy", 1)
    count = b.register("reg_count", 3)
    idle = b.eq(count, 0)
    b.drive("reg_busy", d=b.mux(start, b.and_(busy, b.not_(idle)), 1))
    b.drive("reg_count", d=b.mux(start, b.mux(idle, b.sub(count, 1), count), steps))
    b.output("done", b.and_(busy, idle))
    b.output("echo", key)
    b.output("stamp", b.const(STAMP, WIDE))
    if adder:
        b.output("sum", b.add(key, b.const(STAMP, WIDE)))
    return b.build()


class _WideJobs(JobsTestbench):
    """Jobs of the generated wide module: each checks its wide outputs."""

    def __init__(self, keys, steps, adder: bool) -> None:
        super().__init__(len(keys), "wide_job_tb")
        self.keys, self.steps, self.adder = keys, steps, adder
        self.max_cycles = 10 * max(1, len(keys))

    def job_inputs(self, job):
        return {"key": self.keys[job], "steps": self.steps[job]} if job < self.n_jobs else {}

    def verify(self, job, dut) -> None:
        echo = dut.output("echo")
        assert echo == self.keys[job], f"echo {echo:#x}, expected {self.keys[job]:#x}"
        assert dut.output("stamp") == STAMP
        if self.adder:
            assert dut.output("sum") == (self.keys[job] + STAMP) % (1 << WIDE)
        self.capture(f"echo {job}", echo)


@needs_cc
@pytest.mark.parametrize("adder", (False, True))
def test_limb_store_job_outputs(adder):
    """Job outputs on limb-store ports are recorded one entry per limb and
    assembled when verified: with narrow monitored components the block
    runs fused; the generic 70-bit adder keeps the per-cycle loop."""
    module = _wide_job_module(adder)

    def make():
        rng = random.Random(7)
        return [_WideJobs([rng.getrandbits(WIDE) for _ in range(lane % 4)],
                          [rng.randrange(8) for _ in range(lane % 4)], adder)
                for lane in range(9)]

    assert {tb.n_jobs for tb in make()} == {0, 1, 2, 3}
    assert any(key >> 60 for tb in make() for key in tb.keys)
    _assert_fused_equals_loop(module, make, (1,), fused=not adder)


class _Spy:
    """Wraps a kernel's cffi library: counts each entry point's calls."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.names = Counter()

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def call(*args):
            self.names[name] += 1
            return function(*args)

        return call


@needs_cc
@pytest.mark.parametrize("window", (None, 100))
def test_fused_jobs_make_one_kernel_call_per_segment(monkeypatch, window):
    """A segment is one ``run`` call, ending at a profile window boundary or
    with the last lane's last done: no masked cycle runs past it."""
    module = build_flat("Vld")
    entry = get_design("Vld")
    profile = ProfileConfig(window_cycles=window) if window else None
    estimator = BatchRTLPowerEstimator(module, kernel_backend="native")
    estimator.estimate_all([entry.make_testbench(s) for s in range(16)])
    kernel = compile_module_batch(module, 16)._kernel
    ran = []
    run = kernel.run
    monkeypatch.setattr(kernel, "run", lambda *args: ran.append(run(*args)) or ran[-1])
    spy = kernel._lib = _Spy(kernel._lib)
    try:
        reports = estimator.estimate_all(
            [entry.make_testbench(s) for s in range(16)], profile=profile)
    finally:
        kernel._lib = spy._lib
    end = max(report.cycles for report in reports)
    segments = len(range(window, end, window)) + 1 if window else 1
    # the settle is the simulator's reset, when it is built
    assert spy.names == {"settle": 1, "run": segments}
    assert sum(ran) == end
    assert estimator.last_phase_s["run_s"] > 0


@needs_cc
@pytest.mark.parametrize("design_name", JOB_DESIGNS)
def test_fused_job_block_stops_with_its_last_lane(design_name):
    """A lane block's ``run`` ends on the cycle after its last lane's last
    done, as the loop does: every register and memory is left as the loop
    leaves it.  A block that ran on, masked, to the segment's end (the
    lanes' budgets) would clock on past it; MPEG4's state moves then."""
    module = build_flat(design_name)
    ir = compile_module_batch(module, 16).ir
    ends = []
    for backend in ("off", "native"):
        BatchRTLPowerEstimator(module, kernel_backend=backend).estimate_all(
            _registry_lanes(design_name, 16))
        ends.append([array.copy() for array in ir.state_arrays() + ir.mem_arrays()])
    assert len(ends[0]) == len(ends[1])
    assert all(np.array_equal(*pair) for pair in zip(*ends))


@needs_cc
def test_only_job_kernels_carry_the_handshake():
    """The job runtime compiles only into kernels whose module has the
    ``start``/``done`` ports; a stream kernel's ``run`` refuses a job plan."""
    for name, jobs in (("HVPeakF", False), ("Vld", True)):
        ir = compile_module_batch(build_flat(name), 4).ir
        assert ir.job_handshake is jobs
        assert f"#define JOBS {int(jobs)}" in native.generate_c_source(ir)
    kernel = compile_kernel(compile_module_batch(build_flat("HVPeakF"), 4).ir, 4)
    with pytest.raises(ValueError, match="no start/done handshake"):
        kernel.run(None, None, 1, None, None, None, 1, None, None, jobs=object())
