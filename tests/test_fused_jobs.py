"""Job testbenches run to completion in the lane kernel.

A native lane block of a :class:`~repro.sim.declarative.JobsTestbench`
hands the ``start``/``done`` handshake, the job inputs and the memory
preloads to the kernel's ``run`` entry point and verifies each segment's
done records afterwards.  The contract checked
here: reports (cycle traces included), profiles, check counts,
``captured()`` values and mismatch text are ``==`` to the ``off``
per-cycle loop's, whatever the lane count, thread count and budget, and a
segment is one kernel call with no per-cycle settle, clock edge or observe.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.designs import binary_search, ispq
from repro.designs.registry import build_flat, get_design
from repro.power import ProfileConfig
from repro.power import block as power_block
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.sim.batch import compile_module_batch
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


def _assert_fused_equals_loop(module, make, thread_counts):
    want = _lane_run(module, make(), "off")[:3]
    assert any(r.cycle_energy_fj for r in want[0])
    for n_threads in thread_counts:
        *got, estimator = _lane_run(module, make(), "native", n_threads)
        assert "run_s" in estimator.last_phase_s  # the fused path ran
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
