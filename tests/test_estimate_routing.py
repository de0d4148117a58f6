"""Where ``estimate`` runs a ``backend="auto"`` spec.

A spec runs as a one-lane lane block (``batch[1]``) when that block runs
fused on a native kernel this process has already built: the kernel backend
is not ``off``, the module lowers to lanes, its one-lane kernel is built, no
monitored component is generic and the testbench's lane form runs to
completion.  Every other ``auto`` spec runs on the scalar compiled engine,
and a cold module's kernel build is queued for later calls.  Either way the
report is the compiled engine's, and ``metadata["kernel_decision"]`` says
where the run went and why.

Tests that need the kernel built build it synchronously first; the one test
of a compile in flight holds the background compile's future itself, so no
test depends on how fast a compiler runs.  A spec that names no kernel
backend follows ``REPRO_KERNEL_BACKEND``, so the parity test checks the
routed block on ``auto``/``native`` and the compiled engine on ``off``.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future

import pytest

from repro.api import RTLEstimatorAdapter, RunSpec, estimate
from repro.designs.registry import all_designs, build_flat, get, get_design
from repro.netlist import flatten
from repro.power import lane_estimator
from repro.resilience import faults
from repro.sim import batch, kernels
from repro.sim.batch import BatchCompilationError, LaneStateError
from repro.sim.testbench import RandomTestbench

HAS_CC = kernels.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")

#: whether a spec naming no kernel backend can route (REPRO_KERNEL_BACKEND)
ROUTES = kernels.resolve_kernel_backend() != "off"

#: Wide_Checksum's models are generic: its estimate stays on compiled
ROUTED_DESIGNS = [name for name in all_designs() if name != "Wide_Checksum"]

COMPILING = "auto -> compiled (native kernel compiling)"


def _build_kernel(module) -> None:
    """Build the native kernel of the module's one-lane program."""
    batch._kernel_build(batch.compile_module_batch(module, 1), background=False).result()


def _bare(report):
    """A report without its wall time and notes (a lane block's notes add
    ``batch_lanes`` and ``stimulus_driver``)."""
    return dataclasses.replace(report, estimation_time_s=0.0, notes={})


def _bare_profile(profile):
    return dataclasses.replace(profile, notes={})


@needs_cc
@pytest.mark.parametrize("design", ROUTED_DESIGNS)
def test_built_kernel_runs_estimate_as_one_fused_lane(design):
    """Once the one-lane kernel is built, ``estimate(auto)`` is a fused
    ``batch[1]`` run whose report, cycle trace and profile equal the
    compiled and interpreted engines' exactly."""
    _build_kernel(build_flat(design))
    spec = RunSpec(design=design, seed=5, keep_cycle_trace=True, power_profile=True)
    routed = estimate(spec)
    compiled = estimate(spec.replace(backend="compiled"))
    interp = estimate(spec.replace(backend="interp"))
    assert compiled.backend == "compiled" and interp.backend == "interp"
    if ROUTES:
        assert routed.backend == "batch[1]"
        assert routed.metadata["kernel_decision"] in (
            "auto -> native (kernel ready)", "native (requested)")
        assert routed.metadata["macromodel_eval"] == "native"
        assert "run_s" in routed.metadata["phase_s"]  # ran to completion
        assert routed.report.notes == {
            **compiled.report.notes, "batch_lanes": 1,
            "stimulus_driver": routed.report.notes["stimulus_driver"]}
    else:
        assert routed.backend == "compiled"
        assert routed.metadata["kernel_decision"] == "auto -> compiled (kernel backend off)"
    assert routed.spec == spec
    assert len(routed.report.cycle_energy_fj) == routed.report.cycles > 0
    for other in (compiled, interp):
        assert _bare(routed.report) == _bare(other.report)
        assert _bare_profile(routed.profile) == _bare_profile(other.profile)


@needs_cc
def test_cold_module_answers_on_compiled_and_queues_one_build(monkeypatch):
    """A module whose kernel is not built answers on the compiled engine
    and queues the build once; calls while it is in flight join it, and
    the first call after it finished runs the fused block."""
    module = flatten(get_design("HVPeakF").build())  # its own, cold programs
    adapter = RTLEstimatorAdapter(module=module,
                                  testbench_factory=get("HVPeakF").make_testbench)
    queued = []

    def hold(ir, n_lanes):  # the background compile, finished by the test
        queued.append(Future())
        return queued[-1]

    monkeypatch.setattr(kernels, "compile_kernel_async", hold)
    spec = RunSpec(design="HVPeakF", seed=2, kernel_backend="auto")
    first = adapter.estimate(spec)
    second = adapter.estimate(spec.replace(seed=3))
    for result in (first, second):
        assert result.backend == "compiled"
        assert result.metadata["kernel_decision"] == COMPILING
    assert len(queued) == 1  # one compile per program

    program = batch.compile_module_batch(module, 1)
    queued[0].set_result(kernels.compile_kernel(program.ir, 1))
    assert program._kernel is not None
    routed = adapter.estimate(spec)
    assert routed.backend == "batch[1]"
    assert routed.metadata["kernel_decision"] == "auto -> native (kernel ready)"
    assert _bare(routed.report) == _bare(first.report)
    assert len(queued) == 1


@needs_cc
@pytest.mark.parametrize("failure", ["fault plan", "failed future"])
def test_failed_build_never_fails_the_answer_and_is_not_queued_again(monkeypatch, failure):
    """Under a ``kernel:fail`` fault plan (which fires on the compile
    worker, not in the caller) or a compile whose future fails, a cold
    ``estimate(auto)`` still returns the compiled answer; later calls say
    the build failed and queue no other."""
    module = flatten(get_design("HVPeakF").build())
    adapter = RTLEstimatorAdapter(module=module,
                                  testbench_factory=get("HVPeakF").make_testbench)
    queued, fault_threads = [], []
    queue_build = kernels.compile_kernel_async
    inject = faults.maybe_inject

    def failing(ir, n_lanes):
        future = Future()
        future.set_exception(kernels.NativeToolchainError("cc: exit status 1"))
        return future

    def spy(ir, n_lanes):
        queued.append((failing if failure == "failed future" else queue_build)(ir, n_lanes))
        return queued[-1]

    def spy_inject(site, *args, **kwargs):
        if site == "kernel":
            fault_threads.append(threading.current_thread().name)
        return inject(site, *args, **kwargs)

    finished = threading.Event()
    record_build = batch._kernel_built

    def recording(program, future):  # runs after the program holds the outcome
        record_build(program, future)
        finished.set()

    monkeypatch.setattr(kernels, "compile_kernel_async", spy)
    monkeypatch.setattr(faults, "maybe_inject", spy_inject)
    monkeypatch.setattr(batch, "_kernel_built", recording)
    spec = RunSpec(design="HVPeakF", seed=2, kernel_backend="auto")
    want = adapter.estimate(spec.replace(backend="compiled"))
    faults.install_plan("kernel:fail" if failure == "fault plan" else None)
    try:
        first = adapter.estimate(spec)
        assert finished.wait(60)
        second = adapter.estimate(spec)
    finally:
        faults.install_plan(None)
    assert first.backend == second.backend == "compiled"
    assert first.metadata["kernel_decision"] == COMPILING
    assert second.metadata["kernel_decision"] == (
        "auto -> compiled (native kernel build failed)")
    assert len(queued) == 1 and queued[0].exception() is not None
    if failure == "fault plan":
        assert isinstance(queued[0].exception(), faults.InjectedFault)
        assert fault_threads == ["repro-kernel-compile"]
    program = batch.compile_module_batch(module, 1)
    assert program._kernel is None and program._build_error
    for result in (first, second):
        assert _bare(result.report) == _bare(want.report)


def test_no_toolchain_keeps_compiled_and_builds_nothing(monkeypatch):
    module = flatten(get_design("HVPeakF").build())
    adapter = RTLEstimatorAdapter(module=module,
                                  testbench_factory=get("HVPeakF").make_testbench)
    monkeypatch.setattr(kernels, "find_compiler", lambda: None)
    programs = batch.PROGRAM_BUILD_COUNT
    result = adapter.estimate(RunSpec(design="HVPeakF", seed=2, kernel_backend="auto"))
    assert result.backend == "compiled"
    assert result.metadata["kernel_decision"] == "auto -> compiled (no C toolchain)"
    assert batch.PROGRAM_BUILD_COUNT == programs  # not even the lowering
    assert batch.compile_module_batch(module, 1)._compile is None


@needs_cc
@pytest.mark.parametrize("case, decision", [
    ("kernel_off", "auto -> compiled (kernel backend off)"),
    ("per_lane_testbench", "auto -> compiled (per-lane testbench)"),
    ("generic", "auto -> compiled (generic component '"),
])
def test_runs_the_fused_block_cannot_take_stay_on_compiled(case, decision):
    """With the one-lane kernel built, ``kernel_backend="off"``, a
    testbench whose lane form is the per-lane loop and a design with a
    generic component (Wide_Checksum) still run on the compiled engine."""
    design = "Wide_Checksum" if case == "generic" else "HVPeakF"
    _build_kernel(build_flat(design))
    kwargs = {}
    if case == "per_lane_testbench":
        kwargs = dict(module=build_flat(design),
                      testbench_factory=lambda seed: RandomTestbench(64, seed=seed or 0))
    spec = RunSpec(design=design, seed=4,
                   kernel_backend="off" if case == "kernel_off" else "auto")
    result = RTLEstimatorAdapter(**kwargs).estimate(spec)
    assert result.backend == "compiled"
    assert result.metadata["kernel_decision"].startswith(decision)
    assert result.metadata["macromodel_eval"] == "block"


def test_refused_module_runs_compiled_on_auto_and_batch():
    """A module with no lane program (a subclassed memory and FSM) runs on
    the compiled engine on ``auto``, saying why, and on ``batch`` through
    the fallback; its stimulus spec's lane form would run to completion."""
    from test_sim_batch import _module_with_shadow_state

    from repro.stim import StimulusSpec, UniformSpec

    adapter = RTLEstimatorAdapter(  # the stimulus spec replaces the factory's bench
        module=_module_with_shadow_state(),
        testbench_factory=lambda seed: RandomTestbench(24))
    stimulus = StimulusSpec(n_cycles=24, ports={
        port: UniformSpec() for port in ("addr", "wdata", "go")})
    spec = RunSpec(design="shadow", seed=1, stimulus=stimulus, kernel_backend="auto")
    routed = adapter.estimate(spec)
    assert routed.backend == "compiled"
    assert routed.metadata["kernel_decision"] == (
        "auto -> compiled (module does not lower to lanes)")
    [fallback] = adapter.estimate_many([spec.replace(backend="batch")])
    assert fallback.backend == "compiled"
    assert fallback.spec == spec.replace(backend="batch")
    assert fallback.metadata["kernel_decision"] == "batch -> compiled (BatchCompilationError)"
    assert _bare(fallback.report) == _bare(routed.report)
    assert routed.report.cycles == 24


@needs_cc
@pytest.mark.parametrize("error", [LaneStateError, BatchCompilationError])
def test_routed_spec_falls_back_to_compiled_without_recursing(monkeypatch, error):
    """A routed spec whose lane block is refused runs once on the compiled
    engine: the fallback never goes back through ``estimate``."""
    _build_kernel(build_flat("HVPeakF"))
    spec = RunSpec(design="HVPeakF", seed=6, kernel_backend="auto")
    want = estimate(spec.replace(backend="compiled"))

    def refuse(self, *args, **kwargs):
        raise error("lane path unavailable")

    calls = []
    estimate_method = RTLEstimatorAdapter.estimate

    def counting(self, spec):
        calls.append(spec)
        return estimate_method(self, spec)

    monkeypatch.setattr(lane_estimator.BatchRTLPowerEstimator, "estimate_all", refuse)
    monkeypatch.setattr(RTLEstimatorAdapter, "estimate", counting)
    result = RTLEstimatorAdapter().estimate(spec)
    assert calls == [spec]
    assert result.backend == "compiled"
    assert result.spec == spec
    assert result.metadata["kernel_decision"] == f"auto -> compiled ({error.__name__})"
    assert _bare(result.report) == _bare(want.report)


@needs_cc
def test_lane_counts_keep_their_own_programs_and_kernels():
    """One-lane ``estimate`` calls and 4-lane blocks of one module keep a
    program and a kernel each: alternating them builds nothing."""
    _build_kernel(build_flat("DCT"))
    adapter = RTLEstimatorAdapter()

    def spec(seed):
        return RunSpec(design="DCT", seed=seed, max_cycles=48, kernel_backend="native")

    adapter.estimate_many([spec(seed) for seed in range(4)])
    programs, builds = batch.PROGRAM_BUILD_COUNT, kernels.KERNEL_BUILD_COUNT
    for seed in range(3):
        assert adapter.estimate(spec(seed)).backend == "batch[1]"
        block = adapter.estimate_many([spec(10 * seed + lane) for lane in range(4)])
        assert block[0].backend == "batch[4]"
        assert block[0].metadata["kernel_decision"] == "native (requested)"
    assert (batch.PROGRAM_BUILD_COUNT, kernels.KERNEL_BUILD_COUNT) == (programs, builds)


def test_module_keeps_its_one_lane_program_and_its_last_other():
    """A module caches its one-lane program and its last program of another
    lane count: the counts one-lane ``estimate`` calls beside one block
    size need, and no more."""
    module = flatten(get_design("HVPeakF").build())
    one, four = (batch.compile_module_batch(module, n) for n in (1, 4))
    built = batch.PROGRAM_BUILD_COUNT
    assert batch.compile_module_batch(module, 1) is one
    assert batch.compile_module_batch(module, 4) is four
    assert batch.PROGRAM_BUILD_COUNT == built
    eight = batch.compile_module_batch(module, 8)  # takes the 4-lane slot
    assert batch.compile_module_batch(module, 1) is one
    assert batch.compile_module_batch(module, 8) is eight
    assert batch.PROGRAM_BUILD_COUNT == built + 1
    assert batch.compile_module_batch(module, 4) is not four
    assert batch.PROGRAM_BUILD_COUNT == built + 2
