"""Tiered lane kernels: ``auto`` answers on the NumPy program while the C
kernel compiles in the background, then hands over at a cycle boundary.

The contract checked here:

* whatever cycle the kernel arrives at, a run's reports (cycle traces
  included), profiles, check counts and mismatch text are ``==`` to pure
  ``off`` and pure ``native`` runs, for registry stream lanes, array-driver
  spec lanes and job lanes; the swap cycle is forced through the
  simulator's compile poll (``batch._finished_compile``);
* a ``native`` request joins a compile in flight, and one source compiles
  once however many threads ask for it;
* a process that exits while a compile runs leaves no compiler process and
  no build directory behind, and a forked child compiles for itself;
* the compiler search runs once per setting, and ``REPRO_KERNEL_BACKEND``
  reaches specs that name no backend.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.api import RTLEstimatorAdapter, RunSpec, SweepSpec
from repro.designs import hvpeakf
from repro.designs.registry import build_flat, get_design
from repro.power import ProfileConfig
from repro.power import block as power_block
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.sim import BatchSimulator, batch, kernels
from repro.sim.batch import compile_module_batch
from repro.sim.kernels import find_compiler, native
from repro.stim import SpecTestbench

needs_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler on this host")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: cycles of the short stream and spec runs, and the lanes' own budgets
N_CYCLES = 24
BUDGETS = (None, 9, 17)
#: per-lane profiles and trace flags: windows that cut the run mid-segment
PROFILES = (ProfileConfig(window_cycles=5, max_windows=8),
            ProfileConfig(window_cycles=7, max_windows=2), None)
KEEP = [True, False, True]
#: elements per trace buffer and evaluator block: 8 rows of trace at <= 128
#: lanes, so both evaluators flush and cut segments mid-run
SMALL_BLOCKS = 8 * 128


def _force_swap_at(monkeypatch, swap):
    """``auto``'s compile reads as finished from cycle ``swap`` on (at 0:
    when the simulator is built), and not before."""
    def finished(simulator):
        future = simulator._compile
        future.result()
        return future if simulator.cycle >= swap else None

    monkeypatch.setattr(batch, "_finished_compile", finished)


def _run(module, make, backend, **kwargs):
    """Every lane's report (wall time zeroed) and profile, the testbenches'
    check state, and the estimator."""
    estimator = BatchRTLPowerEstimator(module, kernel_backend=backend)
    testbenches = make()
    reports = estimator.estimate_all(
        testbenches, keep_cycle_trace=KEEP,
        profile=[PROFILES[lane % len(PROFILES)] for lane in range(len(testbenches))],
        **kwargs)
    reports = [dataclasses.replace(r, estimation_time_s=0.0) for r in reports]
    checks = [(getattr(tb, "_checked", None), getattr(tb, "_job", None))
              for tb in testbenches]
    return (reports, estimator.last_profiles, checks), estimator


def _stream_lanes():
    entry = get_design("HVPeakF")
    testbenches = [entry.make_testbench(seed) for seed in range(3)]
    for testbench, budget in zip(testbenches, BUDGETS):
        testbench.max_cycles = budget or N_CYCLES
    return testbenches


def _spec_lanes():
    spec = get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=N_CYCLES)
    testbenches = [SpecTestbench(spec, seed=seed) for seed in range(3)]
    for testbench, budget in zip(testbenches, BUDGETS):
        testbench.max_cycles = budget
    return testbenches


def _job_lanes():
    entry = get_design("binary_search")
    testbenches = [entry.make_testbench(seed) for seed in range(3)]
    testbenches[1].max_cycles = 23  # stops mid-job
    return testbenches


def _vld_lanes():
    entry = get_design("Vld")
    testbenches = [entry.make_testbench(seed) for seed in range(3)]
    testbenches[1].max_cycles = 200  # stops mid-job
    return testbenches


def _assert_every_swap_equal(monkeypatch, design, make, swaps):
    """Pure ``off`` and pure ``native`` agree, and a run that swaps at any
    of ``swaps`` gives their results, continuing fused after the swap."""
    monkeypatch.setattr(power_block, "BLOCK_ELEMENTS", SMALL_BLOCKS)
    module = build_flat(design)
    want, _ = _run(module, make, "off")
    native_results, _ = _run(module, make, "native")  # builds the kernel
    assert native_results == want
    assert any(r.cycle_energy_fj for r in want[0])
    n_cycles = max(r.cycles for r in want[0])
    for swap in swaps:
        _force_swap_at(monkeypatch, swap)
        got, estimator = _run(module, make, "auto")
        assert got[0] == want[0], swap
        assert got[1] == want[1], swap
        assert got[2] == want[2], swap
        decision = estimator.last_kernel_decision
        if swap == 0:
            assert decision == "auto -> native (kernel ready)"
        elif swap < n_cycles:
            assert decision == f"auto -> native from cycle {swap}"
        else:
            assert decision == "auto -> off (native kernel compiling)"
        assert estimator.last_kernel_backend == ("native" if swap < n_cycles else "off")
        # every form here can run to completion: fused from the swap on
        assert ("run_s" in estimator.last_phase_s) == (swap < n_cycles)


@needs_cc
def test_stream_lanes_hand_over_at_every_cycle(monkeypatch):
    _assert_every_swap_equal(monkeypatch, "HVPeakF", _stream_lanes,
                             range(N_CYCLES + 2))


@needs_cc
def test_spec_lanes_hand_over_at_every_cycle(monkeypatch):
    _assert_every_swap_equal(monkeypatch, "HVPeakF", _spec_lanes,
                             range(N_CYCLES + 2))


@needs_cc
def test_job_lanes_hand_over_at_every_cycle(monkeypatch):
    """A job form started on ``off`` continues fused from the job state the
    per-cycle loop left: mid-job, on a done cycle, between jobs."""
    n_cycles = max(r.cycles for r in _run(build_flat("binary_search"), _job_lanes,
                                          "off")[0][0])
    _assert_every_swap_equal(monkeypatch, "binary_search", _job_lanes,
                             range(n_cycles + 2))


@needs_cc
def test_vld_hands_over_before_during_and_after_its_job(monkeypatch):
    """Every 16th cycle of Vld's one long job, and every cycle around the
    done cycles (463, 466, 469) and the mid-job stop (200)."""
    swaps = sorted({*range(0, 472, 16), *range(196, 204), *range(460, 472)})
    _assert_every_swap_equal(monkeypatch, "Vld", _vld_lanes, swaps)


@needs_cc
def test_handover_raises_the_same_mismatch(monkeypatch):
    """A stream check that fails on cycle 11 raises the same text after the
    same checks whether the kernel arrives before, on or after it."""
    golden_lanes = hvpeakf.PeakingFilterTestbench.golden_lanes.__func__

    def corrupted(cls, testbenches, streams, n_items):
        golden = golden_lanes(cls, testbenches, streams, n_items)
        golden["pixel_out"][10, 2] ^= 1
        return golden

    monkeypatch.setattr(hvpeakf.PeakingFilterTestbench, "golden_lanes",
                        classmethod(corrupted))
    module = build_flat("HVPeakF")
    message = r"^lane 2 cycle 11: pixel 10 output pixel_out"
    for backend in ("off", "native"):
        with pytest.raises(AssertionError, match=message):
            _run(module, _stream_lanes, backend)
    for swap in range(14):
        _force_swap_at(monkeypatch, swap)
        with pytest.raises(AssertionError, match=message):
            _run(module, _stream_lanes, "auto")

    entry = get_design("Vld")

    def broken():
        testbenches = [entry.make_testbench(seed) for seed in (1, 2, 3)]
        testbenches[1].symbols[5] += 1
        return testbenches

    texts = set()
    monkeypatch.undo()
    for backend in ("off", "native"):
        with pytest.raises(AssertionError) as error:
            _run(build_flat("Vld"), broken, backend)
        texts.add(str(error.value))
    for swap in (1, 300, 460):
        _force_swap_at(monkeypatch, swap)
        with pytest.raises(AssertionError) as error:
            _run(build_flat("Vld"), broken, "auto")
        texts.add(str(error.value))
    assert len(texts) == 1 and texts.pop().startswith("lane 1 cycle ")


# ---------------------------------------------------------------- compiles
def _slow_background_builds(monkeypatch):
    """Hold the background worker's builds until the returned event is set."""
    release = threading.Event()
    build = kernels._build

    def held(ir, n_lanes):
        assert release.wait(30)
        return build(ir, n_lanes)

    monkeypatch.setattr(kernels, "_build", held)
    return release


@needs_cc
def test_native_request_joins_the_compile_in_flight(monkeypatch):
    release = _slow_background_builds(monkeypatch)
    module = get_design("binary_search").build()  # fresh: no kernel yet
    before = kernels.KERNEL_BUILD_COUNT
    auto = BatchSimulator(module, 3, kernel_backend="auto")
    assert auto.kernel is None and auto.compiling
    assert auto.kernel_decision == "auto -> off (native kernel compiling)"
    assert not auto.poll_kernel()
    threading.Timer(0.2, release.set).start()
    joined = BatchSimulator(module, 3, kernel_backend="native")
    assert kernels.KERNEL_BUILD_COUNT == before + 1
    assert joined.kernel is auto._compile.result()
    auto.step(cycles=2)  # binds at the first cycle boundary
    assert auto.kernel is joined.kernel and not auto.compiling
    assert auto.kernel_decision == "auto -> native from cycle 0"


@needs_cc
def test_concurrent_requests_build_each_kernel_once():
    """More requesting threads than cores, switching every microsecond:
    one build of the lane program and one of its kernel, one program and
    one kernel object for every simulator."""
    module = get_design("binary_search").build()  # fresh: no program yet
    programs_before = batch.PROGRAM_BUILD_COUNT
    before = kernels.KERNEL_BUILD_COUNT
    backends = ("auto", "native") * 3
    simulators = []
    threads = [threading.Thread(target=lambda backend=backend: simulators.append(
        BatchSimulator(module, 3, kernel_backend=backend))) for backend in backends]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(simulators) == len(backends)
    assert batch.PROGRAM_BUILD_COUNT == programs_before + 1
    assert len({id(simulator.program) for simulator in simulators}) == 1
    assert kernels.KERNEL_BUILD_COUNT == before + 1
    for simulator in simulators:
        if simulator.compiling:
            simulator._compile.result(timeout=60)
            simulator.step()
    assert len({id(simulator.kernel) for simulator in simulators}) == 1
    assert simulators[0].kernel is not None


@needs_cc
def test_one_source_compiles_once_across_threads(monkeypatch):
    ir = compile_module_batch(build_flat("binary_search"), 1).ir
    native.threading_mode()  # probe outside the recorded calls
    source = native.generate_c_source(ir) + "\n/* built by two threads */\n"
    calls = []
    run = native._run_compiler

    def recording(command):
        calls.append(command)
        return run(command)

    monkeypatch.setattr(native, "_run_compiler", recording)
    monkeypatch.setattr(native, "_LIB_CACHE", {})
    libraries = []
    threads = [threading.Thread(target=lambda: libraries.append(
        native._compile_library(source, ir))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(libraries) == 4 and all(lib is libraries[0] for lib in libraries)
    assert len(calls) == 1


def test_failed_background_compile_stays_on_off(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CC", "false")
    if find_compiler() is None:
        pytest.skip("no 'false' command on this host")
    monkeypatch.setattr(native, "_THREADING_MODE", "serial")
    module = get_design("binary_search").build()
    simulator = BatchSimulator(module, 2, kernel_backend="auto")
    simulator._compile.exception(timeout=60)
    simulator.step(cycles=2)
    assert simulator.kernel is None and not simulator.compiling
    assert simulator.kernel_decision == "auto -> off (native kernel build failed)"
    assert "kernel compilation failed" in simulator.kernel_fallback


# ------------------------------------------------------ exit and fork
_EXIT_SCRIPT = """
import json, os, sys, time
from repro.designs.registry import get_design
from repro.sim import BatchSimulator
from repro.sim.kernels import native

simulator = BatchSimulator(get_design("HVPeakF").build(), 16, kernel_backend="auto")
assert simulator.compiling, simulator.kernel_decision
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    running = [p for p in list(native._RUNNING) if sys.argv[1] in " ".join(p.args)]
    if running:
        break
    time.sleep(0.001)
print(json.dumps({"groups": [p.pid for p in running], "build_dir": native._BUILD_DIR}))
"""


def _live_members(groups):
    """Processes (not zombies) in any of the process groups ``groups``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, pgrp = fields[0], int(fields[2])
        if pgrp in groups and state != "Z":
            members.append(int(entry))
    return members


def _script_env(tmp_path, **extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, TMPDIR=str(tmp_path), **extra)
    return env


@needs_cc
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads processes from /proc")
@pytest.mark.parametrize("compiler", ["real", "stalled"])
def test_exit_kills_the_compile_and_removes_the_build_dir(tmp_path, compiler):
    """A process that starts a cold ``auto`` block and exits at once: its
    compile is killed, not waited for (a ``stalled`` compiler sleeps 60 s
    first), and neither a compiler process nor a file is left behind."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    extra, running = {}, "kernel_"  # the kernel's compile, past the probe
    if compiler == "stalled":
        wrapper = tmp_path / "stalled-cc"
        wrapper.write_text(f'#!/bin/sh\nsleep 60\nexec "{find_compiler()}" "$@"\n')
        wrapper.chmod(0o755)
        extra, running = {"REPRO_KERNEL_CC": str(wrapper)}, "stalled-cc"
    done = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT, running],
                          env=_script_env(tmp, **extra),
                          capture_output=True, text=True, timeout=50)
    assert done.returncode == 0, done.stderr
    state = json.loads(done.stdout.strip().splitlines()[-1])
    assert state["groups"], "no compile was seen running"
    assert _live_members(set(state["groups"])) == []
    assert not os.path.exists(state["build_dir"])
    assert os.listdir(tmp) == []


@needs_cc
def test_sweep_workers_remove_their_build_dirs(tmp_path):
    """Shard workers leave through os._exit, past atexit: their finalizers
    stop their compiles and remove their build directories."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--designs", "HVPeakF", "binary_search",
         "--seeds", "0:4", "--workers", "2", "--max-cycles", "16", "--backend", "batch"],
        cwd=tmp_path, env=_script_env(tmp), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp) == [], (os.listdir(tmp), done.stderr)


_FORK_SCRIPT = """
import os, signal, sys
from repro.designs.registry import get_design
from repro.sim import BatchSimulator

module = get_design("HVPeakF").build()
auto = BatchSimulator(module, 16, kernel_backend="auto")
assert auto.compiling, auto.kernel_decision
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child waiting for its parent's compile dies here
    child = BatchSimulator(module, 16, kernel_backend="native")
    sys.exit(0 if child.kernel_backend == "native" else 3)
_, status = os.waitpid(pid, 0)
auto._compile.result()
auto.step()
print(os.waitstatus_to_exitcode(status), auto.kernel_backend)
"""


@needs_cc
def test_forked_child_compiles_for_itself(tmp_path):
    done = subprocess.run([sys.executable, "-c", _FORK_SCRIPT], env=_script_env(tmp_path),
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "native"]
    assert os.listdir(tmp_path) == []  # each process removed its own build dir


# ------------------------------------------------------------- satellites
def test_find_compiler_searches_once_per_setting(monkeypatch):
    calls = []
    which = native.shutil.which

    def counting(name):
        calls.append(name)
        return which(name)

    monkeypatch.setattr(native.shutil, "which", counting)
    monkeypatch.setattr(native, "_COMPILERS", {})
    monkeypatch.delenv("REPRO_KERNEL_CC", raising=False)
    first = find_compiler()
    searched = len(calls)
    assert find_compiler() == first and len(calls) == searched
    monkeypatch.setenv("REPRO_KERNEL_CC", "definitely-not-a-compiler")
    assert find_compiler() is None
    assert find_compiler() is None and len(calls) == searched + 1
    monkeypatch.delenv("REPRO_KERNEL_CC")
    assert find_compiler() == first and len(calls) == searched + 1


def test_env_backend_reaches_specs_that_name_none(monkeypatch):
    """``REPRO_KERNEL_BACKEND`` fills a spec's unset backend; unset, specs
    serialize as before."""
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    assert RunSpec(design="HVPeakF").to_dict()["kernel_backend"] == "auto"
    assert SweepSpec(designs=("HVPeakF",)).kernel_backend == "auto"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "off")
    spec = RunSpec(design="HVPeakF", backend="batch", max_cycles=16)
    assert spec.kernel_backend == "off"
    assert SweepSpec(designs=("HVPeakF",)).kernel_backend == "off"
    assert RunSpec(design="HVPeakF", kernel_backend="native").kernel_backend == "native"
    results = RTLEstimatorAdapter().estimate_many(
        [spec.replace(seed=seed) for seed in (1, 2)])
    assert {r.metadata["kernel_backend"] for r in results} == {"off"}
    assert {r.metadata["kernel_decision"] for r in results} == {"off (requested)"}
