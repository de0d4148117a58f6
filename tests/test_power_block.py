"""Differential tests for the block-deferred macromodel evaluator.

``repro.power.block.BlockEvaluator`` replaces per-cycle macromodel
evaluation in both RTL estimators, and, bound to a native lane kernel, runs
its plan in C each cycle into the same arrays.  Three contracts:

* against :meth:`LinearTransitionModel.evaluate`, kept as the reference, every
  per-cycle energy, component total and peak agrees to rel 1e-12 (the
  per-byte tables add bits in a different association than evaluate's
  bit-by-bit loop, so the tolerance is scaled by the magnitude sum
  ``|base| + sum |coeff|`` to stay meaningful under cancellation);
* between engines the results are *identical*: scalar ``compiled``,
  scalar ``interp``, a one-lane batch and every lane of an N-lane batch, at
  any block length;
* the kernel's evaluation is identical to NumPy's, bit for bit: totals,
  peak, cycle trace and profile windows, on any lane count, on every
  registry design, at any kernel thread count, and when an evaluator binds
  its kernel mid-run.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunSpec, estimate
from repro.api.estimators import RTLEstimatorAdapter
from repro.core.instrument import InstrumentationConfig, instrument
from repro.designs import all_designs, get_design
from repro.designs.registry import build_flat
from repro.netlist.nets import Net
from repro.power import (
    BatchRTLPowerEstimator,
    ProfileConfig,
    RTLPowerEstimator,
    WindowedEnergyCollector,
)
from repro.power import build_seed_library, lane_estimator, rtl_estimator
from repro.power.block import BlockEvaluator
from repro.power.macromodel import LinearTransitionModel
from repro.sim import kernels
from repro.sim.batch import compile_module_batch
from repro.sim.kernels import native

REL = 1e-12
WIDTHS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 60]
coefficient = st.one_of(
    st.just(0.0), st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
)


@st.composite
def components(draw):
    """One component: 1-4 ports, some unbound, with a linear model."""
    n_ports = draw(st.integers(1, 4))
    widths = {f"p{i}": draw(st.sampled_from(WIDTHS)) for i in range(n_ports)}
    coefficients = {
        port: draw(st.lists(coefficient, min_size=width, max_size=width))
        for port, width in widths.items()
    }
    base = draw(st.floats(-20.0, 20.0, allow_nan=False))
    model = LinearTransitionModel("unit", widths, coefficients, base)
    bound = [port for port in widths if draw(st.booleans()) or port == "p0"]
    ports = [
        SimpleNamespace(name=port, net=Net(port, widths[port]) if port in bound else None)
        for port in widths
    ]
    return SimpleNamespace(input_ports=ports, output_ports=[]), model


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    monitored=st.lists(components(), min_size=1, max_size=3),
    n_lanes=st.sampled_from([None, 1, 3, 129]),
    block=st.sampled_from([1, 7, None]),
    n_cycles=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_block_evaluator_matches_linear_model_evaluate(
    monitored, n_lanes, block, n_cycles, seed
):
    rng = np.random.default_rng(seed)
    # None: a scalar run, one lane fed tuples of port values
    lanes = 1 if n_lanes is None else n_lanes
    evaluator = BlockEvaluator(monitored, n_lanes=lanes)
    if block is not None:
        evaluator.block_cycles = block
    assert not evaluator.generic
    values = {
        p.net: rng.integers(0, 1 << p.net.width, size=(n_cycles, lanes))
        for component, _ in monitored for p in component.input_ports
        if p.net is not None
    }
    # every lane stops at its own cycle, mid-block for the short blocks
    finish = rng.integers(1, n_cycles + 1, size=lanes)
    if n_lanes is None:
        finish[:] = n_cycles
    for cycle in range(n_cycles):
        if n_lanes is None:
            evaluator.push(tuple(int(values[net][cycle, 0]) for net in evaluator.nets))
        else:
            row = np.array([values[net][cycle] for net in evaluator.nets]).reshape(-1, lanes)
            evaluator.push(row, active=(cycle < finish).astype(np.float64))

    totals = np.zeros((len(monitored), lanes))
    trace = np.zeros((n_cycles, lanes))
    for i, (component, model) in enumerate(monitored):
        ports = [p for p in component.input_ports if p.net is not None]
        scale = abs(model.base_energy_fj) + sum(
            abs(c) for cs in model.coefficients.values() for c in cs
        )
        for lane in range(lanes):
            for cycle in range(n_cycles):
                previous = max(cycle - 1, 0)
                energy = model.evaluate(
                    {p.name: int(values[p.net][previous, lane]) for p in ports},
                    {p.name: int(values[p.net][cycle, lane]) for p in ports},
                ) * (cycle < finish[lane])
                totals[i, lane] += energy
                trace[cycle, lane] += energy
        assert evaluator.totals[i] == pytest.approx(
            totals[i], rel=REL, abs=REL * scale * n_cycles)
    magnitude = sum(
        abs(m.base_energy_fj) + sum(abs(c) for cs in m.coefficients.values() for c in cs)
        for _, m in monitored
    )
    np.testing.assert_allclose(evaluator.cycle_trace(), trace, rtol=REL,
                               atol=REL * magnitude)
    np.testing.assert_allclose(evaluator.peak, np.maximum(trace.max(axis=0), 0.0),
                               rtol=REL, atol=REL * magnitude)


def test_block_evaluator_routes_wide_ports_and_subclasses_to_generic():
    class Custom(LinearTransitionModel):
        pass

    narrow = SimpleNamespace(name="a", net=Net("a", 60))
    wide = SimpleNamespace(name="a", net=Net("w", 61))
    model = LinearTransitionModel("unit", {"a": 60}, {"a": [1.0] * 60})
    wide_model = LinearTransitionModel("unit", {"a": 61}, {"a": [1.0] * 61})
    custom = Custom("unit", {"a": 60}, {"a": [1.0] * 60})
    fast = (SimpleNamespace(input_ports=[narrow], output_ports=[]), model)
    monitored = [
        fast,
        (SimpleNamespace(input_ports=[wide], output_ports=[]), wide_model),
        (SimpleNamespace(input_ports=[narrow], output_ports=[]), custom),
    ]
    evaluator = BlockEvaluator(monitored, n_lanes=2)
    assert evaluator.generic == monitored[1:]
    assert evaluator.nets == [narrow.net]
    # generic energies land in the same matrix, masked like the rest
    evaluator.push(np.array([[0, 7]]), [np.array([1.0, 2.0]), np.array([3.0, 4.0])],
                   np.array([1.0, 1.0]))
    evaluator.push(np.array([[1, 7]]), [np.array([5.0, 6.0]), np.array([7.0, 8.0])],
                   np.array([1.0, 0.0]))
    np.testing.assert_array_equal(
        evaluator.totals, [[1.0, 0.0], [6.0, 2.0], [10.0, 4.0]]
    )
    np.testing.assert_array_equal(evaluator.cycle_trace(), [[4.0, 6.0], [13.0, 0.0]])
    np.testing.assert_array_equal(evaluator.peak, [13.0, 6.0])


def test_evaluate_lanes_equals_scalar_evaluate_exactly():
    rng = np.random.default_rng(3)
    model = LinearTransitionModel(
        "unit", {"a": 33, "b": 9},
        {"a": list(rng.uniform(-3, 3, 33)), "b": list(rng.uniform(0, 3, 9))}, 1.5,
    )
    previous = {"a": rng.integers(0, 1 << 33, 64), "b": rng.integers(0, 1 << 9, 64)}
    current = {"a": rng.integers(0, 1 << 33, 64), "b": rng.integers(0, 1 << 9, 64)}
    for cast in (lambda a: a, lambda a: a.astype(object)):
        lanes = model.evaluate_lanes(
            {p: cast(v) for p, v in previous.items()},
            {p: cast(v) for p, v in current.items()},
        )
        assert lanes.tolist() == [
            model.evaluate({p: int(v[i]) for p, v in previous.items()},
                           {p: int(v[i]) for p, v in current.items()})
            for i in range(64)
        ]


# ------------------------------------------------------ engine exactness
def _fixed_blocks(monkeypatch, block):
    """Make both estimators evaluate in blocks of ``block`` cycles."""
    def make(*args, **kwargs):
        evaluator = BlockEvaluator(*args, **kwargs)
        evaluator.block_cycles = block
        return evaluator
    monkeypatch.setattr(lane_estimator, "BlockEvaluator", make)
    monkeypatch.setattr(rtl_estimator, "BlockEvaluator", make)


def _signature(report):
    return (
        report.cycles,
        report.total_energy_fj,
        report.peak_power_mw,
        {name: c.energy_fj for name, c in report.components.items()},
        list(report.cycle_energy_fj),
    )


@pytest.mark.parametrize("design", ["DCT", "HVPeakF", "Wide_Checksum"])
def test_scalar_interp_and_lanes_agree_exactly(design):
    seeds = [11, 12, 13]
    adapter = RTLEstimatorAdapter()

    def spec(seed, **kw):
        return RunSpec(design=design, seed=seed, max_cycles=96,
                       kernel_backend="off", **kw)

    compiled = [estimate(spec(s, backend="compiled")) for s in seeds]
    assert all(r.backend == "compiled" for r in compiled)
    interp = [estimate(spec(s, backend="interp")) for s in seeds]
    one_lane = [adapter.estimate_many([spec(s, backend="batch")])[0] for s in seeds]
    lanes = adapter.estimate_many([spec(s, backend="batch") for s in seeds])
    assert lanes[0].backend == f"batch[{len(seeds)}]"
    for results in (interp, one_lane, lanes):
        for got, want in zip(results, compiled):
            assert _signature(got.report) == _signature(want.report)


def test_block_length_never_changes_results(monkeypatch):
    entry = get_design("HVPeakF")
    seeds = [0, 1, 2]
    want = BatchRTLPowerEstimator(entry.build(), kernel_backend="off").estimate_all(
        [entry.make_testbench(s) for s in seeds], max_cycles=40)
    scalar_want = RTLPowerEstimator(entry.build()).estimate(
        entry.make_testbench(0), max_cycles=40)
    for block in (1, 7):
        _fixed_blocks(monkeypatch, block)
        got = BatchRTLPowerEstimator(entry.build(), kernel_backend="off").estimate_all(
            [entry.make_testbench(s) for s in seeds], max_cycles=40)
        assert [_signature(r) for r in got] == [_signature(r) for r in want]
        scalar = RTLPowerEstimator(entry.build()).estimate(
            entry.make_testbench(0), max_cycles=40)
        assert _signature(scalar) == _signature(scalar_want) == _signature(want[0])


# ------------------------------------------------------- profile windows
def test_collector_running_blocks_split_at_windows_and_coalesce_mid_block():
    rng = np.random.default_rng(5)
    energies = rng.uniform(0.0, 4.0, size=(101, 3, 2))
    streamed = WindowedEnergyCollector(["a", "b", "c"], ["x"] * 3,
                                       window_cycles=3, max_windows=4, n_lanes=2)
    for running in np.add.accumulate(energies, axis=0):
        streamed.advance(1, running)
    blocked = WindowedEnergyCollector(["a", "b", "c"], ["x"] * 3,
                                      window_cycles=3, max_windows=4, n_lanes=2)
    # three generic components: the evaluator takes their energies as pushed
    generic = [(SimpleNamespace(input_ports=[], output_ports=[]), None)] * 3
    evaluator = BlockEvaluator(generic, n_lanes=2, collectors=[blocked])
    evaluator.block_cycles = 13  # 13-cycle blocks: windows land mid-block
    for cycle in range(101):
        evaluator.push(np.zeros((0, 2), dtype=np.int64), list(energies[cycle]))
    evaluator.flush()
    assert blocked.window_cycles == streamed.window_cycles > 3
    assert blocked.cycles == 101
    np.testing.assert_allclose(blocked.matrix(), streamed.matrix(), rtol=REL)
    np.testing.assert_allclose(blocked.matrix().sum(axis=0), energies.sum(axis=0),
                               rtol=REL)


def test_profile_window_sums_match_totals_when_window_does_not_divide_block(
    monkeypatch,
):
    _fixed_blocks(monkeypatch, 5)
    entry = get_design("DCT")
    config = ProfileConfig(window_cycles=3, max_windows=4)
    scalar = RTLPowerEstimator(entry.build())
    report = scalar.estimate(entry.make_testbench(4), max_cycles=100, profile=config)
    batch = BatchRTLPowerEstimator(entry.build(), kernel_backend="off")
    lane_reports = batch.estimate_all(
        [entry.make_testbench(4), entry.make_testbench(5)], max_cycles=100,
        profile=config)
    pairs = [(report, scalar.last_profile)] + list(zip(lane_reports, batch.last_profiles))
    for got, profile in pairs:
        assert profile.window_cycles == 48  # 3 -> 6 -> 12 -> 24 -> 48
        assert profile.total_energy_fj() == pytest.approx(got.total_energy_fj, rel=REL)
        sums = profile.component_energy_fj()
        for name, component in got.components.items():
            assert sums[name] == pytest.approx(component.energy_fj, rel=REL, abs=1e-9)
    np.testing.assert_allclose(scalar.last_profile.energy_fj,
                               batch.last_profiles[0].energy_fj, rtol=REL)


def test_scalar_and_batch_profiles_use_the_same_default_window():
    results = [
        estimate(RunSpec(design="DCT", seed=3, max_cycles=640, power_profile=True,
                         backend=backend, kernel_backend="off"))
        for backend in ("compiled", "batch")
    ]
    scalar, batch = (r.profile for r in results)
    assert scalar.window_cycles == batch.window_cycles == 10
    assert scalar.n_windows == batch.n_windows == 64
    np.testing.assert_allclose(scalar.energy_fj, batch.energy_fj, rtol=REL)


def test_scalar_runs_report_observer_time():
    result = estimate(RunSpec(design="DCT", seed=1, max_cycles=128))
    phases = result.metadata["phase_s"]
    assert 0.0 < phases["macromodel_eval_s"] <= phases["simulate_s"]


# ------------------------------------------------- native observation
needs_cc = pytest.mark.skipif(kernels.find_compiler() is None,
                              reason="no C compiler on this host")


class _Generic(LinearTransitionModel):
    """A model the evaluators leave to the caller (the generic path)."""


@functools.lru_cache(maxsize=None)
def _kernel() -> native.NativeKernel:
    """A native lane kernel: its observe entry point is design-independent."""
    return native.NativeKernel(
        compile_module_batch(build_flat("binary_search"), 1).ir, 1)


def _same(a, b) -> bool:
    """Bit-for-bit equality of two float arrays (tells -0.0 from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@needs_cc
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    monitored=st.lists(components(), min_size=1, max_size=4),
    n_lanes=st.sampled_from([1, 127, 128, 129]),
    n_cycles=st.integers(1, 24),
    window=st.integers(1, 4),
    swap=st.integers(0, 25),
    seed=st.integers(0, 2**16),
)
def test_native_evaluator_equals_block_evaluator(monitored, n_lanes, n_cycles,
                                                 window, swap, seed):
    """The C ``observe`` performs flush's float operations in flush's order,
    from cycle 0 on a bound evaluator and from cycle ``swap`` on one that
    binds mid-run, after pending NumPy cycles (pushed in blocks of 3)."""
    rng = np.random.default_rng(seed)

    def evaluator():
        collectors = [
            WindowedEnergyCollector(["c"] * len(monitored), ["unit"] * len(monitored),
                                    window_cycles=w, max_windows=4, n_lanes=n_lanes)
            for w in (window, window + 2)
        ]
        return BlockEvaluator(monitored, n_lanes, collectors=collectors)

    block = evaluator()
    fast = evaluator()
    fast.bind(_kernel(), np.arange(len(fast.nets)))
    handed = evaluator()
    handed.block_cycles = 3
    store = np.zeros((len(block.nets), n_lanes), dtype=np.int64)
    finish = rng.integers(1, n_cycles + 1, size=n_lanes)
    for cycle in range(n_cycles):
        # per net: no lane toggles, a few do, or every lane draws anew
        for row, net in enumerate(block.nets):
            changed = rng.random(n_lanes) < rng.choice([0.0, 0.1, 1.0])
            store[row, changed] = rng.integers(0, 1 << net.width, size=changed.sum())
        active = (cycle < finish).astype(np.float64)
        block.push(store.copy(), (), active)
        fast.push(store, (), active)
        if cycle == swap:
            handed.bind(_kernel(), np.arange(len(handed.nets)))
        handed.push(store if cycle >= swap else store.copy(), (), active)
    block.flush()
    for got in (fast, handed):
        got.flush()
        assert got.cycles == block.cycles == n_cycles
        assert _same(got.totals, block.totals)
        assert _same(got.peak, block.peak)
        assert _same(got.cycle_trace(), block.cycle_trace())
        for collector, want in zip(got.collectors, block.collectors):
            assert (collector.window_cycles, collector.cycles) == (
                want.window_cycles, want.cycles)
            assert _same(collector.matrix(), want.matrix())


@needs_cc
def test_native_evaluator_refuses_generic_components():
    """The C observer evaluates table components only."""
    port = SimpleNamespace(name="p0", net=Net("p0", 8))
    component = SimpleNamespace(input_ports=[port], output_ports=[])
    models = [cls("unit", {"p0": 8}, {"p0": [1.0] * 8}, 0.5)
              for cls in (LinearTransitionModel, _Generic)]
    block = BlockEvaluator([(component, model) for model in models], 1)
    with pytest.raises(ValueError, match="table components only"):
        block.bind(_kernel(), np.arange(len(block.nets)))


#: every registry design, plus one carrying power-model hardware
INSTRUMENTED_DCT = "DCT+instrument"


def _lane_module(name, library):
    if name == INSTRUMENTED_DCT:
        # every power-hardware kind (model, accumulator, aggregator, strobe)
        # on every monitored component: its native kernel builds in ~2.2 s
        # on a 2-vCPU host (one table sum per model)
        return instrument(get_design("DCT").build(), library,
                          InstrumentationConfig()).module
    return build_flat(name)


@needs_cc
@pytest.mark.parametrize("name", sorted(all_designs()) + [INSTRUMENTED_DCT])
def test_native_lanes_equal_block_lanes_and_scalar_runs(name):
    library = build_seed_library()
    entry = get_design(name.split("+")[0])
    budgets = [17, 70, 40]
    # lanes 0 and 2 share a 3-cycle window collector, lane 1 gets its
    # budget's default (2 cycles); eight windows make every lane coalesce,
    # lanes 0 and 2 after they stopped
    configs = [ProfileConfig(window_cycles=3, max_windows=8),
               ProfileConfig(max_windows=8),
               ProfileConfig(window_cycles=3, max_windows=8)]

    def testbenches():
        benches = [entry.make_testbench(seed) for seed in (1, 2, 3)]
        for bench, budget in zip(benches, budgets):
            bench.max_cycles = budget
        return benches

    scalar = RTLPowerEstimator(_lane_module(name, library), library=library)
    # a block with a generic component (Wide_Checksum's limb-store ports)
    # observes through the BlockEvaluator on every backend
    native_eval = "block" if BlockEvaluator(scalar.monitored).generic else "native"
    want = ([], [])
    for bench, config in zip(testbenches(), configs):
        want[0].append(_signature(scalar.estimate(bench, profile=config)))
        want[1].append((scalar.last_profile.window_cycles, scalar.last_profile.energy_fj))
    for backend, threads in (("off", 1), ("native", 1), ("native", 2)):
        estimator = BatchRTLPowerEstimator(
            _lane_module(name, library), library=library,
            kernel_backend=backend, kernel_threads=threads)
        reports = estimator.estimate_all(testbenches(), profile=configs)
        assert estimator.last_macromodel_eval == (
            native_eval if backend == "native" else "block")
        got = ([_signature(r) for r in reports],
               [(p.window_cycles, p.energy_fj) for p in estimator.last_profiles])
        assert got == want, (backend, threads)
        # without trace and profile, the same energies
        bare = estimator.estimate_all(testbenches(), keep_cycle_trace=False)
        assert [_signature(r)[:4] for r in bare] == [s[:4] for s in want[0]]
        assert all(r.cycle_energy_fj == [] for r in bare)


@needs_cc
def test_estimate_many_records_the_evaluator():
    specs = [RunSpec(design="HVPeakF", seed=seed, max_cycles=32, backend="batch",
                     kernel_backend=backend)
             for seed in (1, 2) for backend in ("native", "off")]
    adapter = RTLEstimatorAdapter()
    native_lanes = adapter.estimate_many(specs[0::2])
    off_lanes = adapter.estimate_many(specs[1::2])
    scalar = estimate(specs[0].replace(backend="compiled"))
    assert {r.metadata["macromodel_eval"] for r in native_lanes} == {"native"}
    assert {r.metadata["macromodel_eval"] for r in off_lanes} == {"block"}
    assert scalar.metadata["macromodel_eval"] == "block"
    for got, want in zip(native_lanes, off_lanes):
        assert _signature(got.report) == _signature(want.report)


# ---------------------------------------------------- the float contract
@needs_cc
def test_kernels_compile_without_fp_contraction(monkeypatch):
    """A fused multiply-add would round observe's ``energy * mask + total`` once."""
    ir = compile_module_batch(build_flat("binary_search"), 1).ir
    native.threading_mode()  # probe outside the recorded calls
    calls = []
    run = native._run_compiler

    def recording(command):
        calls.append(list(command))
        return run(command)

    monkeypatch.setattr(native, "_run_compiler", recording)
    source = native.generate_c_source(ir) + "\n/* uncached */\n"
    _, lib = native._compile_library(source, ir)
    assert calls and all("-ffp-contract=off" in command for command in calls)
    assert hasattr(lib, "observe") and hasattr(lib, "settle")


@needs_cc
def test_lane_estimate_compiles_one_kernel_per_program(monkeypatch):
    """observe rides in the kernel's own library: no second compile."""
    evaluators = []
    bind = BlockEvaluator.bind

    def recording(self, kernel, rows):
        bind(self, kernel, rows)
        evaluators.append(kernel)

    monkeypatch.setattr(BlockEvaluator, "bind", recording)
    entry = get_design("HVPeakF")
    module = entry.build()  # a fresh module: a fresh lane program
    before = kernels.KERNEL_BUILD_COUNT
    estimator = BatchRTLPowerEstimator(module, kernel_backend="native")
    estimator.estimate_all([entry.make_testbench(s) for s in (1, 2)], max_cycles=16)
    assert kernels.KERNEL_BUILD_COUNT == before + 1
    program = compile_module_batch(module, 2)
    assert evaluators == [program._kernel]
    assert estimator.last_macromodel_eval == "native"
