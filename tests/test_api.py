"""Tests for the unified estimation API (repro.api).

Covers the declarative specs and their JSON round-trips, protocol conformance
of the three engine adapters (one spec shape in, comparable reports out),
auto-flattening, the multi-seed sweep runner (batch lanes, shard pool, disk
cache), and lane-count invariance of the batched RTL path.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    EmulationEstimatorAdapter,
    EstimateResult,
    GateLevelEstimatorAdapter,
    PowerEstimator,
    RTLEstimatorAdapter,
    RunSpec,
    SweepSpec,
    estimate,
    estimator_for,
    sweep,
)
from repro.api.spec import COALESCE_FREE_FIELDS, coalesce_key
from repro.api.sweep import SweepResult
from repro.stim import (
    BurstSpec,
    ConstantSpec,
    MarkovSpec,
    MixtureSpec,
    ReplaySpec,
    StimulusSpec,
    UniformSpec,
)

DESIGN = "binary_search"
CYCLES = 64


# ----------------------------------------------------------------- specs


def test_runspec_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        RunSpec(design=DESIGN, engine="spice")
    with pytest.raises(ValueError, match="unknown backend"):
        RunSpec(design=DESIGN, backend="verilator")
    with pytest.raises(ValueError, match="only available for the 'rtl'"):
        RunSpec(design=DESIGN, engine="gate", backend="batch")
    with pytest.raises(ValueError, match="library"):
        RunSpec(design=DESIGN, library="characterized")


def test_runspec_json_roundtrip():
    spec = RunSpec(design="DCT", engine="emulation", seed=7, max_cycles=100,
                   coefficient_bits=10, workload_cycles=12345)
    again = RunSpec.from_json(spec.to_json())
    assert again == spec
    assert spec.replace(seed=8) != spec
    assert spec.replace(seed=8).design == "DCT"


def test_sweepspec_expansion_and_normalization():
    spec = SweepSpec(designs=["DCT", "HVPeakF"], engines=["rtl", "gate"],
                     seeds=[0, 1, 2])
    assert spec.designs == ("DCT", "HVPeakF")  # lists normalize to tuples
    specs = spec.run_specs()
    assert len(specs) == 2 * 2 * 3
    assert {s.engine for s in specs} == {"rtl", "gate"}
    with pytest.raises(ValueError, match="at least one design"):
        SweepSpec(designs=())


def _asdict_payload(spec):
    """The reference ``to_dict``: a deep ``asdict`` plus the stimulus payload."""
    payload = dataclasses.asdict(spec)
    if spec.stimulus is not None:
        payload["stimulus"] = spec.stimulus.to_dict()
    return payload


def _asdict_key(spec):
    """The reference ``coalesce_key``, built on :func:`_asdict_payload`."""
    payload = _asdict_payload(spec)
    for name in COALESCE_FREE_FIELDS:
        payload.pop(name, None)
    if spec.engine == "rtl" and payload.get("backend") in ("auto", "batch"):
        payload["backend"] = "batch"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_PORT_KINDS = {
    "uniform": UniformSpec(hold=2),
    "burst": BurstSpec(active=3, idle=2, hold=2, phase=1, idle_value=4),
    "markov": MarkovSpec(p01=0.25, p10=0.5, init=3),
    "mixture": MixtureSpec(components=((1.0, UniformSpec()), (3.0, ConstantSpec(7))),
                           hold=2),
    "replay": ReplaySpec(values=(1, 2, 3), repeat=True),
    "constant": ConstantSpec(9),
}
_STIMULI = [None] + [
    StimulusSpec(n_cycles=24, seed=2, ports={"a": port}, default=None)
    for port in _PORT_KINDS.values()
] + [
    StimulusSpec(n_cycles=12, ports=_PORT_KINDS),
    StimulusSpec(n_cycles=8, default=MarkovSpec(p01=0.5)),
]


@pytest.mark.parametrize("stimulus", _STIMULI, ids=lambda s: "none" if s is None else
                         "+".join(sorted(type(p).kind for _, p in s.ports)) or "default")
@pytest.mark.parametrize("changes", [
    {},
    {"backend": "batch", "kernel_backend": "off", "kernel_threads": 2},
    {"backend": "compiled", "max_cycles": 40},
    {"engine": "gate", "library": "seed"},
    {"seed": 5, "keep_cycle_trace": True, "compare_to_rtl": True, "power_profile": True,
     "profile_window": 4, "timeout_s": 2.5, "max_retries": 1},
])
def test_spec_payloads_and_keys_equal_asdict_reference(stimulus, changes):
    spec = RunSpec(design="HVPeakF", stimulus=stimulus, **changes)
    payload = spec.to_dict()
    reference = _asdict_payload(spec)
    assert repr(payload) == repr(reference)
    assert spec.to_json() == json.dumps(reference, sort_keys=True)
    assert repr(spec.cache_dict()) == repr(
        {k: v for k, v in reference.items() if k not in ("timeout_s", "max_retries")})
    assert coalesce_key(spec) == _asdict_key(spec)
    sweep_spec = SweepSpec(designs=("HVPeakF",), seeds=(1, 2), stimulus=stimulus)
    assert repr(sweep_spec.to_dict()) == repr(_asdict_payload(sweep_spec))
    # a caller mutating a returned payload, nested stimulus included, changes
    # nothing the next call returns (the key memoizes the stimulus payload)
    key = coalesce_key(spec)
    payload["design"] = "DCT"
    if stimulus is not None:
        payload["stimulus"]["n_cycles"] = 1
        payload["stimulus"]["ports"].clear()
    assert repr(spec.to_dict()) == repr(reference)
    assert coalesce_key(spec) == key == _asdict_key(spec)


# ------------------------------------------------- protocol conformance


@pytest.fixture(scope="module")
def rtl_result():
    return estimate(RunSpec(design=DESIGN, engine="rtl", seed=3, max_cycles=CYCLES))


def test_one_shot_estimates_share_the_observe_plan(monkeypatch):
    """Each one-shot ``estimate`` builds its own seed library, but the seed
    models are shared per technology, so the second call reuses the first
    call's observe plan; each library still counts its own lookups."""
    from repro.designs.registry import build_flat
    from repro.power import block
    from repro.power.library import build_seed_library

    built = []

    class Counting(block.ObservePlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(block, "ObservePlan", Counting)
    monkeypatch.setattr(block, "_PLANS", type(block._PLANS)())
    spec = RunSpec(design="DCT", engine="rtl", seed=2, max_cycles=CYCLES)
    first, second = estimate(spec), estimate(spec)
    assert len(built) == 1
    assert (dataclasses.replace(first.report, estimation_time_s=0.0)
            == dataclasses.replace(second.report, estimation_time_s=0.0))
    libraries = build_seed_library(), build_seed_library()
    component = next(iter(build_flat("DCT").components.values()))
    assert libraries[0].lookup(component) is libraries[1].lookup(component)
    assert [(lib.hits, lib.misses) for lib in libraries] == [(0, 1), (0, 1)]


def test_adapters_satisfy_protocol():
    for engine, cls in (("rtl", RTLEstimatorAdapter),
                        ("gate", GateLevelEstimatorAdapter),
                        ("emulation", EmulationEstimatorAdapter)):
        adapter = estimator_for(engine)
        assert isinstance(adapter, cls)
        assert isinstance(adapter, PowerEstimator)
        assert adapter.engine == engine
    with pytest.raises(ValueError, match="unknown engine"):
        estimator_for("spice")


def test_all_engines_share_spec_semantics(rtl_result):
    """The same spec shape drives every engine to a comparable report."""
    results = {"rtl": rtl_result}
    for engine in ("gate", "emulation"):
        results[engine] = estimate(
            RunSpec(design=DESIGN, engine=engine, seed=3, max_cycles=CYCLES)
        )
    for engine, result in results.items():
        assert result.spec.design == DESIGN
        assert result.report.cycles == CYCLES
        assert result.report.average_power_mw > 0
        assert result.total_s > 0
        assert result.metadata["design"] == DESIGN
    # engines disagree only modestly on the same workload
    rtl_power = results["rtl"].average_power_mw
    emu_power = results["emulation"].average_power_mw
    assert abs(emu_power - rtl_power) / rtl_power < 0.2


def test_adapter_rejects_wrong_engine_spec():
    with pytest.raises(ValueError, match="implements"):
        RTLEstimatorAdapter().estimate(RunSpec(design=DESIGN, engine="gate"))


def test_accuracy_vs_rtl_attached():
    result = estimate(
        RunSpec(design=DESIGN, engine="emulation", seed=3, max_cycles=CYCLES,
                compare_to_rtl=True)
    )
    assert result.accuracy is not None
    assert abs(result.accuracy["relative_error"]) < 0.2
    assert result.accuracy["reference_power_mw"] > 0


def test_estimate_result_json_roundtrip():
    result = estimate(
        RunSpec(design=DESIGN, engine="emulation", seed=2, max_cycles=CYCLES,
                compare_to_rtl=True, keep_cycle_trace=True)
    )
    again = EstimateResult.from_json(result.to_json())
    assert again.spec == result.spec
    assert again.engine == result.engine
    assert again.backend == result.backend
    assert again.average_power_mw == pytest.approx(result.average_power_mw)
    assert again.report.cycle_energy_fj == pytest.approx(result.report.cycle_energy_fj)
    assert again.accuracy == result.accuracy
    assert again.metadata["device"] == result.metadata["device"]
    assert set(again.report.components) == set(result.report.components)
    # and the serialized form really is JSON
    payload = json.loads(result.to_json())
    assert payload["spec"]["design"] == DESIGN


# -------------------------------------------------------- auto-flatten


def _hierarchical_module():
    from repro.netlist import NetlistBuilder
    from repro.netlist.module import Module

    b = NetlistBuilder("leaf")
    a = b.input("a", 8)
    x = b.input("x", 8)
    b.output("y", b.add(a, x, name="adder"))
    leaf = b.build()
    parent = Module("parent")
    pa = parent.add_input("a", 8)
    px = parent.add_input("x", 8)
    py = parent.add_net("y", leaf.ports["y"].width)
    parent.add_instance("u0", leaf, {"a": pa, "x": px, "y": py})
    parent.add_output("y", py)
    return parent


def test_adapter_auto_flattens_hierarchical_modules():
    from repro.power import RTLPowerEstimator
    from repro.sim import RandomTestbench

    module = _hierarchical_module()
    # the legacy constructor refuses with actionable guidance...
    with pytest.raises(ValueError, match="repro.api"):
        RTLPowerEstimator(module)
    # ...while the adapter flattens automatically
    adapter = RTLEstimatorAdapter(
        module=module,
        testbench_factory=lambda seed: RandomTestbench(30, seed=seed or 0),
    )
    result = adapter.estimate(RunSpec(design="custom", engine="rtl", seed=1))
    assert result.report.cycles == 30
    assert result.report.average_power_mw > 0


def test_explicit_module_requires_testbench_factory():
    with pytest.raises(ValueError, match="testbench_factory"):
        RTLEstimatorAdapter(module=_hierarchical_module())


# --------------------------------------------- lane-count invariance


def test_batch_backend_matches_scalar_single_run(rtl_result):
    batched = estimate(
        RunSpec(design=DESIGN, engine="rtl", seed=3, max_cycles=CYCLES,
                backend="batch")
    )
    assert batched.backend == "batch[1]"
    assert batched.report.cycles == rtl_result.report.cycles
    assert batched.average_power_mw == pytest.approx(rtl_result.average_power_mw)
    assert batched.report.total_energy_fj == pytest.approx(
        rtl_result.report.total_energy_fj
    )


def test_single_batch_estimate_is_a_one_lane_estimate_many(monkeypatch):
    """``estimate`` on a batch spec keeps its result shape, and the scalar
    fallback for modules the lane path cannot run still reports compiled."""
    spec = RunSpec(design=DESIGN, engine="rtl", seed=3, max_cycles=CYCLES,
                   backend="batch", kernel_backend="off")
    adapter = RTLEstimatorAdapter()
    result = adapter.estimate(spec)
    assert result.backend == "batch[1]"
    assert result.spec == spec
    assert result.metadata["kernel_backend"] == "off"
    assert result.metadata["kernel_decision"] == "off (requested)"
    assert result.metadata["kernel_threads"] == 1
    phases = result.metadata["phase_s"]
    assert set(phases) == {
        "setup_s", "lane_build_s", "simulate_s", "macromodel_eval_s",
        "testbench_s", "total_s",
    }
    assert phases["testbench_s"] + phases["macromodel_eval_s"] <= phases["simulate_s"]
    many = adapter.estimate_many([spec])[0]
    assert many.report.total_energy_fj == result.report.total_energy_fj

    from repro.power import lane_estimator
    from repro.sim.batch import BatchCompilationError, LaneStateError

    for error in (BatchCompilationError, LaneStateError):
        def refuse(*args, _error=error, **kwargs):
            raise _error("lane path unavailable")

        monkeypatch.setattr(lane_estimator.BatchRTLPowerEstimator, "__init__",
                            refuse)
        fallback = adapter.estimate(spec)
        assert fallback.backend == "compiled"
        assert fallback.spec == spec
        assert set(fallback.metadata["phase_s"]) == {
            "setup_s", "simulate_s", "macromodel_eval_s", "total_s",
        }
        assert fallback.report.total_energy_fj == pytest.approx(
            result.report.total_energy_fj, rel=1e-9
        )


@pytest.mark.parametrize("design", ["binary_search", "Ispq"])
def test_multi_seed_batch_matches_scalar_per_seed(design):
    """Lane count never changes results: N lanes == N scalar runs."""
    seeds = [0, 1, 2]
    adapter = RTLEstimatorAdapter()
    specs = [RunSpec(design=design, engine="rtl", seed=s) for s in seeds]
    batched = adapter.estimate_many(specs)
    assert all(r.backend == f"batch[{len(seeds)}]" for r in batched)
    for spec, lane_result in zip(specs, batched):
        scalar = estimate(spec)
        assert lane_result.report.cycles == scalar.report.cycles
        assert lane_result.report.total_energy_fj == pytest.approx(
            scalar.report.total_energy_fj
        )
        for name, component in scalar.report.components.items():
            assert lane_result.report.components[name].energy_fj == pytest.approx(
                component.energy_fj
            )


def test_estimate_many_rejects_mixed_designs():
    adapter = RTLEstimatorAdapter()
    with pytest.raises(ValueError, match="sharing design"):
        adapter.estimate_many([
            RunSpec(design="binary_search", engine="rtl", seed=0),
            RunSpec(design="Ispq", engine="rtl", seed=0),
        ])


def test_estimate_many_keys_once_per_block_and_checks_every_engine(monkeypatch):
    from repro.api import spec as spec_module

    keyed = []
    real = spec_module.coalesce_key
    monkeypatch.setattr(spec_module, "coalesce_key",
                        lambda spec: keyed.append(spec.seed) or real(spec))
    adapter = RTLEstimatorAdapter()
    specs = [RunSpec(design="binary_search", engine="rtl", seed=s, max_cycles=8)
             for s in range(3)]
    # a field-equal block keys its first spec only
    assert len(adapter.estimate_many(specs)) == 3
    assert keyed == [0]
    # auto and batch normalize to one key: the batch spec is keyed and joins
    keyed.clear()
    mixed = [specs[0], specs[1].replace(backend="batch"), specs[2]]
    assert [r.backend for r in adapter.estimate_many(mixed)] == ["batch[3]"] * 3
    assert keyed == [0, 1]
    # a spec that differs in a key field is refused with both keys
    wrong = [specs[0], specs[1], specs[2].replace(max_cycles=9)]
    with pytest.raises(ValueError, match="requires lane-compatible specs") as refused:
        adapter.estimate_many(wrong)
    assert real(wrong[2]) in str(refused.value)
    assert real(specs[0]) in str(refused.value)
    for position in (0, 2):
        wrong = list(specs)
        wrong[position] = specs[position].replace(engine="gate")
        with pytest.raises(ValueError, match="requests engine 'gate'"):
            adapter.estimate_many(wrong)


# ----------------------------------------------------------------- sweep


def test_sweep_multi_seed_rtl_uses_batch_lanes(tmp_path):
    spec = SweepSpec(designs=(DESIGN,), engines=("rtl",), seeds=(0, 1, 2, 3),
                     max_cycles=CYCLES, cache_dir=str(tmp_path))
    result = sweep(spec)
    assert len(result.results) == 4
    assert {r.backend for r in result.results} == {"batch[4]"}
    distribution = result.distribution(DESIGN, "rtl")
    assert distribution["n_seeds"] == 4
    assert distribution["min_mw"] <= distribution["mean_mw"] <= distribution["max_mw"]
    assert DESIGN in result.summary()

    # a repeat sweep is served from the on-disk cache with identical results
    again = sweep(spec)
    assert again.cache_hits == 4
    for first, second in zip(result.results, again.results):
        assert second.average_power_mw == pytest.approx(first.average_power_mw)

    # and the whole sweep result round-trips through JSON
    restored = SweepResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert [r.average_power_mw for r in restored.results] == pytest.approx(
        [r.average_power_mw for r in result.results]
    )


def test_sweep_sharded_matches_serial():
    spec_serial = SweepSpec(designs=(DESIGN,), engines=("rtl", "emulation"),
                            seeds=(0, 1), max_cycles=CYCLES, n_workers=1)
    spec_pool = SweepSpec(designs=(DESIGN,), engines=("rtl", "emulation"),
                          seeds=(0, 1), max_cycles=CYCLES, n_workers=2)
    serial = sweep(spec_serial)
    pooled = sweep(spec_pool)
    assert len(serial.results) == len(pooled.results) == 4
    for a, b in zip(serial.results, pooled.results):
        assert a.spec.engine == b.spec.engine and a.spec.seed == b.spec.seed
        assert b.average_power_mw == pytest.approx(a.average_power_mw)


# ------------------------------------------------------------- registry


def test_registry_get_and_seeded_testbenches():
    from repro.designs import registry

    entry = registry.get(DESIGN)
    assert entry is not None and entry.name == DESIGN
    tb_a = entry.make_testbench(seed=4)
    tb_b = entry.make_testbench(seed=4)
    tb_c = entry.make_testbench()  # default stimulus
    assert type(tb_a) is type(tb_c)
    assert tb_a is not tb_b
    with pytest.raises(KeyError, match="available"):
        registry.get("not_a_design")


# ----------------------------------------------------------------- CLI


def test_cli_run_writes_json_artifact(tmp_path, capsys):
    from repro.api.cli import main

    out = tmp_path / "run.json"
    code = main(["run", "--design", DESIGN, "--engine", "rtl",
                 "--max-cycles", str(CYCLES), "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    restored = EstimateResult.from_dict(payload)
    assert restored.spec.design == DESIGN
    assert restored.report.cycles == CYCLES
    assert DESIGN in capsys.readouterr().out


def test_cli_sweep_writes_json_artifact(tmp_path, capsys):
    from repro.api.cli import main

    out = tmp_path / "sweep.json"
    code = main(["sweep", "--designs", DESIGN, "--seeds", "0", "1",
                 "--max-cycles", str(CYCLES), "--json", str(out)])
    assert code == 0
    restored = SweepResult.from_dict(json.loads(out.read_text()))
    assert len(restored.results) == 2
    assert "mean (mW)" in capsys.readouterr().out
