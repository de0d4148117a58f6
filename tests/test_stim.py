"""Tests for the declarative stimulus subsystem (repro.stim).

Covers the spec layer (JSON round trips, validation, CLI shorthand, VCD
replay), the compiler (chunk invariance, per-seed lane independence), the
drivers (scalar vs lane bit-identity on every registry design, array driver
vs LaneView loop equality), the API/CLI wiring (RunSpec/SweepSpec stimulus,
seed ranges, duplicate rejection, the stim subcommand), plus the satellite
coverage: LaneView memory backdoors and the int64 limb lane store under
driven stimulus, and the deprecation note of the ``python -m repro.bench.fig3``
shim.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import RunSpec, SweepSpec, estimate, sweep
from repro.api.cli import main, parse_seed_list
from repro.designs.registry import all_designs, build_flat, get_design
from repro.netlist import NetlistBuilder, flatten
from repro.power import build_seed_library
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.sim import BatchSimulator, Simulator
from repro.stim import (
    BatchStimulusDriver,
    BurstSpec,
    CompiledStimulus,
    ConstantSpec,
    MarkovSpec,
    MixtureSpec,
    ReplaySpec,
    SpecTestbench,
    StimulusSpec,
    UniformSpec,
    parse_stimulus,
    replay_from_vcd,
)


def _compound_spec(n_cycles=32, seed=3) -> StimulusSpec:
    """One spec exercising every port-stream kind."""
    return StimulusSpec(
        n_cycles=n_cycles,
        seed=seed,
        ports={
            "a": BurstSpec(active=3, idle=5, hold=2, phase=1),
            "b": MarkovSpec(p01=0.3, p10=0.2, init=5),
            "c": MixtureSpec(
                components=((0.6, UniformSpec(hold=4)), (0.4, ConstantSpec(9))),
                hold=3,
            ),
            "d": ReplaySpec(values=(1, 2, 3), repeat=True),
        },
        default=UniformSpec(hold=2),
    )


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------


def test_stimulus_spec_json_round_trip():
    spec = _compound_spec()
    assert StimulusSpec.from_json(spec.to_json()) == spec
    # and through plain JSON text (tuples become lists and come back)
    assert StimulusSpec.from_dict(json.loads(spec.to_json())) == spec


def test_stimulus_spec_validation():
    with pytest.raises(ValueError, match="n_cycles"):
        StimulusSpec(n_cycles=0)
    with pytest.raises(ValueError, match="hold"):
        UniformSpec(hold=0)
    with pytest.raises(ValueError, match="active"):
        BurstSpec(active=0)
    with pytest.raises(ValueError, match="p01"):
        MarkovSpec(p01=1.5)
    with pytest.raises(ValueError, match="component"):
        MixtureSpec(components=())
    with pytest.raises(ValueError, match="value"):
        ReplaySpec(values=())


def test_stimulus_spec_duplicate_port_names_rejected():
    # tuple-of-pairs form with a name collision must hit the clear error,
    # not a TypeError from sorting unorderable PortSpec instances
    with pytest.raises(ValueError, match="duplicate port names"):
        StimulusSpec(
            n_cycles=4,
            ports=(("a", UniformSpec()), ("a", ConstantSpec(1))),
        )


def test_stimulus_spec_resolve_names_unknown_ports():
    spec = StimulusSpec(n_cycles=4, ports={"nope": ConstantSpec(1)})
    with pytest.raises(KeyError, match="nope"):
        spec.resolve({"a": 8})
    # default=None leaves unnamed ports undriven; no ports at all is an error
    empty = StimulusSpec(n_cycles=4, default=None)
    with pytest.raises(ValueError, match="drives no ports"):
        empty.resolve({"a": 8})


def test_parse_stimulus_forms(tmp_path):
    shorthand = parse_stimulus("burst:active=4,idle=12,cycles=96,seed=7")
    assert shorthand.n_cycles == 96 and shorthand.seed == 7
    assert shorthand.default == BurstSpec(active=4, idle=12)

    inline = parse_stimulus(_compound_spec().to_json())
    assert inline == _compound_spec()

    path = tmp_path / "scenario.json"
    path.write_text(_compound_spec().to_json())
    assert parse_stimulus(f"@{path}") == _compound_spec()

    with pytest.raises(ValueError, match="unknown stimulus shorthand"):
        parse_stimulus("gaussian")
    with pytest.raises(ValueError, match="key=value"):
        parse_stimulus("uniform:hold")


def test_replay_from_vcd():
    text = """$timescale 1 ns $end
$scope module top $end
$var wire 4 ! data $end
$var wire 1 @ valid $end
$upscope $end
$enddefinitions $end
#0 b0101 ! 1@
#2 b1111 !
#3 0@
"""
    spec = replay_from_vcd(text, ports={"data": "data", "valid": "valid"})
    assert spec.port_map()["data"].values == (5, 5, 15, 15)
    assert spec.port_map()["valid"].values == (1, 1, 1, 0)
    with pytest.raises(KeyError, match="missing"):
        replay_from_vcd(text, ports={"x": "missing"})


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


WIDTHS = {"a": 8, "b": 12, "c": 16, "d": 4, "e": 61, "f": 70}


def _as_ints(tensor):
    return [int(v) for v in tensor.flat]


def test_compiled_stimulus_chunk_invariance():
    spec = _compound_spec(n_cycles=50)
    tensors = [
        CompiledStimulus(spec, WIDTHS, [3, 11], chunk_cycles=c).tensor()
        for c in (1, 7, 64, 1000)
    ]
    for other in tensors[1:]:
        assert _as_ints(tensors[0]) == _as_ints(other)
    assert tensors[0].shape == (50, 6, 2)


def test_compiled_stimulus_per_seed_lane_independence():
    """Lane i of a multi-seed compile equals a single-seed compile of seeds[i]."""
    spec = _compound_spec(n_cycles=40)
    multi = CompiledStimulus(spec, WIDTHS, [3, 11, 200], chunk_cycles=16).tensor()
    for lane, seed in enumerate([3, 11, 200]):
        single = CompiledStimulus(spec, WIDTHS, [seed], chunk_cycles=9).tensor()
        assert _as_ints(single[:, :, 0]) == _as_ints(multi[:, :, lane])


def test_compiled_stimulus_values_widths_and_dtype():
    spec = _compound_spec(n_cycles=30)
    compiled = CompiledStimulus(spec, WIDTHS, [0])
    assert compiled.dtype is object  # 61/70-bit ports force exact ints
    tensor = compiled.tensor()
    for p, width in enumerate(compiled.port_widths):
        for value in tensor[:, p, :].flat:
            assert 0 <= int(value) < (1 << width)
    narrow = CompiledStimulus(spec, {k: WIDTHS[k] for k in "abcd"}, [0])
    assert narrow.dtype is np.int64


def test_compiled_stimulus_restarts():
    spec = _compound_spec(n_cycles=20)
    compiled = CompiledStimulus(spec, {k: WIDTHS[k] for k in "abcd"}, [0])
    first = compiled.tensor()
    again = compiled.tensor()  # a second pass rewinds the streams
    assert _as_ints(first) == _as_ints(again)
    assert [int(v) for v in compiled.values_at(0).flat] == _as_ints(first[0])


def test_constant_ports_build_no_generator(monkeypatch):
    from repro.stim import compile as stim_compile

    spec = StimulusSpec(n_cycles=12, ports={"a": ConstantSpec(5), "b": ConstantSpec(9)},
                        default=None)
    widths = {"a": 8, "b": 4}
    reference = CompiledStimulus(spec, widths, [0, 7]).tensor()
    built = []
    real = stim_compile._stream_rng
    monkeypatch.setattr(stim_compile, "_stream_rng",
                        lambda entropy: built.append(entropy) or real(entropy))
    tensor = CompiledStimulus(spec, widths, [0, 7], chunk_cycles=5).tensor()
    assert built == []
    assert _as_ints(tensor) == _as_ints(reference)
    assert _as_ints(tensor[:, 1, :]) == [9] * 24
    # a drawing port seeds its generator on first draw, once per lane
    drawn = spec.replace(ports={"a": ConstantSpec(5), "b": UniformSpec()})
    CompiledStimulus(drawn, widths, [0, 7]).tensor()
    assert len(built) == 2


def test_burst_and_replay_stream_shapes():
    spec = StimulusSpec(
        n_cycles=16,
        ports={
            "p": BurstSpec(active=2, idle=2, idle_value=5),
            "q": ReplaySpec(values=(7, 8), hold_last=True),
            "r": ReplaySpec(values=(7, 8), repeat=False, hold_last=False),
        },
        default=None,
    )
    tensor = CompiledStimulus(spec, {"p": 8, "q": 8, "r": 8}, [0]).tensor()
    p = [int(v) for v in tensor[:, 0, 0]]
    assert all(value == 5 for value in p[2::4] + p[3::4])  # idle cycles
    q = [int(v) for v in tensor[:, 1, 0]]
    assert q[:2] == [7, 8] and all(v == 8 for v in q[2:])
    r = [int(v) for v in tensor[:, 2, 0]]
    assert r[:2] == [7, 8] and all(v == 0 for v in r[2:])


# ---------------------------------------------------------------------------
# Drivers: scalar vs lane bit-identity
# ---------------------------------------------------------------------------

_PARITY_SPEC = StimulusSpec(
    n_cycles=24,
    default=MixtureSpec(
        components=((0.7, UniformSpec(hold=2)), (0.3, BurstSpec(active=3, idle=3))),
    ),
)


@pytest.mark.parametrize("name", sorted(all_designs()))
def test_spec_scalar_vs_lane_parity_every_registry_design(name):
    """Spec-driven scalar and lane runs agree on every registry design.

    Driven input streams and functional state are bit-identical (same
    per-(seed, port) streams); accumulated energies agree to float
    round-off (the lane path sums coefficients as a vectorized dot product).
    """
    flat = build_flat(name)
    library = build_seed_library()
    seeds = [0, 1, 2]
    lane_reports = BatchRTLPowerEstimator(flat, library=library).estimate_all(
        [SpecTestbench(_PARITY_SPEC, seed=s) for s in seeds]
    )
    scalar = RTLPowerEstimator(flat, library=library)
    for seed, report in zip(seeds, lane_reports):
        reference = scalar.estimate(SpecTestbench(_PARITY_SPEC, seed=seed))
        assert report.cycles == reference.cycles
        assert report.notes["stimulus_driver"] == "array"
        assert report.total_energy_fj == pytest.approx(
            reference.total_energy_fj, rel=1e-12
        )
        for comp_name, comp in reference.components.items():
            assert report.components[comp_name].energy_fj == pytest.approx(
                comp.energy_fj, rel=1e-9, abs=1e-9
            )


def test_array_driver_equals_laneview_loop_exactly():
    """Same lane machinery, same streams: the two drive paths match exactly."""
    flat = build_flat("binary_search")
    library = build_seed_library()
    estimator = BatchRTLPowerEstimator(flat, library=library)
    spec = get_design("binary_search").make_stimulus_spec()
    testbenches = lambda: [SpecTestbench(spec, seed=s) for s in range(4)]  # noqa: E731
    via_array = estimator.estimate_all(testbenches(), use_array_driver=True)
    via_loop = estimator.estimate_all(testbenches(), use_array_driver=False)
    for a, b in zip(via_array, via_loop):
        assert a.total_energy_fj == b.total_energy_fj
        assert a.cycles == b.cycles
        assert a.notes["stimulus_driver"] == "array"
        assert b.notes["stimulus_driver"] == "lane-view"
    with pytest.raises(ValueError, match="use_array_driver"):
        estimator.estimate_all(
            [get_design("binary_search").make_testbench()], use_array_driver=True
        )


def test_array_driver_honours_per_lane_budgets():
    """Retargeted per-lane max_cycles stay on the array driver: each lane
    stops at its own budget, exactly as on the LaneView loop."""
    flat = build_flat("HVPeakF")
    spec = get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=16)
    estimator = BatchRTLPowerEstimator(flat, library=build_seed_library())

    def testbenches():
        tbs = [SpecTestbench(spec, seed=s) for s in (0, 1)]
        tbs[1].max_cycles = 8  # one lane on a shorter budget
        return tbs

    auto = estimator.estimate_all(testbenches())
    forced = estimator.estimate_all(testbenches(), use_array_driver=True)
    loop = estimator.estimate_all(testbenches(), use_array_driver=False)
    assert [r.cycles for r in auto] == [r.cycles for r in loop] == [16, 8]
    assert all(r.notes["stimulus_driver"] == "array" for r in auto + forced)
    assert all(r.notes["stimulus_driver"] == "lane-view" for r in loop)
    for a, b, c in zip(auto, forced, loop):
        assert a.total_energy_fj == b.total_energy_fj == c.total_energy_fj
        assert a.cycle_energy_fj == c.cycle_energy_fj


def test_spec_testbench_bind_is_lazy():
    """Binding alone must not compile: the lane path never reads per-lane
    streams, so eager per-testbench compilation would be pure waste."""
    flat = build_flat("HVPeakF")
    spec = get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=8)
    testbenches = [SpecTestbench(spec, seed=s) for s in (0, 1)]
    BatchRTLPowerEstimator(flat, library=build_seed_library()).estimate_all(
        testbenches
    )
    assert all(tb._compiled is None for tb in testbenches)


def test_array_driver_respects_max_cycles():
    flat = build_flat("HVPeakF")
    spec = get_design("HVPeakF").make_stimulus_spec()
    estimator = BatchRTLPowerEstimator(flat, library=build_seed_library())
    reports = estimator.estimate_all(
        [SpecTestbench(spec, seed=s) for s in (0, 1)], max_cycles=10
    )
    assert [r.cycles for r in reports] == [10, 10]


def test_batch_stimulus_driver_functional_parity():
    """BatchStimulusDriver lanes equal scalar SpecTestbench simulations."""
    flat = build_flat("HVPeakF")
    spec = get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=20)
    n_lanes = 3
    simulator = BatchSimulator(flat, n_lanes)
    driver = BatchStimulusDriver(simulator, spec, seeds=[5, 6, 7])
    outputs = []
    driver.run(on_cycle=lambda c, s: outputs.append(s.get_outputs()))
    for lane, seed in enumerate([5, 6, 7]):
        scalar = Simulator(flatten(get_design("HVPeakF").build()))
        testbench = SpecTestbench(spec, seed=seed)
        testbench.bind(scalar)
        for cycle in range(20):
            scalar.set_inputs(testbench.drive(cycle, scalar))
            scalar.settle()
            for port, lanes in outputs[cycle].items():
                assert int(lanes[lane]) == scalar.get_output(port)
            scalar.clock_edge()


def test_batch_stimulus_driver_seed_count_mismatch():
    simulator = BatchSimulator(build_flat("HVPeakF"), 2)
    spec = get_design("HVPeakF").make_stimulus_spec()
    with pytest.raises(ValueError, match="one seed per lane"):
        BatchStimulusDriver(simulator, spec, seeds=[0, 1, 2])


# ---------------------------------------------------------------------------
# Satellite: LaneView memory backdoors + limb store under stimulus
# ---------------------------------------------------------------------------


def _memory_readback_module():
    """addr/we/wdata-driven memory with a registered read port."""
    builder = NetlistBuilder("membank")
    addr = builder.input("addr", 4)
    we = builder.input("we", 1)
    wdata = builder.input("wdata", 8)
    rdata = builder.memory("mem0", width=8, depth=16, we=we, addr=addr, wdata=wdata)
    builder.output("rdata", rdata)
    return flatten(builder.build())


def test_laneview_memory_backdoors_under_driven_stimulus():
    """Per-lane load/write_word/read_word stay isolated while lanes are driven."""
    module = _memory_readback_module()
    n_lanes = 3
    simulator = BatchSimulator(module, n_lanes)
    views = [simulator.lane_view(lane) for lane in range(n_lanes)]
    # distinct per-lane contents through the backdoor
    for lane, view in enumerate(views):
        view.module.components["mem0"].load([(lane + 1) * 10 + i for i in range(16)])
    spec = StimulusSpec(
        n_cycles=12,
        ports={"addr": UniformSpec(), "we": ConstantSpec(0)},
        default=ConstantSpec(0),
    )
    driver = BatchStimulusDriver(simulator, spec, seeds=[0, 1, 2])
    addr_slot = simulator._input_keys["addr"][0]
    seen = []
    driver.run(on_cycle=lambda c, s: seen.append(
        (s._v[addr_slot].copy(), s.get_output("rdata"))
    ))
    # registered read: rdata at cycle c+1 shows lane-private mem[addr at c]
    for (addrs, _), (_, rdata_next) in zip(seen, seen[1:]):
        for lane in range(n_lanes):
            expected = (lane + 1) * 10 + int(addrs[lane])
            assert int(rdata_next[lane]) == expected
    # word-level backdoors reroute to the same per-lane storage
    for lane, view in enumerate(views):
        proxy = view.module.components["mem0"]
        assert proxy.read_word(3) == (lane + 1) * 10 + 3
        proxy.write_word(3, 200 + lane)
        assert proxy.read_word(3) == 200 + lane
    assert views[0].module.components["mem0"].read_word(3) == 200


def test_limb_store_lanes_under_driven_stimulus():
    """61..240-bit modules (int64 limb store) run spec stimulus exactly.

    The stimulus tensor still carries exact object-dtype Python ints for the
    wide ports; the driver splits each column across the port's limb rows.
    """
    builder = NetlistBuilder("wide")
    x = builder.input("x", 70)
    y = builder.input("y", 70)
    builder.output("s", builder.add(x, y, name="sum70"))
    module = flatten(builder.build())

    spec = StimulusSpec(n_cycles=10, default=UniformSpec())
    n_lanes = 3
    simulator = BatchSimulator(module, n_lanes)
    assert simulator._v.dtype == np.int64
    driver = BatchStimulusDriver(simulator, spec, seeds=[0, 1, 2])
    assert driver.stimulus.dtype is object
    mask = (1 << 70) - 1

    def check(cycle, sim):
        xs = sim.get_net("x")
        ys = sim.get_net("y")
        outs = sim.get_output("s")
        for lane in range(n_lanes):
            a, b = int(xs[lane]), int(ys[lane])
            assert a >= 0 and b >= 0
            assert int(outs[lane]) == (a + b) & mask
        # at least one draw should actually exceed the int64 lane range
        check.widest = max(check.widest, *(int(v) for v in xs))

    check.widest = 0
    driver.run(on_cycle=check)
    assert check.widest > (1 << 63)

    # and the power path agrees with a scalar estimator on the same module
    library = build_seed_library()
    lane_reports = BatchRTLPowerEstimator(module, library=library).estimate_all(
        [SpecTestbench(spec, seed=s) for s in (0, 1)]
    )
    scalar = RTLPowerEstimator(module, library=library)
    for seed, report in zip((0, 1), lane_reports):
        reference = scalar.estimate(SpecTestbench(spec, seed=seed))
        assert report.total_energy_fj == pytest.approx(
            reference.total_energy_fj, rel=1e-12
        )


# ---------------------------------------------------------------------------
# API wiring: RunSpec / SweepSpec / estimate / sweep
# ---------------------------------------------------------------------------


def test_runspec_stimulus_round_trip_and_estimate():
    spec = RunSpec(
        design="HVPeakF",
        engine="rtl",
        seed=4,
        stimulus=get_design("HVPeakF").make_stimulus_spec().replace(n_cycles=16),
    )
    assert RunSpec.from_json(spec.to_json()) == spec
    result = estimate(spec)
    assert result.report.cycles == 16
    # same spec through the lane backend: identical to float round-off
    batch = estimate(spec.replace(backend="batch"))
    assert batch.backend == "batch[1]"
    assert batch.report.total_energy_fj == pytest.approx(
        result.report.total_energy_fj, rel=1e-12
    )


def test_runspec_rejects_bad_stimulus():
    with pytest.raises(ValueError, match="StimulusSpec"):
        RunSpec(design="DCT", stimulus="uniform")  # type: ignore[arg-type]


def test_sweep_spec_rejects_duplicate_seeds():
    with pytest.raises(ValueError, match="duplicate stimulus seeds"):
        SweepSpec(designs=("DCT",), seeds=(0, 1, 0))


def test_sweep_with_stimulus_runs_on_lanes():
    spec = SweepSpec(
        designs=("binary_search",),
        engines=("rtl",),
        seeds=(0, 1, 2),
        stimulus=get_design("binary_search").make_stimulus_spec().replace(n_cycles=48),
    )
    result = sweep(spec)
    assert len(result.results) == 3
    assert all(r.backend == "batch[3]" for r in result.results)
    assert all(r.report.notes["stimulus_driver"] == "array" for r in result.results)
    assert all(r.report.cycles == 48 for r in result.results)
    # round trip of the swept result keeps the stimulus attached
    payload = json.loads(json.dumps(result.to_dict()))
    for row in payload["results"]:
        assert row["spec"]["stimulus"]["n_cycles"] == 48


def test_registry_stimulus_declarations():
    assert get_design("HVPeakF").stimulus is not None
    testbench = get_design("HVPeakF").make_stimulus_testbench(seed=9)
    assert isinstance(testbench, SpecTestbench) and testbench.seed == 9
    with pytest.raises(ValueError, match="declares no stimulus"):
        get_design("DCT").make_stimulus_spec()


# ---------------------------------------------------------------------------
# CLI: seed ranges, --stimulus, stim subcommand
# ---------------------------------------------------------------------------


def test_parse_seed_list_ranges_and_duplicates():
    assert parse_seed_list(["0:4"]) == [0, 1, 2, 3]
    assert parse_seed_list(["0:8:2", "100"]) == [0, 2, 4, 6, 100]
    assert parse_seed_list(["-2:1"]) == [-2, -1, 0]
    # duplicate rejection lives in SweepSpec (the single validation point
    # for every construction path, CLI included)
    with pytest.raises(ValueError, match="duplicate stimulus seeds"):
        SweepSpec(designs=("DCT",), seeds=tuple(parse_seed_list(["0:4", "2"])))
    with pytest.raises(ValueError, match="empty"):
        parse_seed_list(["4:4"])
    with pytest.raises(ValueError, match="bad seed range"):
        parse_seed_list(["1:2:3:4"])
    with pytest.raises(ValueError, match="bad seed range"):
        parse_seed_list(["0:8:0"])  # zero step: crafted message, not range()'s
    with pytest.raises(ValueError, match="bad seed"):
        parse_seed_list(["two"])


def test_cli_sweep_seed_range_end_to_end(tmp_path, capsys):
    artifact = tmp_path / "sweep.json"
    code = main([
        "sweep", "--designs", "binary_search", "--seeds", "0:3",
        "--max-cycles", "8", "--json", str(artifact),
    ])
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert [r["spec"]["seed"] for r in payload["results"]] == [0, 1, 2]


def test_cli_sweep_duplicate_seeds_rejected(capsys):
    code = main(["sweep", "--designs", "binary_search", "--seeds", "1", "1"])
    assert code == 2
    assert "duplicate stimulus seeds" in capsys.readouterr().err


def test_cli_stimulus_file_errors_are_clean(capsys):
    code = main(["run", "--design", "HVPeakF", "--stimulus", "@missing.json"])
    assert code == 2
    assert "cannot read stimulus file" in capsys.readouterr().err


def test_cli_run_with_stimulus(tmp_path, capsys):
    artifact = tmp_path / "run.json"
    code = main([
        "run", "--design", "HVPeakF", "--stimulus", "uniform:hold=2,cycles=12",
        "--json", str(artifact),
    ])
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert payload["report"]["cycles"] == 12
    assert payload["spec"]["stimulus"]["default"]["kind"] == "uniform"


def test_cli_stim_subcommand(tmp_path, capsys):
    artifact = tmp_path / "stim.json"
    code = main([
        "stim", "--stimulus", "design", "--design", "binary_search",
        "--preview", "4", "--lanes", "2", "--json", str(artifact),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "toggles/bit/cyc" in out and "first 4 cycles" in out
    payload = json.loads(artifact.read_text())
    assert {row["port"] for row in payload["ports"]} == {"key", "start"}


def test_cli_stim_design_required_for_registry_scenario(capsys):
    code = main(["sweep", "--designs", "DCT", "HVPeakF", "--stimulus", "design",
                 "--seeds", "0"])
    assert code == 2
    assert "exactly one design" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Satellite: fig3 shim deprecation note
# ---------------------------------------------------------------------------


def test_fig3_shim_prints_deprecation_note():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.join(repo_root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.bench.fig3", "--help"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "deprecated" in completed.stderr
    assert "python -m repro fig3" in completed.stderr
    # the canonical entry must NOT carry the note
    canonical = subprocess.run(
        [sys.executable, "-m", "repro", "fig3", "--help"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=env,
        timeout=120,
    )
    assert canonical.returncode == 0
    assert "deprecated" not in canonical.stderr
