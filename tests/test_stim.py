"""Tests for the declarative stimulus subsystem (repro.stim).

Covers the spec layer (JSON round trips, validation, CLI shorthand, VCD
replay), the compiler (golden values, chunk invariance, per-seed lane
independence across block sizes), the drivers (scalar vs lane bit-identity
on every registry design, array driver vs LaneView loop equality), the
API/CLI wiring (RunSpec/SweepSpec stimulus, seed ranges, duplicate
rejection, the stim subcommand), plus the satellite coverage: LaneView
memory backdoors and the int64 limb lane store under driven stimulus, and
the deprecation note of the ``python -m repro.bench.fig3`` shim.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.stim.spec import port_spec_from_dict


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


def _asdict_payload(spec):
    """The deep-copied ``dataclasses.asdict`` payload form port specs had."""
    if isinstance(spec, MixtureSpec):
        return {
            "kind": spec.kind,
            "hold": spec.hold,
            "components": [[w, _asdict_payload(c)] for w, c in spec.components],
        }
    return {**dataclasses.asdict(spec), "kind": spec.kind}


def test_port_spec_payloads_equal_the_asdict_form():
    """``to_dict`` builds a shallow field dict; it must stay ``==`` to the
    deep-copied form for every kind (nested mixtures and replays included),
    key order and JSON text too, and round-trip through JSON."""
    specs = [spec for _, spec in _GOLDEN_SPEC.ports] + [_compound_spec().default]
    assert {type(spec) for spec in specs} == {
        UniformSpec, ConstantSpec, BurstSpec, MarkovSpec, MixtureSpec, ReplaySpec}
    for spec in specs:
        payload, reference = spec.to_dict(), _asdict_payload(spec)
        assert payload == reference
        assert list(payload) == list(reference)
        assert json.dumps(payload) == json.dumps(reference)
        assert port_spec_from_dict(json.loads(json.dumps(payload))) == spec
    # the stimulus payload (what every RunSpec payload carries) is unchanged
    stimulus = _GOLDEN_SPEC.to_dict()
    assert stimulus["ports"] == [[n, _asdict_payload(s)] for n, s in _GOLDEN_SPEC.ports]
    assert StimulusSpec.from_dict(json.loads(json.dumps(stimulus))) == _GOLDEN_SPEC
    run = RunSpec(design="HVPeakF", stimulus=_GOLDEN_SPEC)
    assert RunSpec.from_json(run.to_json()) == run


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
    from repro.stim.spec import port_entropy

    spec = StimulusSpec(n_cycles=12, ports={"a": ConstantSpec(5), "b": ConstantSpec(9)},
                        default=None)
    widths = {"a": 8, "b": 4}
    reference = CompiledStimulus(spec, widths, [0, 7]).tensor()
    built = []
    real = stim_compile._LanePCG64
    monkeypatch.setattr(stim_compile, "_LanePCG64",
                        lambda seeds, key: built.append((key, list(seeds))) or real(seeds, key))
    tensor = CompiledStimulus(spec, widths, [0, 7], chunk_cycles=5).tensor()
    assert built == []
    assert _as_ints(tensor) == _as_ints(reference)
    assert _as_ints(tensor[:, 1, :]) == [9] * 24
    # a drawing port seeds its lane block's generator on first draw, once
    drawn = spec.replace(ports={"a": ConstantSpec(5), "b": UniformSpec()})
    CompiledStimulus(drawn, widths, [0, 7]).tensor()
    assert built == [((port_entropy("b"),), [0, 7])]


#: every port kind and shape a stream can take: burst with a phase, a nested
#: mixture, replay with repeat / hold_last / neither, a 1-bit port and two
#: wide (limb-store) ports, the 70-bit one mixing every drawing kind
_GOLDEN_WIDTHS = {
    "uniform": 8, "held": 12, "const": 8, "burst": 10, "burst_phase": 6,
    "markov": 12, "mixture": 16, "replay_repeat": 4, "replay_hold": 8,
    "replay_zero": 8, "bit": 1, "w61": 61, "w70": 70,
}
_GOLDEN_SPEC = StimulusSpec(
    n_cycles=300,
    seed=0,
    ports={
        "uniform": UniformSpec(),
        "held": UniformSpec(hold=5),
        "const": ConstantSpec(0x1FF),
        "burst": BurstSpec(active=3, idle=5, hold=2),
        "burst_phase": BurstSpec(active=4, idle=3, hold=3, phase=5, idle_value=3),
        "markov": MarkovSpec(p01=0.3, p10=0.2, init=5),
        "mixture": MixtureSpec(
            components=(
                (0.5, UniformSpec(hold=2)),
                (0.3, MixtureSpec(
                    components=((1, ConstantSpec(3)), (2, BurstSpec(active=2, idle=1))),
                    hold=2,
                )),
                (0.2, MarkovSpec(p01=0.5, p10=0.1)),
            ),
            hold=3,
        ),
        "replay_repeat": ReplaySpec(values=(1, 2, 3, 15, 16), repeat=True),
        "replay_hold": ReplaySpec(values=(7, 8, 9), hold_last=True),
        "replay_zero": ReplaySpec(values=(7, 8, 9), repeat=False, hold_last=False),
        "bit": UniformSpec(),
        "w61": UniformSpec(hold=3),
        "w70": MixtureSpec(
            components=(
                (1, MarkovSpec(p01=0.2, p10=0.3, init=(1 << 69) | 5)),
                (1, BurstSpec(active=5, idle=2, hold=2, phase=3, idle_value=1 << 65)),
                (1, ReplaySpec(values=((1 << 70) - 1, 1 << 64, 3), repeat=True)),
                (1, ConstantSpec((1 << 68) + 1)),
            ),
            hold=2,
        ),
    },
    default=None,
)
_GOLDEN_SEEDS = (0, 7, 2**40 + 3, -5)
#: sha256 of the int list of each seed's ``(n_cycles, n_ports)`` tensor:
#: result caches and coalesce keys assume these values never move
_GOLDEN_DIGESTS = {
    0: "58e202e08ce04253dea3f5ff4593e22b59691604e4c56922d0e6ca34dda3ff08",
    7: "3262f3ac07861cf681eb5cf92f48767e58a78b153cca3fc7371e4d69d514535f",
    2**40 + 3: "61273b0566bf2ce7c560af6fe10a58c92fc4acac5a7339d7bdc517c9ed3821ca",
    -5: "614424463bd70cb328f1454351eb20dd16182dfaf101e1fde1c2509d6bea5150",
}


def _digest(tensor) -> str:
    return hashlib.sha256(repr(_as_ints(tensor)).encode()).hexdigest()


@pytest.mark.parametrize("chunk_cycles", [1, 7, 256])
def test_compiled_stimulus_golden_values(chunk_cycles):
    """Pin the values themselves, not only relative properties: caches and
    ``coalesce_key`` results depend on them."""
    block = CompiledStimulus(
        _GOLDEN_SPEC, _GOLDEN_WIDTHS, _GOLDEN_SEEDS, chunk_cycles=chunk_cycles
    ).tensor()
    for lane, seed in enumerate(_GOLDEN_SEEDS):
        single = CompiledStimulus(
            _GOLDEN_SPEC, _GOLDEN_WIDTHS, [seed], chunk_cycles=chunk_cycles
        ).tensor()
        assert _digest(single) == _GOLDEN_DIGESTS[seed]
        assert _digest(block[:, :, lane]) == _GOLDEN_DIGESTS[seed]


def test_compiled_stimulus_per_seed_lane_independence():
    """Lane i of a 129-lane block equals a 1-lane compile of seeds[i] and the
    same seed's lane in a 7-lane block, for every port kind."""
    spec = _GOLDEN_SPEC.replace(n_cycles=40)
    seeds = list(range(-60, 68)) + [2**40 + 7]
    wide = CompiledStimulus(spec, _GOLDEN_WIDTHS, seeds, chunk_cycles=16).tensor()
    starts = list(range(0, len(seeds) - 7, 7)) + [len(seeds) - 7]
    for start in starts:
        window = seeds[start:start + 7]
        seven = CompiledStimulus(spec, _GOLDEN_WIDTHS, window, chunk_cycles=9).tensor()
        for offset in range(7):
            assert _as_ints(seven[:, :, offset]) == _as_ints(wide[:, :, start + offset])
    for lane, seed in enumerate(seeds):
        single = CompiledStimulus(spec, _GOLDEN_WIDTHS, [seed], chunk_cycles=5).tensor()
        assert _as_ints(single) == _as_ints(wide[:, :, lane])


def test_markov_packed_bits_match_per_bit_chains():
    """Markov values equal a per-bit chain run from each lane's own uniforms,
    at widths on either side of the byte and 64-bit word boundaries."""
    from repro.stim import compile as stim_compile
    from repro.stim.spec import port_entropy

    widths = {f"w{w}": w for w in (1, 7, 8, 9, 63, 64, 65, 128, 240)}
    markov = MarkovSpec(p01=0.3, p10=0.4, init=(1 << 239) | 0x5A5A)
    spec = StimulusSpec(n_cycles=23, seed=0, default=markov)
    seeds = [0, -3, 2**40 + 7]
    compiled = CompiledStimulus(spec, widths, seeds, chunk_cycles=7)
    tensor = compiled.tensor()
    for p, (name, width) in enumerate(zip(compiled.port_names, compiled.port_widths)):
        for lane, seed in enumerate(seeds):
            rng = np.random.default_rng(np.random.SeedSequence(
                (stim_compile._STIM_SALT, seed % 2**64, port_entropy(name))
            ))
            bits = [(markov.init >> b) & 1 for b in range(width)]
            expected = []
            for row in rng.random((spec.n_cycles, width)):
                bits = [
                    int(u >= markov.p10) if bit else int(u < markov.p01)
                    for bit, u in zip(bits, row)
                ]
                expected.append(sum(bit << b for b, bit in enumerate(bits)))
            assert _as_ints(tensor[:, p, lane]) == expected, (name, seed)


@pytest.mark.parametrize("p01, p10", [
    (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2**-53, 1 - 2**-53), (1e-300, 0.5),
])
def test_markov_thresholds_match_float_comparisons(p01, p10):
    """Markov compares integer draws with ``ceil(p * 2**53)``; at the
    probability extremes that must equal ``u >= p10`` / ``u < p01``."""
    from repro.stim import compile as stim_compile
    from repro.stim.spec import port_entropy

    markov = MarkovSpec(p01=p01, p10=p10, init=0x5A)
    spec = StimulusSpec(n_cycles=9, seed=0, default=markov)
    tensor = CompiledStimulus(spec, {"a": 8}, [0, 5]).tensor()
    for lane, seed in enumerate([0, 5]):
        rng = np.random.default_rng(np.random.SeedSequence(
            (stim_compile._STIM_SALT, seed, port_entropy("a"))))
        bits = [(markov.init >> b) & 1 for b in range(8)]
        expected = []
        for row in rng.random((9, 8)):
            bits = [int(u >= p10) if bit else int(u < p01) for bit, u in zip(bits, row)]
            expected.append(sum(bit << b for b, bit in enumerate(bits)))
        assert _as_ints(tensor[:, 0, lane]) == expected


_ENTROPY_SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(-(2**63), -1)
)
_DRAWS = st.one_of(
    st.tuples(st.just("integers"), st.integers(0, 45), st.integers(1, 60)),
    st.tuples(st.just("words"), st.integers(0, 45), st.just(32)),
    st.tuples(st.just("random"), st.integers(0, 45), st.just(53)),
)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(_ENTROPY_SEEDS, min_size=1, max_size=9),
    key=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    rows=st.integers(1, 40),
    draws=st.lists(_DRAWS, min_size=1, max_size=8),
)
def test_lane_pcg64_matches_numpy_generator(seeds, key, rows, draws):
    """The lane generator equals one ``np.random.Generator`` per lane, over
    3- to 6-word entropies (negative seeds taken mod 2**64, seeds past 2**32
    mixed with narrow ones in one block), every integer width up to 60, the
    32-bit words of wide ports and doubles, with odd-length calls carrying
    the buffered 32-bit half across calls and windows of any size.  Values
    follow NumPy's generator algorithm, which NEP 19 does not freeze: a
    NumPy upgrade that changes it fails here (and in the golden digests)."""
    from repro.stim import compile as stim_compile

    key = tuple(key)
    lanes = np.array([seed % 2**64 for seed in seeds], dtype=np.uint64)
    generator = stim_compile._LanePCG64(lanes, key)
    generator.rows = rows
    references = [
        np.random.default_rng(np.random.SeedSequence(
            (stim_compile._STIM_SALT, seed % 2**64) + key))
        for seed in seeds
    ]
    for kind, n, width in draws:
        if kind == "random":
            got = generator.random(n)
            expected = [rng.random(n) for rng in references]
        else:
            got = (generator.next32(n) if kind == "words"
                   else generator.integers(n, width)).astype(np.int64)
            expected = [rng.integers(0, 1 << width, size=n, dtype=np.int64)
                        for rng in references]
        assert got.shape == (len(seeds), n)
        assert np.array_equal(got, np.array(expected).reshape(len(seeds), n)), kind


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
