"""Parity and edge tests for the lane-vectorized characterization pipeline.

Characterization settles all training pairs as the lanes of one block.  The
references here are the RTL components' own ``evaluate`` (for the output
columns) and the same pairs run one at a time, each its own one-lane block
(for the energies, the fitted models and the holdout error), which must
agree bit for bit: a lane's energy never depends on its block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gates import GateLevelSimulator, GatePowerCalculator, TechnologyMapper
from repro.gates.gatesim import compile_gate_netlist
from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier, Mux, ShifterVar
from repro.power import CharacterizationEngine, generate_training_pairs, holdout_error
from repro.power import characterize

_COMPONENTS = [
    ("adder8", lambda: Adder("adder8", 8)),
    ("multiplier6", lambda: Multiplier("multiplier6", 6)),
    ("comparator8", lambda: Comparator("comparator8", 8)),
    ("mux4x8", lambda: Mux("mux4x8", 8, 4)),
    ("xor8", lambda: LogicOp("xor8", "xor", 8)),
    ("barrel8", lambda: ShifterVar("barrel8", 8, 3, "left")),
]

_run_pairs = characterize._run_pairs


def _pair_at_a_time(simulator, calculator, port_widths, firsts, seconds):
    """``_run_pairs`` one pair per one-lane settle, columns concatenated."""
    n_pairs = next(iter(firsts.values())).shape[0]
    runs = [
        _run_pairs(simulator, calculator, port_widths,
                   {p: a[lane:lane + 1] for p, a in firsts.items()},
                   {p: a[lane:lane + 1] for p, a in seconds.items()})
        for lane in range(n_pairs)
    ]
    energies = np.concatenate([run[0] for run in runs])
    prev_io, curr_io = (
        {port: np.concatenate([run[side][port] for run in runs]) for port in runs[0][side]}
        for side in (1, 2)
    )
    return energies, prev_io, curr_io


def _outputs_match_evaluate(component, io):
    n = next(iter(io.values())).shape[0]
    for lane in range(n):
        inputs = {p.name: int(io[p.name][lane]) for p in component.input_ports}
        for port, value in component.evaluate(inputs).items():
            assert int(io[port][lane]) == value, (component.name, port, lane)


@pytest.mark.parametrize("label,factory", _COMPONENTS)
def test_batch_scalar_characterization_parity(label, factory, monkeypatch):
    """All pairs as one block or one pair at a time: same outputs (and the
    component's own), energies, toggle matrices and fits, bit for bit."""
    engine = CharacterizationEngine(n_pairs=60, seed=13)
    energies, prev_io, curr_io = engine._simulate_training_pairs(factory())
    _outputs_match_evaluate(factory(), prev_io)
    _outputs_match_evaluate(factory(), curr_io)
    features, batch_energies = engine._collect_training_data(factory())
    batch = engine.characterize(factory())

    monkeypatch.setattr(characterize, "_run_pairs", _pair_at_a_time)
    scalar_features, scalar_energies = engine._collect_training_data(factory())
    scalar = engine.characterize(factory())
    assert np.array_equal(features, scalar_features), "toggle matrices differ"
    assert batch_energies.tolist() == scalar_energies.tolist() == energies.tolist()
    assert list(batch.model.flat_coefficients()) == list(scalar.model.flat_coefficients())
    assert batch.model.base_energy_fj == scalar.model.base_energy_fj
    assert batch.metrics == scalar.metrics


def test_batch_scalar_lut_parity(monkeypatch):
    batch = CharacterizationEngine(n_pairs=60, seed=5).characterize_lut(
        Mux("m", 8, 4), n_bins=4
    )
    monkeypatch.setattr(characterize, "_run_pairs", _pair_at_a_time)
    scalar = CharacterizationEngine(n_pairs=60, seed=5).characterize_lut(
        Mux("m", 8, 4), n_bins=4
    )
    assert batch.table == scalar.table


def test_training_pairs_seed_stable():
    firsts_a, seconds_a = generate_training_pairs(Adder("a", 8), 32, seed=42)
    firsts_b, seconds_b = generate_training_pairs(Adder("a", 8), 32, seed=42)
    for port in firsts_a:
        assert np.array_equal(firsts_a[port], firsts_b[port])
        assert np.array_equal(seconds_a[port], seconds_b[port])
    firsts_c, _ = generate_training_pairs(Adder("a", 8), 32, seed=43)
    assert any(not np.array_equal(firsts_a[p], firsts_c[p]) for p in firsts_a)


# ------------------------------------------------------------------- edges


def test_zero_pairs_rejected_everywhere():
    with pytest.raises(ValueError, match="n_pairs >= 1"):
        CharacterizationEngine(n_pairs=0)
    with pytest.raises(ValueError, match="n_pairs >= 1"):
        generate_training_pairs(Adder("a", 8), 0, seed=1)
    with pytest.raises(ValueError, match="n_pairs >= 1"):
        holdout_error(Adder("a", 8), None, n_pairs=0)


def test_wide_ports_characterize_via_object_columns(monkeypatch):
    """Ports beyond the int64 lane width travel as exact Python-int columns
    through the same block settle."""
    component = Adder("wide", 64)
    engine = CharacterizationEngine(n_pairs=12, seed=3)
    result = engine.characterize(component)
    assert result.metrics.n_samples == 12
    assert result.model.total_bits == 64 * 3  # monitored ports a, b, y
    _, prev_io, curr_io = engine._simulate_training_pairs(Adder("wide", 64))
    assert prev_io["y"].dtype == object
    _outputs_match_evaluate(component, prev_io)
    _outputs_match_evaluate(component, curr_io)
    monkeypatch.setattr(characterize, "_run_pairs", _pair_at_a_time)
    scalar = engine.characterize(Adder("wide", 64))
    assert result.reference_energies == scalar.reference_energies


def test_lut_single_bin_fill():
    """When every pair lands in one bin, the fill spreads that bin's mean."""
    engine = CharacterizationEngine(n_pairs=1, seed=3)
    lut = engine.characterize_lut(Adder("a", 8), n_bins=5)
    flat = [value for row in lut.table for value in row]
    assert len(set(flat)) == 1, "all bins should be filled from the single observation"
    assert flat[0] >= 0.0


def test_fill_empty_bins_noop_when_nothing_observed():
    table = [[0.0, 0.0], [0.0, 0.0]]
    CharacterizationEngine._fill_empty_bins(table, [[0, 0], [0, 0]])
    assert table == [[0.0, 0.0], [0.0, 0.0]]


def test_gate_batch_lane_edges():
    netlist = TechnologyMapper().map_component(Adder("a", 4))
    simulator = GateLevelSimulator(netlist)
    with pytest.raises(ValueError, match="n_lanes >= 1"):
        simulator.settle_batch({}, 0)
    with pytest.raises(ValueError, match="at least one input port"):
        simulator.evaluate_ports_batch({}, {})
    with pytest.raises(RuntimeError, match="settle_batch"):
        simulator.snapshot_batch()


# ----------------------------------------------------- lowering/cache reuse


def test_gate_program_cached_across_simulator_instances():
    """Characterizing the same component type twice does not recompile."""
    mapper = TechnologyMapper()
    first = GateLevelSimulator(mapper.map_component(Adder("adder8", 8)))
    second = GateLevelSimulator(mapper.map_component(Adder("adder8", 8)))
    assert first.program is second.program
    # a different shape compiles its own program
    other = GateLevelSimulator(mapper.map_component(Adder("adder9", 9)))
    assert other.program is not first.program


def test_techmap_cache_returns_shared_netlist():
    mapper = TechnologyMapper()
    a = mapper.map_component(Mux("m", 8, 4))
    b = mapper.map_component(Mux("m", 8, 4))
    assert a is b
    c = mapper.map_component(Mux("m2", 8, 4))
    assert c is not a  # name participates in the key (net names embed it)


def test_compile_gate_netlist_fingerprint_cache():
    mapper = TechnologyMapper()
    netlist = mapper.map_component(Comparator("c", 8))
    assert compile_gate_netlist(netlist) is compile_gate_netlist(netlist)


# ----------------------------------------------------------- batched energy


def test_vector_pair_energy_batch_matches_scalar():
    """Each lane of a block equals that pair run as its own one-lane block."""
    component = Multiplier("m", 5)
    netlist = TechnologyMapper().map_component(component)
    calculator = GatePowerCalculator(netlist)
    simulator = GateLevelSimulator(netlist)
    widths = {p.name: p.width for p in component.ports.values()}
    rng = np.random.default_rng(2)
    n = 24
    firsts = {p.name: rng.integers(0, 1 << p.width, n) for p in component.input_ports}
    seconds = {p.name: rng.integers(0, 1 << p.width, n) for p in component.input_ports}
    batch = calculator.vector_pair_energy(simulator, firsts, seconds, widths)
    assert batch.n_lanes == n
    for lane in range(n):
        scalar = calculator.vector_pair_energy(
            simulator,
            {p: a[lane:lane + 1] for p, a in firsts.items()},
            {p: a[lane:lane + 1] for p, a in seconds.items()},
            widths,
        )
        assert batch.total_fj[lane] == scalar.total_fj[0]
        assert batch.n_toggled_nets[lane] == scalar.n_toggled_nets[0]


def test_holdout_error_batch_scalar_parity(monkeypatch):
    component = Adder("a", 8)
    model = CharacterizationEngine(n_pairs=60, seed=9).characterize(Adder("a", 8)).model
    batch = holdout_error(component, model, seed=4, n_pairs=24)
    monkeypatch.setattr(characterize, "_run_pairs", _pair_at_a_time)
    scalar = holdout_error(component, model, seed=4, n_pairs=24)
    assert batch == scalar
    assert batch < 0.35
