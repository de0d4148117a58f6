"""Tests for stimulus generators, DCT reference math and miscellaneous helpers."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import stimuli
from repro.designs.hvpeakf import reference_filter
from repro.designs.registry import all_designs
from repro.power import build_seed_library
from repro.power.gate_estimator import GateLevelPowerEstimator
from repro.netlist import NetlistBuilder, flatten
from repro.sim import RandomTestbench, Simulator


# --------------------------------------------------------------- DCT reference
def test_dct_basis_matrix_shape_and_scale():
    basis = stimuli.dct_basis_matrix()
    assert len(basis) == 8 and all(len(row) == 8 for row in basis)
    # DC row is flat and equals SCALE * 1/(2*sqrt(2))
    expected_dc = round(stimuli.DCT_SCALE * 0.5 * math.sqrt(0.5))
    assert all(value == expected_dc for value in basis[0])
    # rows are (nearly) orthogonal under the integer scaling
    for u in range(8):
        for v in range(u + 1, 8):
            dot = sum(basis[u][x] * basis[v][x] for x in range(8))
            assert abs(dot) < stimuli.DCT_SCALE * stimuli.DCT_SCALE * 0.02


def test_reference_dct_of_constant_block_is_dc_only():
    block = [64] * 64
    coefficients = stimuli.reference_dct2d(block)
    assert coefficients[0] == pytest.approx(8 * 64, abs=2)
    assert all(abs(c) <= 1 for c in coefficients[1:])


def test_reference_idct_inverts_reference_dct():
    block = [((x * 7 + y * 13) % 200) - 100 for x in range(8) for y in range(8)]
    recovered = stimuli.reference_idct2d(stimuli.reference_dct2d(block))
    for a, b in zip(block, recovered):
        assert abs(a - b) <= 2


def test_random_block_generators_are_bounded_and_deterministic():
    a = stimuli.random_pixel_block(seed=5)
    b = stimuli.random_pixel_block(seed=5)
    assert a == b
    assert all(0 <= p <= 255 for p in a)
    coefficients = stimuli.random_coefficient_block(seed=5, magnitude=100)
    assert len(coefficients) == 64
    assert all(-100 <= c <= 100 for c in coefficients)
    zeros = sum(1 for c in coefficients[1:] if c == 0)
    assert zeros > 32  # sparse by construction


def test_signed_field_round_trip():
    for value in (-2048, -1, 0, 1, 2047):
        assert stimuli.field_to_signed(stimuli.signed_to_field(value, 12), 12) == value


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=3, max_size=64))
def test_peaking_filter_reference_is_bounded(pixels):
    assert all(0 <= value <= 255 for value in reference_filter(pixels))


# ------------------------------------------------------------- random streams
def _per_value(rng, n, width):
    """The reference draw: one ``getrandbits(width)`` call per value."""
    return [rng.getrandbits(width) for _ in range(n)]


@pytest.mark.parametrize("width", [1, 8, 16, 31, 32])
def test_bulk_draws_equal_per_value_draws(width):
    for seed in range(1000):
        for n in (0, 1, 600):
            reference = _per_value(random.Random(seed), n, width)
            pixels = stimuli.random_pixels(n, seed=seed, width=width)
            assert pixels.dtype == np.int64 and pixels.tolist() == reference
            assert stimuli.random_array(n, seed=seed, width=width) == reference
            # the generator ends in the per-value loop's state
            bulk, loop = random.Random(seed), random.Random(seed)
            assert stimuli._random_bits(bulk, n, width) == _per_value(loop, n, width)
            assert bulk.random() == loop.random()


def test_bulk_draws_keep_per_value_draws_past_32_bits():
    assert stimuli.random_array(9, seed=4, width=45) == _per_value(random.Random(4), 9, 45)


# ------------------------------------------------------------------- registry
def test_registry_scaled_workloads_are_simulatable():
    """Scaled testbenches must stay small enough for the pure-Python simulator."""
    for design in all_designs().values():
        assert design.scaled_cycles < 50_000, design.name
        assert design.nominal_cycles >= design.scaled_cycles


def test_registry_notes_describe_workloads():
    for design in all_designs().values():
        assert "nominal_workload" in design.notes
        assert "scaled_workload" in design.notes


# ---------------------------------------------------- gate-level estimator extra
def test_gate_estimator_on_design_with_memory_falls_back_to_macromodels():
    b = NetlistBuilder("memdp")
    a = b.input("a", 8)
    we = b.input("we", 1)
    rdata = b.memory("buf", 8, 32, we=we, addr=a, wdata=a, sync_read=True)
    b.output("y", b.pipe(b.add(rdata, a)))
    module = flatten(b.build())
    estimator = GateLevelPowerEstimator(module, library=build_seed_library())
    report = estimator.estimate(RandomTestbench(30, seed=4))
    assert report.notes["n_gate_mapped"] >= 1        # the adder
    assert report.notes["n_macromodelled"] >= 2      # memory + register
    assert report.total_energy_fj > 0


def test_simulator_hold_parameter_reduces_activity():
    b = NetlistBuilder("act")
    d = b.input("d", 16)
    b.output("q", b.pipe(d))
    module = flatten(b.build())
    from repro.sim import SignalTrace

    fast = Simulator(module)
    trace_fast = fast.add_observer(SignalTrace())
    fast.run(RandomTestbench(100, seed=1, hold=1))

    b2 = NetlistBuilder("act2")
    d2 = b2.input("d", 16)
    b2.output("q", b2.pipe(d2))
    slow = Simulator(flatten(b2.build()))
    trace_slow = slow.add_observer(SignalTrace())
    slow.run(RandomTestbench(100, seed=1, hold=10))

    assert trace_slow.total_toggles() < trace_fast.total_toggles()
