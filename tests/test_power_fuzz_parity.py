"""Scalar-vs-lane power parity on random whole modules.

The registry designs pin every lane estimator's report to the scalar one
(``tests/test_power_block.py``); this draws random modules from the
simulator fuzzer's recipes (``tests/test_sim_fuzz.py``), whose widths sit
on both sides of the lane limb boundary, so generic (wide-port) components
ride along with table ones.  Every lane of a 3-lane block, on ``off`` and on
``native`` when a C compiler exists, must report the power and the profile
a scalar compiled run of its stimulus reports, compared with ``==``.  The
lanes stop at different cycles and the profile coalesces mid-run, so the
masked accumulation and the per-lane frozen windows both take part.

Driven by a stimulus spec, a native lane block without generic components
runs to completion in the kernel (one ``run`` call per segment); its
reports, traces and profiles must equal the per-cycle loop of the ``off``
backend, with trace buffers small enough that segments end inside the run.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.power import BatchRTLPowerEstimator, ProfileConfig, RTLPowerEstimator
from repro.power import block
from repro.sim.testbench import VectorTestbench
from repro.stim import SpecTestbench, StimulusSpec
from test_sim_fuzz import HAS_CC, _build, recipe_st

#: each lane's cycle budget: lanes stop before, between and after coalesces
BUDGETS = (23, 17, 9)
PROFILE = ProfileConfig(window_cycles=1, max_windows=4)


def _testbenches(module, seed):
    rng = random.Random(seed)
    widths = {name: port.width for name, port in module.ports.items() if port.is_input}
    return [
        VectorTestbench([{name: rng.getrandbits(width) for name, width in widths.items()}
                         for _ in range(budget)])
        for budget in BUDGETS
    ]


def _comparable(report):
    return dataclasses.replace(report, estimation_time_s=0.0, notes={})


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(recipe=recipe_st, seed=st.integers(0, 2**32 - 1))
def test_random_modules_report_scalar_power_on_every_lane(recipe, seed):
    reports, profiles = [], []
    for testbench in _testbenches(_build(recipe), seed):
        scalar = RTLPowerEstimator(_build(recipe))
        reports.append(_comparable(scalar.estimate(testbench, profile=PROFILE)))
        profiles.append(dataclasses.replace(scalar.last_profile, notes={}))
    assert profiles[0].window_cycles > PROFILE.window_cycles  # coalesced
    for backend in ("off", "native") if HAS_CC else ("off",):
        batch = BatchRTLPowerEstimator(_build(recipe), kernel_backend=backend)
        lanes = batch.estimate_all(_testbenches(_build(recipe), seed), profile=PROFILE)
        assert batch.last_kernel_backend == backend
        assert [_comparable(report) for report in lanes] == reports
        assert [dataclasses.replace(p, notes={}) for p in batch.last_profiles] == profiles


def _spec_lanes(module, spec, backend):
    estimator = BatchRTLPowerEstimator(module, kernel_backend=backend)
    benches = [SpecTestbench(spec, seed=lane) for lane in range(len(BUDGETS))]
    for bench, budget in zip(benches, BUDGETS):
        bench.max_cycles = budget
    reports = estimator.estimate_all(benches, profile=PROFILE)
    return estimator, ([_comparable(report) for report in reports],
                       [dataclasses.replace(p, notes={}) for p in estimator.last_profiles])


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(recipe=recipe_st, seed=st.integers(0, 2**32 - 1))
def test_random_modules_fused_run_equals_cycle_loop(recipe, seed):
    spec = StimulusSpec(n_cycles=20, seed=seed)
    # 8-row trace buffers: the run is cut into segments mid-run
    with mock.patch.object(block, "BLOCK_ELEMENTS", 8 * 128):
        _, want = _spec_lanes(_build(recipe), spec, "off")
        native, got = _spec_lanes(_build(recipe), spec, "native")
    assert got == want
    # the fused run is taken exactly when the kernel compiled and no
    # component needs a per-cycle Python evaluation
    generic = block.observe_plan(native.module, native.monitored).generic
    assert ("run_s" in native.last_phase_s) == (
        native.last_kernel_backend == "native" and not generic)
