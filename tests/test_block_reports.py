"""Lane reports and results built once per block, not once per lane.

``estimate_many`` builds every lane's :class:`PowerReport` in one pass over
the block's ``(components, lanes)`` arrays and finishes the block's results
in one call.  The contract checked here: each lane's report is ``==`` to
the scalar run of its spec, results round-trip through ``to_dict``, and the
estimate metrics move as if each lane were finished alone.  A lane's
components are a read-only :class:`LaneComponents` view that behaves as
the dict a report read back from JSON holds.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro import obs
from repro.api import EstimateResult, RunSpec, estimate
from repro.api.estimators import RTLEstimatorAdapter
from repro.designs.registry import build_flat, get
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.power.profile import ProfileConfig
from repro.power.report import LaneComponents, PowerReport
from repro.power.rtl_estimator import RTLPowerEstimator
from repro.power.technology import CB130M_TECHNOLOGY
from repro.sim.kernels import resolve_kernel_backend

#: the lane kernel backends to run blocks on (``REPRO_KERNEL_BACKEND`` or
#: ``auto``, plus the NumPy ``off`` backend)
KERNEL_BACKENDS = sorted({"off", resolve_kernel_backend()})


def _block(max_cycles, n_lanes, kernel_backend):
    """HVPeakF specs of one block, every third lane keeping its trace."""
    return [
        RunSpec(design="HVPeakF", seed=300 + lane, max_cycles=max_cycles,
                keep_cycle_trace=lane % 3 == 0, kernel_backend=kernel_backend)
        for lane in range(n_lanes)
    ]


def _as_scalar_report(lane_report, scalar_report):
    """The lane report with the fields only a lane run has set as the scalar
    run's: wall-clock time and the lane-block notes."""
    return dataclasses.replace(
        lane_report, estimation_time_s=scalar_report.estimation_time_s,
        notes={k: v for k, v in lane_report.notes.items()
               if k not in ("batch_lanes", "stimulus_driver")})


def _check_per_lane_float_order(report):
    """The derived fields equal plain-float arithmetic on this lane alone:
    component energies summed from 0.0 in monitored order, each power as
    ``energy_to_power_mw(energy / cycles)`` (0.0 for a run of no cycles)."""
    def power_mw(energy):
        return CB130M_TECHNOLOGY.energy_to_power_mw(
            energy / report.cycles if report.cycles else 0.0)

    total = 0.0
    for component in report.components.values():
        total += component.energy_fj
        assert component.average_power_mw == power_mw(component.energy_fj)
    assert report.total_energy_fj == total
    assert report.average_power_mw == power_mw(total)


@pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
@pytest.mark.parametrize("max_cycles", [0, 37])
def test_block_reports_equal_scalar_runs(max_cycles, kernel_backend):
    specs = _block(max_cycles, 129, kernel_backend)
    results = RTLEstimatorAdapter().estimate_many(specs)
    assert [r.backend for r in results] == ["batch[129]"] * 129
    for spec, result in zip(specs, results):
        scalar = estimate(spec.replace(backend="compiled")).report
        assert _as_scalar_report(result.report, scalar) == scalar
        _check_per_lane_float_order(result.report)
        assert result.report.notes["batch_lanes"] == 129
        assert len(result.report.cycle_energy_fj) == (
            max_cycles if spec.keep_cycle_trace else 0)
        assert EstimateResult.from_dict(result.to_dict()) == result
    if max_cycles == 0:
        assert {r.report.average_power_mw for r in results} == {0.0}
        assert {r.report.peak_power_mw for r in results} == {0.0}


def test_estimate_all_builds_traces_only_for_lanes_that_keep_them():
    estimator = BatchRTLPowerEstimator(build_flat("HVPeakF"), kernel_backend="off")
    testbenches = [get("HVPeakF").make_testbench(seed) for seed in range(3)]
    reports = estimator.estimate_all(
        testbenches, max_cycles=8, keep_cycle_trace=[False, True, False])
    assert [len(report.cycle_energy_fj) for report in reports] == [0, 8, 0]
    with pytest.raises(ValueError, match="2 flags for 3 lanes"):
        estimator.estimate_all(testbenches, max_cycles=8, keep_cycle_trace=[True, False])


def test_estimate_all_checks_the_per_lane_profile_count():
    estimator = BatchRTLPowerEstimator(build_flat("HVPeakF"), kernel_backend="off")
    testbenches = [get("HVPeakF").make_testbench(seed) for seed in range(3)]
    config = ProfileConfig(window_cycles=4)
    for profile in ([config, None], [config] * 4):
        with pytest.raises(ValueError, match=f"{len(profile)} configs for 3 lanes"):
            estimator.estimate_all(testbenches, max_cycles=8, profile=profile)
    estimator.estimate_all(testbenches, max_cycles=8, profile=[None, config, None])
    assert [p is not None for p in estimator.last_profiles] == [False, True, False]


def test_block_results_own_their_objects():
    results = RTLEstimatorAdapter().estimate_many(_block(8, 3, "off"))
    first, second = results[0], results[1]
    assert first.metadata == second.metadata
    assert first.metadata is not second.metadata
    assert first.metadata["phase_s"] is not second.metadata["phase_s"]
    assert first.report.notes is not second.report.notes
    first.metadata["phase_s"]["total_s"] = -1.0
    first.report.notes["extra"] = True
    assert second.metadata["phase_s"]["total_s"] >= 0.0
    assert "extra" not in second.report.notes


@pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
def test_block_updates_estimate_metrics_per_lane(kernel_backend):
    estimates = obs.REGISTRY.counter("repro_estimates_total", "")
    mean_mw = obs.REGISTRY.histogram("repro_power_mean_mw", "")
    before = estimates.value(engine="rtl")
    observed = mean_mw.count(engine="rtl")
    specs = _block(37, 5, kernel_backend)
    results = RTLEstimatorAdapter().estimate_many(specs)
    assert estimates.value(engine="rtl") == before + len(specs)
    assert mean_mw.count(engine="rtl") == observed + len(specs)
    last = results[-1].report
    peak = obs.REGISTRY.gauge("repro_power_last_peak_mw", "").value(
        design="HVPeakF", engine="rtl")
    mean = obs.REGISTRY.gauge("repro_power_last_mean_mw", "").value(
        design="HVPeakF", engine="rtl")
    assert (peak, mean) == (last.peak_power_mw, last.average_power_mw)


@pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
def test_lane_components_view_behaves_as_the_dict(kernel_backend):
    specs = _block(37, 4, kernel_backend)
    results = RTLEstimatorAdapter().estimate_many(specs)
    report = results[3].report
    view = report.components
    assert isinstance(view, LaneComponents)
    dict_report = PowerReport.from_dict(report.to_dict())
    assert type(dict_report.components) is dict
    # serializing, sizing and naming the components builds none of them
    assert view._built is None
    monitored = [c.name for c, _ in RTLPowerEstimator(build_flat("HVPeakF")).monitored]
    assert list(view) == list(view.keys()) == monitored
    assert len(view) == len(monitored) and monitored[0] in view
    assert view._built is None

    assert view == dict_report.components and dict_report.components == view
    assert report == dict_report and dict_report == report
    assert repr(report) == repr(dict_report)
    assert [c.name for c in view.values()] == monitored
    assert view[monitored[0]] is view[monitored[0]]
    assert view.get("no such component") is None
    with pytest.raises(KeyError):
        view["no such component"]
    with pytest.raises(TypeError):
        view[monitored[0]] = dict_report.components[monitored[0]]
    with pytest.raises(TypeError):
        del view[monitored[0]]

    scalar = estimate(specs[3].replace(backend="compiled")).report
    assert _as_scalar_report(report, scalar) == scalar
    assert scalar == _as_scalar_report(report, scalar)
    replaced = dataclasses.replace(report, design="renamed")
    assert replaced.components == dict_report.components
    assert replaced == dataclasses.replace(dict_report, design="renamed")
    for restored in (pickle.loads(pickle.dumps(report)),
                     pickle.loads(pickle.dumps(results[2].report))):
        assert isinstance(restored.components, LaneComponents)
    assert pickle.loads(pickle.dumps(report)) == dict_report
    assert pickle.loads(pickle.dumps(results[2])) == results[2]

    assert report.table() == dict_report.table()
    assert report.top_consumers(5) == dict_report.top_consumers(5)
    assert report.energy_by_type() == dict_report.energy_by_type()
    for sort_keys in (False, True):
        assert json.dumps(report.to_dict(), sort_keys=sort_keys) == json.dumps(
            dict_report.to_dict(), sort_keys=sort_keys)
    for component in view.values():
        assert list(component.to_dict().items()) == list(
            dataclasses.asdict(component).items())
