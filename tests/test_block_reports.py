"""Lane reports and results built once per block, not once per lane.

``estimate_many`` builds every lane's :class:`PowerReport` in one pass over
the block's ``(components, lanes)`` arrays and finishes the block's results
in one call.  The contract checked here: each lane's report is ``==`` to
the scalar run of its spec, results round-trip through ``to_dict``, and the
estimate metrics move as if each lane were finished alone.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.api import EstimateResult, RunSpec, estimate
from repro.api.estimators import RTLEstimatorAdapter
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
