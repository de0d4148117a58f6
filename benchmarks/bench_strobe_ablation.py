"""Strobe-period ablation.

The power strobe generator decouples power-model evaluation from the design
clock.  Two sampling policies are compared across strobe periods:

* *accumulate every cycle* (this library's default): the models observe every
  cycle and flush on the strobe — total energy is exact up to the unflushed
  tail at the end of the run;
* *sample on strobe only* (the paper's literal description — queues hold the
  previous strobe's values): activity between strobes is missed, so the energy
  estimate degrades as the period grows.  No lane emitter fuses this power
  model, so the study runs it on the scalar compiled engine.

Writes ``benchmarks/results/strobe_ablation.txt``.
"""

from __future__ import annotations

import pytest

from repro.core import InstrumentationConfig, instrument
from repro.designs.registry import get_design
from repro.netlist import flatten
from repro.power import RTLPowerEstimator
from repro.sim import Simulator

from conftest import write_result

PERIODS = (1, 2, 4, 8, 16)


def _emulated_energy(module, library, testbench, period, literal):
    config = InstrumentationConfig(
        strobe_period=period,
        coefficient_bits=14,
        sample_on_strobe_only=literal,
        per_component_totals=False,
    )
    design = instrument(module, library, config)
    simulator = Simulator(design.module)
    simulator.run(testbench)
    return design.read_total_energy_fj(simulator)


def test_strobe_period_ablation(benchmark, seed_library):
    design = get_design("Ispq")
    module = design.build()
    reference = RTLPowerEstimator(flatten(module), library=seed_library).estimate(
        design.testbench()
    )

    def run_study():
        rows = {}
        for period in PERIODS:
            exact = _emulated_energy(module, seed_library, design.testbench(), period, False)
            literal = _emulated_energy(module, seed_library, design.testbench(), period, True)
            rows[period] = (
                exact / reference.total_energy_fj - 1.0,
                literal / reference.total_energy_fj - 1.0,
            )
        return rows

    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)

    lines = [
        "Strobe-period ablation (Ispq) — error of the emulated total energy vs software",
        "",
        f"{'strobe period':>14s} {'accumulate-every-cycle':>24s} {'sample-on-strobe-only':>23s}",
    ]
    for period, (exact_err, literal_err) in rows.items():
        lines.append(f"{period:14d} {exact_err:+23.2%} {literal_err:+22.2%}")
    metrics = {}
    for period, (exact_err, literal_err) in rows.items():
        metrics[f"every_cycle_err_p{period}"] = round(exact_err, 4)
        metrics[f"strobe_only_err_p{period}"] = round(literal_err, 4)
    write_result("strobe_ablation.txt", "\n".join(lines), metrics=metrics)
    benchmark.extra_info.update(
        {f"literal_err_p{p}": round(v[1], 4) for p, v in rows.items()}
    )

    # default policy stays accurate at every period; the literal policy degrades
    assert abs(rows[1][0]) < 0.02
    assert abs(rows[16][0]) < 0.12          # bounded by the unflushed tail
    assert abs(rows[16][1]) > abs(rows[1][1])
    assert rows[16][1] < -0.3               # misses most activity at period 16
    # every longer strobe period misses more activity under the literal policy
    literal = [rows[period][1] for period in PERIODS]
    assert all(longer < shorter for shorter, longer in zip(literal, literal[1:]))
