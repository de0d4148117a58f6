"""Macromodel fidelity: regression macromodels vs gate-level reference power.

Section 2.1 builds on characterization-based macromodels; this harness
quantifies how well the cycle-accurate linear-regression form (the one that is
synthesized into power-estimation hardware) fits gate-level reference energies
across the component library, and compares it against the LUT-table
macromodel form used as an ablation.
Writes ``benchmarks/results/characterization.txt``.

``BENCH_characterization.json`` carries each component's fit numbers as
``metrics`` (``<component>_r_squared``, ``_nrmse``, ``_holdout_linear``,
``_holdout_lut``).  The perf gate (``repro gate``) does not compare them:
they are deterministic quality figures of a fixed-seed fit, not rates, so a
ratio against the baseline would gate nothing meaningful.  The harness holds
them to absolute bounds itself instead: R^2 > 0.6 and linear holdout error
< 0.25 per component.
"""

from __future__ import annotations

import pytest

from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier, Mux, ShifterVar
from repro.power import CharacterizationEngine, holdout_error

_COMPONENTS = [
    ("adder16", lambda: Adder("adder16", 16)),
    ("multiplier8", lambda: Multiplier("multiplier8", 8)),
    ("comparator16", lambda: Comparator("comparator16", 16)),
    ("mux4x12", lambda: Mux("mux4x12", 12, 4)),
    ("xor16", lambda: LogicOp("xor16", "xor", 16)),
    ("barrel16", lambda: ShifterVar("barrel16", 16, 4, "left")),
]

_ROWS = {}


@pytest.mark.parametrize("label,factory", _COMPONENTS)
def test_characterization_fidelity(benchmark, label, factory):
    component = factory()
    engine = CharacterizationEngine(n_pairs=120, seed=7)

    result = benchmark.pedantic(engine.characterize, args=(component,), rounds=1, iterations=1)
    lut_model = engine.characterize_lut(factory(), n_bins=6)
    holdout_linear = holdout_error(factory(), result.model)
    holdout_lut = holdout_error(factory(), lut_model)

    _ROWS[label] = {
        "r_squared": result.metrics.r_squared,
        "nrmse": result.metrics.nrmse,
        "mean_energy_fj": result.metrics.mean_energy_fj,
        "holdout_linear": holdout_linear,
        "holdout_lut": holdout_lut,
    }
    benchmark.extra_info.update({k: round(v, 4) for k, v in _ROWS[label].items()})

    assert result.metrics.r_squared > 0.6
    assert holdout_linear < 0.25

    if len(_ROWS) == len(_COMPONENTS):
        lines = [
            "Macromodel characterization fidelity vs gate-level reference power",
            "",
            f"{'component':14s} {'R^2':>7s} {'NRMSE':>7s} {'mean E (fJ)':>12s} "
            f"{'holdout err (linear)':>21s} {'holdout err (LUT)':>18s}",
        ]
        for name, row in _ROWS.items():
            lines.append(
                f"{name:14s} {row['r_squared']:7.3f} {row['nrmse']:7.3f} "
                f"{row['mean_energy_fj']:12.1f} {row['holdout_linear']:20.1%} "
                f"{row['holdout_lut']:17.1%}"
            )
        from conftest import write_result

        metrics = {
            f"{name}_{key}": round(row[key], 6)
            for name, row in _ROWS.items()
            for key in ("r_squared", "nrmse", "holdout_linear", "holdout_lut")
        }
        write_result("characterization.txt", "\n".join(lines), metrics=metrics)
