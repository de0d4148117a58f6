"""Accuracy claim: power emulation with "little or no tradeoff in accuracy".

Two studies:

1. per-design accuracy of the emulated power (read back from the inserted
   power-estimation hardware) against the software RTL estimator evaluating
   the same macromodels in floating point — the only differences are
   fixed-point coefficient quantization and end-of-run strobe flushing;
2. a quantization sweep on one design showing how the error shrinks with the
   coefficient word length (the design knob behind the accuracy claim).

Writes ``benchmarks/results/accuracy.txt``.
"""

from __future__ import annotations

import pytest

from repro.core import sweep_coefficient_bits
from repro.designs.registry import FIGURE3_ORDER, get_design

from conftest import write_result

#: designs whose full accuracy study is run (all of Fig. 3)
ACCURACY_DESIGNS = FIGURE3_ORDER


def test_accuracy_per_design(benchmark, fig3_study):
    rows = benchmark.pedantic(fig3_study.ensure_all, rounds=1, iterations=1)

    lines = [
        "Accuracy reproduction — emulated power vs software RTL power estimation",
        "(same macromodel library; differences stem from fixed-point quantization only)",
        "",
        f"{'design':12s} {'software power (mW)':>20s} {'emulated power (mW)':>20s} "
        f"{'error':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row.design:12s} {row.average_power_mw:20.4f} {row.emulated_power_mw:20.4f} "
            f"{row.accuracy_error:+7.2%}"
        )
    worst = max(abs(row.accuracy_error) for row in rows)
    lines += ["", f"worst-case error across designs: {worst:.2%} (paper: 'little or no tradeoff')"]
    # *_pct metrics are not gated (repro.bench.gate.classify_metric), so the
    # budget below is this harness's own check
    write_result(
        "accuracy.txt",
        "\n".join(lines),
        metrics={"worst_error_pct": round(worst * 100.0, 4)},
    )

    assert worst < 0.005, "emulated power should track the software estimate within 0.5%"
    benchmark.extra_info["worst_case_error"] = round(worst, 4)


def test_accuracy_quantization_sweep(benchmark, seed_library):
    """Coefficient word-length ablation on the Ispq design."""
    design = get_design("Ispq")
    module = design.build()

    def run_sweep():
        return sweep_coefficient_bits(
            module,
            design.testbench,
            bits_values=(4, 6, 8, 10, 12, 16),
            library=seed_library,
        )

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [
        "Quantization ablation — coefficient word length vs emulated-power error (Ispq)",
        "",
        f"{'coefficient bits':>17s} {'relative error':>15s}",
    ]
    errors = {}
    for bits, accuracy in results:
        errors[bits] = abs(accuracy.relative_error)
        lines.append(f"{bits:17d} {accuracy.relative_error:+14.3%}")
    write_result("accuracy_quantization_sweep.txt", "\n".join(lines))

    assert errors[16] <= errors[4]
    assert errors[16] < 0.01
    benchmark.extra_info.update({f"error_{bits}b": round(err, 5) for bits, err in errors.items()})
