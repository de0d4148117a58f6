"""Figure 3 (speedup series): speedup of power emulation over both RTL tools.

The paper reports speedups "ranging from 10X to over 500X", growing with
design size.  This harness derives the speedup series from the same per-design
study as the execution-time harness and checks the reproduced range and trend.
Writes ``benchmarks/results/fig3_speedup.txt``.
"""

from __future__ import annotations

from repro.designs.registry import FIGURE3_ORDER

from conftest import write_result


def test_fig3_speedup_series(benchmark, fig3_study):
    """Derive the speedup-vs-design series (benchmarked: completing the study)."""
    rows = benchmark.pedantic(fig3_study.ensure_all, rounds=1, iterations=1)

    speedups_nec = {row.design: row.speedup_nec for row in rows}
    speedups_pt = {row.design: row.speedup_powertheater for row in rows}
    benchmark.extra_info.update(
        {f"speedup_nec_{k}": round(v, 1) for k, v in speedups_nec.items()}
    )

    lines = [
        "Figure 3 reproduction — speedup of power emulation over RTL power estimation",
        "",
        f"{'design':12s} {'speedup over NEC-RTpower':>26s} {'speedup over PowerTheater':>27s}",
    ]
    for row in rows:
        lines.append(
            f"{row.design:12s} {row.speedup_nec:26.1f} {row.speedup_powertheater:27.1f}"
        )
    all_speedups = list(speedups_nec.values()) + list(speedups_pt.values())
    lines += [
        "",
        f"range: {min(all_speedups):.1f}x .. {max(all_speedups):.1f}x "
        "(paper: ~10x to over 500x)",
    ]
    # modeled, deterministic speedups: repro.bench.gate gates speedup* as
    # higher-is-better
    write_result(
        "fig3_speedup.txt",
        "\n".join(lines),
        metrics={
            "speedup_min_nec": round(min(speedups_nec.values()), 2),
            "speedup_max_nec": round(max(speedups_nec.values()), 2),
            "speedup_min_powertheater": round(min(speedups_pt.values()), 2),
            "speedup_max_powertheater": round(max(speedups_pt.values()), 2),
        },
    )

    # shape checks against the paper: its range starts at ~10x; the top of
    # this reproduction's range (382x) stays short of its "over 500x"
    assert min(all_speedups) >= 10, "the smallest design should reach the paper's ~10x"
    assert max(all_speedups) > 300, "the largest designs should see a >300x speedup"
    # the largest design (MPEG4) benefits more than the smallest (Bubble_Sort)
    assert speedups_nec["MPEG4"] > speedups_nec["Bubble_Sort"]
