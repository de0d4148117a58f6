"""Lane-vectorized characterization throughput (training pairs per second).

The macromodel library is built by hammering each component's gate-level
implementation with hundreds of training vector pairs; the characterization
engine settles all of a component's pairs as the lanes of one gate-level
block.  This harness measures that throughput per component and over the
standard component set.

The ``*_pairs_per_s`` metrics in ``BENCH_batch_characterization.json`` are
always timed at :data:`TIMED_PAIRS` pairs (best of 3 after a warm-up run), in
full and smoke runs alike, so a CI smoke run's numbers compare with the
committed ones.  ``REPRO_BENCH_PAIRS`` sets only the pair count of the
pytest-benchmark sweep (CI smoke runs use a small value).
Writes ``benchmarks/results/batch_characterization.txt``.
"""

from __future__ import annotations

import os
import time

from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier, Mux, ShifterVar
from repro.power import CharacterizationEngine

from conftest import write_result

#: pair count the pairs/s metrics are timed at
TIMED_PAIRS = 360

N_PAIRS = int(os.environ.get("REPRO_BENCH_PAIRS", str(TIMED_PAIRS)))

_COMPONENTS = [
    ("adder16", lambda: Adder("adder16", 16)),
    ("multiplier8", lambda: Multiplier("multiplier8", 8)),
    ("comparator16", lambda: Comparator("comparator16", 16)),
    ("mux4x12", lambda: Mux("mux4x12", 12, 4)),
    ("xor16", lambda: LogicOp("xor16", "xor", 16)),
    ("barrel16", lambda: ShifterVar("barrel16", 16, 4, "left")),
]


def _time_characterize(engine, factory, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        component = factory()
        start = time.perf_counter()
        engine.characterize(component)
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_characterization_throughput(benchmark):
    engine = CharacterizationEngine(n_pairs=TIMED_PAIRS, seed=7)

    seconds = {}
    for label, factory in _COMPONENTS:
        # warm once: techmap + gate-program caches, lstsq dispatch
        engine.characterize(factory())
        seconds[label] = _time_characterize(engine, factory)
    metrics = {
        f"{label}_pairs_per_s": round(TIMED_PAIRS / t, 1) for label, t in seconds.items()
    }
    metrics["aggregate_pairs_per_s"] = round(
        TIMED_PAIRS * len(seconds) / sum(seconds.values()), 1
    )

    # the benchmarked callable: one characterization sweep of the set
    sweep_engine = CharacterizationEngine(n_pairs=N_PAIRS, seed=7)

    def sweep():
        for _, factory in _COMPONENTS:
            sweep_engine.characterize(factory())

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update({"n_pairs": N_PAIRS, **metrics})

    lines = [
        "Lane-vectorized characterization throughput",
        f"({TIMED_PAIRS} training pairs per component, one gate-level block each; "
        "best of 3)",
        "",
        f"{'component':14s} {'pairs/s':>12s}",
    ]
    for label in seconds:
        lines.append(f"{label:14s} {metrics[f'{label}_pairs_per_s']:12,.0f}")
    lines += ["", f"{'aggregate':14s} {metrics['aggregate_pairs_per_s']:12,.0f}"]
    write_result("batch_characterization.txt", "\n".join(lines), metrics=metrics)
