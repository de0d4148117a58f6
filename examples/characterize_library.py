"""Characterize a power-macromodel library against gate-level implementations.

Reproduces the methodology of Section 2.1: for a set of RTL components, build
their gate-level implementations in the synthetic 0.13 µm cell library, apply
training vector pairs, measure reference transition energies, and fit the
cycle-accurate linear-regression macromodel ``E = base + sum_i c_i * T(x_i)``.
The script reports fit quality (R², NRMSE), compares the characterized models
with the analytic seed models, and shows the LUT-table macromodel alternative.

All training pairs of a component execute as the lanes of one gate-level
settle per vector set; the script ends with that throughput in training
pairs per second.

Run:  python examples/characterize_library.py
"""

from __future__ import annotations

import time

from repro.gates import TechnologyMapper
from repro.netlist.components import Adder, Comparator, LogicOp, Multiplier, Mux, ShifterVar
from repro.power import (
    CB130M_TECHNOLOGY,
    CharacterizationEngine,
    PowerModelLibrary,
    SeedModelBuilder,
)


def main() -> None:
    engine = CharacterizationEngine(n_pairs=150, seed=2005)
    seed_builder = SeedModelBuilder(CB130M_TECHNOLOGY)
    mapper = TechnologyMapper()

    components = [
        Adder("adder8", 8),
        Adder("adder16", 16),
        Multiplier("mult8", 8),
        Comparator("cmp16", 16),
        Mux("mux4x12", 12, 4),
        LogicOp("xor16", "xor", 16),
        ShifterVar("bshift16", 16, 4, "left"),
    ]

    library = PowerModelLibrary(CB130M_TECHNOLOGY, name="characterized")
    print(f"{'component':12s} {'gates':>6s} {'R^2':>7s} {'NRMSE':>7s} "
          f"{'mean E (fJ)':>12s} {'max E fit':>10s} {'max E seed':>10s}")
    for component in components:
        gates = mapper.map_component(component).n_gates
        result = engine.characterize(component)
        library.add(component, result.model)
        seed_model = seed_builder.build(component)
        print(
            f"{component.name:12s} {gates:6d} {result.metrics.r_squared:7.3f} "
            f"{result.metrics.nrmse:7.3f} {result.metrics.mean_energy_fj:12.1f} "
            f"{result.model.max_energy_fj():10.1f} {seed_model.max_energy_fj():10.1f}"
        )

    print()
    print("=== library summary ===")
    print(library.summary())

    print()
    print("=== LUT-table macromodel (ablation alternative) ===")
    lut = engine.characterize_lut(Adder("adder8_lut", 8), n_bins=4)
    quiet = lut.evaluate({"a": 0, "b": 0, "y": 0}, {"a": 0, "b": 0, "y": 0})
    busy = lut.evaluate({"a": 0, "b": 0, "y": 0}, {"a": 255, "b": 255, "y": 255})
    print(f"  8-bit adder LUT model: quiet bin {quiet:.1f} fJ, busy bin {busy:.1f} fJ")

    print()
    engine.characterize(Multiplier("mult8_timed", 8))  # warm the lowering caches
    start = time.perf_counter()
    engine.characterize(Multiplier("mult8_timed", 8))
    elapsed = time.perf_counter() - start
    print(f"characterization throughput (8-bit multiplier): "
          f"{engine.n_pairs / elapsed:,.0f} training pairs/s")


if __name__ == "__main__":
    main()
