"""The per-design Figure 3 study (library form).

Reproduces the paper's Figure 3 study design by design: run the software RTL
power estimator and the full power-emulation flow on the scaled workload,
evaluate the calibrated commercial-tool runtime models and the
emulation-platform time model at the *nominal* (paper-scale) workload, and
derive the execution-time and speedup series.

This used to live inside ``benchmarks/conftest.py``; it is a library module
so that process-pool shard workers (:mod:`repro.bench.shard`), the benchmark
harnesses, examples and the CLI below can all share one implementation:

    python -m repro.bench.fig3 --workers 4

Each design is independent, so the study shards across a process pool, and
completed rows are cached on disk keyed by ``(design, library, config, code
fingerprint)`` — a repeat run of unchanged code costs ~nothing.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.cache import ResultCache

#: paper-reported MPEG4 data point used to anchor the commercial-tool models
PAPER_MPEG4_POWERTHEATER_S = 43 * 60.0
PAPER_MPEG4_NEC_S = 55 * 60.0


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of one Figure 3 study run (part of the result-cache key)."""

    #: fixed-point coefficient width of the instrumentation hardware
    coefficient_bits: int = 12
    #: host-link stimulus streaming rate modelled for the emulation platform
    stimulus_cycles_per_s: float = 5e6
    #: power-model library identity (build_seed_library is deterministic)
    library: str = "seed"

    def as_key(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass
class Fig3Row:
    """One design's worth of Figure 3 data."""

    design: str
    monitored_bits: int
    nominal_cycles: int
    executed_cycles: int
    #: modeled software-tool runtimes at the nominal workload (seconds)
    time_nec_s: float
    time_powertheater_s: float
    #: modeled power-emulation runtime at the nominal workload (seconds)
    time_emulation_s: float
    #: measured wall-clock of our own software RTL estimator on the scaled workload
    measured_software_s: float
    #: measured wall-clock of the emulated (host) functional simulation
    measured_emulation_host_s: float
    average_power_mw: float
    emulated_power_mw: float
    accuracy_error: float
    device: str
    emulation_clock_mhz: float
    lut_overhead: float
    ff_overhead: float

    @property
    def speedup_nec(self) -> float:
        return self.time_nec_s / self.time_emulation_s

    @property
    def speedup_powertheater(self) -> float:
        return self.time_powertheater_s / self.time_emulation_s

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Fig3Row":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


class Fig3Study:
    """Computes and caches the per-design Figure 3 data.

    ``cache`` (optional) persists completed rows on disk; ``n_workers > 1``
    shards :meth:`ensure_all` over a process pool, one design per worker.
    """

    def __init__(
        self,
        config: StudyConfig = StudyConfig(),
        cache: Optional[ResultCache] = None,
        n_workers: int = 0,
    ) -> None:
        self.config = config
        self.cache = cache
        self.n_workers = n_workers
        self.rows: Dict[str, Fig3Row] = {}
        #: design -> True when the row was served from the on-disk cache
        self.cache_hits: Dict[str, bool] = {}
        self._flow = None
        self._library = None
        self._tools = None

    # ----------------------------------------------------------- lazy setup
    def _setup(self):
        if self._flow is None:
            from repro.core import InstrumentationConfig, PowerEmulationFlow
            from repro.core.emulator import EmulationPlatform, HostInterface
            from repro.power import build_seed_library

            self._library = build_seed_library()
            # The paper measured testbench simulation + FPGA execution; we
            # model the testbench as streamed from the host at a realistic
            # link rate.
            platform = EmulationPlatform(
                host=HostInterface(stimulus_cycles_per_s=self.config.stimulus_cycles_per_s)
            )
            self._flow = PowerEmulationFlow(
                library=self._library,
                config=InstrumentationConfig(coefficient_bits=self.config.coefficient_bits),
                platform=platform,
            )
        return self._flow, self._library

    def calibrated_tools(self):
        """NEC-RTpower / PowerTheater anchored to the paper's MPEG4 data point."""
        if self._tools is None:
            from repro.designs.registry import get_design
            from repro.netlist import module_stats
            from repro.power import NEC_RTPOWER, POWERTHEATER, calibrate_tool

            mpeg4 = get_design("MPEG4")
            bits = module_stats(mpeg4.build()).monitored_bits
            self._tools = (
                calibrate_tool(NEC_RTPOWER, mpeg4.nominal_cycles, bits, PAPER_MPEG4_NEC_S),
                calibrate_tool(POWERTHEATER, mpeg4.nominal_cycles, bits,
                               PAPER_MPEG4_POWERTHEATER_S),
            )
        return self._tools

    # -------------------------------------------------------------- caching
    def _cache_key(self, design_name: str) -> Optional[str]:
        if self.cache is None:
            return None
        return self.cache.key(design=design_name, config=self.config.as_key())

    def _cache_lookup(self, design_name: str) -> Optional[Fig3Row]:
        key = self._cache_key(design_name)
        if key is None:
            return None
        payload = self.cache.get(key)
        if payload is None:
            return None
        return Fig3Row.from_dict(payload)

    def _cache_store(self, row: Fig3Row) -> None:
        key = self._cache_key(row.design)
        if key is not None:
            self.cache.put(key, row.to_dict())

    # ----------------------------------------------------------------- compute
    def compute(self, design_name: str) -> Fig3Row:
        """Run the study for one design (memoized + disk-cached)."""
        if design_name in self.rows:
            return self.rows[design_name]
        cached = self._cache_lookup(design_name)
        if cached is not None:
            self.rows[design_name] = cached
            self.cache_hits[design_name] = True
            return cached
        row = self._compute_uncached(design_name)
        self.rows[design_name] = row
        self.cache_hits[design_name] = False
        self._cache_store(row)
        return row

    def _compute_uncached(self, design_name: str) -> Fig3Row:
        from repro.core import compare_reports
        from repro.designs.registry import get_design
        from repro.netlist import flatten
        from repro.power import RTLPowerEstimator

        flow, library = self._setup()
        design = get_design(design_name)
        module = design.build()
        nec, powertheater = self.calibrated_tools()

        reference = RTLPowerEstimator(flatten(module), library=library).estimate(
            design.testbench()
        )
        report = flow.run(
            module,
            design.testbench(),
            workload_cycles=design.nominal_cycles,
            testbench_on_fpga=False,
        )
        accuracy = compare_reports(report.power_report, reference)
        bits = report.instrumented.monitored_bits
        return Fig3Row(
            design=design_name,
            monitored_bits=bits,
            nominal_cycles=design.nominal_cycles,
            executed_cycles=report.emulation.executed_cycles,
            time_nec_s=nec.estimate_runtime_s(design.nominal_cycles, bits),
            time_powertheater_s=powertheater.estimate_runtime_s(design.nominal_cycles, bits),
            time_emulation_s=report.emulation_time_s,
            measured_software_s=reference.estimation_time_s,
            measured_emulation_host_s=report.emulation.host_simulation_s,
            average_power_mw=reference.average_power_mw,
            emulated_power_mw=report.power_report.average_power_mw,
            accuracy_error=accuracy.relative_error,
            device=report.emulation.device.name,
            emulation_clock_mhz=report.emulation.emulation_clock_mhz,
            lut_overhead=report.instrumentation_overhead["luts"],
            ff_overhead=report.instrumentation_overhead["ffs"],
        )

    def ensure(self, design_names: List[str]) -> List[Fig3Row]:
        """Rows for the named designs, sharded over a pool when configured."""
        missing = [
            name for name in design_names
            if name not in self.rows and self._cache_lookup(name) is None
        ]
        if self.n_workers > 1 and len(missing) > 1:
            from repro.bench.shard import run_sharded

            outcome = run_sharded(
                missing, n_workers=self.n_workers, config=self.config, cache=self.cache
            )
            for name, row in outcome.rows.items():
                self.rows[name] = row
                self.cache_hits[name] = False
        return [self.compute(name) for name in design_names]

    def ensure_all(self) -> List[Fig3Row]:
        """All Figure 3 rows, sharded over a process pool when configured."""
        from repro.designs.registry import FIGURE3_ORDER

        return self.ensure(list(FIGURE3_ORDER))

    @property
    def complete(self) -> bool:
        from repro.designs.registry import FIGURE3_ORDER

        return all(name in self.rows for name in FIGURE3_ORDER)


def format_study(rows: List[Fig3Row]) -> str:
    """Human-readable execution-time/speedup table (CLI + examples)."""
    lines = [
        f"{'design':12s} {'bits':>6s} {'NEC-RTpower (s)':>16s} "
        f"{'PowerTheater (s)':>17s} {'Emulation (s)':>14s} {'speedup NEC':>12s}",
    ]
    for row in rows:
        lines.append(
            f"{row.design:12s} {row.monitored_bits:6d} {row.time_nec_s:16.1f} "
            f"{row.time_powertheater_s:17.1f} {row.time_emulation_s:14.2f} "
            f"{row.speedup_nec:12.1f}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: sharded, cached Figure 3 study."""
    import argparse

    from repro.designs.registry import FIGURE3_ORDER
    from repro.sim.kernels import usable_cpu_count

    parser = argparse.ArgumentParser(description="Run the Figure 3 study.")
    parser.add_argument("--workers", type=int, default=max(1, usable_cpu_count() - 1),
                        help="process-pool shard workers (1 = serial)")
    parser.add_argument("--cache-dir", default=os.path.join(".", "benchmarks", "results", ".cache"),
                        help="on-disk result cache directory ('' disables caching)")
    parser.add_argument("--designs", nargs="*", default=list(FIGURE3_ORDER),
                        help="subset of designs to compute")
    parser.add_argument("--clear-cache", action="store_true",
                        help="drop cached rows before running")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.designs) - set(FIGURE3_ORDER))
    if unknown:
        parser.error(
            f"unknown design(s) {', '.join(unknown)}; choose from {', '.join(FIGURE3_ORDER)}"
        )

    cache = ResultCache(args.cache_dir, namespace="fig3") if args.cache_dir else None
    if cache is not None and args.clear_cache:
        print(f"cleared {cache.clear()} cached entries")
    study = Fig3Study(cache=cache, n_workers=args.workers)

    start = time.perf_counter()
    rows = study.ensure([name for name in FIGURE3_ORDER if name in set(args.designs)])
    elapsed = time.perf_counter() - start
    hits = sum(1 for name, hit in study.cache_hits.items() if hit)
    print(format_study(rows))
    print()
    print(f"{len(rows)} designs in {elapsed:.2f}s "
          f"({args.workers} workers, {hits} cache hits)")
    return 0


if __name__ == "__main__":
    import sys as _sys

    # thin shim: the canonical entry is the unified CLI's fig3 subcommand
    print(
        "note: `python -m repro.bench.fig3` is deprecated; "
        "use `python -m repro fig3`",
        file=_sys.stderr,
    )
    raise SystemExit(main())
