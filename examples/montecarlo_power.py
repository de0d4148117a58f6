"""Monte-Carlo power sweep from declarative burst/Markov stimulus specs.

1024 independent stimulus lanes through one lane-vectorized simulation of the
HVPeakF sharpening filter: every lane re-seeds the same declarative
scenario — a pixel stream that mixes duty-cycled bursts of fresh pixels with
Markov-correlated (bursty per-bit) activity — and the multi-seed RTL power
estimator advances all 1024 lanes together, feeding the compiled stimulus
tensors straight into the lane store (no per-lane Python drive loop).

The result is a power *distribution*, not a point estimate: the spread the
paper's single-workload numbers hide.

At 8192+ lanes the dominant cost becomes NumPy per-op dispatch inside the
batch simulator; the fused lane kernels (``repro.sim.kernels``) lift it —
pass ``--kernel-backend native`` (or set ``REPRO_KERNEL_BACKEND=native``) to
compile the whole settle/clock-edge into one C kernel via cffi, several
times the per-op path on this design.  Hosts without a C compiler
transparently run the per-op path (``off``) instead; results are
bit-identical on every backend.

Run from the repository root:

    PYTHONPATH=src python examples/montecarlo_power.py
    PYTHONPATH=src python examples/montecarlo_power.py --lanes 8192 \
        --kernel-backend native
"""

from __future__ import annotations

import argparse
import time

from repro.designs.registry import build_flat
from repro.power import build_seed_library
from repro.power.lane_estimator import BatchRTLPowerEstimator
from repro.stim import (
    BurstSpec,
    ConstantSpec,
    MarkovSpec,
    MixtureSpec,
    SpecTestbench,
    StimulusSpec,
)

DEFAULT_LANES = 1024
N_CYCLES = 160

# The scenario: pixels arrive 70% of the time as duty-cycled random bursts
# (8 active, 8 idle — a blanking interval), 30% as Markov-correlated streams
# whose bits toggle in runs (stationary activity ~2/3, like natural video
# gradients); the valid strobe is held high throughout.
SCENARIO = StimulusSpec(
    n_cycles=N_CYCLES,
    ports={
        "pixel": MixtureSpec(
            components=(
                (0.7, BurstSpec(active=8, idle=8)),
                (0.3, MarkovSpec(p01=0.4, p10=0.2)),
            ),
            hold=16,
        ),
        "valid": ConstantSpec(1),
    },
    default=None,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lanes", type=int, default=DEFAULT_LANES,
                        help="independent stimulus seeds (one lane each)")
    parser.add_argument("--kernel-backend", default="auto",
                        choices=("auto", "native", "off"),
                        help="fused lane-kernel backend; 'native' compiles "
                             "the cycle into C (recommended at 8192+ lanes)")
    parser.add_argument("--kernel-threads", default=None,
                        help="native-kernel worker threads per settle/edge "
                             "('auto' = scale with cores and lanes; results "
                             "are bit-identical at any count)")
    args = parser.parse_args()
    n_lanes = args.lanes

    print(SCENARIO.describe())
    print()
    estimator = BatchRTLPowerEstimator(build_flat("HVPeakF"),
                                       library=build_seed_library(),
                                       kernel_backend=args.kernel_backend,
                                       kernel_threads=args.kernel_threads)
    testbenches = [SpecTestbench(SCENARIO, seed=seed) for seed in range(n_lanes)]

    start = time.perf_counter()
    reports = estimator.estimate_all(testbenches, keep_cycle_trace=False)
    elapsed = time.perf_counter() - start

    powers = sorted(report.average_power_mw for report in reports)
    mean = sum(powers) / len(powers)
    std = (sum((p - mean) ** 2 for p in powers) / len(powers)) ** 0.5

    def quantile(q: float) -> float:
        return powers[min(len(powers) - 1, int(q * len(powers)))]

    print(f"{n_lanes} lanes x {N_CYCLES} cycles in {elapsed:.2f} s "
          f"({n_lanes * N_CYCLES / elapsed:,.0f} lane-cycles/s, "
          f"stimulus driver: {reports[0].notes['stimulus_driver']}, "
          f"kernel backend: {estimator.last_kernel_backend}, "
          f"threads: {estimator.last_kernel_threads})")
    print()
    print(f"average power over {n_lanes} seeds (mW):")
    print(f"  mean {mean:.4f}  std {std:.4f}  "
          f"min {powers[0]:.4f}  max {powers[-1]:.4f}")
    print(f"  p5 {quantile(0.05):.4f}  p50 {quantile(0.50):.4f}  "
          f"p95 {quantile(0.95):.4f}")

    # a coarse text histogram of the distribution
    n_bins = 10
    lo, hi = powers[0], powers[-1]
    width = (hi - lo) / n_bins or 1.0
    bins = [0] * n_bins
    for p in powers:
        bins[min(n_bins - 1, int((p - lo) / width))] += 1
    print()
    for i, count in enumerate(bins):
        bar = "#" * max(1, round(40 * count / max(bins))) if count else ""
        print(f"  {lo + i * width:.4f}-{lo + (i + 1) * width:.4f} "
              f"{count:5d} {bar}")


if __name__ == "__main__":
    main()
