"""The measuring process of the end-to-end benchmark.

``perfbench/run.py`` starts this script with a pinned environment; run it
through ``run.py``, not directly.  Two modes:

``setup --workload W --seed N``
    Set the workload up once from a cold process and print its set-up time.
``measure --workload W --seed N --seconds S --trace 0|1``
    Set up, call the workload in a closed loop for ``S`` seconds, check the
    results against an independent engine, and print the metrics.

Either mode prints one JSON object as the last line of its output.
"""

from __future__ import annotations

import time

# the set-up clock starts before the package (and NumPy) is imported
_PROCESS_START = time.perf_counter()

import argparse
import asyncio
import gc
import json
import math
import random
import statistics
import sys
from typing import Dict, List, Optional

from layers import LayerTracer

#: energies must match the reference engine this closely (the contract is
#: bit-identical; the margin only absorbs float summation order)
REL_TOL = 1e-9
#: sampled results re-run on the reference engine after the timed loop
N_VERIFY = 3
#: yardsticks on each side of a call that set its host-speed scale
SCALE_WINDOW = 3


def yardstick(width: int) -> float:
    """Seconds a fixed mix of interpreter and NumPy work takes now.

    The benchmark host is shared, and its speed drifts by up to 2x within
    seconds with the neighbours' load; wall times drift with it.  Timing
    this fixed work between requests and scaling each request's time by
    ``Workload.yardstick_ref_s / yardstick`` cancels most of the drift: on
    a 2-vCPU host it cut the spread of 10-second medians of a 256-lane
    workload from 17% to 5%.  Contention slows wide and narrow arrays
    differently, so the NumPy part works on arrays as wide as the
    workload's lane block (``width``).  The yardstick is the benchmark's
    own code, so no change to the package can move it.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(40000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    lanes = np.arange(width, dtype=np.int64)
    shifts = np.arange(8)
    coeffs = np.ones(8)
    for _ in range(800):
        bits = (lanes[:, None] >> shifts) & 1
        acc += int((bits @ coeffs).sum())
    return time.perf_counter() - start


class Workload:
    """One set of inputs: a design, a call shape and a reference engine."""

    name = ""
    design = ""
    #: estimates per call (lanes of one block, or jobs of one burst)
    per_call = 1
    #: cycle budget per estimate (None = run the testbench to completion)
    max_cycles: Optional[int] = None
    #: the yardstick's typical time at this workload's width on the host the
    #: benchmark was tuned on (2 vCPUs at 2.0 GHz): reported times read as
    #: wall times on that host
    yardstick_ref_s = 0.030

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def host_scale(self, yardstick_s: float) -> float:
        """Factor from time measured now to time on the reference host."""
        return self.yardstick_ref_s / yardstick_s

    def yardstick(self) -> float:
        return yardstick(self.per_call)

    def seeds(self, call: int) -> List[int]:
        """Stimulus seeds of one call: distinct across calls and runs."""
        base = self.seed * 1_000_003 + (call + 2) * self.per_call
        return [(base + lane) % 2**31 for lane in range(self.per_call)]

    def spec(self, seed: int, max_cycles: Optional[int] = None):
        from repro.api import RunSpec

        return RunSpec(design=self.design, seed=seed,
                       max_cycles=max_cycles or self.max_cycles)

    def start(self) -> None:
        """Bring the stack up: imports, design build, program/kernel compile."""
        self.call(-2, max_cycles=1)

    def call(self, index: int, max_cycles: Optional[int] = None) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def expected_cycles(self) -> Optional[int]:
        """Cycles every estimate must report (None = varies by seed)."""
        return self.max_cycles

    def testbench_classes(self) -> List[type]:
        from repro.designs.registry import get

        return [type(get(self.design).make_testbench(self.seeds(0)[0]))]

    def reference(self, spec):
        """The same run on the scalar compiled engine."""
        from repro.api import estimate

        return estimate(spec.replace(backend="compiled"))


class LanesTestbench(Workload):
    name = "lanes_testbench"
    design = "HVPeakF"
    per_call = 256
    max_cycles = 256

    def start(self) -> None:
        from repro.api import RTLEstimatorAdapter

        self.adapter = RTLEstimatorAdapter()
        super().start()

    def call(self, index, max_cycles=None):
        return self.adapter.estimate_many(
            [self.spec(s, max_cycles) for s in self.seeds(index)])


class LanesStimulus(LanesTestbench):
    name = "lanes_stimulus"
    max_cycles = None  # the stimulus spec fixes the run length

    def start(self) -> None:
        from repro.designs.registry import get

        self.stimulus = get(self.design).make_stimulus_spec()
        super().start()

    def spec(self, seed, max_cycles=None):
        return super().spec(seed, max_cycles).replace(stimulus=self.stimulus)

    def expected_cycles(self):
        return self.stimulus.n_cycles

    def testbench_classes(self):
        from repro.stim import SpecTestbench

        return [SpecTestbench]


class ScalarRun(Workload):
    name = "scalar_run"
    design = "DCT"
    yardstick_ref_s = 0.019

    def call(self, index, max_cycles=None):
        from repro.api import estimate

        return [estimate(self.spec(s, max_cycles)) for s in self.seeds(index)]

    def reference(self, spec):
        """The interpreter: the simulator's correctness oracle."""
        from repro.api import estimate

        return estimate(spec.replace(backend="interp"))


class ServeBurst(Workload):
    name = "serve_burst"
    design = "Vld"
    per_call = 16
    yardstick_ref_s = 0.021

    def start(self) -> None:
        from repro.serve import Client, PowerServer

        self.loop = asyncio.new_event_loop()
        self.server = PowerServer()
        self.loop.run_until_complete(self.server.start())
        self.client = Client(self.server)
        super().start()

    def call(self, index, max_cycles=None):
        specs = [self.spec(s, max_cycles) for s in self.seeds(index)]
        return self.loop.run_until_complete(self.client.estimate_all(specs))

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


WORKLOADS = {w.name: w for w in (LanesTestbench, LanesStimulus, ScalarRun, ServeBurst)}


# ------------------------------------------------------------------ checks
def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def mismatch(result, reference) -> Optional[str]:
    """Why ``result`` differs from the reference run, or None."""
    got, want = result.report, reference.report
    if got.cycles != want.cycles:
        return f"cycles {got.cycles} != {want.cycles}"
    if not _close(got.total_energy_fj, want.total_energy_fj):
        return f"total energy {got.total_energy_fj!r} != {want.total_energy_fj!r}"
    if set(got.components) != set(want.components):
        return "different monitored components"
    for name, component in got.components.items():
        if not _close(component.energy_fj, want.components[name].energy_fj):
            return f"component {name} energy differs"
    return None


def sane(result, expected_cycles: Optional[int]) -> bool:
    report = result.report
    if expected_cycles is not None and report.cycles != expected_cycles:
        return False
    return report.cycles > 0 and math.isfinite(report.total_energy_fj) \
        and report.total_energy_fj > 0


# --------------------------------------------------------------- the runs
def timed_setup(workload: Workload) -> float:
    """Cold set-up seconds, scaled by the yardstick timed right after it."""
    workload.start()
    setup_s = time.perf_counter() - _PROCESS_START
    host = statistics.median(workload.yardstick() for _ in range(3))
    return setup_s * workload.host_scale(host)


def run_setup(workload: Workload) -> Dict[str, object]:
    setup_s = timed_setup(workload)
    workload.close()
    return {"setup_s": setup_s}


def _build_count() -> int:
    from repro.sim import batch, kernels

    return (getattr(batch, "PROGRAM_BUILD_COUNT", 0)
            + getattr(kernels, "KERNEL_BUILD_COUNT", 0))


def run_measure(workload: Workload, seconds: float, trace: bool) -> Dict[str, object]:
    setup_s = timed_setup(workload)
    expected_cycles = workload.expected_cycles()
    workload.call(-1)  # full-size warm-up: first-call allocations, page faults

    tracer = LayerTracer() if trace else None
    if tracer is not None:
        tracer.calibrate()
        tracer.install(workload.testbench_classes())
    rng = random.Random(workload.seed)
    walls: List[float] = []  # measured seconds per call
    hosts = [workload.yardstick()]  # before the first call, then after each
    after: List[int] = []  # per call: index in hosts of the yardstick after it
    cycles_per_call: List[int] = []
    kept = []  # one result per call, for the reference check
    lanes_per_block: List[int] = []
    attempted = failed = 0
    builds_before = _build_count()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        # collect and freeze outside the timed call, so garbage from earlier
        # calls is never scanned inside a later one
        gc.collect()
        gc.freeze()
        attempted += workload.per_call
        start = time.perf_counter()
        try:
            results = workload.call(index)
        except Exception as error:  # one failed call must not end the run
            failed += workload.per_call
            print(f"call {index} failed: {type(error).__name__}: {error}",
                  file=sys.stderr)
            index += 1
            continue
        elapsed = time.perf_counter() - start
        hosts.append(workload.yardstick())
        walls.append(elapsed)
        after.append(len(hosts) - 1)
        cycles_per_call.append(sum(r.report.cycles for r in results))
        failed += sum(not sane(r, expected_cycles) for r in results)
        lanes_per_block.append(int(results[0].metadata.get("batch_lanes") or 1))
        pick = rng.randrange(len(results))
        kept.append(results[pick])
        index += 1
    builds = _build_count() - builds_before
    if tracer is not None:
        tracer.uninstall()
    gc.unfreeze()
    if not walls:
        raise RuntimeError("no call of the workload succeeded")

    # reference check on sampled results, outside the timed loop
    for result in rng.sample(kept, min(N_VERIFY, len(kept))):
        attempted += 1
        why = mismatch(result, workload.reference(result.spec))
        if why is not None:
            failed += 1
            print(f"seed {result.spec.seed}: {why}", file=sys.stderr)
    workload.close()

    # each call is scaled by the median of the yardsticks timed around it:
    # close enough in time to follow the host's drift, enough of them that
    # one disturbed yardstick does not move the call
    scales = [
        workload.host_scale(statistics.median(
            hosts[max(0, j - SCALE_WINDOW):j + SCALE_WINDOW]))
        for j in after
    ]
    latencies = [w * s for w, s in zip(walls, scales)]
    rates = [c / t for c, t in zip(cycles_per_call, latencies)]
    lane_cycles = sum(cycles_per_call)
    scale = statistics.median(scales)
    print(f"{workload.name}: {len(walls)} calls of {workload.per_call} x "
          f"{workload.design}; wall ms min/median/max {1e3 * min(walls):.1f}/"
          f"{1e3 * statistics.median(walls):.1f}/{1e3 * max(walls):.1f}; "
          f"host-speed scale min/median/max {min(scales):.3f}/{scale:.3f}/"
          f"{max(scales):.3f}; scaled set-up {setup_s:.3f} s", file=sys.stderr)
    if tracer is None:
        metrics = {
            "latency_ms": (1e3 * statistics.median(latencies), "ms"),
            "lane_cycles_per_s": (statistics.median(rates), "1/s"),
        }
    else:
        # shares of the time the calls would have taken without the timers
        wall = sum(walls)
        spent = tracer.self_s()
        untimed = max(wall - tracer.overhead_s(), sum(spent.values()))
        spent["other"] = untimed - sum(spent.values())
        metrics = {}
        for layer, seconds_in in spent.items():
            share = seconds_in / untimed
            per_cycle_ns = 1e9 * seconds_in * scale / lane_cycles
            metrics[f"{layer}_pct"] = (100.0 * share, "%")
            metrics[f"{layer}_ns_per_lane_cycle"] = (per_cycle_ns, "ns")
            print(f"  {layer:9s} {100.0 * share:6.2f}%  {per_cycle_ns:10.1f} "
                  f"ns/lane-cycle", file=sys.stderr)
        metrics.update({
            "testbench_calls_per_lane_cycle":
                (tracer.testbench_calls() / lane_cycles, "count"),
            "builds_per_call": (builds / len(walls), "count"),
            "lanes_per_block": (statistics.mean(lanes_per_block), "count"),
            "traced_lane_cycles_per_s": (statistics.median(rates), "1/s"),
        })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        out = run_setup(workload)
    else:
        out = run_measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
