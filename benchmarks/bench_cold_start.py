"""Cold start: the first answer of a fresh process, per kernel backend.

Every fresh process (a CLI call, a sweep worker, a serve restart) pays the
lane program's build and, on ``native``, the C kernel's compile before its
first answer.  ``auto`` is tiered: it answers on the NumPy program while the
kernel compiles on the background worker, and hands over to the kernel at a
cycle boundary once the compile has finished (:mod:`repro.sim.kernels`).

Three measurements, each in a fresh process with an empty ``TMPDIR`` and no
``REPRO_*`` setting:

* the first answer: one ``estimate_many`` call of 16 lanes x 1 cycle on
  HVPeakF, Vld and DCT, for ``auto``, ``native`` and ``off``: the call's
  wall time (design build, lane program, kernel compile where one is
  waited for) and the process's (imports and exit included: ``auto``'s
  process exits without waiting for its compile);
* a cold long run: 256 HVPeakF lanes x 8192 cycles on the array driver, for
  ``auto`` and ``native``: ``auto`` starts on the NumPy program and
  continues on the fused kernel from the cycle its compile finishes on;
* a one-shot run: one default-spec ``estimate`` (``auto``, the whole
  testbench) on HVPeakF, Vld and DCT, what a CLI or API run does.  Its
  module's kernel is cold, so it answers on the compiled engine and queues
  the kernel build after the answer, which the exit abandons.

Each cell is the median of ``REPRO_BENCH_COLD_REPEATS`` processes (default
3).  The harness asserts only what holds on any host: every backend's
per-lane energies and cycles are identical, each run's kernel decision is
the expected one, and each process left its ``TMPDIR`` empty (no build
directory, no compiler temporary).  Writes ``benchmarks/results/
cold_start.txt`` and the repo-root ``BENCH_cold_start.json``.  The gate
compares its process and long-run wall times (``*_wall_s``); the first
answers' and one-shot runs' call times (``first_answer_call_s_*``,
``oneshot_call_s_*``, tens of milliseconds) and the native/auto ratios are
recorded, not gated.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

from conftest import REPO_ROOT, write_result

REPEATS = int(os.environ.get("REPRO_BENCH_COLD_REPEATS", "3"))
DESIGNS = ("HVPeakF", "Vld", "DCT")
BACKENDS = ("auto", "native", "off")
FIRST_LANES, FIRST_CYCLES = 16, 1
LONG_LANES, LONG_CYCLES = 256, 8192

#: what each backend's first answer says about its kernel
FIRST_DECISIONS = {
    "auto": "auto -> off (native kernel compiling)",
    "native": "native (requested)",
    "off": "off (requested)",
}
LONG_DECISIONS = {
    "auto": re.compile(r"auto -> native from cycle [1-9]\d*$"),
    "native": re.compile(r"native \(requested\)$"),
}
#: a fresh process's one-shot estimate: its kernel is never built in time
ONESHOT_DECISION = "auto -> compiled (native kernel compiling)"

#: one call in a fresh process; prints its wall time, decision and results
_CHILD = """
import json, sys, time
design, backend, lanes, cycles = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
from repro.api import RTLEstimatorAdapter, RunSpec
from repro.designs.registry import get

if cycles > 1:  # a long run on the design's stimulus spec (the array driver)
    stimulus = get(design).make_stimulus_spec().replace(n_cycles=cycles)
    specs = [RunSpec(design=design, seed=seed, backend="batch", kernel_backend=backend,
                     stimulus=stimulus) for seed in range(lanes)]
else:
    specs = [RunSpec(design=design, seed=seed, backend="batch", kernel_backend=backend,
                     max_cycles=cycles) for seed in range(lanes)]
adapter = RTLEstimatorAdapter()
start = time.perf_counter()
results = adapter.estimate_many(specs)
wall_s = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall_s,
    "decision": results[0].metadata["kernel_decision"],
    "energies": [r.report.total_energy_fj for r in results],
    "cycles": [r.report.cycles for r in results],
}))
"""

#: one default-spec estimate in a fresh process, printed like _CHILD's
_ONESHOT_CHILD = """
import json, sys, time
from repro.api import RunSpec, estimate

start = time.perf_counter()
result = estimate(RunSpec(design=sys.argv[1]))
wall_s = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall_s,
    "decision": result.metadata.get("kernel_decision"),
    "energies": [result.report.total_energy_fj],
    "cycles": [result.report.cycles],
}))
"""


def _fresh_run(child: str, *args) -> dict:
    """One ``child`` script run in a fresh process with an empty TMPDIR,
    which it must leave empty."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        env.update(PYTHONPATH=os.path.join(REPO_ROOT, "src"), TMPDIR=tmp)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", child, *map(str, args)],
            env=env, capture_output=True, text=True, timeout=600)
        process_s = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        left = os.listdir(tmp)
    assert left == [], f"{args} left {left} in its TMPDIR"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["process_s"] = process_s
    return result


def _cell(*args, child: str = _CHILD) -> dict:
    """The median of REPEATS fresh runs; their results must agree."""
    runs = [_fresh_run(child, *args) for _ in range(REPEATS)]
    for run in runs[1:]:
        assert (run["energies"], run["cycles"]) == (runs[0]["energies"], runs[0]["cycles"])
    return {
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "process_s": statistics.median(run["process_s"] for run in runs),
        "decisions": [run["decision"] for run in runs],
        "energies": runs[0]["energies"],
        "cycles": runs[0]["cycles"],
    }


def test_cold_start():
    metrics = {"n_first_lanes": FIRST_LANES, "n_first_cycles": FIRST_CYCLES,
               "n_long_lanes": LONG_LANES, "n_long_cycles": LONG_CYCLES,
               "n_repeats": REPEATS}
    lines = [
        f"Cold start, fresh process per run, median of {REPEATS}",
        "",
        f"First answer: {FIRST_LANES} lanes x {FIRST_CYCLES} cycle "
        "(call / whole process, s)",
        f"{'design':10s}" + "".join(f" {backend:>17s}" for backend in BACKENDS),
    ]
    for design in DESIGNS:
        cells = {backend: _cell(design, backend, FIRST_LANES, FIRST_CYCLES)
                 for backend in BACKENDS}
        for backend, cell in cells.items():
            assert set(cell["decisions"]) == {FIRST_DECISIONS[backend]}, cell["decisions"]
            assert (cell["energies"], cell["cycles"]) == (
                cells["off"]["energies"], cells["off"]["cycles"]), (design, backend)
            metrics[f"first_answer_call_s_{design}_{backend}"] = round(cell["wall_s"], 4)
            metrics[f"process_{design}_{backend}_wall_s"] = round(cell["process_s"], 4)
        metrics[f"first_answer_native_over_auto_{design}"] = round(
            cells["native"]["wall_s"] / cells["auto"]["wall_s"], 2)
        lines.append(f"{design:10s}" + "".join(
            f" {cells[b]['wall_s']:8.3f}/{cells[b]['process_s']:7.3f}" for b in BACKENDS))

    long = {backend: _cell("HVPeakF", backend, LONG_LANES, LONG_CYCLES)
            for backend in LONG_DECISIONS}
    for backend, cell in long.items():
        assert all(LONG_DECISIONS[backend].match(d) for d in cell["decisions"]), \
            cell["decisions"]
        metrics[f"cold_run_HVPeakF_{backend}_wall_s"] = round(cell["wall_s"], 4)
    assert (long["auto"]["energies"], long["auto"]["cycles"]) == (
        long["native"]["energies"], long["native"]["cycles"])
    ratio = long["auto"]["wall_s"] / long["native"]["wall_s"]
    metrics["cold_run_auto_over_native"] = round(ratio, 3)
    lines += [
        "",
        f"Cold run: HVPeakF, {LONG_LANES} lanes x {LONG_CYCLES} cycles, array driver",
        f"  native {long['native']['wall_s']:.3f} s, auto {long['auto']['wall_s']:.3f} s "
        f"(auto/native {ratio:.3f}); auto handed over: "
        + ", ".join(long["auto"]["decisions"]),
        "",
        "One-shot: one default-spec estimate (auto, whole testbench) "
        "(call / whole process, s)",
    ]
    for design in DESIGNS:
        cell = _cell(design, child=_ONESHOT_CHILD)
        assert set(cell["decisions"]) == {ONESHOT_DECISION}, cell["decisions"]
        metrics[f"oneshot_call_s_{design}_auto"] = round(cell["wall_s"], 4)
        metrics[f"oneshot_{design}_auto_wall_s"] = round(cell["process_s"], 4)
        lines.append(f"{design:10s} {cell['wall_s']:8.3f}/{cell['process_s']:7.3f}")
    write_result("cold_start.txt", "\n".join(lines), metrics=metrics)
