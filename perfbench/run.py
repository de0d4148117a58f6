"""End-to-end benchmark of the power-estimation stack: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lanes_testbench --seed 1 --seconds 10 --trace 0

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See ``perfbench/README.md`` for the
workloads, the metrics and the noise sources this launcher pins.

This launcher imports nothing of the package.  It pins the environment,
then starts ``measure.py`` in fresh processes: two that only set the
workload up (set-up samples) and one that sets up, measures and checks.
It waits for each, removes its scratch directory and exits non-zero,
printing no result, when any of them fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lanes_testbench", "lanes_stimulus", "scalar_run", "serve_burst")
#: cold set-ups in extra processes; with the measuring process's own set-up
#: the reported setup_s is the median of three
SETUP_PROBES = 2
#: the whole run, probes included, ends within this many seconds
BUDGET_S = 170.0


def pinned_env(root: str, scratch: str) -> dict:
    """The environment of every measuring process.

    Each pin removes a source of run-to-run spread that is not the code:
    string-hash order (PYTHONHASHSEED), kernel and BLAS worker threads
    contending for a small shared host, and any ``REPRO_*`` setting leaking
    in from the caller's shell (kernel backend, tracing, fault plans).  The
    native kernel build directory goes to a scratch directory in the
    checkout, so nothing is written outside it.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        REPRO_KERNEL_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=scratch,
    )
    return env


def child(args: list, env: dict, root: str, deadline: float) -> dict:
    """Run ``measure.py`` to completion; its last output line, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark time budget exhausted")
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {args[0]} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"measure.py {args[0]} printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    env = pinned_env(root, scratch)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(
                    child(["setup", *common], env, root, deadline)["setup_s"])
        out = child(["measure", *common, "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], env, root, deadline)
    except (OSError, RuntimeError, TimeoutError, ValueError,
            subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = out["metrics"]
    if not args.trace:
        setup_samples.append(out["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
