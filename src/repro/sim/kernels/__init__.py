"""Fused lane-kernel compiler: one call per cycle phase instead of one per op.

The batch backend's per-cycle cost is dominated by NumPy per-op dispatch —
every fused expression pays ~1 µs of interpreter + dispatch overhead per
cycle regardless of lane count.  This package lifts a module's whole settle
and clock-edge phases into *one kernel each* over the ``(n_slots, n_lanes)``
store:

1. the lane target of :mod:`repro.sim.batch` lowers the schedule straight
   into the typed IR of :mod:`repro.sim.kernels.ir` (slot/state/memory access
   + a closed operator set); the plain batch path is that IR printed as
   NumPy,
2. :mod:`repro.sim.kernels.native` prints the same IR as C — a single
   per-lane loop of straight-line scalar code — compiled via the system C
   compiler and called through cffi (cached per source hash).

Both printers write one int64 store in place: value rows, state rows and
memories are allocated once, as are a lane block's power results
(:class:`~repro.power.block.BlockEvaluator`) and a job testbench's job
state, so the NumPy program and the C kernel run the same state in turn
and a kernel binds its pointers once, also when it arrives mid-run.

Backend selection (``KERNEL_BACKENDS``):

* ``"auto"``   — tiered: the C kernel once it is built, the plain batch
  path until then.  A program whose kernel is not built yet starts its
  compile on the one background compile worker
  (:func:`compile_kernel_async`) and runs on the NumPy program meanwhile;
  the simulator takes the kernel over at a cycle boundary once the compile
  has finished (:meth:`~repro.sim.batch.BatchSimulator.poll_kernel`).  Plain
  batch throughout when no C compiler is found,
* ``"native"`` — the C kernel, compiled before the first cycle (joining a
  compile of the same program already in flight); falls back to plain
  batch when the host has no working toolchain,
* ``"off"``    — the plain batch path (per-op NumPy dispatch).

Compile jobs queue on the one background worker thread, in order, so
tiering never runs more than one background compiler at a time.  No
compiler outlives the process: each runs in its own process group, which
exit kills and reaps before it removes the build directory, and a forked
child never waits for its parent's compiles (:mod:`repro.sim.kernels.native`).

Every kernel also carries the seeded stimulus draw: :func:`draw_words`
draws ``random.Random``'s words for a whole lane block in the bound
kernel's C ``mt_draw``, and with one reused ``random.Random`` when no
kernel is bound, with the same result.

The environment variable ``REPRO_KERNEL_BACKEND`` sets the default for every
:class:`~repro.sim.batch.BatchSimulator` that is not given an explicit
``kernel_backend``.  Kernels are bit-identical to the batch path by
construction: both print one IR, and every lane program lowers completely
(a module with a component no lane emitter fuses gets no lane program at
all and runs per seed on the scalar engine).
"""

from __future__ import annotations

import os
import queue
import random
import threading
from concurrent.futures import Future
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.sim.kernels.ir import KernelIR, KernelUnsupportedError
from repro.sim.kernels.native import (
    BLOCK_LANES,
    NativeKernel,
    NativeToolchainError,
    arrange_exit_cleanup,
    find_compiler,
    threading_mode,
    worker_count,
)

#: kernel backends selectable per simulator / RunSpec / CLI
KERNEL_BACKENDS: Tuple[str, ...] = ("auto", "native", "off")

#: environment variable providing the session-wide default backend
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: environment variable providing the session-wide default worker count
KERNEL_THREADS_ENV = "REPRO_KERNEL_THREADS"

#: process-lifetime count of kernel compilations (every
#: :func:`compile_kernel` and :func:`compile_kernel_async` call — per-program
#: caching happens in the caller);
#: the :mod:`repro.serve` coalescer reads this to prove N merged jobs shared
#: one kernel build.  Lives in the :mod:`repro.obs` registry (labelled by
#: backend); ``KERNEL_BUILD_COUNT`` stays readable as a module attribute via
#: :func:`__getattr__` below.
_KERNEL_BUILDS = obs.counter(
    "repro_kernel_builds_total",
    "Fused lane-kernel compilations by backend",
    essential=True,
)


def __getattr__(name: str) -> int:
    if name == "KERNEL_BUILD_COUNT":
        return int(_KERNEL_BUILDS.total())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def resolve_kernel_backend(requested: Optional[str] = None) -> str:
    """Validate and default the requested kernel backend.

    ``None`` reads ``REPRO_KERNEL_BACKEND`` (defaulting to ``auto``); any
    explicit value must be one of :data:`KERNEL_BACKENDS`.
    """
    if requested is None:
        requested = os.environ.get(KERNEL_BACKEND_ENV) or "auto"
    if requested not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {requested!r}; expected one of "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    return requested


def usable_cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one).

    ``os.cpu_count()`` reports every CPU on the machine, which oversubscribes
    cgroup- or taskset-restricted hosts; the affinity mask does not.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_kernel_threads(requested: Optional[Union[int, str]] = None) -> int:
    """Validate and default the kernel worker count.

    ``None`` reads ``REPRO_KERNEL_THREADS`` (defaulting to ``auto``).
    ``"auto"`` means one worker, whatever the lane count: on a 2-vCPU host a
    second worker was slower than one on the per-cycle path at 256 and 512
    lanes (HVPeakF, Vld, DCT) and at 1024 lanes on HVPeakF and DCT, and on
    the fused ``run`` path at 256 lanes (``BENCH_kernel_scaling.json``).
    An explicit count fans the lane blocks out over that many workers; each
    kernel call caps it at one worker per lane block (:func:`worker_count`).
    Lane blocks are independent, so any count is bit-identical to
    single-threaded execution.
    """
    if requested is None:
        requested = os.environ.get(KERNEL_THREADS_ENV, "").strip() or "auto"
    if isinstance(requested, str):
        if requested == "auto":
            return 1
        try:
            requested = int(requested)
        except ValueError:
            raise ValueError(
                f"kernel thread count must be a positive integer or 'auto', "
                f"got {requested!r}"
            ) from None
    if requested < 1:
        raise ValueError(
            f"kernel thread count must be >= 1, got {requested}"
        )
    return int(requested)


def draw_words(seeds: Sequence, n: int,
               kernel: Optional[NativeKernel] = None) -> np.ndarray:
    """``(n, lanes)`` uint32: lane ``l``'s first ``n`` 32-bit outputs of
    ``random.Random(seeds[l])``, the words ``getrandbits(32 * n)`` packs
    little-endian.

    With a ``kernel`` and int seeds every lane draws in one call of its C
    ``mt_draw``; otherwise (no kernel bound, or a seed the C draw does not
    take) one reused :class:`random.Random` is re-seeded per lane, and all
    lanes' bytes are read with one ``frombuffer``.  Both give the same
    array.
    """
    if kernel is not None and seeds and all(isinstance(seed, int) for seed in seeds):
        words = kernel.draw_words(list(seeds), n)
        if words is not None:
            return words
    rng = random.Random()
    chunks = []
    for seed in seeds:
        rng.seed(seed)
        chunks.append(rng.getrandbits(32 * n).to_bytes(4 * n, "little"))
    return np.frombuffer(b"".join(chunks), dtype="<u4").reshape(len(seeds), n).T


def draw_bits(seeds: Sequence, n: int, width: int,
              kernel: Optional[NativeKernel] = None) -> np.ndarray:
    """``(n, lanes)`` int64: lane ``l``'s first ``n`` values of
    ``random.Random(seeds[l]).getrandbits(width)`` (``1 <= width <= 32``:
    each is one output's top ``width`` bits), drawn by :func:`draw_words`."""
    if not 1 <= width <= 32:
        raise ValueError(f"draw_bits draws 1..32-bit values, got width {width}")
    return (draw_words(seeds, n, kernel) >> (32 - width)).astype(np.int64)


def compile_kernel(ir: KernelIR, n_lanes: int) -> NativeKernel:
    """Compile kernel IR into a native (C) lane kernel.

    Raises :class:`NativeToolchainError` when the host has no working C
    toolchain — the caller decides what "no kernel" means.
    """
    _KERNEL_BUILDS.inc(backend="native")
    return _build(ir, n_lanes)


def compile_kernel_async(ir: KernelIR, n_lanes: int) -> "Future[NativeKernel]":
    """:func:`compile_kernel` on the one background compile worker.

    The build is counted here, in the caller.  The future holds the kernel,
    or the error the compile raised; a fault plan's ``kernel`` fault fires
    on the worker too, so it fails or stalls the build, never the caller.
    A process that exits while the build is queued or running kills its
    compiler and removes its files.
    """
    _KERNEL_BUILDS.inc(backend="native")
    arrange_exit_cleanup()
    return _WORKER.submit(_build, ir, n_lanes)


def _build(ir: KernelIR, n_lanes: int) -> NativeKernel:
    from repro.resilience.faults import maybe_inject

    maybe_inject("kernel")
    with obs.span("kernel.compile", backend="native", n_lanes=n_lanes):
        return NativeKernel(ir, n_lanes)


class _CompileWorker:
    """The process's one background compile thread, started on first use:
    jobs run one at a time, in the order they were submitted.  A daemon, so
    exit does not wait for a compile (the native module kills it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Optional[queue.SimpleQueue] = None

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        with self._lock:
            if self._jobs is None:
                self._jobs = queue.SimpleQueue()
                threading.Thread(target=self._serve, args=(self._jobs,),
                                 name="repro-kernel-compile", daemon=True).start()
            self._jobs.put((future, fn, args))
        return future

    @staticmethod
    def _serve(jobs: queue.SimpleQueue) -> None:
        while True:
            future, fn, args = jobs.get()
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # the future carries it to the caller
                future.set_exception(error)


_WORKER = _CompileWorker()


def _after_fork_in_child() -> None:
    # the parent's worker thread does not exist in the child
    global _WORKER
    _WORKER = _CompileWorker()


os.register_at_fork(after_in_child=_after_fork_in_child)


__all__ = [
    "BLOCK_LANES",
    "KERNEL_BACKENDS",
    "KERNEL_BACKEND_ENV",
    "KERNEL_THREADS_ENV",
    "KernelIR",
    "KernelUnsupportedError",
    "NativeKernel",
    "NativeToolchainError",
    "compile_kernel",
    "compile_kernel_async",
    "draw_bits",
    "draw_words",
    "find_compiler",
    "resolve_kernel_backend",
    "resolve_kernel_threads",
    "threading_mode",
    "usable_cpu_count",
    "worker_count",
]
