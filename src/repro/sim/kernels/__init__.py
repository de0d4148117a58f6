"""Fused lane-kernel compiler: one call per cycle phase instead of one per op.

The batch backend's per-cycle cost is dominated by NumPy per-op dispatch —
every fused expression pays ~1 µs of interpreter + dispatch overhead per
cycle regardless of lane count.  This package lifts a module's whole settle
and clock-edge phases into *one kernel each* over the ``(n_slots, n_lanes)``
store:

1. :mod:`repro.sim.kernels.ir` extracts a small typed expression IR from the
   generated lane program (slot/state/memory access + a closed operator set),
2. :mod:`repro.sim.kernels.native` prints the IR as C — a single per-lane
   loop of straight-line scalar code — compiled via the system C compiler and
   called through cffi (cached per source hash).

Backend selection (``KERNEL_BACKENDS``):

* ``"auto"``   — the C kernel when a C compiler is found, else plain batch,
* ``"native"`` — the C kernel; falls back to plain batch when the host has
  no working toolchain or the module cannot lower,
* ``"off"``    — the plain batch path (per-op NumPy dispatch).

The environment variable ``REPRO_KERNEL_BACKEND`` sets the default for every
:class:`~repro.sim.batch.BatchSimulator` that is not given an explicit
``kernel_backend``.  Kernels are bit-identical to the batch path by
construction — extraction refuses anything it cannot express, so a module
either lowers completely or runs exactly as before.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

from repro import obs
from repro.sim.kernels.ir import KernelIR, KernelUnsupportedError, extract_ir
from repro.sim.kernels.native import (
    BLOCK_LANES,
    NativeKernel,
    NativeToolchainError,
    find_compiler,
    threading_mode,
)

#: kernel backends selectable per simulator / RunSpec / CLI
KERNEL_BACKENDS: Tuple[str, ...] = ("auto", "native", "off")

#: environment variable providing the session-wide default backend
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: environment variable providing the session-wide default worker count
KERNEL_THREADS_ENV = "REPRO_KERNEL_THREADS"

#: process-lifetime count of kernel compilations (every
#: :func:`compile_kernel` call — per-program caching happens in the caller);
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


def resolve_kernel_threads(
    requested: Optional[Union[int, str]] = None,
    n_lanes: Optional[int] = None,
) -> int:
    """Validate and default the kernel worker count.

    ``None`` reads ``REPRO_KERNEL_THREADS`` (defaulting to ``auto``).
    ``"auto"`` means ``min(cpus, n_lanes // BLOCK_LANES)`` clamped to at
    least 1 — one worker per 128-lane block, never more than the process may
    run on (:func:`usable_cpu_count`).  Lane blocks are independent, so any
    resolved count is bit-identical to single-threaded execution.
    """
    if requested is None:
        requested = os.environ.get(KERNEL_THREADS_ENV, "").strip() or "auto"
    if isinstance(requested, str):
        if requested == "auto":
            blocks = max(1, (n_lanes or 0) // BLOCK_LANES)
            return min(usable_cpu_count(), blocks)
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


def compile_kernel(ir: KernelIR, n_lanes: int) -> NativeKernel:
    """Compile extracted IR into a native (C) lane kernel.

    Raises :class:`NativeToolchainError` when the host has no working C
    toolchain — the caller decides what "no kernel" means.
    """
    from repro.resilience.faults import maybe_inject

    maybe_inject("kernel")
    _KERNEL_BUILDS.inc(backend="native")
    with obs.span("kernel.compile", backend="native", n_lanes=n_lanes):
        return NativeKernel(ir, n_lanes)


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
    "extract_ir",
    "find_compiler",
    "resolve_kernel_backend",
    "resolve_kernel_threads",
    "threading_mode",
    "usable_cpu_count",
]
