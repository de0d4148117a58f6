"""Native (C via cffi) code generator for the kernel IR.

Prints a :class:`~repro.sim.kernels.ir.KernelIR` as one C translation unit,
compiles it with the system C compiler (``cc``/``gcc``/``clang``, override
with ``REPRO_KERNEL_CC``) and binds it through :mod:`cffi` in ABI mode.
Compiled shared objects are cached per source hash, so every structurally
identical module compiles exactly once per process.

Loop structure: lanes are processed in strip-mined blocks of
:data:`BLOCK_LANES`; within a block, each IR statement is its own short
fixed-bound loop over the block (auto-vectorized by the compiler), and SSA
temporaries live in a block-sized scratch buffer that stays cache-resident.
This keeps the value-store accesses streaming (contiguous row segments)
instead of striding lane-by-lane across the whole ``(n_slots, n_lanes)``
store — the layout that makes the per-op NumPy path memory-bound — while
eliminating all per-op interpreter dispatch.

Lane blocks are also the multi-core unit: blocks touch disjoint lanes of
every row, state array and memory column, so splitting them across threads
cannot reorder or race any lane's arithmetic — results are bit-identical to
single-threaded execution by construction.  Each phase is printed once, as a
``<phase>_block`` function over one block; the exported entry points take a
thread count ``nt`` and hand a block function to one shared ``dispatch``,
which fans the blocks out over OpenMP when the compiler accepts
``-fopenmp``; otherwise ``nt`` is ignored and the strip-mine runs serially.
Callers pass at most one worker per lane block (:func:`worker_count`).
Every thread gets its own scratch stripe, and cffi releases the GIL around
the call, so Python-side work can overlap.

Every translation unit also carries fixed, design-independent entry points:

* ``observe`` — one cycle of the linear power macromodels over every lane
  (``observe_block`` per lane block), read straight from the value store as
  the kernel's element type and driven by an ``observe_plan`` struct of
  flat arrays taken from :meth:`repro.power.block.ObservePlan.flat`
  (:class:`~repro.power.block.NativeEvaluator` fills it in).  It runs
  serially and performs the block evaluator's float operations in the block
  evaluator's order (see :mod:`repro.power.block`), so its doubles are
  identical to the NumPy path's.
* ``run`` (lane programs, which have a clock edge) — a whole segment of
  cycles of input rows, run to completion block by block: per cycle it
  copies the segment's rows into the input slots, calls ``settle_block``,
  copies the settled capture rows (the outputs a testbench checks) out to a
  caller-owned buffer, sets the block's 0/1 lane mask from the lanes' stop
  cycles, calls ``observe_block`` and ``clock_edge_block``.  Each lane sees
  the per-cycle loop's operations in its order, so every thread count gives
  that loop's results, and the host makes one call per segment instead of
  several per cycle.

They compile in the same compiler call as the phases, so power evaluation
adds no compiler process.

Correctness notes:

* signed arithmetic is compiled with ``-fwrapv`` so int64 overflow wraps
  exactly like NumPy's,
* floating point is compiled with ``-ffp-contract=off``, so every float
  operation rounds on its own, as in NumPy: GCC with ``-march=native``
  otherwise fuses ``total += energy * mask`` into a multiply-add, which
  rounds once.  With today's 0/1 mask that product is exact and the fused
  form happens to agree; the flag keeps the contract from resting on it
  (the integer kernel code has no float operation to contract),
* sequential state is read from and written to the holders' arrays, whose
  pointers are bound once: every writer (the NumPy lane program, holder
  resets, lane-view memory backdoors) writes them in place, so kernels
  interoperate with all of them,
* within one lane, all captures execute before all commits (statement order
  is preserved from the lane program), so the two-phase clock-edge semantics
  hold lane by lane — and blocks only ever touch their own lanes.

When no C compiler is available, callers fall back to the plain batch path
(see :class:`repro.sim.batch.BatchSimulator`).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.kernels.ir import (
    Abs, Bin, Const, KernelIR, Lane, MemRead, MemWrite, Min, Popcount,
    Select, SetSlot, SetState, SetTemp, SlotRef, StateRef, Stmt, Table,
    TempRef, Unary, Where, BOOL,
)


class NativeToolchainError(Exception):
    """No usable C compiler, or the generated kernel failed to compile."""


#: numpy store dtype -> C element type of the value store
_ELEM_TYPES = {"int64": "long long", "int8": "signed char"}

#: numpy dtype -> C pointer type of the arrays an ``observe_plan`` points at
_C_ARRAY_TYPES = {"<i8": "long long *", "<u8": "unsigned long long *", "<f8": "double *"}

#: lanes per strip-mined block: large enough to vectorize and amortize loop
#: overhead, small enough that a block's touched row segments stay in cache
BLOCK_LANES = 128

#: C sources above this size skip the host-ISA vectorization flags — the
#: compile-time blowup on thousands of loops outweighs the runtime gain
_VECTORIZE_MAX_LINES = 250

#: threading tier -> extra compile flags
_THREADING_FLAGS = {
    "omp": ["-fopenmp", "-DREPRO_KERNEL_OMP"],
    "serial": [],
}

#: probed threading tier of the host toolchain (None = not probed yet)
_THREADING_MODE: Optional[str] = None


def threading_mode() -> str:
    """The threading tier the native kernels compile with on this host.

    Probes the compiler once per process: ``omp`` when a tiny OpenMP
    translation unit compiles with ``-fopenmp``, else ``serial``.
    """
    global _THREADING_MODE
    if _THREADING_MODE is not None:
        return _THREADING_MODE
    mode = "serial"
    compiler = find_compiler()
    if compiler is not None:
        directory = _build_dir()
        c_path = os.path.join(directory, "probe_omp.c")
        with open(c_path, "w") as handle:
            handle.write("#include <omp.h>\n"
                         "int repro_probe(void){return omp_get_max_threads();}\n")
        result = subprocess.run(
            [compiler, "-fopenmp", "-fPIC", "-shared", c_path,
             "-o", os.path.join(directory, "probe_omp.so")],
            capture_output=True, text=True,
        )
        if result.returncode == 0:
            mode = "omp"
    _THREADING_MODE = mode
    return mode


def worker_count(n_threads: int, n_lanes: int) -> int:
    """Workers a kernel call runs with: ``n_threads``, but at most one per
    lane block, since a block is the smallest unit a worker takes."""
    return max(1, min(n_threads, -(-n_lanes // BLOCK_LANES)))


def find_compiler() -> Optional[str]:
    """Path of the C compiler to use, or None when the host has none.

    ``REPRO_KERNEL_CC`` overrides discovery; pointing it at a nonexistent
    command disables the native backend (useful for testing the fallback).
    """
    override = os.environ.get("REPRO_KERNEL_CC")
    if override:
        return shutil.which(override)
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


# ---------------------------------------------------------------------------
# C printing.
# ---------------------------------------------------------------------------


def _temp_index(name: str) -> int:
    return int(name[1:]) - 1  # SSA temps are named t1, t2, ...


def _e(x) -> str:
    if isinstance(x, Const):
        return f"({x.value}LL)"
    if isinstance(x, Lane):
        return "(l0 + i)"
    if isinstance(x, SlotRef):
        return f"((i64)v[(i64){x.slot} * L + l0 + i])"
    if isinstance(x, StateRef):
        return f"S[{x.row}][l0 + i]"
    if isinstance(x, TempRef):
        return f"W[{_temp_index(x.name)} * B + i]"
    if isinstance(x, Table):
        return f"T{x.table}[{_e(x.index)}]"
    if isinstance(x, MemRead):
        return f"M[{x.mem}][({_e(x.addr)}) * L + l0 + i]"
    if isinstance(x, Unary):
        if x.op == "neg":
            return f"(-({_e(x.a)}))"
        return f"(!({_e(x.a)}))" if x.ty == BOOL else f"(~({_e(x.a)}))"
    if isinstance(x, Bin):
        return f"(({_e(x.a)}) {x.op} ({_e(x.b)}))"
    if isinstance(x, Where):
        return f"(({_e(x.cond)}) ? ({_e(x.a)}) : ({_e(x.b)}))"
    if isinstance(x, Min):
        a, b = _e(x.a), _e(x.b)
        return f"(({a}) < ({b}) ? ({a}) : ({b}))"
    if isinstance(x, Abs):
        a = _e(x.a)
        return f"(({a}) < 0 ? -({a}) : ({a}))"
    if isinstance(x, Popcount):
        return f"((i64)__builtin_popcountll((unsigned long long)({_e(x.a)})))"
    if isinstance(x, Select):
        out = _e(x.choices[-1])
        index = _e(x.index)
        for i in range(len(x.choices) - 2, -1, -1):
            out = f"(({index}) == {i} ? ({_e(x.choices[i])}) : {out})"
        return out
    raise TypeError(f"unprintable IR node {x!r}")


def _statement(stmt: Stmt) -> str:
    """One IR statement as its own vectorizable loop over the lane block."""
    loop = "for (i64 i = 0; i < nb; ++i) "
    if isinstance(stmt, SetTemp):
        body = f"W[{_temp_index(stmt.name)} * B + i] = {_e(stmt.expr)};"
    elif isinstance(stmt, SetSlot):
        body = f"v[(i64){stmt.slot} * L + l0 + i] = {_e(stmt.expr)};"
    elif isinstance(stmt, SetState):
        body = f"S[{stmt.row}][l0 + i] = {_e(stmt.expr)};"
    elif isinstance(stmt, MemWrite):
        body = (
            f"if ({_e(stmt.enable)}) "
            f"{{ M[{stmt.mem}][({_e(stmt.addr)}) * L + l0 + i] = {_e(stmt.data)}; }}"
        )
    else:
        raise TypeError(f"unprintable IR statement {stmt!r}")
    return loop + "{ " + body + " }"


def scratch_rows(ir: KernelIR) -> int:
    """Rows of block-sized scratch the kernel's SSA temporaries need."""
    rows = 0
    for stmts in ir.phases.values():
        for stmt in stmts:
            if isinstance(stmt, SetTemp):
                rows = max(rows, _temp_index(stmt.name) + 1)
    return rows


#: per-.so scaffolding shared by every generated kernel: ``dispatch`` runs
#: one lane-block function over every block of the store, over OpenMP or
#: serially.  A block function gets its worker's id (to pick its scratch
#: stripes) and an opaque argument pointer (``run``'s arguments; NULL for
#: the phases).  Blocks touch disjoint lanes, so which worker runs which
#: block cannot change the result
_RUNTIME_PREAMBLE = """\
#if defined(REPRO_KERNEL_OMP)
#include <omp.h>
#endif
typedef void (*block_fn)(elem *restrict, i64 *const *, i64 *const *,
                         i64 *restrict, i64, i64, i64, const void *);
static void dispatch(block_fn fn, elem *restrict v, i64 *const *S,
                     i64 *const *M, i64 *restrict W, i64 L, i64 nt,
                     const void *args)
{
#if defined(REPRO_KERNEL_OMP)
    if (nt > 1) {
        const i64 nblocks = (L + B - 1) / B;
        #pragma omp parallel for schedule(static) num_threads((int)nt)
        for (i64 b = 0; b < nblocks; ++b) {
            const i64 tid = omp_get_thread_num();
            fn(v, S, M, W + tid * (i64)SCRATCH_ROWS * B, L, b * B, tid, args);
        }
        return;
    }
#endif
    (void)nt;
    for (i64 l0 = 0; l0 < L; l0 += B)
        fn(v, S, M, W, L, l0, 0, args);
}
"""

#: the plan the ``observe`` and ``run`` entry points evaluate, filled in by
#: :class:`repro.power.block.NativeEvaluator` from the block evaluator's
#: flat plan; shared verbatim by the C source and the cffi declarations
_OBSERVE_PLAN = """\
typedef struct {
    long long n_lanes, n_nets, n_components, cycles, trace_row;
    const long long *net_slot;          /* store row of each monitored net */
    const long long *chunk_net;         /* per chunk: its net */
    const long long *chunk_shift;       /* per chunk: bit offset of its byte */
    const double *chunk_table;          /* per chunk: 256 byte energies */
    const long long *component_chunk;   /* per component: first chunk (+ end) */
    const double *component_base;       /* per component: base energy */
    const long long *component_generic; /* per component: generic row or -1 */
    /* lane arrays: each row padded to whole blocks of B lanes */
    const double *generic;              /* (generic rows, lanes) this cycle */
    double *mask;                       /* (lanes,) 0/1 active-lane mask */
    long long *previous;                /* (nets, lanes) last cycle's values */
    double *running;                    /* (components, lanes) running totals */
    double *peak;                       /* (lanes,) largest cycle total */
    double *trace;                      /* (rows, lanes) cycle totals or NULL */
    /* scratch, one stripe per worker */
    unsigned long long *toggles;        /* (workers, nets, B) a block's toggles */
    unsigned long long *toggled;        /* (workers, nets) their OR over it */
} observe_plan;
"""

#: design-independent per-cycle macromodel evaluation, part of every kernel
#: translation unit: ``observe_block`` evaluates one cycle of every linear
#: power macromodel over one lane block, read straight from the value
#: store, in BlockEvaluator.flush's float order (see
#: :mod:`repro.power.block`); ``observe`` runs it over every block.  A
#: chunk whose byte is zero in every lane of a block is skipped: it would
#: only add ``table[0]``, a zero, which changes no output.  Padding the
#: plan's lane arrays to whole blocks gives every loop but the store read a
#: constant trip count, which keeps the vectorized code, and its compile
#: time, small.  The unit compiles with -ffp-contract=off: NumPy rounds
#: ``energy * mask`` and its addition separately, and a fused multiply-add
#: would round them once
_OBSERVE_RUNTIME = _OBSERVE_PLAN + """
static void observe_block(const elem *restrict v, const observe_plan *p,
                          i64 l0, i64 cycle, i64 trace_row,
                          unsigned long long *restrict toggles,
                          unsigned long long *restrict toggled)
{
    const i64 L = p->n_lanes, P = (L + B - 1) / B * B;
    const i64 nb = (L - l0) < B ? (L - l0) : B;
    const int first = cycle == 0;
    double energy[B], total[B];
    for (i64 n = 0; n < p->n_nets; ++n) {
        const elem *restrict now = v + p->net_slot[n] * L + l0;
        i64 *restrict last = p->previous + n * P + l0;
        unsigned long long *restrict t = toggles + n * B;
        unsigned long long any = 0;
        for (i64 i = 0; i < nb; ++i) {
            const i64 value = (i64)now[i];
            t[i] = first ? 0ULL : (unsigned long long)(value ^ last[i]);
            any |= t[i];
            last[i] = value;
        }
        toggled[n] = any;
    }
    /* lanes past nb are padding: computed from stale toggles, masked by
       0.0 and never read */
    for (i64 i = 0; i < B; ++i)
        total[i] = 0.0;
    for (i64 c = 0; c < p->n_components; ++c) {
        const i64 g = p->component_generic[c];
        if (g >= 0) {
            const double *restrict given = p->generic + g * P + l0;
            for (i64 i = 0; i < B; ++i)
                energy[i] = given[i];
        } else {
            /* base, then one table lookup per chunk, in chunk order */
            const double base = p->component_base[c];
            for (i64 i = 0; i < B; ++i)
                energy[i] = base;
            for (i64 k = p->component_chunk[c]; k < p->component_chunk[c + 1]; ++k) {
                const double *restrict table = p->chunk_table + k * 256;
                const i64 net = p->chunk_net[k];
                const unsigned long long *restrict t = toggles + net * B;
                const int shift = (int)p->chunk_shift[k];
                if (!((toggled[net] >> shift) & 255) && table[0] == 0.0)
                    continue;  /* every lane would add a zero */
                for (i64 i = 0; i < B; ++i)
                    energy[i] += table[(t[i] >> shift) & 255];
            }
        }
        /* masked, then into the cycle total and the running total */
        const double *restrict mask = p->mask + l0;
        double *restrict run = p->running + c * P + l0;
        for (i64 i = 0; i < B; ++i) {
            const double e = energy[i] * mask[i];
            total[i] += e;
            run[i] += e;
        }
    }
    double *restrict peak = p->peak + l0;
    for (i64 i = 0; i < B; ++i)  /* NaN propagates, as in np.maximum */
        peak[i] = (total[i] > peak[i] || total[i] != total[i]) ? total[i] : peak[i];
    if (p->trace) {
        double *restrict row = p->trace + trace_row * P + l0;
        for (i64 i = 0; i < B; ++i)
            row[i] = total[i];
    }
}

void observe(const elem *restrict v, observe_plan *p)
{
    for (i64 l0 = 0; l0 < p->n_lanes; l0 += B)
        observe_block(v, p, l0, p->cycles, p->trace_row, p->toggles, p->toggled);
    p->cycles += 1;
    if (p->trace)
        p->trace_row += 1;
}
"""

#: the run-to-completion entry point of every lane-program kernel (one with
#: a settle and a clock-edge phase): ``n_cycles`` cycles of input rows, each
#: cycle copied into the input slots, settled, its capture rows copied out
#: (``n_capture`` 0: none), observed under the 0/1 mask ``cycle < stop[lane]``
#: and clocked, one lane block at a time.  The order within a lane is the
#: per-cycle loop's (drive, settle, check, observe, clock edge), and lane
#: blocks touch disjoint lanes, so every thread count gives that loop's
#: results
_RUN_RUNTIME = """
static void settle_block(elem *restrict, i64 *const *, i64 *const *,
                         i64 *restrict, i64, i64, i64, const void *);
static void clock_edge_block(elem *restrict, i64 *const *, i64 *const *,
                             i64 *restrict, i64, i64, i64, const void *);

typedef struct {
    observe_plan *p;
    const long long *rows;  /* (n_cycles, n_rows, lanes) input rows */
    const long long *slot;  /* (n_rows,) store row each input row goes to */
    const long long *stop;  /* (lanes,) the cycle each lane stops at */
    const long long *capture;  /* (n_capture,) store rows copied out */
    long long *captured;    /* (n_cycles, n_capture, lanes) settled values */
    i64 n_rows, n_cycles, n_capture;
} run_args;

static void run_block(elem *restrict v, i64 *const *S, i64 *const *M,
                      i64 *restrict W, i64 L, i64 l0, i64 tid, const void *args)
{
    const run_args *a = args;
    observe_plan *p = a->p;
    const i64 nb = (L - l0) < B ? (L - l0) : B;
    unsigned long long *toggles = p->toggles + tid * p->n_nets * B;
    unsigned long long *toggled = p->toggled + tid * p->n_nets;
    /* not restrict: observe_block reads the mask through the plan */
    double *mask = p->mask + l0;
    const long long *stop = a->stop + l0;
    for (i64 k = 0; k < a->n_cycles; ++k) {
        const i64 cycle = p->cycles + k;
        const long long *rows = a->rows + k * a->n_rows * L + l0;
        for (i64 r = 0; r < a->n_rows; ++r) {
            elem *restrict to = v + a->slot[r] * L + l0;
            const long long *restrict from = rows + r * L;
            for (i64 i = 0; i < nb; ++i)
                to[i] = (elem)from[i];
        }
        settle_block(v, S, M, W, L, l0, tid, 0);
        for (i64 c = 0; c < a->n_capture; ++c) {
            const elem *restrict from = v + a->capture[c] * L + l0;
            long long *restrict to = a->captured + (k * a->n_capture + c) * L + l0;
            for (i64 i = 0; i < nb; ++i)
                to[i] = (long long)from[i];
        }
        for (i64 i = 0; i < nb; ++i)
            mask[i] = cycle < stop[i] ? 1.0 : 0.0;
        observe_block(v, p, l0, cycle, p->trace_row + k, toggles, toggled);
        clock_edge_block(v, S, M, W, L, l0, tid, 0);
    }
}

void run(elem *restrict v, i64 *const *S, i64 *const *M, i64 *restrict W,
         i64 L, i64 nt, observe_plan *p, const long long *rows,
         const long long *slot, i64 n_rows, i64 n_cycles, const long long *stop,
         const long long *capture, i64 n_capture, long long *captured)
{
    const run_args a = {p, rows, slot, stop, capture, captured,
                        n_rows, n_cycles, n_capture};
    dispatch(run_block, v, S, M, W, L, nt, &a);
    p->cycles += n_cycles;
    if (p->trace)
        p->trace_row += n_cycles;
}
"""

#: the phases ``run`` drives
_RUN_PHASES = ("settle", "clock_edge")

#: lines of every translation unit that are not generated statement loops
_RUNTIME_LINES = len((_RUNTIME_PREAMBLE + _OBSERVE_RUNTIME).splitlines())


def has_run(ir: KernelIR) -> bool:
    """Whether the kernel of ``ir`` exports ``run``: lane programs do; a
    settle-only kernel (a gate netlist) has no clock edge to drive."""
    return all(name in ir.phases for name in _RUN_PHASES)


def generate_c_source(ir: KernelIR) -> str:
    """The complete C translation unit for one lane program's IR."""
    elem = _ELEM_TYPES[ir.dtype]
    lines: List[str] = [
        "typedef long long i64;",
        f"typedef {elem} elem;",
        f"enum {{ B = {BLOCK_LANES}, SCRATCH_ROWS = {scratch_rows(ir)} }};",
        "",
        _RUNTIME_PREAMBLE + _OBSERVE_RUNTIME,
    ]
    if has_run(ir):
        lines.append(_RUN_RUNTIME)
    for index, table in enumerate(ir.tables):
        values = ", ".join(f"{int(value)}LL" for value in table)
        lines.append(f"static const i64 T{index}[{len(table)}] = {{{values}}};")
    if ir.tables:
        lines.append("")

    # one exported function per phase: every statement is printed once, in
    # the phase's block function, which the phase entry dispatches over the
    # lane blocks (and ``run`` calls directly).  noinline keeps the block
    # body compiled once, however many callers it has
    for name, stmts in ir.phases.items():
        lines.append(
            f"__attribute__((noinline)) static void {name}_block("
            f"elem *restrict v, i64 *const *S, i64 *const *M, i64 *restrict W, "
            f"i64 L, i64 l0, i64 tid, const void *args)"
        )
        lines.append("{")
        lines.append("    const i64 nb = (L - l0) < B ? (L - l0) : B;")
        lines.extend(f"    {_statement(stmt)}" for stmt in stmts)
        lines.append("    (void)S; (void)M; (void)W; (void)nb; (void)tid; (void)args;")
        lines.append("}")
        lines.append("")
        lines.append(
            f"void {name}(elem *restrict v, i64 *const *S, i64 *const *M, "
            f"i64 *restrict W, i64 L, i64 nt)"
        )
        lines.append("{")
        lines.append(f"    dispatch({name}_block, v, S, M, W, L, nt, 0);")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Compilation + binding.
# ---------------------------------------------------------------------------

#: sha1(source) -> (ffi, dlopened lib); one compile per structure per process
_LIB_CACHE: Dict[str, Tuple[object, object]] = {}
_BUILD_DIR: Optional[str] = None


def _build_dir() -> str:
    global _BUILD_DIR
    if _BUILD_DIR is None:
        _BUILD_DIR = tempfile.mkdtemp(prefix="repro-lane-kernels-")
        atexit.register(shutil.rmtree, _BUILD_DIR, ignore_errors=True)
    return _BUILD_DIR


def _compile_library(source: str, ir: KernelIR):
    mode = threading_mode()
    key = hashlib.sha1(f"{mode}\n{source}".encode()).hexdigest()
    cached = _LIB_CACHE.get(key)
    if cached is not None:
        return cached

    compiler = find_compiler()
    if compiler is None:
        raise NativeToolchainError(
            "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
        )
    try:
        import cffi
    except ImportError as error:  # pragma: no cover - cffi ships with the env
        raise NativeToolchainError(f"cffi unavailable: {error}") from error

    directory = _build_dir()
    c_path = os.path.join(directory, f"kernel_{key}.c")
    so_path = os.path.join(directory, f"kernel_{key}.so")
    with open(c_path, "w") as handle:
        handle.write(source)
    # Vectorizing for the host ISA (-march=native -ftree-vectorize) buys
    # ~1.5-2x at runtime but compile time grows superlinearly with the number
    # of statement loops, so very large kernels settle for plain -O2 (still
    # several times faster than the per-op path).  -march=native is safe
    # here — this is JIT-style host compilation — and the flag-less retry
    # covers compilers that do not understand it.  The fixed runtime (block
    # dispatch, observe, run) does not count against the budget — only the
    # generated statement loops blow up compile time.
    n_kernel_lines = len(source.splitlines()) - _RUNTIME_LINES
    if has_run(ir):
        n_kernel_lines -= len(_RUN_RUNTIME.splitlines())
    tune = (
        ["-march=native", "-ftree-vectorize"]
        if n_kernel_lines <= _VECTORIZE_MAX_LINES
        else []
    )
    threading_flags = _THREADING_FLAGS[mode]
    # -ffp-contract=off keeps observe's float operations separately
    # rounded; it changes nothing in the integer kernel code
    base = [compiler, "-O2", "-fwrapv", "-ffp-contract=off", "-fPIC", "-shared",
            *threading_flags, c_path, "-o", so_path]
    result = subprocess.run(base[:1] + tune + base[1:], capture_output=True, text=True)
    if result.returncode != 0 and tune:
        result = subprocess.run(base, capture_output=True, text=True)
    if result.returncode != 0:
        raise NativeToolchainError(
            f"kernel compilation failed ({' '.join(base)}):\n{result.stderr}"
        )

    ffi = cffi.FFI()
    elem = _ELEM_TYPES[ir.dtype]
    signatures = [
        f"void {name}({elem} *, long long **, long long **, long long *, "
        f"long long, long long);"
        for name in ir.phases
    ]
    signatures.append(f"{_OBSERVE_PLAN}void observe(const {elem} *, observe_plan *);")
    if has_run(ir):
        signatures.append(
            f"void run({elem} *, long long **, long long **, long long *, "
            f"long long, long long, observe_plan *, const long long *, "
            f"const long long *, long long, long long, const long long *, "
            f"const long long *, long long, long long *);"
        )
    ffi.cdef("\n".join(signatures))
    lib = ffi.dlopen(so_path)
    _LIB_CACHE[key] = (ffi, lib)
    return ffi, lib


class NativeKernel:
    """A compiled C kernel bound once to one program's state arrays."""

    backend = "native"

    def __init__(self, ir: KernelIR, n_lanes: int) -> None:
        self.ir = ir
        self.n_lanes = n_lanes
        self.source = generate_c_source(ir)
        self._ffi, self._lib = _compile_library(self.source, ir)
        ffi = self._ffi

        def pointers(arrays: List[np.ndarray]):
            for array in arrays:
                if not array.flags["C_CONTIGUOUS"] or array.dtype != np.int64:
                    raise NativeToolchainError(
                        "state arrays must be C-contiguous int64 lane arrays"
                    )
            return ffi.new("long long *[]", [
                ffi.cast("long long *", array.ctypes.data) for array in arrays
            ]) if arrays else ffi.NULL

        # state arrays never move (every writer writes in place), so their
        # pointers are bound once; the lists keep the arrays alive with them
        self._state_arrays = ir.state_arrays()
        self._mem_arrays = ir.mem_arrays()
        self._S = pointers(self._state_arrays)
        self._M = pointers(self._mem_arrays)
        #: block-sized scratch rows for the kernel's SSA temporaries
        self._scratch = np.zeros(scratch_rows(ir) * BLOCK_LANES, dtype=np.int64)
        self._W = (
            ffi.cast("long long *", self._scratch.ctypes.data)
            if self._scratch.size
            else ffi.NULL
        )
        self._elem_ptr_type = _ELEM_TYPES[ir.dtype] + " *"
        self._vid: Optional[int] = None
        self._vp = None
        #: worker count the scratch buffer has stripes for: the largest count
        #: any call asked for (simulators sharing this kernel pass their own)
        self.max_threads = 1

    def _scratch_for(self, n_threads: int):
        """Scratch pointer with one block-sized stripe per worker.

        Results stay bit-identical for any ``n_threads`` since workers own
        disjoint lane blocks.
        """
        if n_threads > self.max_threads:
            rows = scratch_rows(self.ir)
            if rows:
                self._scratch = np.zeros(rows * BLOCK_LANES * n_threads, dtype=np.int64)
                self._W = self._ffi.cast("long long *", self._scratch.ctypes.data)
            self.max_threads = n_threads
        return self._W

    def _v_pointer(self, v: np.ndarray):
        if id(v) != self._vid:
            if not v.flags["C_CONTIGUOUS"]:
                raise NativeToolchainError("value store must be C-contiguous")
            self._vp = self._ffi.cast(self._elem_ptr_type, v.ctypes.data)
            self._vid = id(v)
            self._vref = v  # keep the store alive while its pointer is cached
        return self._vp

    def _threaded(self, v: np.ndarray, n_threads: int) -> tuple:
        """The leading arguments of a threaded entry point: store, state,
        memories, scratch, lane count and the call's worker count (the
        caller's, at most one per lane block; 1 = serial loop)."""
        nt = worker_count(n_threads, v.shape[1])
        return (self._v_pointer(v), self._S, self._M, self._scratch_for(nt),
                v.shape[1], nt)

    def settle(self, v: np.ndarray, n_threads: int = 1) -> None:
        self._lib.settle(*self._threaded(v, n_threads))

    def clock_edge(self, v: np.ndarray, n_threads: int = 1) -> None:
        self._lib.clock_edge(*self._threaded(v, n_threads))

    # ------------------------------------------------ macromodel observation
    def c_array(self, array: Optional[np.ndarray]):
        """A C pointer to a contiguous int64/uint64/float64 array (None = NULL).

        The caller keeps ``array`` alive for as long as C may use the pointer.
        """
        if array is None:
            return self._ffi.NULL
        if not array.flags["C_CONTIGUOUS"] or array.dtype.str not in _C_ARRAY_TYPES:
            raise NativeToolchainError(
                f"observe arrays must be C-contiguous int64/uint64/float64, "
                f"got {array.dtype}"
            )
        return self._ffi.cast(_C_ARRAY_TYPES[array.dtype.str], array.ctypes.data)

    def observe_plan(self, **fields):
        """A C ``observe_plan`` for :meth:`observe`: integer counts and arrays.

        Array fields become pointers; the caller keeps the arrays alive.
        """
        plan = self._ffi.new("observe_plan *")
        for name, value in fields.items():
            setattr(plan, name, self.c_array(value) if isinstance(value, np.ndarray)
                    else value)
        return plan

    def observe(self, v: np.ndarray, plan) -> None:
        """One cycle of the plan's power macromodels over every lane."""
        self._lib.observe(self._v_pointer(v), plan)

    def run(self, v: np.ndarray, plan, rows: np.ndarray, slots: np.ndarray,
            stop: np.ndarray, n_threads: int, capture: np.ndarray,
            captured: np.ndarray) -> None:
        """``len(rows)`` whole cycles over every lane, in one call.

        Each cycle writes ``rows[k]`` (``(n_rows, lanes)`` int64) into the
        store rows ``slots``, settles, copies the store rows ``capture`` to
        ``captured[k]`` (``(>= cycles, len(capture), lanes)`` int64; an
        empty ``capture`` copies nothing), runs the plan's macromodels with
        lane ``l`` masked in while ``plan.cycles < stop[l]``, and clocks.  The
        plan needs one ``toggles``/``toggled`` stripe per worker
        (:func:`worker_count` of ``n_threads`` and the lane count).
        """
        n_rows = len(slots)
        lanes = v.shape[1]
        if (rows.ndim != 3 or rows.shape[1:] != (n_rows, lanes)
                or stop.shape != (lanes,)):
            raise ValueError(
                f"run needs (cycles, {n_rows}, {lanes}) input rows and "
                f"({lanes},) stops, got {rows.shape} and {stop.shape}"
            )
        n_capture = len(capture)
        if (captured.ndim != 3 or captured.shape[1:] != (n_capture, lanes)
                or len(captured) < len(rows)
                or n_capture and not 0 <= capture.min() <= capture.max() < len(v)):
            raise ValueError(
                f"run needs store rows below {len(v)} to capture and a "
                f"(>= {len(rows)}, {n_capture}, {lanes}) capture buffer, got "
                f"{capture.tolist()} and {captured.shape}"
            )
        self._lib.run(*self._threaded(v, n_threads), plan,
                      self.c_array(rows), self.c_array(slots), n_rows, len(rows),
                      self.c_array(stop), self.c_array(capture), n_capture,
                      self.c_array(captured))
