"""Native (C via cffi) code generator for the kernel IR.

Prints a :class:`~repro.sim.kernels.ir.KernelIR` as one C translation unit,
compiles it with the system C compiler (``cc``/``gcc``/``clang``, override
with ``REPRO_KERNEL_CC``) and binds it through :mod:`cffi` in ABI mode.
Compiled shared objects are cached per source hash, so every structurally
identical module compiles exactly once per process, however many threads ask
for it (``auto``'s background worker and ``native`` callers may build at
once).  Each compiler runs in its own process group with its temporaries in
the process's build directory; at exit the process kills and reaps any
compiler still running before it removes that directory, and a forked child
builds on its own.

Loop structure: lanes are processed in strip-mined blocks of
:data:`BLOCK_LANES`; within a block, each IR statement is its own short
fixed-bound loop over the block (auto-vectorized by the compiler; a table
sum is one call of a shared loop over its term plan), and SSA
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
  (a bound :class:`~repro.power.block.BlockEvaluator` fills it in), table
  components only: the plan carries no generic energies.  It runs serially
  and performs the block evaluator's float operations in its order (see
  :mod:`repro.power.block`), so its doubles are identical to the NumPy
  path's.
* ``run`` (lane programs, which have a clock edge) — a whole segment of
  cycles, run to completion block by block: per cycle it sets the block's
  0/1 lane mask from the lanes' stop cycles (a block whose lanes have all
  stopped is done), copies the input rows into the input slots (a stream's
  row of that cycle, or, with a ``job_plan``, each lane's current job row
  and start pulse), calls ``settle_block``, copies the settled capture rows
  (the outputs a testbench checks) out to a caller-owned buffer, handles
  the job handshake (on a started job's ``done``: record its outputs and
  memories, then preload and arm the next job or stop the lane), calls
  ``observe_block`` and ``clock_edge_block``.  Each lane sees the per-cycle
  loop's operations in its order, so every thread count gives that loop's
  results, and the host makes one call per segment instead of several per
  cycle.

* ``mt_draw`` — the seeded stimulus draw: one MT19937 per lane, seeded
  and drawn bit for bit as :class:`random.Random` does, with the lanes as
  the inner loop of every step (see :func:`repro.sim.kernels.draw_words`).

They compile in the same compiler call as the phases, so power evaluation
and the seeded draw add no compiler process.

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
import contextlib
import hashlib
import multiprocessing.util
import os
import shutil
import signal
import subprocess
import tempfile
import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.kernels.ir import (
    Abs, Bin, Const, KernelIR, Lane, MemRead, MemWrite, Min, Popcount,
    Select, SetSlot, SetState, SetTemp, SlotRef, StateRef, Stmt, Table,
    TableSum, TempRef, Unary, Where, BOOL,
)


class NativeToolchainError(Exception):
    """No usable C compiler, or the generated kernel failed to compile."""


#: numpy store dtype -> C element type of the value store
_ELEM_TYPES = {"int64": "long long", "int8": "signed char"}

#: numpy dtype -> C pointer type of the arrays an ``observe_plan`` points at
_C_ARRAY_TYPES = {"<i8": "long long *", "<u8": "unsigned long long *", "<f8": "double *",
                  "<u4": "unsigned int *"}

#: lanes per strip-mined block: large enough to vectorize and amortize loop
#: overhead, small enough that a block's touched row segments stay in cache
BLOCK_LANES = 128

#: kernels with more generated statements and tables than this skip the
#: host-ISA vectorization flags — the compile-time blowup on thousands of
#: loops outweighs the runtime gain
_VECTORIZE_MAX_STATEMENTS = 250

#: threading tier -> extra compile flags
_THREADING_FLAGS = {
    "omp": ["-fopenmp", "-DREPRO_KERNEL_OMP"],
    "serial": [],
}

#: probed threading tier of the host toolchain (None = not probed yet)
_THREADING_MODE: Optional[str] = None

#: guards the build state below (the build directory, the library cache, the
#: builds and compiler processes in flight); held only briefly, never across
#: a compile.  Kernels may build on several threads: auto's background
#: worker and any caller that asks for ``native``
_LOCK = threading.Lock()
#: signalled whenever a build leaves the build directory
_IDLE = threading.Condition(_LOCK)
#: serializes the threading-tier probe
_PROBE_LOCK = threading.Lock()
#: held around the build steps that take a lock of another module (cffi's
#: parser lock, an import, ``tempfile``'s): fork waits for it, so a child
#: never inherits such a lock from a thread that does not exist in it.
#: Compiles run outside it
_FORK_GUARD = threading.Lock()


def threading_mode() -> str:
    """The threading tier the native kernels compile with on this host.

    Probes the compiler once per process: ``omp`` when a tiny OpenMP
    translation unit compiles with ``-fopenmp``, else ``serial``.
    """
    global _THREADING_MODE
    if _THREADING_MODE is not None:
        return _THREADING_MODE
    with _PROBE_LOCK:
        if _THREADING_MODE is not None:
            return _THREADING_MODE
        mode = "serial"
        compiler = find_compiler()
        if compiler is not None:
            with _in_build_dir() as directory:
                c_path = os.path.join(directory, "probe_omp.c")
                with open(c_path, "w") as handle:
                    handle.write("#include <omp.h>\n"
                                 "int repro_probe(void){return omp_get_max_threads();}\n")
                probe = _run_compiler([compiler, "-fopenmp", "-fPIC", "-shared", c_path,
                                       "-o", os.path.join(directory, "probe_omp.so")])
                if probe.returncode == 0:
                    mode = "omp"
        _THREADING_MODE = mode
    return mode


def worker_count(n_threads: int, n_lanes: int) -> int:
    """Workers a kernel call runs with: ``n_threads``, but at most one per
    lane block, since a block is the smallest unit a worker takes."""
    return max(1, min(n_threads, -(-n_lanes // BLOCK_LANES)))


#: (REPRO_KERNEL_CC, PATH) -> the compiler found for them
_COMPILERS: Dict[Tuple[Optional[str], Optional[str]], Optional[str]] = {}


def find_compiler() -> Optional[str]:
    """Path of the C compiler to use, or None when the host has none.

    ``REPRO_KERNEL_CC`` overrides discovery; pointing it at a nonexistent
    command disables the native backend (useful for testing the fallback).
    The search runs once per process for each value of ``REPRO_KERNEL_CC``
    and ``PATH``.
    """
    override = os.environ.get("REPRO_KERNEL_CC")
    key = (override, os.environ.get("PATH"))
    if key not in _COMPILERS:
        found = None
        for candidate in (override,) if override else ("cc", "gcc", "clang"):
            found = shutil.which(candidate)
            if found:
                break
        _COMPILERS[key] = found
    return _COMPILERS[key]


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


def _sum_terms(stmt: Stmt) -> Optional[List[str]]:
    """A table sum's C term plan, ``{table, row, slot, shift}`` per chunk."""
    if not (isinstance(stmt, SetTemp) and isinstance(stmt.expr, TableSum)):
        return None
    return [f"{{T{table}, {previous.row}, {current.slot}, {shift}}}"
            for previous, current, chunks in stmt.expr.terms for table, shift in chunks]


def _statement(stmt: Stmt) -> str:
    """One IR statement as its own vectorizable loop over the lane block; a
    table sum is one ``table_sum`` call over its term plan ``P<temp>``."""
    loop = "for (i64 i = 0; i < nb; ++i) "
    terms = _sum_terms(stmt)
    if terms is not None:
        index = _temp_index(stmt.name)
        return f"table_sum(W + {index} * B, P{index}, {len(terms)}, v, S, L, l0, nb);"
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
#: a bound :class:`repro.power.block.BlockEvaluator` over its own result
#: arrays; shared verbatim by the C source and the cffi declarations
_OBSERVE_PLAN = """\
typedef struct {
    long long n_lanes, n_nets, n_components, cycles, trace_row;
    const long long *net_slot;          /* store row of each monitored net */
    const long long *chunk_net;         /* per chunk: its net */
    const long long *chunk_shift;       /* per chunk: bit offset of its byte */
    const double *chunk_table;          /* per chunk: 256 byte energies */
    const long long *component_chunk;   /* per component: first chunk (+ end) */
    const double *component_base;       /* per component: base energy */
    /* lane arrays: each row padded to whole blocks of B lanes */
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

#: the job handshake of a run over a job testbench's lanes, pointing at
#: :class:`repro.sim.declarative._JobLanes`'s job state (whose per-cycle
#: loop runs the same handshake in NumPy); shared verbatim by the C source
#: and the cffi declarations.  Per lane: the job it runs, whether its
#: ``start`` pulse is due this cycle and whether its job has started; per
#: ``(lane, job)``: the preload words written into the memories when the
#: job is armed, and the record captured on its done cycle (the outputs,
#: then every memory, whole) with that cycle
_JOB_PLAN = """\
typedef struct {
    long long start_slot, done_slot;    /* store rows of start and done */
    long long n_jobs_max;               /* most jobs of any lane */
    const long long *n_jobs;            /* (lanes,) jobs of each lane */
    long long *job;                     /* (lanes,) job each lane runs */
    long long *pulse;                   /* (lanes,) 1: drive start now */
    long long *started;                 /* (lanes,) 1: started, not done */
    /* preloads of (lane, job) are entries preload_at[at] .. [at + 1] */
    const long long *preload_at;        /* (lanes * n_jobs_max + 1,) */
    const long long *preload_mem, *preload_addr, *preload_word;
    long long n_outputs, n_mems, width; /* a record's fields and length */
    const long long *output_slot;       /* (n_outputs,) store rows */
    const long long *mem_depth;         /* (n_mems,) depth of each memory */
    long long *record;                  /* (lanes, n_jobs_max, width) */
    long long *done_cycle;              /* (lanes, n_jobs_max) */
} job_plan;
"""

#: the run-to-completion entry point of every lane-program kernel (one with
#: a settle and a clock-edge phase), over ``n_cycles`` cycles one lane block
#: at a time.  Each cycle drives the input rows (a stream's row of that
#: cycle; with a job plan, the row of each lane's current job and its start
#: pulse), settles, copies the capture rows out (``n_capture`` 0: none),
#: handles the job handshake (on ``done`` of a started job: the record and
#: its cycle, then the next job's preloads and start pulse, or the lane's
#: stop after its last job), observes under the 0/1 mask ``cycle <
#: stop[lane]`` and clocks.  A block stops once every lane of it has
#: stopped (a job lane's stop is known only on its last done), and the
#: caller advances the plan's cycle count by the cycles the longest block
#: ran (:meth:`NativeKernel.run`).  The order within a lane is the
#: per-cycle loop's (drive, settle, check, observe, clock edge), and lane
#: blocks touch disjoint lanes (rows, memory columns, job state and
#: records), so every thread count gives that loop's results.  The job
#: handshake compiles in only where ``JOBS`` is 1: a module with the
#: ``start``/``done`` ports (:attr:`KernelIR.job_handshake`)
_RUN_RUNTIME = _JOB_PLAN + """
static void settle_block(elem *restrict, i64 *const *, i64 *const *,
                         i64 *restrict, i64, i64, i64, const void *);
static void clock_edge_block(elem *restrict, i64 *const *, i64 *const *,
                             i64 *restrict, i64, i64, i64, const void *);

typedef struct {
    observe_plan *p;
    job_plan *j;            /* the job handshake, or NULL: a stream */
    const long long *rows;  /* (n_cycles, n_rows, lanes) input rows; with a
                               job plan (jobs + 1, n_rows, lanes), per job */
    const long long *slot;  /* (n_rows,) store row each input row goes to */
    long long *stop;        /* (lanes,) the cycle each lane stops at */
    const long long *capture;  /* (n_capture,) store rows copied out */
    long long *captured;    /* (n_cycles, n_capture, lanes) settled values */
    i64 n_rows, n_cycles, n_capture;
} run_args;

#if JOBS
/* one cycle's input rows and start pulse of every job lane of a block */
static void drive_jobs(const run_args *a, elem *restrict v, i64 L, i64 l0, i64 nb)
{
    job_plan *j = a->j;
    const long long *job = j->job + l0;
    for (i64 r = 0; r < a->n_rows; ++r) {
        elem *restrict to = v + a->slot[r] * L + l0;
        const long long *from = a->rows + r * L + l0;
        for (i64 i = 0; i < nb; ++i)
            to[i] = (elem)from[job[i] * a->n_rows * L + i];
    }
    for (i64 l = l0; l < l0 + nb; ++l) {
        v[j->start_slot * L + l] = (elem)j->pulse[l];
        j->started[l] |= j->pulse[l];
        j->pulse[l] = 0;
    }
}

/* the done events of a block's active job lanes on this settled cycle */
static void finish_jobs(const run_args *a, const elem *restrict v,
                        i64 *const *M, i64 L, i64 l0, i64 nb, i64 cycle)
{
    job_plan *j = a->j;
    for (i64 lane = l0; lane < l0 + nb; ++lane) {
        if (!v[j->done_slot * L + lane] || !j->started[lane] || cycle >= a->stop[lane])
            continue;
        const i64 job = j->job[lane], at = lane * j->n_jobs_max + job;
        long long *record = j->record + at * j->width;
        for (i64 c = 0; c < j->n_outputs; ++c)
            *record++ = (long long)v[j->output_slot[c] * L + lane];
        for (i64 m = 0; m < j->n_mems; ++m)
            for (i64 w = 0; w < j->mem_depth[m]; ++w)
                *record++ = M[m][w * L + lane];
        j->done_cycle[at] = cycle;
        j->started[lane] = 0;
        j->job[lane] = job + 1;
        if (job + 1 < j->n_jobs[lane]) {
            for (i64 k = j->preload_at[at + 1]; k < j->preload_at[at + 2]; ++k)
                M[j->preload_mem[k]][j->preload_addr[k] * L + lane] = j->preload_word[k];
            j->pulse[lane] = 1;
        } else {
            a->stop[lane] = cycle + 1;
        }
    }
}
#endif

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
        /* a lane that stops on this cycle's done is still observed on it */
        int active = 0;
        for (i64 i = 0; i < nb; ++i) {
            mask[i] = cycle < stop[i] ? 1.0 : 0.0;
            active |= cycle < stop[i];
        }
        if (!active)
            break;
#if JOBS
        if (a->j)
            drive_jobs(a, v, L, l0, nb);
        else
#endif
        {
            const long long *rows = a->rows + k * a->n_rows * L + l0;
            for (i64 r = 0; r < a->n_rows; ++r) {
                elem *restrict to = v + a->slot[r] * L + l0;
                const long long *restrict from = rows + r * L;
                for (i64 i = 0; i < nb; ++i)
                    to[i] = (elem)from[i];
            }
        }
        settle_block(v, S, M, W, L, l0, tid, 0);
        for (i64 c = 0; c < a->n_capture; ++c) {
            const elem *restrict from = v + a->capture[c] * L + l0;
            long long *restrict to = a->captured + (k * a->n_capture + c) * L + l0;
            for (i64 i = 0; i < nb; ++i)
                to[i] = (long long)from[i];
        }
#if JOBS
        if (a->j)
            finish_jobs(a, v, M, L, l0, nb, cycle);
#endif
        observe_block(v, p, l0, cycle, p->trace_row + k, toggles, toggled);
        clock_edge_block(v, S, M, W, L, l0, tid, 0);
    }
}

void run(elem *restrict v, i64 *const *S, i64 *const *M, i64 *restrict W,
         i64 L, i64 nt, observe_plan *p, job_plan *j, const long long *rows,
         const long long *slot, i64 n_rows, i64 n_cycles, long long *stop,
         const long long *capture, i64 n_capture, long long *captured)
{
    const run_args a = {p, j, rows, slot, stop, capture, captured,
                        n_rows, n_cycles, n_capture};
    dispatch(run_block, v, S, M, W, L, nt, &a);
}
"""

#: a :class:`~repro.sim.kernels.ir.TableSum` over one lane block, from its
#: static term plan; a byte zero in every lane adds ``table[0]``, so a term
#: whose ``table[0]`` is zero skips it, as ``observe_block`` does
_TABLE_SUM_RUNTIME = """
typedef struct { const i64 *table; i64 row, slot, shift; } sum_term;

static void table_sum(i64 *restrict acc, const sum_term *terms, i64 n,
                      const elem *restrict v, i64 *const *S, i64 L, i64 l0,
                      i64 nb)
{
    for (i64 i = 0; i < nb; ++i)
        acc[i] = 0;
    for (const sum_term *t = terms; t < terms + n; ++t) {
        const i64 *restrict last = S[t->row] + l0;
        const elem *restrict now = v + t->slot * L + l0;
        const int shift = (int)t->shift;
        unsigned long long any = 0;
        for (i64 i = 0; i < nb; ++i)
            any |= (unsigned long long)(last[i] ^ (i64)now[i]);
        if (!((any >> shift) & 255) && t->table[0] == 0)
            continue;  /* every lane would add a zero */
        for (i64 i = 0; i < nb; ++i)
            acc[i] += t->table[((last[i] ^ (i64)now[i]) >> shift) & 255];
    }
}
"""

#: MT19937, the generator of :class:`random.Random`: its state words, and
#: lanes per block of the lane-vectorized draw (a block's state,
#: ``(MT_N, MT_LANES)`` words, stays in cache)
MT_N = 624
MT_LANES = 32

#: the seeded draw of every kernel translation unit: ``mt_draw`` seeds one
#: MT19937 per lane as ``random.Random(seed)`` does (``init_by_array`` over
#: the 32-bit words of ``abs(seed)``, at most ``MT_N`` of them) and writes
#: each lane's first ``n`` outputs, ``(n, lanes)``: the words
#: ``getrandbits(32 * n)`` packs little-endian.  Lanes are the inner loop
#: of every step, one block of ``MT_LANES`` at a time in the caller's
#: ``(MT_N, MT_LANES)`` scratch state; the ``init_genrand(19650218)``
#: prefix of the seeding is the same for every lane and runs once per call
_MT_RUNTIME = f"""
typedef unsigned int u32;
enum {{ MT_N = {MT_N}, MT_M = 397, MT_LANES = {MT_LANES} }};

/* the next MT_N words of a block's generators, in place */
static void mt_twist(u32 *restrict mt)
{{
    for (i64 k = 0; k < MT_N; ++k) {{
        u32 *restrict to = mt + k * MT_LANES;
        const u32 *next = mt + (k + 1) % MT_N * MT_LANES;
        const u32 *far = mt + (k + MT_M) % MT_N * MT_LANES;
        for (i64 i = 0; i < MT_LANES; ++i) {{
            const u32 y = (to[i] & 0x80000000U) | (next[i] & 0x7fffffffU);
            to[i] = far[i] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
        }}
    }}
}}

/* keys: (key words, L); lane l's key is its first key_len[l] (1..MT_N) */
void mt_draw(const u32 *keys, const long long *key_len, i64 L, i64 n, u32 *out,
             u32 *mt)
{{
    u32 prefix[MT_N];
    prefix[0] = 19650218U;
    for (i64 k = 1; k < MT_N; ++k)
        prefix[k] = 1812433253U * (prefix[k - 1] ^ (prefix[k - 1] >> 30)) + (u32)k;
    for (i64 l0 = 0; l0 < L && n > 0; l0 += MT_LANES) {{
        const i64 nb = (L - l0) < MT_LANES ? (L - l0) : MT_LANES;
        i64 j[MT_LANES], len[MT_LANES];
        for (i64 i = 0; i < MT_LANES; ++i) {{
            j[i] = 0;
            len[i] = i < nb ? key_len[l0 + i] : 1;
        }}
        for (i64 k = 0; k < MT_N; ++k)
            for (i64 i = 0; i < MT_LANES; ++i)
                mt[k * MT_LANES + i] = prefix[k];
        /* init_by_array: every key is at most MT_N words, so the key loop
           runs MT_N steps in every lane; lanes past nb mix key word 0 of
           lane l0 and are never written out */
        i64 at = 1;
        for (i64 k = 0; k < MT_N; ++k) {{
            u32 *restrict to = mt + at * MT_LANES;
            const u32 *from = to - MT_LANES;
            for (i64 i = 0; i < MT_LANES; ++i) {{
                const u32 key = keys[j[i] * L + l0 + (i < nb ? i : 0)];
                to[i] = (to[i] ^ ((from[i] ^ (from[i] >> 30)) * 1664525U)) + key + (u32)j[i];
                j[i] = j[i] + 1 < len[i] ? j[i] + 1 : 0;
            }}
            if (++at >= MT_N) {{
                for (i64 i = 0; i < MT_LANES; ++i)
                    mt[i] = mt[(MT_N - 1) * MT_LANES + i];
                at = 1;
            }}
        }}
        for (i64 k = 0; k < MT_N - 1; ++k) {{
            u32 *restrict to = mt + at * MT_LANES;
            const u32 *from = to - MT_LANES;
            for (i64 i = 0; i < MT_LANES; ++i)
                to[i] = (to[i] ^ ((from[i] ^ (from[i] >> 30)) * 1566083941U)) - (u32)at;
            if (++at >= MT_N) {{
                for (i64 i = 0; i < MT_LANES; ++i)
                    mt[i] = mt[(MT_N - 1) * MT_LANES + i];
                at = 1;
            }}
        }}
        for (i64 i = 0; i < MT_LANES; ++i)
            mt[i] = 0x80000000U;
        /* draw: twist, then temper the next MT_N words of every lane */
        for (i64 w0 = 0; w0 < n; w0 += MT_N) {{
            mt_twist(mt);
            const i64 nw = (n - w0) < MT_N ? (n - w0) : MT_N;
            for (i64 w = 0; w < nw; ++w) {{
                const u32 *restrict from = mt + w * MT_LANES;
                u32 *restrict to = out + (w0 + w) * L + l0;
                for (i64 i = 0; i < nb; ++i) {{
                    u32 y = from[i];
                    y ^= y >> 11;
                    y ^= (y << 7) & 0x9d2c5680U;
                    y ^= (y << 15) & 0xefc60000U;
                    to[i] = y ^ (y >> 18);
                }}
            }}
        }}
    }}
}}
"""

#: the phases ``run`` drives
_RUN_PHASES = ("settle", "clock_edge")


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
        _RUNTIME_PREAMBLE + _OBSERVE_RUNTIME + _MT_RUNTIME,
    ]
    if has_run(ir):
        # the job handshake compiles only into kernels that can run jobs
        lines.extend([f"#define JOBS {int(ir.job_handshake)}", _RUN_RUNTIME])
    for index, table in enumerate(ir.tables):
        values = ", ".join(f"{int(value)}LL" for value in table)
        lines.append(f"static const i64 T{index}[{len(table)}] = {{{values}}};")
    if ir.tables:
        lines.append("")
    plans = [
        f"static const sum_term P{_temp_index(stmt.name)}[] = {{{', '.join(terms)}}};"
        for stmts in ir.phases.values() for stmt in stmts
        if (terms := _sum_terms(stmt))
    ]
    if plans:
        lines.extend([_TABLE_SUM_RUNTIME, *plans, ""])

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
#: sha1(source) -> the lock its one build holds; a second caller waits on it
_BUILDING: Dict[str, threading.Lock] = {}
_BUILD_DIR: Optional[str] = None
#: builds inside the build directory now
_BUSY = 0
#: compiler processes running now, each the leader of its own process group
_RUNNING: set = set()
#: set at exit: no build or compiler starts after it
_EXITING = False


@contextlib.contextmanager
def _in_build_dir() -> Iterator[str]:
    """The build directory (made on first use), held while a build writes
    it: exit removes it only once no build is inside."""
    global _BUILD_DIR, _BUSY
    with _LOCK:
        if _EXITING:
            raise NativeToolchainError("the process is exiting")
        if _BUILD_DIR is None:
            arrange_exit_cleanup()
            with _FORK_GUARD:
                _BUILD_DIR = tempfile.mkdtemp(prefix="repro-lane-kernels-")
        _BUSY += 1
    try:
        yield _BUILD_DIR
    finally:
        with _LOCK:
            _BUSY -= 1
            _IDLE.notify_all()


def _run_compiler(args: List[str]) -> subprocess.CompletedProcess:
    """Run one compiler command to completion, inside the build directory.
    It leads its own process group, so exit can kill it with every process
    it started (cc1, as, ld), and keeps its temporary files in the build
    directory, which exit removes."""
    with _LOCK:
        if _EXITING:
            raise NativeToolchainError("the process is exiting")
        process = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   text=True, start_new_session=True,
                                   env=dict(os.environ, TMPDIR=_BUILD_DIR))
        _RUNNING.add(process)
    try:
        stdout, stderr = process.communicate()
    finally:
        with _LOCK:
            _RUNNING.discard(process)
    return subprocess.CompletedProcess(args, process.returncode, stdout, stderr)


@atexit.register
def _at_exit() -> None:
    """Leave no compiler running and no build directory behind: kill every
    compiler's process group and reap it, wait (bounded) for the builds to
    leave the directory, then remove it.  Runs at exit (atexit, and the
    finalizers of a multiprocessing worker); a second run finds nothing
    left to do."""
    global _EXITING
    with _LOCK:
        _EXITING = True
        running = list(_RUNNING)
    for process in running:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    with _IDLE:
        _IDLE.wait_for(lambda: _BUSY == 0, timeout=10.0)
        if _BUILD_DIR is not None and _BUSY == 0:
            shutil.rmtree(_BUILD_DIR, ignore_errors=True)


#: the process that registered :func:`_at_exit` as a multiprocessing finalizer
_CLEANUP_PID: Optional[int] = None


def arrange_exit_cleanup() -> None:
    """Make sure :func:`_at_exit` runs when this process exits, also as a
    multiprocessing worker, which leaves through ``os._exit``, past atexit,
    but runs its finalizers.  Call it before a build can start on another
    thread: exit then either cleans that build up or refuses it."""
    global _CLEANUP_PID
    if _CLEANUP_PID != os.getpid():
        _CLEANUP_PID = os.getpid()
        multiprocessing.util.Finalize(None, _at_exit, exitpriority=0)


def _after_fork_in_child() -> None:
    """A forked child builds on its own: fresh locks (another thread of the
    parent may have held one at the fork), no builds or compilers of the
    parent's to wait for or kill, and a build directory of its own (the
    parent removes its one).  Libraries already loaded stay usable."""
    global _LOCK, _IDLE, _PROBE_LOCK, _FORK_GUARD
    global _BUILDING, _BUILD_DIR, _BUSY, _RUNNING, _EXITING
    _LOCK = threading.Lock()
    _IDLE = threading.Condition(_LOCK)
    _PROBE_LOCK = threading.Lock()
    _FORK_GUARD = threading.Lock()
    _BUILDING, _BUILD_DIR, _BUSY, _RUNNING, _EXITING = {}, None, 0, set(), False


os.register_at_fork(before=lambda: _FORK_GUARD.acquire(),
                    after_in_parent=lambda: _FORK_GUARD.release(),
                    after_in_child=_after_fork_in_child)


def _compile_library(source: str, ir: KernelIR):
    mode = threading_mode()
    key = hashlib.sha1(f"{mode}\n{source}".encode()).hexdigest()
    with _LOCK:
        cached = _LIB_CACHE.get(key)
        if cached is not None:
            return cached
        building = _BUILDING.setdefault(key, threading.Lock())
    # one build per source: a caller that finds it in flight waits for it
    with building:
        with _LOCK:
            cached = _LIB_CACHE.get(key)
        if cached is None:
            try:
                cached = _build_library(key, source, ir, mode)
                with _LOCK:
                    _LIB_CACHE[key] = cached
            finally:
                with _LOCK:
                    _BUILDING.pop(key, None)
    return cached


def _build_library(key: str, source: str, ir: KernelIR, mode: str):
    compiler = find_compiler()
    if compiler is None:
        raise NativeToolchainError(
            "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
        )
    try:
        with _FORK_GUARD:
            import cffi
    except ImportError as error:  # pragma: no cover - cffi ships with the env
        raise NativeToolchainError(f"cffi unavailable: {error}") from error

    with _in_build_dir() as directory:
        c_path = os.path.join(directory, f"kernel_{key}.c")
        so_path = os.path.join(directory, f"kernel_{key}.so")
        with open(c_path, "w") as handle:
            handle.write(source)
        # Vectorizing for the host ISA (-march=native -ftree-vectorize) buys
        # ~1.5-2x at runtime but compile time grows superlinearly with the number
        # of statement loops, so very large kernels settle for plain -O2 (still
        # several times faster than the per-op path).  -march=native is safe
        # here — this is JIT-style host compilation — and the flag-less retry
        # covers compilers that do not understand it.  Only the generated
        # statements (and table literals) count against the budget, not the
        # fixed runtime (block dispatch, observe, run, table_sum).
        n_generated = sum(map(len, ir.phases.values())) + len(ir.tables)
        tune = ["-march=native", "-ftree-vectorize"] if n_generated <= _VECTORIZE_MAX_STATEMENTS else []
        threading_flags = _THREADING_FLAGS[mode]
        # -ffp-contract=off keeps observe's float operations separately
        # rounded; it changes nothing in the integer kernel code
        base = [compiler, "-O2", "-fwrapv", "-ffp-contract=off", "-fPIC", "-shared",
                *threading_flags, c_path, "-o", so_path]
        result = _run_compiler(base[:1] + tune + base[1:])
        if result.returncode != 0 and tune:
            result = _run_compiler(base)
        if result.returncode != 0:
            raise NativeToolchainError(
                f"kernel compilation failed ({' '.join(base)}):\n{result.stderr}"
            )

        elem = _ELEM_TYPES[ir.dtype]
        signatures = [
            f"void {name}({elem} *, long long **, long long **, long long *, "
            f"long long, long long);"
            for name in ir.phases
        ]
        signatures.append(f"{_OBSERVE_PLAN}void observe(const {elem} *, observe_plan *);")
        signatures.append("void mt_draw(const unsigned int *, const long long *, long long, "
                          "long long, unsigned int *, unsigned int *);")
        if has_run(ir):
            signatures.append(
                f"{_JOB_PLAN}void run({elem} *, long long **, long long **, "
                f"long long *, long long, long long, observe_plan *, job_plan *, "
                f"const long long *, const long long *, long long, long long, "
                f"long long *, const long long *, long long, long long *);"
            )
        with _FORK_GUARD:
            ffi = cffi.FFI()
            ffi.cdef("\n".join(signatures))
            return ffi, ffi.dlopen(so_path)


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
        self._elem_ptr_type = _ELEM_TYPES[ir.dtype] + " *"
        self._vid: Optional[int] = None
        self._vp = None
        #: worker count the scratch buffer has stripes for: the largest count
        #: any call asked for (simulators sharing this kernel pass their own)
        self.max_threads = 0
        self._W = ffi.NULL
        self._scratch_for(1)

    def _scratch_for(self, n_threads: int):
        """Scratch pointer with one block-sized stripe per worker (rows for
        the kernel's SSA temporaries; NULL when it has none).

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
        """A C pointer to a contiguous int64/uint64/float64/uint32 array
        (None = NULL).

        The caller keeps ``array`` alive for as long as C may use the pointer.
        """
        if array is None:
            return self._ffi.NULL
        if not array.flags["C_CONTIGUOUS"] or array.dtype.str not in _C_ARRAY_TYPES:
            raise NativeToolchainError(
                f"kernel arrays must be C-contiguous int64/uint64/float64/uint32, "
                f"got {array.dtype}"
            )
        return self._ffi.cast(_C_ARRAY_TYPES[array.dtype.str], array.ctypes.data)

    def plan(self, kind: str, **fields):
        """A C ``observe_plan`` (for :meth:`observe` and :meth:`run`) or
        ``job_plan`` (for :meth:`run`): integer counts and arrays.

        Array fields become pointers; the caller keeps the arrays alive.
        """
        plan = self._ffi.new(f"{kind} *")
        for name, value in fields.items():
            setattr(plan, name, self.c_array(value) if isinstance(value, np.ndarray)
                    else value)
        return plan

    # ---------------------------------------------------------- seeded draw
    def draw_words(self, seeds: List[int], n: int) -> Optional[np.ndarray]:
        """``(n, lanes)`` uint32: lane ``l``'s first ``n`` outputs of
        ``random.Random(seeds[l])`` (int seeds), all lanes in one ``mt_draw``
        call; None when a key is longer than MT19937's ``MT_N`` state words
        (``abs(seed) >= 2 ** (32 * MT_N)``), which this draw does not seed."""
        magnitudes = [abs(seed) for seed in seeds]
        n_keys = max(1, -(-max(magnitudes).bit_length() // 32))
        if n_keys > MT_N:
            return None
        if n_keys == 1:
            keys = np.array(magnitudes, dtype=np.uint32)[None]
            lengths = np.ones(len(seeds), dtype=np.int64)
        else:
            keys = np.array([[(m >> (32 * k)) & 0xFFFFFFFF for m in magnitudes]
                             for k in range(n_keys)], dtype=np.uint32)
            lengths = np.array([max(1, -(-m.bit_length() // 32)) for m in magnitudes],
                               dtype=np.int64)
        out = np.empty((n, len(seeds)), dtype=np.uint32)
        state = np.empty(MT_N * MT_LANES, dtype=np.uint32)
        self._lib.mt_draw(self.c_array(keys), self.c_array(lengths), len(seeds), n,
                          self.c_array(out), self.c_array(state))
        return out

    def observe(self, v: np.ndarray, plan) -> None:
        """One cycle of the plan's power macromodels over every lane."""
        self._lib.observe(self._v_pointer(v), plan)

    def run(self, v: np.ndarray, plan, n_cycles: int, rows: np.ndarray,
            slots: np.ndarray, stop: np.ndarray, n_threads: int,
            capture: np.ndarray, captured: np.ndarray, jobs=None) -> int:
        """Up to ``n_cycles`` whole cycles over every lane, in one call.

        Each cycle writes input rows into the store rows ``slots``: a
        stream's ``rows[k]`` (``(>= n_cycles, n_rows, lanes)`` int64), or,
        with a ``job_plan`` ``jobs``, lane ``l``'s row of its current job
        (``rows`` is ``(jobs + 1, n_rows, lanes)``) and its start pulse.  It
        settles, copies the store rows ``capture`` to ``captured[k]`` (``(>=
        cycles, len(capture), lanes)`` int64; an empty ``capture`` copies
        nothing), handles the jobs' done events (which may lower ``stop``
        in place), runs the plan's macromodels with lane ``l`` masked in
        while ``plan.cycles < stop[l]``, and clocks.  The plan needs one
        ``toggles``/``toggled`` stripe per worker (:func:`worker_count` of
        ``n_threads`` and the lane count).  Returns the cycles run: fewer
        than ``n_cycles`` once every lane has stopped.
        """
        if jobs is not None and not self.ir.job_handshake:
            raise ValueError("run got a job plan, but this kernel's module has "
                             "no start/done handshake")
        n_rows = len(slots)
        lanes = v.shape[1]
        if (rows.ndim != 3 or rows.shape[1:] != (n_rows, lanes)
                or jobs is None and len(rows) < n_cycles
                or stop.shape != (lanes,) or not stop.flags["WRITEABLE"]):
            raise ValueError(
                f"run needs (>= {n_cycles}, {n_rows}, {lanes}) input rows and "
                f"writable ({lanes},) stops, got {rows.shape} and {stop.shape}"
            )
        n_capture = len(capture)
        if (captured.ndim != 3 or captured.shape[1:] != (n_capture, lanes)
                or len(captured) < n_cycles
                or n_capture and not 0 <= capture.min() <= capture.max() < len(v)):
            raise ValueError(
                f"run needs store rows below {len(v)} to capture and a "
                f"(>= {n_cycles}, {n_capture}, {lanes}) capture buffer, got "
                f"{capture.tolist()} and {captured.shape}"
            )
        self._lib.run(*self._threaded(v, n_threads), plan,
                      self._ffi.NULL if jobs is None else jobs,
                      self.c_array(rows), self.c_array(slots), n_rows, n_cycles,
                      self.c_array(stop), self.c_array(capture), n_capture,
                      self.c_array(captured))
        # each block ran up to its lanes' last stop: the longest one, the run
        ran = min(n_cycles, max(0, int(stop.max(initial=0)) - plan.cycles))
        plan.cycles += ran
        if plan.trace:
            plan.trace_row += ran
        return ran
