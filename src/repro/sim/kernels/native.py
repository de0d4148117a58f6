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
single-threaded execution by construction.  Each generated entry point takes
a thread count ``nt`` and fans blocks out over OpenMP (when the compiler
accepts ``-fopenmp``) or a persistent hand-rolled pthread pool baked into the
generated C (when only ``-pthread`` works); with neither, ``nt`` is ignored
and the strip-mine runs serially.  Every thread gets its own scratch slice,
and cffi releases the GIL around the call, so Python-side work can overlap.
``REPRO_KERNEL_THREADING`` forces a tier (``omp``/``pthread``/``serial``)
for tests and triage.

Every translation unit also carries one fixed, design-independent entry
point, ``observe``: one cycle of the linear power macromodels over every
lane, read straight from the value store as the kernel's element type and
driven by an ``observe_plan`` struct of flat arrays taken from
:meth:`repro.power.block.BlockEvaluator.flat_plan`
(:class:`~repro.power.block.NativeEvaluator` fills it in).  It compiles in
the same compiler call as the phases, so power evaluation adds no compiler
process, and it runs serially: it performs the block evaluator's float
operations in the block evaluator's order (see :mod:`repro.power.block`),
so its doubles are identical to the NumPy path's.

Correctness notes:

* signed arithmetic is compiled with ``-fwrapv`` so int64 overflow wraps
  exactly like NumPy's,
* floating point is compiled with ``-ffp-contract=off``, so every float
  operation rounds on its own, as in NumPy: GCC with ``-march=native``
  otherwise fuses ``total += energy * mask`` into a multiply-add, which
  rounds once.  With today's 0/1 mask that product is exact and the fused
  form happens to agree; the flag keeps the contract from resting on it
  (the integer kernel code has no float operation to contract),
* sequential state is read from and written to the *live* holder arrays
  (captured as stable pointers — holder resets are in-place), so kernels
  interoperate with lane views, memory backdoors and ``reset_state``,
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
_VECTORIZE_MAX_LINES = 500

#: environment override for the threading tier ("omp"/"pthread"/"serial")
KERNEL_THREADING_ENV = "REPRO_KERNEL_THREADING"

#: threading tier -> extra compile flags
_THREADING_FLAGS = {
    "omp": ["-fopenmp", "-DREPRO_KERNEL_OMP"],
    "pthread": ["-pthread", "-DREPRO_KERNEL_PTHREADS"],
    "serial": [],
}

#: probed threading tier of the host toolchain (None = not probed yet)
_THREADING_MODE: Optional[str] = None


def threading_mode() -> str:
    """The threading tier the native kernels compile with on this host.

    Probes the compiler once per process: ``omp`` when a tiny OpenMP
    translation unit compiles with ``-fopenmp``, else ``pthread`` when
    ``-pthread`` works, else ``serial``.  ``REPRO_KERNEL_THREADING`` forces a
    tier (useful for exercising the pthread pool on an OpenMP toolchain).
    """
    global _THREADING_MODE
    override = os.environ.get(KERNEL_THREADING_ENV)
    if override:
        if override not in _THREADING_FLAGS:
            raise ValueError(
                f"unknown {KERNEL_THREADING_ENV} value {override!r}; expected "
                f"one of {', '.join(_THREADING_FLAGS)}"
            )
        return override
    if _THREADING_MODE is not None:
        return _THREADING_MODE
    compiler = find_compiler()
    if compiler is None:
        _THREADING_MODE = "serial"
        return _THREADING_MODE
    probes = (
        ("omp", "#include <omp.h>\nint repro_probe(void){return omp_get_max_threads();}\n"),
        ("pthread", "#include <pthread.h>\nstatic pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;\n"
                    "int repro_probe(void){return pthread_mutex_lock(&m) == 0;}\n"),
    )
    directory = _build_dir()
    mode = "serial"
    for candidate, source in probes:
        c_path = os.path.join(directory, f"probe_{candidate}.c")
        so_path = os.path.join(directory, f"probe_{candidate}.so")
        with open(c_path, "w") as handle:
            handle.write(source)
        result = subprocess.run(
            [compiler, *(f for f in _THREADING_FLAGS[candidate] if not f.startswith("-D")),
             "-fPIC", "-shared", c_path, "-o", so_path],
            capture_output=True, text=True,
        )
        if result.returncode == 0:
            mode = candidate
            break
    _THREADING_MODE = mode
    return mode


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


#: per-.so scaffolding shared by every generated kernel: the pthread-pool
#: tier parks persistent workers on a condvar; the per-call arguments are
#: broadcast under the pool lock and each participant runs a static stripe of
#: lane blocks (block b -> thread b % nt), so block assignment — and thus the
#: result, since blocks touch disjoint lanes — is deterministic
_RUNTIME_PREAMBLE = """\
#if defined(REPRO_KERNEL_OMP)
#include <omp.h>
#endif
#if defined(REPRO_KERNEL_PTHREADS)
#include <pthread.h>
#include <stdint.h>
typedef void (*block_fn)(elem *restrict, i64 *const *, i64 *const *,
                         i64 *restrict, i64, i64);
static pthread_mutex_t pool_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t pool_work_cv = PTHREAD_COND_INITIALIZER;
static pthread_cond_t pool_done_cv = PTHREAD_COND_INITIALIZER;
static i64 pool_spawned = 0, pool_generation = 0, pool_pending = 0;
static block_fn pool_fn;
static elem *pool_v;
static i64 *const *pool_S;
static i64 *const *pool_M;
static i64 *pool_W;
static i64 pool_L, pool_nt;

static void pool_span(block_fn fn, elem *restrict v, i64 *const *S,
                      i64 *const *M, i64 *restrict W, i64 L, i64 nt, i64 tid)
{
    const i64 nblocks = (L + B - 1) / B;
    i64 *restrict Wt = W + tid * (i64)SCRATCH_ROWS * B;
    for (i64 b = tid; b < nblocks; b += nt)
        fn(v, S, M, Wt, L, b * B);
}

static void *pool_worker(void *arg)
{
    const i64 tid = (i64)(intptr_t)arg;
    i64 seen = 0;
    pthread_mutex_lock(&pool_lock);
    for (;;) {
        while (pool_generation == seen)
            pthread_cond_wait(&pool_work_cv, &pool_lock);
        seen = pool_generation;
        {
            block_fn fn = pool_fn;
            elem *v = pool_v;
            i64 *const *S = pool_S;
            i64 *const *M = pool_M;
            i64 *W = pool_W;
            i64 L = pool_L, nt = pool_nt;
            pthread_mutex_unlock(&pool_lock);
            if (tid < nt)
                pool_span(fn, v, S, M, W, L, nt, tid);
        }
        pthread_mutex_lock(&pool_lock);
        if (--pool_pending == 0)
            pthread_cond_signal(&pool_done_cv);
    }
    return 0;
}

static void pool_child_reset(void)
{
    /* fork() copies the pool's bookkeeping but not its worker threads; a
       child that trusted pool_spawned would broadcast work nobody runs and
       wait on pool_done_cv forever.  Reset so the child respawns lazily. */
    pthread_mutex_init(&pool_lock, 0);
    pthread_cond_init(&pool_work_cv, 0);
    pthread_cond_init(&pool_done_cv, 0);
    pool_spawned = 0;
    pool_generation = 0;
    pool_pending = 0;
}

static pthread_once_t pool_fork_once = PTHREAD_ONCE_INIT;
static void pool_register_fork(void) { pthread_atfork(0, 0, pool_child_reset); }

static void pool_run(block_fn fn, elem *restrict v, i64 *const *S,
                     i64 *const *M, i64 *restrict W, i64 L, i64 nt)
{
    pthread_once(&pool_fork_once, pool_register_fork);
    pthread_mutex_lock(&pool_lock);
    while (pool_spawned < nt - 1) {
        pthread_t thread;
        if (pthread_create(&thread, 0, pool_worker,
                           (void *)(intptr_t)(pool_spawned + 1)) != 0)
            break;
        pthread_detach(thread);
        pool_spawned += 1;
    }
    if (nt > pool_spawned + 1)
        nt = pool_spawned + 1;  /* thread creation failed: shrink, stay correct */
    pool_fn = fn; pool_v = v; pool_S = S; pool_M = M; pool_W = W;
    pool_L = L; pool_nt = nt;
    pool_pending = pool_spawned;
    pool_generation += 1;
    pthread_cond_broadcast(&pool_work_cv);
    pthread_mutex_unlock(&pool_lock);

    pool_span(fn, v, S, M, W, L, nt, 0);

    pthread_mutex_lock(&pool_lock);
    while (pool_pending != 0)
        pthread_cond_wait(&pool_done_cv, &pool_lock);
    pthread_mutex_unlock(&pool_lock);
}
#endif
"""

#: the plan the ``observe`` entry point runs, filled in by
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
    const double *mask;                 /* (lanes,) 0/1 active-lane mask */
    long long *previous;                /* (nets, lanes) last cycle's values */
    double *running;                    /* (components, lanes) running totals */
    double *peak;                       /* (lanes,) largest cycle total */
    double *trace;                      /* (rows, lanes) cycle totals or NULL */
    /* scratch */
    unsigned long long *toggles;        /* (nets, B) one block's toggles */
    unsigned long long *toggled;        /* (nets,) their OR over the block */
} observe_plan;
"""

#: design-independent per-cycle macromodel evaluation, part of every kernel
#: translation unit: one cycle of every linear power macromodel over every
#: lane, read straight from the value store, in BlockEvaluator.flush's float
#: order (see :mod:`repro.power.block`).  A chunk whose byte is zero in
#: every lane of a block is skipped: it would only add ``table[0]``, a zero,
#: which changes no output.  Padding the plan's lane arrays to whole blocks
#: gives every loop but the store read a constant trip count, which keeps
#: the vectorized code, and its compile time, small.  The unit compiles with
#: -ffp-contract=off: NumPy rounds ``energy * mask`` and its addition
#: separately, and a fused multiply-add would round them once
_OBSERVE_RUNTIME = _OBSERVE_PLAN + """
void observe(const elem *restrict v, observe_plan *p)
{
    const i64 L = p->n_lanes, P = (L + B - 1) / B * B;
    const int first = p->cycles == 0;
    double energy[B], total[B];
    for (i64 l0 = 0; l0 < L; l0 += B) {
        const i64 nb = (L - l0) < B ? (L - l0) : B;
        for (i64 n = 0; n < p->n_nets; ++n) {
            const elem *restrict now = v + p->net_slot[n] * L + l0;
            i64 *restrict last = p->previous + n * P + l0;
            unsigned long long *restrict t = p->toggles + n * B;
            unsigned long long toggled = 0;
            for (i64 i = 0; i < nb; ++i) {
                const i64 value = (i64)now[i];
                t[i] = first ? 0ULL : (unsigned long long)(value ^ last[i]);
                toggled |= t[i];
                last[i] = value;
            }
            p->toggled[n] = toggled;
        }
        /* lanes past nb are padding: computed from stale toggles, masked
           by 0.0 and never read */
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
                    const unsigned long long *restrict t = p->toggles + net * B;
                    const int shift = (int)p->chunk_shift[k];
                    if (!((p->toggled[net] >> shift) & 255) && table[0] == 0.0)
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
            double *restrict row = p->trace + p->trace_row * P + l0;
            for (i64 i = 0; i < B; ++i)
                row[i] = total[i];
        }
    }
    p->cycles += 1;
    if (p->trace)
        p->trace_row += 1;
}
"""

#: lines of every translation unit that are not generated statement loops
_RUNTIME_LINES = len(_RUNTIME_PREAMBLE.splitlines()) + len(_OBSERVE_RUNTIME.splitlines())


def generate_c_source(ir: KernelIR) -> str:
    """The complete C translation unit for one extracted lane program."""
    elem = _ELEM_TYPES[ir.dtype]
    lines: List[str] = [
        "typedef long long i64;",
        f"typedef {elem} elem;",
        f"enum {{ B = {BLOCK_LANES}, SCRATCH_ROWS = {scratch_rows(ir)} }};",
        "",
        _RUNTIME_PREAMBLE + _OBSERVE_RUNTIME,
    ]
    for index, table in enumerate(ir.tables):
        values = ", ".join(f"{int(value)}LL" for value in table)
        lines.append(f"static const i64 T{index}[{len(table)}] = {{{values}}};")
    if ir.tables:
        lines.append("")

    bodies: Dict[str, List[str]] = {
        phase: [_statement(stmt) for stmt in stmts]
        for phase, stmts in ir.phases.items()
    }
    if set(bodies) >= {"settle", "clock_edge"}:
        # the fused form: lanes are independent, so running a block's whole
        # cycle (settle then edge) before the next block's is equivalent
        bodies["cycle"] = bodies["settle"] + bodies["clock_edge"]

    for name, body in bodies.items():
        # one block's worth of the phase: the serial strip-mine, the OpenMP
        # loop and the pthread stripes all dispatch through this function
        lines.append(
            f"static void {name}_block(elem *restrict v, i64 *const *S, "
            f"i64 *const *M, i64 *restrict W, i64 L, i64 l0)"
        )
        lines.append("{")
        lines.append("    const i64 nb = (L - l0) < B ? (L - l0) : B;")
        lines.extend(f"    {line}" for line in body)
        lines.append("    (void)S; (void)M; (void)W; (void)nb;")
        lines.append("}")
        lines.append("")
        lines.append(
            f"void {name}(elem *restrict v, i64 *const *S, i64 *const *M, "
            f"i64 *restrict W, i64 L, i64 nt)"
        )
        lines.append("{")
        lines.append("#if defined(REPRO_KERNEL_OMP)")
        lines.append("    if (nt > 1) {")
        lines.append("        const i64 nblocks = (L + B - 1) / B;")
        lines.append("        #pragma omp parallel for schedule(static) "
                     "num_threads((int)nt)")
        lines.append("        for (i64 b = 0; b < nblocks; ++b)")
        lines.append(
            f"            {name}_block(v, S, M, W + (i64)omp_get_thread_num() "
            f"* (i64)SCRATCH_ROWS * B, L, b * B);"
        )
        lines.append("        return;")
        lines.append("    }")
        lines.append("#elif defined(REPRO_KERNEL_PTHREADS)")
        lines.append(f"    if (nt > 1) {{ pool_run({name}_block, v, S, M, W, L, nt); return; }}")
        lines.append("#endif")
        lines.append("    (void)nt;")
        lines.append("    for (i64 l0 = 0; l0 < L; l0 += B)")
        lines.append(f"        {name}_block(v, S, M, W, L, l0);")
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
    # covers compilers that do not understand it.  The fixed runtime preamble
    # (thread pool scaffolding) does not count against the budget — only the
    # generated statement loops blow up compile time.
    n_kernel_lines = len(source.splitlines()) - _RUNTIME_LINES
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
        for name in (*ir.phases, *(
            ["cycle"] if set(ir.phases) >= {"settle", "clock_edge"} else []
        ))
    ]
    signatures.append(f"{_OBSERVE_PLAN}void observe(const {elem} *, observe_plan *);")
    ffi.cdef("\n".join(signatures))
    lib = ffi.dlopen(so_path)
    _LIB_CACHE[key] = (ffi, lib)
    return ffi, lib


class NativeKernel:
    """A compiled C kernel bound to one program's live state arrays."""

    backend = "native"

    def __init__(self, ir: KernelIR, n_lanes: int) -> None:
        self.ir = ir
        self.n_lanes = n_lanes
        self.source = generate_c_source(ir)
        self._ffi, self._lib = _compile_library(self.source, ir)
        ffi = self._ffi

        def pointer(array: np.ndarray):
            if not array.flags["C_CONTIGUOUS"] or array.dtype != np.int64:
                raise NativeToolchainError(
                    "state arrays must be C-contiguous int64 lane arrays"
                )
            return ffi.cast("long long *", array.ctypes.data)

        self._pointer = pointer
        self._state_arrays: List[np.ndarray] = []
        self._mem_arrays: List[np.ndarray] = []
        self._S = ffi.NULL
        self._M = ffi.NULL
        self.rebind()
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

    def rebind(self) -> None:
        """Re-capture pointers to the holders' *current* state arrays.

        The plain batch path (and sibling simulators sharing this program)
        commit by rebinding holder attributes, which detaches the arrays
        captured at construction.  :meth:`BatchSimulator.reset` calls this
        so a kernel always starts a run bound to the live state.
        """
        def changed(current, bound):
            return len(current) != len(bound) or any(
                a is not b for a, b in zip(current, bound)
            )

        state_arrays = self.ir.state_arrays()
        if changed(state_arrays, self._state_arrays):
            self._S = (
                self._ffi.new("long long *[]",
                              [self._pointer(a) for a in state_arrays])
                if state_arrays
                else self._ffi.NULL
            )
        mem_arrays = self.ir.mem_arrays()
        if changed(mem_arrays, self._mem_arrays):
            self._M = (
                self._ffi.new("long long *[]",
                              [self._pointer(a) for a in mem_arrays])
                if mem_arrays
                else self._ffi.NULL
            )
        # keep the bound arrays alive for as long as their pointers are
        self._state_arrays = state_arrays
        self._mem_arrays = mem_arrays

    def _v_pointer(self, v: np.ndarray):
        if id(v) != self._vid:
            if not v.flags["C_CONTIGUOUS"]:
                raise NativeToolchainError("value store must be C-contiguous")
            self._vp = self._ffi.cast(self._elem_ptr_type, v.ctypes.data)
            self._vid = id(v)
            self._vref = v  # keep the store alive while its pointer is cached
        return self._vp

    # each call runs with the caller's worker count (1 = serial loop)
    def settle(self, v: np.ndarray, n_threads: int = 1) -> None:
        self._lib.settle(self._v_pointer(v), self._S, self._M,
                         self._scratch_for(n_threads), v.shape[1], n_threads)

    def clock_edge(self, v: np.ndarray, n_threads: int = 1) -> None:
        self._lib.clock_edge(self._v_pointer(v), self._S, self._M,
                             self._scratch_for(n_threads), v.shape[1], n_threads)

    def cycle(self, v: np.ndarray, n_threads: int = 1) -> None:
        self._lib.cycle(self._v_pointer(v), self._S, self._M,
                        self._scratch_for(n_threads), v.shape[1], n_threads)

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
