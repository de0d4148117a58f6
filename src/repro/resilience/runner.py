"""The resilient task runner: retries, timeouts, crash isolation, Ctrl-C.

:func:`run_resilient_tasks` is the fault-tolerant replacement for a bare
``ProcessPoolExecutor`` fan-out.  Each payload runs through a structured
*envelope* (:func:`_call_task`) that measures wall time inside the worker,
fires the ``worker`` fault-injection site, and converts exceptions into plain
dicts — so no exception ever crosses the scheduler boundary unannounced.
The scheduler on top adds:

* **Retries with deterministic backoff** — a failed attempt requeues with an
  exponential, seeded-jitter delay until ``max_retries`` is exhausted, then
  records a structured :class:`~repro.resilience.failures.TaskFailure`.
* **Timeouts** — a task past its wall-clock deadline cannot be cancelled in
  a ``ProcessPoolExecutor`` (the worker may be wedged in native code), so the
  pool is killed and respawned; the hung task counts a failed attempt and
  innocent in-flight tasks requeue without penalty.
* **Crash isolation** — an abruptly dying worker (segfault in a cached
  native ``.so``, OOM kill, ``os._exit``) breaks the whole pool.  The pool is
  respawned and every in-flight task becomes a *suspect* that re-runs alone
  (one task in flight) so blame is attributed exactly: a task whose isolated
  run crashes again is quarantined as failed (``max_pool_crashes`` strikes),
  while innocent victims complete and rejoin the parallel flow.
* **Graceful interruption** — Ctrl-C stops scheduling, kills the pool, and
  returns a partial :class:`~repro.resilience.failures.RunOutcome` with the
  unfinished tasks recorded as ``interrupted`` failures, so completed work is
  never discarded.

Submission is throttled to ``n_workers`` in-flight tasks (instead of dumping
the whole queue on the executor) so deadlines measure actual runtime and a
crash only implicates tasks that were really running.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.resilience import faults
from repro.resilience.failures import RunOutcome, TaskFailure, TaskOutcome
from repro.resilience.policy import RetryPolicy

#: scheduler poll granularity while tasks are in flight
_TICK_S = 0.05

_TASK_RETRIES = obs.counter(
    "repro_task_retries_total",
    "Task attempts requeued after a failure or timeout")
_TASK_TIMEOUTS = obs.counter(
    "repro_task_timeouts_total",
    "Tasks whose attempt exceeded its wall-clock deadline")
_POOL_RESPAWNS = obs.counter(
    "repro_pool_respawns_total",
    "Worker-pool kills + respawns (crash or expired deadline)")
_TASK_FAILURES = obs.counter(
    "repro_task_failures_total", "Tasks finalized as failed, by kind")


def _pool_context():
    """A fork-safe multiprocessing context for worker pools.

    Plain ``fork`` children inherit the parent's native-kernel thread state
    (OpenMP teams) without the threads themselves; the first
    threaded kernel call in such a child deadlocks inside the threading
    runtime.  ``forkserver`` children descend from a clean helper process
    that never ran a kernel, so workers can use threaded kernels freely.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")


# ------------------------------------------------------------- worker side


def _call_task(call: Tuple) -> Dict[str, object]:
    """Worker-side entry: run one attempt, returning a structured envelope.

    The envelope is a plain dict — ``{"ok": True, "value", "wall_s"}`` or
    ``{"ok": False, "error_type", "message", "traceback", "exception",
    "wall_s"}`` — so worker exceptions become data instead of pool poison.
    Wall time is measured *inside* the worker: it is pure compute time,
    unpolluted by queueing or result-collection order in the parent.

    Observability rides the same channel as the fault plan: ``obs_state``
    (captured in the parent) enables tracing in a pool worker, and the
    worker's spans plus counter *deltas* come back under the envelope's
    ``"obs"`` key for the parent to merge into one timeline/registry.
    In-process (serial) execution shares the parent's buffers directly —
    ``worker_begin`` returns ``None`` for the same pid and nothing is
    exported twice.
    """
    worker, payload, index, attempt, plan_text, obs_state, label = call
    faults.install_plan(plan_text)
    token = obs.worker_begin(obs_state)
    task_span = obs.span("task.run", task=index, attempt=attempt, label=label)
    start = time.perf_counter()
    try:
        faults.maybe_inject("worker", task=index, attempt=attempt)
        value = worker(payload)
    except Exception as error:
        task_span.set(error=type(error).__name__)
        task_span.end()
        envelope = {
            "ok": False,
            "error_type": type(error).__name__,
            "message": str(error),
            "traceback": _traceback.format_exc(),
            "exception": _if_picklable(error),
            "wall_s": time.perf_counter() - start,
        }
    else:
        task_span.end()
        envelope = {
            "ok": True, "value": value,
            "wall_s": time.perf_counter() - start,
        }
    export = obs.worker_export(token)
    if export is not None:
        envelope["obs"] = export
    return envelope


def _if_picklable(error: BaseException) -> Optional[BaseException]:
    try:
        pickle.dumps(error)
    except Exception:
        return None
    return error


# ---------------------------------------------------------- scheduler side


@dataclass
class _Entry:
    """One schedulable task attempt."""

    index: int
    attempt: int = 0
    #: pool crashes this task was in flight for
    strikes: int = 0
    #: earliest submission time (backoff)
    not_before: float = 0.0
    #: run alone (crash-suspect isolation)
    solo: bool = False


def run_resilient_tasks(
    payloads: Sequence,
    worker: Callable,
    n_workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    labels: Optional[Sequence[str]] = None,
    timeouts: Optional[Sequence[Optional[float]]] = None,
    retries: Optional[Sequence[Optional[int]]] = None,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    stop_on_failure: bool = False,
) -> RunOutcome:
    """Run ``worker(payload)`` per payload with retries/timeouts/isolation.

    ``worker`` must be a module-level (picklable) function and each payload
    picklable.  Results come back as a :class:`RunOutcome` whose per-task
    :class:`TaskOutcome` carries either the value or a structured
    :class:`TaskFailure` — exceptions never propagate unless the caller asks
    via :meth:`RunOutcome.raise_first_failure`.

    ``policy`` defaults to :meth:`RetryPolicy.from_env` (honouring
    ``REPRO_TASK_TIMEOUT_S`` / ``REPRO_TASK_RETRIES``).  ``timeouts`` /
    ``retries`` override the policy per task index (None entries fall back).
    ``on_outcome`` fires in the parent as each task *finalizes* (success or
    failure), in completion order.  ``stop_on_failure`` stops scheduling new
    work once any task exhausts its retries (queued tasks finalize as
    ``skipped``); in-flight tasks still complete and are collected.

    Serial execution (``n_workers <= 1`` or a single payload, and no
    timeout) runs in-process through the same envelope — identical results,
    no pool overhead.  Any task deadline forces a pool (even of one worker):
    a wedged in-process task could never be cancelled.
    """
    if policy is None:
        policy = RetryPolicy.from_env()
    n_tasks = len(payloads)
    label_of = _resolve_labels(labels, n_tasks)

    def timeout_of(index: int) -> Optional[float]:
        if timeouts is not None and timeouts[index] is not None:
            return timeouts[index]
        return policy.timeout_s

    def retries_of(index: int) -> int:
        if retries is not None and retries[index] is not None:
            return retries[index]
        return policy.max_retries

    if n_tasks == 0:
        return RunOutcome(outcomes=[])

    plan = faults.plan_text()
    any_timeout = any(timeout_of(i) is not None for i in range(n_tasks))
    use_pool = any_timeout or (n_workers > 1 and n_tasks > 1)
    run = _PoolRun if use_pool else _SerialRun
    return run(
        payloads=payloads,
        worker=worker,
        n_workers=max(1, n_workers),
        policy=policy,
        label_of=label_of,
        timeout_of=timeout_of,
        retries_of=retries_of,
        on_outcome=on_outcome,
        stop_on_failure=stop_on_failure,
        plan=plan,
    ).execute()


def _resolve_labels(labels, n_tasks) -> Callable[[int], str]:
    if labels is None:
        return lambda index: f"task[{index}]"
    resolved = list(labels)
    if len(resolved) != n_tasks:
        raise ValueError(
            f"labels length {len(resolved)} != payload count {n_tasks}"
        )
    return lambda index: resolved[index]


class _RunBase:
    """State shared by the serial and pool schedulers."""

    def __init__(self, payloads, worker, n_workers, policy, label_of,
                 timeout_of, retries_of, on_outcome, stop_on_failure, plan):
        self.payloads = payloads
        self.worker = worker
        self.n_workers = n_workers
        self.policy = policy
        self.label_of = label_of
        self.timeout_of = timeout_of
        self.retries_of = retries_of
        self.on_outcome = on_outcome
        self.stop_on_failure = stop_on_failure
        self.plan = plan
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
        self.stopped = False
        self.respawns = 0

    # --------------------------------------------------------- finalization
    def _finalize(self, outcome: TaskOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        if outcome.failure is not None and self.stop_on_failure:
            if outcome.failure.kind not in ("skipped", "interrupted"):
                self.stopped = True

    def _succeed(self, entry: _Entry, envelope: Dict[str, object]) -> None:
        self._finalize(TaskOutcome(
            index=entry.index,
            label=self.label_of(entry.index),
            ok=True,
            value=envelope["value"],
            attempts=entry.attempt + 1,
            wall_time_s=float(envelope.get("wall_s", 0.0)),
        ))

    def _fail(self, entry: _Entry, kind: str, error_type: str, message: str,
              traceback_text: str = "", wall_s: float = 0.0,
              exception: Optional[BaseException] = None) -> None:
        _TASK_FAILURES.inc(kind=kind)
        failure = TaskFailure(
            task_index=entry.index,
            label=self.label_of(entry.index),
            kind=kind,
            error_type=error_type,
            message=message,
            traceback=traceback_text,
            attempts=entry.attempt + 1,
            wall_time_s=wall_s,
            exception=exception,
        )
        self._finalize(TaskOutcome(
            index=entry.index,
            label=failure.label,
            ok=False,
            failure=failure,
            attempts=failure.attempts,
            wall_time_s=wall_s,
        ))

    def _fail_envelope(self, entry: _Entry, envelope: Dict[str, object]) -> None:
        self._fail(
            entry, "exception",
            envelope.get("error_type", "Exception"),
            envelope.get("message", ""),
            envelope.get("traceback", ""),
            float(envelope.get("wall_s", 0.0)),
            envelope.get("exception"),
        )

    def _skip(self, entry: _Entry) -> None:
        self._fail(entry, "skipped", "Skipped",
                   "not run: an earlier task failed with on_error='raise'")

    def _interrupt_unfinished(self) -> None:
        for index, outcome in enumerate(self.outcomes):
            if outcome is None:
                self._fail(_Entry(index=index), "interrupted",
                           "KeyboardInterrupt", "run interrupted before this "
                           "task completed")

    def _call(self, entry: _Entry) -> Tuple:
        return (self.worker, self.payloads[entry.index], entry.index,
                entry.attempt, self.plan, obs.capture_state(),
                self.label_of(entry.index))

    def _outcome(self, interrupted: bool = False) -> RunOutcome:
        return RunOutcome(
            outcomes=list(self.outcomes),  # type: ignore[arg-type]
            interrupted=interrupted,
            n_pool_respawns=self.respawns,
        )


class _SerialRun(_RunBase):
    """In-process execution: same envelope, retries and backoff, no pool."""

    def execute(self) -> RunOutcome:
        # _call_task installs the captured plan — in *this* process here, so
        # restore the prior installed state or a serial run would shadow
        # every later REPRO_FAULT_PLAN change (installed wins over env)
        previous_plan = faults.installed_plan()
        try:
            for index in range(len(self.payloads)):
                entry = _Entry(index=index)
                if self.stopped:
                    self._skip(entry)
                    continue
                while True:
                    envelope = _call_task(self._call(entry))
                    if envelope["ok"]:
                        self._succeed(entry, envelope)
                        break
                    if entry.attempt < self.retries_of(index):
                        _TASK_RETRIES.inc()
                        time.sleep(self.policy.backoff_s(index, entry.attempt))
                        entry.attempt += 1
                        continue
                    self._fail_envelope(entry, envelope)
                    break
        except KeyboardInterrupt:
            self._interrupt_unfinished()
            return self._outcome(interrupted=True)
        finally:
            faults.install_plan(previous_plan)
        return self._outcome()


class _PoolRun(_RunBase):
    """Process-pool execution with deadlines, respawn and crash isolation."""

    def execute(self) -> RunOutcome:
        self.queue: deque = deque(
            _Entry(index=index) for index in range(len(self.payloads))
        )
        #: crash suspects re-run one at a time for exact blame attribution
        self.solo_queue: deque = deque()
        self.inflight: Dict[object, Tuple[_Entry, float]] = {}
        self.pool = self._new_pool()
        try:
            while self.queue or self.solo_queue or self.inflight:
                if self.stopped:
                    for entry in list(self.queue) + list(self.solo_queue):
                        self._skip(entry)
                    self.queue.clear()
                    self.solo_queue.clear()
                    if not self.inflight:
                        break
                self._submit_ready()
                if not self.inflight:
                    self._sleep_until_ready()
                    continue
                self._collect()
            self.pool.shutdown(wait=True, cancel_futures=True)
        except KeyboardInterrupt:
            _kill_pool(self.pool)
            self._interrupt_unfinished()
            return self._outcome(interrupted=True)
        return self._outcome()

    # ------------------------------------------------------------ plumbing
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_workers, mp_context=_pool_context()
        )

    def _respawn(self) -> None:
        _kill_pool(self.pool)
        self.pool = self._new_pool()
        self.respawns += 1
        _POOL_RESPAWNS.inc()

    def _submit(self, entry: _Entry) -> bool:
        try:
            future = self.pool.submit(_call_task, self._call(entry))
        except BrokenProcessPool:  # pragma: no cover - defensive
            self._crash_event(extra_victims=[entry])
            return False
        self.inflight[future] = (entry, time.perf_counter())
        return True

    def _submit_ready(self) -> None:
        now = time.perf_counter()
        if self.solo_queue:
            # isolation mode: exactly one suspect in flight, nothing else
            if not self.inflight:
                entry = self.solo_queue.popleft()
                self._submit(entry)
            return
        for _ in range(len(self.queue)):
            if len(self.inflight) >= self.n_workers:
                break
            entry = self.queue.popleft()
            if entry.not_before > now:
                self.queue.append(entry)
                continue
            if not self._submit(entry):
                break

    def _sleep_until_ready(self) -> None:
        pending = list(self.queue) + list(self.solo_queue)
        if not pending:
            return
        now = time.perf_counter()
        delay = min(entry.not_before for entry in pending) - now
        if delay > 0:
            time.sleep(min(delay, 0.25))

    # ---------------------------------------------------------- collection
    def _collect(self) -> None:
        done, _ = wait(set(self.inflight), timeout=_TICK_S,
                       return_when=FIRST_COMPLETED)
        crash_victims: List[_Entry] = []
        for future in done:
            entry, _submitted = self.inflight.pop(future)
            try:
                envelope = future.result()
            except BrokenProcessPool:
                crash_victims.append(entry)
                continue
            except Exception as error:
                # e.g. the result failed to unpickle — treat as task failure
                envelope = {
                    "ok": False,
                    "error_type": type(error).__name__,
                    "message": str(error),
                    "traceback": _traceback.format_exc(),
                    "exception": _if_picklable(error),
                    "wall_s": 0.0,
                }
            self._handle_envelope(entry, envelope)
        if crash_victims:
            self._crash_event(extra_victims=crash_victims)
            return
        self._expire_deadlines()

    def _handle_envelope(self, entry: _Entry, envelope: Dict[str, object]) -> None:
        # merge worker spans/counter deltas up front: retried attempts still
        # contribute their spans to the timeline (each tagged with attempt=)
        obs.merge_worker(envelope.pop("obs", None))
        if envelope["ok"]:
            self._succeed(entry, envelope)
            return
        if entry.attempt < self.retries_of(entry.index):
            _TASK_RETRIES.inc()
            delay = self.policy.backoff_s(entry.index, entry.attempt)
            entry.attempt += 1
            entry.not_before = time.perf_counter() + delay
            entry.solo = False
            self.queue.append(entry)
            return
        self._fail_envelope(entry, envelope)

    # -------------------------------------------------------------- crashes
    def _crash_event(self, extra_victims: List[_Entry]) -> None:
        """A worker died abruptly: respawn the pool, isolate the suspects."""
        victims = list(extra_victims)
        victims.extend(entry for entry, _ in self.inflight.values())
        self.inflight.clear()
        self._respawn()
        for entry in victims:
            entry.strikes += 1
            if entry.strikes >= self.policy.max_pool_crashes:
                self._fail(
                    entry, "crash", "WorkerCrashed",
                    f"worker process died abruptly {entry.strikes} times "
                    f"while running this task (segfault/OOM/_exit); "
                    f"quarantined",
                )
                continue
            # the crash consumed an attempt — advance the attempt number so
            # count-based fault rules (and attempt records) stay exact
            entry.attempt += 1
            entry.solo = True
            self.solo_queue.append(entry)

    # ------------------------------------------------------------- deadlines
    def _expire_deadlines(self) -> None:
        now = time.perf_counter()
        expired = []
        for future, (entry, submitted) in self.inflight.items():
            deadline = self.timeout_of(entry.index)
            if deadline is not None and now - submitted > deadline:
                expired.append(future)
        if not expired:
            return
        timed_out = [self.inflight.pop(future)[0] for future in expired]
        # the pool cannot cancel a running (possibly wedged) worker: kill the
        # whole pool and requeue the innocents at the front, unpenalized
        innocents = [entry for entry, _ in self.inflight.values()]
        self.inflight.clear()
        self._respawn()
        for entry in reversed(innocents):
            entry.not_before = 0.0
            self.queue.appendleft(entry)
        for entry in timed_out:
            deadline = self.timeout_of(entry.index)
            _TASK_TIMEOUTS.inc()
            if entry.attempt < self.retries_of(entry.index):
                _TASK_RETRIES.inc()
                delay = self.policy.backoff_s(entry.index, entry.attempt)
                entry.attempt += 1
                entry.not_before = time.perf_counter() + delay
                self.queue.append(entry)
                continue
            self._fail(
                entry, "timeout", "TaskTimeout",
                f"task exceeded its {deadline:g}s deadline on attempt "
                f"{entry.attempt + 1} and its worker was killed",
                wall_s=float(deadline or 0.0),
            )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is wedged or already dead."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - defensive
            pass
