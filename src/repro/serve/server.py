"""The asyncio power-estimation job server.

:class:`PowerServer` accepts :class:`~repro.api.spec.RunSpec` jobs, coalesces
compatible ones into shared lane blocks (:mod:`repro.serve.coalesce`), runs
each group in a worker thread through the very same
:meth:`~repro.api.estimators.RTLEstimatorAdapter.estimate_many` path the
sweep runner uses — so served results are bit-identical to standalone
``repro.api`` estimates — and streams per-job progress events
(``queued → coalesced → compiling → simulating → done``).

Design points:

* **One event loop, one worker thread at a time.**  Submissions, state
  transitions and event streaming all happen on the loop; group execution
  runs in ``asyncio.to_thread``.  Groups execute sequentially because lane
  programs cache per flat module — two simultaneous simulations of one
  design would fight over shared per-module state.  Throughput comes from
  coalescing, not from racing groups.  The worker hands each phase of a
  group (``compiling``, ``simulating``, ``done``) to the loop in one hop,
  which applies the members' transitions in lane order.
* **Dispatch on quiet, window for remote clients.**  A burst submitted in
  process (:meth:`Client.estimate_all <repro.serve.client.Client.estimate_all>`,
  ``asyncio.gather`` of :meth:`PowerServer.submit`) is queued within an
  event-loop turn, so the dispatcher drains as soon as one full turn brings
  no new submission (reason ``quiet``), without waiting for a timer.
  Remote clients (the HTTP and stdio front ends) are separate processes
  whose requests arrive tens of milliseconds apart, so once one of them is
  pending the drain stays open until ``coalesce_window_s`` after the first
  queued arrival (reason ``window``); the same window caps the first job's
  wait while in-process arrivals keep coming.  Either way a burst of
  concurrent clients lands in one shared lane block instead of N singleton
  runs.  Jobs arriving while a group runs queue for the next drain.
* **Warm process caches.**  Adapters (and their power-model library), flat
  modules, lane programs and compiled kernels all persist for the process
  lifetime, so repeat jobs only pay simulation.  ``stats()`` exposes the
  process-wide :data:`~repro.sim.batch.PROGRAM_BUILD_COUNT` /
  :data:`~repro.sim.kernels.KERNEL_BUILD_COUNT` counters that prove
  coalesced jobs shared one build.
* **Per-job error isolation.**  When a shared group raises, every member is
  re-run alone: healthy siblings still produce results and exactly the
  poisoned job fails, carrying a structured
  :class:`~repro.resilience.failures.TaskFailure` payload
  (``repro.resilience`` style) in its record.
* **Durable job store.**  With a ``cache_dir``, job records persist across
  restarts and results land in the sweep-compatible ``estimate`` namespace —
  a spec already swept (or served) is answered from cache without
  simulating.  Stopping the server marks unfinished jobs ``interrupted`` and
  flushes them, so Ctrl-C leaves a consistent ledger.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import AsyncIterator, Dict, List, Optional, Union

from repro import obs
from repro.api.estimators import estimator_for
from repro.api.spec import (
    EstimateResult,
    RunSpec,
    coalesce_key,
    is_coalescable,
)
from repro.resilience.failures import TaskFailure
from repro.serve.coalesce import CoalescingQueue, JobGroup
from repro.serve.protocol import JobRecord, ProgressEvent
from repro.serve.store import JobStore


def build_counts() -> Dict[str, int]:
    """Process-lifetime lane-program / kernel compile counters."""
    from repro.sim import batch, kernels

    return {
        "program_builds": batch.PROGRAM_BUILD_COUNT,
        "kernel_builds": kernels.KERNEL_BUILD_COUNT,
    }


_JOBS_SUBMITTED = obs.counter(
    "repro_serve_jobs_submitted_total", "Jobs accepted by the server"
)
_JOBS_TERMINAL = obs.counter(
    "repro_serve_jobs_total", "Jobs that reached a terminal state, by state"
)
_SERVE_CACHE_HITS = obs.counter(
    "repro_serve_cache_hits_total",
    "Jobs answered straight from the persistent result cache",
)
_GROUPS = obs.counter(
    "repro_serve_groups_total",
    "Execution groups drained (shared lane blocks and singletons)",
)
_COALESCED_JOBS = obs.counter(
    "repro_serve_coalesced_jobs_total",
    "Jobs that ran as lanes of a shared (size > 1) group",
)
_QUEUE_DEPTH = obs.gauge(
    "repro_serve_queue_depth", "Jobs waiting in the coalescing queue"
)
_GROUP_SIZE = obs.histogram(
    "repro_serve_group_size",
    "Drained group sizes (lanes per shared block)",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)
_JOB_LATENCY = obs.histogram(
    "repro_serve_job_latency_seconds", "Submit-to-terminal wall time per job"
)
_DISPATCHES = obs.counter(
    "repro_serve_dispatch_total",
    "Queue drains, by what triggered them (quiet | window)",
)
_COALESCE_WAIT = obs.histogram(
    "repro_serve_coalesce_wait_seconds",
    "First queued arrival to drain, per drain",
)


class JobFailed(RuntimeError):
    """Awaited job ended ``failed``/``interrupted``; carries the record."""

    def __init__(self, record: JobRecord) -> None:
        error = record.error or {}
        super().__init__(
            f"job {record.job_id} {record.state}: "
            f"{error.get('error_type', '')}: {error.get('message', '')}"
        )
        self.record = record


class PowerServer:
    """Coalescing power-estimation job server (one asyncio loop)."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        coalesce_window_s: float = 0.05,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        self.store = JobStore(cache_dir, max_bytes=cache_max_bytes)
        self.queue = CoalescingQueue()
        self.coalesce_window_s = coalesce_window_s
        self.started_at: Optional[float] = None
        #: jobs submitted to this server instance
        self.n_submitted = 0
        #: jobs answered straight from the persistent result cache
        self.n_cache_hits = 0
        #: execution groups drained (shared lane blocks + singletons)
        self.n_groups = 0
        #: jobs that ran as lanes of a shared (size > 1) group
        self.n_coalesced_jobs = 0
        self._adapters: Dict[str, object] = {}
        #: live per-job phase span (job_id -> span of the job's current state);
        #: ended — and its duration attached to the next event — on transition
        self._phase_spans: Dict[str, obs.Span] = {}
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._kick: Optional[asyncio.Event] = None
        self._cond: Optional[asyncio.Condition] = None

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._kick = asyncio.Event()
        self._cond = asyncio.Condition()
        self.started_at = time.time()
        self.store.load_persisted()
        self._dispatcher = asyncio.create_task(
            self._dispatch(), name="repro-serve-dispatch"
        )

    async def stop(self) -> None:
        """Stop dispatching and mark every unfinished job ``interrupted``.

        Completed results were persisted as they landed; this flushes the
        final state of queued/running jobs so the on-disk job store is
        consistent after Ctrl-C or shutdown.
        """
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for record in self.store.jobs():
            if not record.terminal:
                await self._transition(
                    record, "interrupted", {"reason": "server stopped"}
                )

    async def __aenter__(self) -> "PowerServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -------------------------------------------------------------- submission
    async def submit(
        self, spec: Union[RunSpec, Dict[str, object]], remote: bool = False
    ) -> str:
        """Queue one run; returns its job id immediately.

        Specs whose result already exists in the shared cache complete
        instantly (state ``done``, ``cached`` flag set) without simulating.
        ``remote`` marks a submission relayed from another process (the
        HTTP and stdio front ends set it): the drain it joins stays open
        for the full coalescing window, so its peers can arrive.
        """
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        from repro.designs.registry import get as _get_design

        _get_design(spec.design)  # reject unknown designs at the door
        record = self.store.create(spec)
        self.n_submitted += 1
        _JOBS_SUBMITTED.inc()
        await self._transition(
            record,
            "queued",
            {
                "coalesce_key": (
                    coalesce_key(spec) if is_coalescable(spec) else None
                )
            },
        )
        cached = self.store.cached_result(spec)
        if cached is not None:
            key, payload = cached
            self.n_cache_hits += 1
            _SERVE_CACHE_HITS.inc()
            record.cached = True
            record.result_key = key
            report = payload.get("report") or {}
            await self._transition(
                record,
                "done",
                {
                    "cached": True,
                    "cycles": report.get("cycles"),
                    "average_power_mw": report.get("average_power_mw"),
                },
            )
            return record.job_id
        self.queue.push(record, remote=remote)
        _QUEUE_DEPTH.set(len(self.queue))
        self._kick.set()
        return record.job_id

    # ----------------------------------------------------------------- queries
    def status(self, job_id: str) -> JobRecord:
        return self.store.get(job_id)

    async def wait(self, job_id: str) -> JobRecord:
        """Block until the job reaches a terminal state."""
        record = self.store.get(job_id)
        async with self._cond:
            await self._cond.wait_for(lambda: record.terminal)
        return record

    async def result(self, job_id: str) -> EstimateResult:
        """The job's result, awaiting completion; raises :class:`JobFailed`."""
        record = await self.wait(job_id)
        if record.state != "done":
            raise JobFailed(record)
        result = self.store.get_result(record)
        if result is None:
            raise JobFailed(record)
        return result

    async def events(self, job_id: str) -> AsyncIterator[ProgressEvent]:
        """Stream the job's progress events, live, until a terminal one."""
        record = self.store.get(job_id)
        emitted = 0
        while True:
            while emitted < len(record.events):
                yield record.events[emitted]
                emitted += 1
            if record.terminal:
                return
            async with self._cond:
                # wait_for re-checks before sleeping: no missed notifications
                await self._cond.wait_for(
                    lambda: record.terminal or emitted < len(record.events)
                )

    def stats(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {}
        for record in self.store.jobs():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        stats = {
            "started_at": self.started_at,
            "jobs_submitted": self.n_submitted,
            "jobs_by_state": by_state,
            "pending": len(self.queue),
            "groups": self.n_groups,
            "coalesced_jobs": self.n_coalesced_jobs,
            "cache_hits": self.n_cache_hits,
            "cache": self.store.stats(),
        }
        stats.update(build_counts())
        return stats

    # -------------------------------------------------------------- dispatching
    async def _dispatch(self) -> None:
        while True:
            await self._kick.wait()
            # let concurrently-submitting clients land in this drain.  An
            # in-process burst is queued within a loop turn, so a turn that
            # brings no new submission is quiet; remote clients are other
            # processes, so a pending one holds the drain open to the window
            deadline = self.queue.first_arrival + self.coalesce_window_s
            reason = "quiet"
            while True:
                seen = len(self.queue)
                if self.queue.has_remote:
                    await asyncio.sleep(max(deadline - time.monotonic(), 0.0))
                else:
                    await asyncio.sleep(0)
                if not self.queue.has_remote and len(self.queue) == seen:
                    break
                if time.monotonic() >= deadline:
                    reason = "window"
                    break
            wait_s = round(time.monotonic() - self.queue.first_arrival, 6)
            self._kick.clear()
            groups = self.queue.drain()
            _QUEUE_DEPTH.set(len(self.queue))
            _DISPATCHES.inc(reason=reason)
            _COALESCE_WAIT.observe(wait_s)
            for group in groups:
                self.n_groups += 1
                _GROUPS.inc()
                _GROUP_SIZE.observe(len(group))
                if len(group) > 1:
                    self.n_coalesced_jobs += len(group)
                    _COALESCED_JOBS.inc(len(group))
                for lane, record in enumerate(group.jobs):
                    record.group_size = len(group)
                    await self._transition(
                        record,
                        "coalesced",
                        {
                            "group_size": len(group),
                            "lane": lane,
                            "coalesce_key": group.key,
                            "reason": reason,
                            "coalesce_wait_s": wait_s,
                        },
                    )
                await asyncio.to_thread(self._run_group, group)

    # ------------------------------------------------------- state transitions
    async def _transition(
        self,
        record: JobRecord,
        state: str,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        detail = dict(detail or {})
        # End the span of the state the job is leaving; the measured duration
        # rides along on the *new* event, so streaming clients see how long
        # each phase took without diffing timestamps themselves.
        previous = self._phase_spans.pop(record.job_id, None)
        if previous is not None:
            detail["phase_s"] = round(previous.end(), 6)
        record.state = state
        if record.terminal:
            record.finished_at = time.time()
            _JOBS_TERMINAL.inc(state=state)
            if record.submitted_at:
                latency = record.finished_at - record.submitted_at
                _JOB_LATENCY.observe(latency)
                detail["total_s"] = round(latency, 6)
        else:
            self._phase_spans[record.job_id] = obs.start_span(
                f"serve.job.{state}",
                job_id=record.job_id,
                design=record.spec.design,
            )
        record.events.append(
            ProgressEvent(
                job_id=record.job_id,
                state=state,
                seq=len(record.events),
                at_s=time.time(),
                detail=detail,
            )
        )
        self.store.save(record)
        async with self._cond:
            self._cond.notify_all()

    def _transition_sync(
        self,
        records: List[JobRecord],
        state: str,
        details: List[Dict[str, object]],
    ) -> None:
        """Worker-thread transitions: one hop to the loop, which applies
        them in order; returns once every one is delivered."""

        async def apply() -> None:
            for record, detail in zip(records, details):
                await self._transition(record, state, detail)

        asyncio.run_coroutine_threadsafe(apply(), self._loop).result()

    # --------------------------------------------------------------- execution
    def _adapter(self, engine: str):
        adapter = self._adapters.get(engine)
        if adapter is None:
            adapter = self._adapters[engine] = estimator_for(engine)
        return adapter

    def _run_group(self, group: JobGroup) -> None:
        """Execute one drained group in this worker thread."""
        jobs = group.jobs
        specs = group.specs
        first = specs[0]
        try:
            before = build_counts()
            self._transition_sync(jobs, "compiling", [before] * len(jobs))
            if group.key is not None:
                adapter = self._adapter("rtl")
                warm = adapter.warm(first, n_lanes=len(specs))
                built = {
                    k: build_counts()[k] - before[k] for k in before
                }
                self._transition_sync(
                    jobs, "simulating", [{**warm, **built}] * len(jobs)
                )
                results = adapter.estimate_many(specs)
            else:
                adapter = self._adapter(first.engine)
                self._transition_sync(jobs, "simulating", [{}] * len(jobs))
                results = [adapter.estimate(spec) for spec in specs]
        except Exception:
            self._run_solo_fallback(group)
            return
        self._transition_sync(
            jobs,
            "done",
            [
                self._done_detail(record, result)
                for record, result in zip(jobs, results)
            ],
        )

    def _run_solo_fallback(self, group: JobGroup) -> None:
        """Re-run each member alone after a group failure: exact blame.

        A poisoned member (bad seed, injected fault, unresolvable stimulus)
        fails by itself with a structured error; its lane-mates still
        produce results — one job can never take its siblings down.
        """
        for record in group.jobs:
            spec = record.spec
            try:
                result = self._adapter(spec.engine).estimate(spec)
            except Exception as exc:
                failure = TaskFailure(
                    task_index=0,
                    label=f"{spec.design}[{spec.engine}] job {record.job_id}",
                    kind="exception",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback.format_exc(),
                    attempts=2 if len(group) > 1 else 1,
                )
                record.error = failure.to_dict()
                self._transition_sync(
                    [record],
                    "failed",
                    [
                        {
                            "error_type": failure.error_type,
                            "message": failure.message,
                            "attempts": failure.attempts,
                        }
                    ],
                )
            else:
                detail = self._done_detail(
                    record, result, solo_fallback=len(group) > 1
                )
                self._transition_sync([record], "done", [detail])

    def _done_detail(
        self,
        record: JobRecord,
        result: EstimateResult,
        solo_fallback: bool = False,
    ) -> Dict[str, object]:
        """Store the job's result; the detail of its ``done`` event."""
        result.metadata["job_id"] = record.job_id
        result.metadata["group_size"] = max(record.group_size, 1)
        record.result_key = self.store.put_result(record.spec, result.to_dict())
        detail = {
            "cycles": result.report.cycles,
            "average_power_mw": result.report.average_power_mw,
            "peak_power_mw": result.report.peak_power_mw,
            "backend": result.backend,
        }
        if result.profile is not None:
            # streamed windowed power: enough for a live client to draw the
            # power-over-time curve without fetching the full profile (which
            # stays one GET /jobs/<id>/profile away); long runs downsample
            # to <= 32 points by striding
            power = result.profile.window_power_mw()
            stride = max(1, -(-len(power) // 32))
            detail["profile"] = {
                "n_windows": result.profile.n_windows,
                "window_cycles": result.profile.window_cycles,
                "peak_power_mw": result.profile.peak_power_mw(),
                "window_power_mw": [
                    round(float(value), 6) for value in power[::stride]
                ],
            }
        if solo_fallback:
            detail["solo_fallback"] = True
        return detail
