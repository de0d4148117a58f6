"""In-process client for :class:`~repro.serve.server.PowerServer`.

The thinnest possible front end: a :class:`Client` wraps a running server in
the same event loop and exposes submit/status/result/events plus the bulk
helper :meth:`Client.estimate_all` — submit every spec *concurrently*, then
gather results.  Concurrent submission is what makes coalescing work: the
server drains its queue once an event-loop turn brings no new submission,
and specs queued by then merge into one shared lane block, so

::

    async with PowerServer() as server:
        results = await Client(server).estimate_all(specs)

is the served counterpart of ``RTLEstimatorAdapter.estimate_many`` — same
results (bit-identical), same single compile, but jobs arrive independently,
as they would from separate network clients.
"""

from __future__ import annotations

from typing import AsyncIterator, Dict, List, Sequence, Union

import asyncio

from repro.api.spec import EstimateResult, RunSpec
from repro.serve.protocol import JobRecord, ProgressEvent
from repro.serve.server import PowerServer


class Client:
    """In-process handle on a running :class:`PowerServer`."""

    def __init__(self, server: PowerServer) -> None:
        self._server = server

    async def submit(self, spec: Union[RunSpec, Dict[str, object]]) -> str:
        return await self._server.submit(spec)

    def status(self, job_id: str) -> JobRecord:
        return self._server.status(job_id)

    async def wait(self, job_id: str) -> JobRecord:
        return await self._server.wait(job_id)

    async def result(self, job_id: str) -> EstimateResult:
        return await self._server.result(job_id)

    def events(self, job_id: str) -> AsyncIterator[ProgressEvent]:
        return self._server.events(job_id)

    async def estimate(self, spec: Union[RunSpec, Dict[str, object]]) -> EstimateResult:
        """Submit one spec and await its result."""
        return await self.result(await self.submit(spec))

    async def estimate_all(
        self, specs: Sequence[Union[RunSpec, Dict[str, object]]]
    ) -> List[EstimateResult]:
        """Submit all specs concurrently, then await every result in order.

        Every spec is queued within one event-loop turn, before the server
        drains, so compatible specs coalesce into shared lane blocks
        without waiting out the server's coalescing window; results come
        back in submission order either way.
        """
        job_ids = await asyncio.gather(
            *(self.submit(spec) for spec in specs)
        )
        return list(
            await asyncio.gather(*(self.result(job_id) for job_id in job_ids))
        )
