"""Request coalescing: merge compatible queued jobs into shared lane blocks.

The server's core mechanism.  Queued jobs whose specs agree on
:func:`~repro.api.spec.coalesce_key` — same design, cycle budget, stimulus,
kernel configuration; differing at most in seed and per-result shaping —
drain into one :class:`JobGroup` and execute as *lanes of one
BatchRTLPowerEstimator run*: one lane-program compile, one kernel build, one
settle per cycle for all of them.  Jobs that cannot run on the lane path
(gate/emulation engines, explicitly scalar backends) drain as singleton
groups and execute alone.

Grouping uses exactly the key :meth:`RTLEstimatorAdapter.estimate_many
<repro.api.estimators.RTLEstimatorAdapter.estimate_many>` enforces, so a
drained group is mergeable *by construction* — the queue can never hand the
estimator an incompatible lane block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.spec import RunSpec, coalesce_key, is_coalescable
from repro.serve.protocol import JobRecord


@dataclass
class JobGroup:
    """Jobs that will execute together as one shared lane block.

    ``key`` is the shared coalesce key for lane-mergeable groups and ``None``
    for a singleton group holding one non-coalescable job.
    """

    key: Optional[str]
    jobs: List[JobRecord] = field(default_factory=list)

    @property
    def specs(self) -> List[RunSpec]:
        return [record.spec for record in self.jobs]

    @property
    def job_ids(self) -> List[str]:
        return [record.job_id for record in self.jobs]

    def __len__(self) -> int:
        return len(self.jobs)


class CoalescingQueue:
    """Arrival-ordered pending queue that drains into mergeable groups."""

    def __init__(self) -> None:
        self._pending: List[JobRecord] = []
        #: ``time.monotonic()`` of the oldest pending arrival (None if empty)
        self.first_arrival: Optional[float] = None
        #: a pending job came from another process (HTTP or stdio client)
        self.has_remote = False

    def push(self, record: JobRecord, remote: bool = False) -> None:
        if not self._pending:
            self.first_arrival = time.monotonic()
        self._pending.append(record)
        self.has_remote = self.has_remote or remote

    def __len__(self) -> int:
        return len(self._pending)

    def drain(self) -> List[JobGroup]:
        """Empty the queue into execution groups, preserving arrival order.

        Coalescable jobs merge by key (a group's position is its first
        member's arrival); every other job becomes its own group.
        """
        groups: List[JobGroup] = []
        by_key: Dict[str, JobGroup] = {}
        for record in self._pending:
            if is_coalescable(record.spec):
                key = coalesce_key(record.spec)
                group = by_key.get(key)
                if group is None:
                    group = by_key[key] = JobGroup(key=key)
                    groups.append(group)
                group.jobs.append(record)
            else:
                groups.append(JobGroup(key=None, jobs=[record]))
        self._pending = []
        self.first_arrival = None
        self.has_remote = False
        return groups
