"""Priority scheduling of edge work (§5.1's proposed optimization).

"One possible optimization is for CDN operators to deprioritize
machine-to-machine traffic since a human is not waiting for the
response."  This module provides a small discrete-event simulation of
an edge resource (an origin-connection pool, a worker thread pool)
under two policies:

* FIFO — all requests share one queue;
* two-class priority — human-triggered requests always dequeue before
  machine-to-machine requests (non-preemptive).

The deprioritization experiment replays a mixed workload through both
and compares human-perceived queueing delay.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.stats import percentile

__all__ = ["Job", "CompletedJob", "PriorityServer", "ClassMetrics", "simulate"]

HUMAN = 0
MACHINE = 1


@dataclass(frozen=True)
class Job:
    """One unit of edge work."""

    arrival_s: float
    service_s: float
    priority: int  # HUMAN (0) or MACHINE (1); lower dequeues first
    job_id: int = 0

    def __post_init__(self) -> None:
        if self.service_s < 0:
            raise ValueError("service_s must be non-negative")
        if self.priority not in (HUMAN, MACHINE):
            raise ValueError("priority must be HUMAN (0) or MACHINE (1)")


@dataclass(frozen=True)
class CompletedJob:
    """A job with its simulated timings."""

    job: Job
    start_s: float
    finish_s: float

    @property
    def wait_s(self) -> float:
        """Queueing delay before service began."""
        return self.start_s - self.job.arrival_s

    @property
    def sojourn_s(self) -> float:
        """Total time in system."""
        return self.finish_s - self.job.arrival_s


class PriorityServer:
    """Non-preemptive multi-server queue with class priorities.

    ``priority_classes=False`` degrades to plain FIFO, which is the
    baseline the experiment compares against.
    """

    def __init__(self, num_servers: int = 1, priority_classes: bool = True) -> None:
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        self.num_servers = num_servers
        self.priority_classes = priority_classes

    def run(self, jobs: Iterable[Job]) -> List[CompletedJob]:
        """Simulate all jobs; returns completions in finish order."""
        ordered = sorted(jobs, key=lambda job: job.arrival_s)
        counter = itertools.count()
        #: Min-heap of server-free times.
        servers = [0.0] * self.num_servers
        heapq.heapify(servers)
        #: Waiting queue as a heap keyed by (priority, arrival, tiebreak).
        waiting: List[Tuple] = []
        completed: List[CompletedJob] = []
        index = 0
        total = len(ordered)

        def admit_until(time_s: float) -> None:
            nonlocal index
            while index < total and ordered[index].arrival_s <= time_s:
                job = ordered[index]
                priority = job.priority if self.priority_classes else 0
                heapq.heappush(
                    waiting, (priority, job.arrival_s, next(counter), job)
                )
                index += 1

        while index < total or waiting:
            next_free = servers[0]
            if waiting:
                # The earliest-freed server picks at max(free, now);
                # everything that arrived by then competes on priority.
                dispatch_time = max(next_free, waiting[0][1])
            else:
                # Queue empty: jump to the next arrival.
                dispatch_time = max(next_free, ordered[index].arrival_s)
            admit_until(dispatch_time)
            _, _, _, job = heapq.heappop(waiting)
            free_at = heapq.heappop(servers)
            start = max(free_at, job.arrival_s)
            finish = start + job.service_s
            heapq.heappush(servers, finish)
            completed.append(CompletedJob(job=job, start_s=start, finish_s=finish))
        return completed


@dataclass
class ClassMetrics:
    """Wait-time statistics for one priority class."""

    waits_s: List[float] = field(default_factory=list)

    def add(self, completion: CompletedJob) -> None:
        self.waits_s.append(completion.wait_s)

    @property
    def count(self) -> int:
        return len(self.waits_s)

    @property
    def mean_wait_s(self) -> float:
        return float(np.mean(self.waits_s)) if self.waits_s else 0.0

    def percentile_wait_s(self, q: float) -> float:
        if not self.waits_s:
            return 0.0
        return percentile(self.waits_s, q)


def simulate(
    jobs: Sequence[Job], num_servers: int = 1, priority_classes: bool = True
) -> Dict[int, ClassMetrics]:
    """Run the queue and fold completions into per-class metrics."""
    server = PriorityServer(num_servers, priority_classes)
    metrics: Dict[int, ClassMetrics] = {HUMAN: ClassMetrics(), MACHINE: ClassMetrics()}
    for completion in server.run(jobs):
        metrics[completion.job.priority].add(completion)
    return metrics
