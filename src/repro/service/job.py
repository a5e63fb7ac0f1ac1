"""Search jobs and the priority queue that feeds the scheduler.

A :class:`SearchJob` is one (query HMM, target database) request with an
engine choice, stage thresholds and pipeline settings.  Jobs are minted
by :class:`JobQueue.submit` with **deterministic ids**: a monotonically
increasing submission number combined with a content fingerprint of the
query/database/engine, so re-running the same manifest yields the same
ids (and logs/metrics are diffable across runs).

The queue orders by ``(-priority, submission order)``: higher priority
first, FIFO among equals.  It is a synchronous core - ``pop`` never
blocks - which the scheduler drains in a simple loop today and an async
worker pool can drain concurrently later without changing job semantics.

With an :class:`~repro.service.admission.AdmissionController` attached
the queue is *bounded*: every submission is priced through the cost
model before a job is minted, and an over-watermark submission raises
:class:`~repro.errors.OverloadError` without ever entering the heap -
rejected work cannot partially execute because it never exists as a job.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import threading
from dataclasses import dataclass, field

from .. import engines
from ..errors import PipelineError
from ..hmm.plan7 import Plan7HMM
from ..options import PipelineThresholds, SearchOptions
from ..pipeline.results import SearchResults
from ..sequence.database import SequenceDatabase
from .cache import PipelineSettings, hmm_fingerprint

__all__ = ["JobState", "SearchJob", "JobQueue", "job_fingerprint"]


class JobState(enum.Enum):
    """Lifecycle of a job: PENDING -> RUNNING -> DONE | FAILED."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class SearchJob:
    """One queued hmmsearch request plus its mutable execution record."""

    job_id: str
    hmm: Plan7HMM
    database: SequenceDatabase
    engine: engines.EngineSelection = engines.resolve("gpu_warp")
    priority: int = 0
    thresholds: PipelineThresholds | None = None
    settings: PipelineSettings = field(default_factory=PipelineSettings)
    options: SearchOptions | None = None     # per-job override of the
                                             # scheduler's SearchOptions
    estimate: object | None = None           # CostEstimate when admission
                                             # control priced this job

    # -- filled in by the scheduler --
    state: JobState = JobState.PENDING
    results: SearchResults | None = None
    error: str | None = None
    attempts: int = 0
    # set when a retry degraded the job to another engine
    fallback_engine: engines.EngineSelection | None = None
    resumed: bool = False                    # restored from a run journal
    submitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def queue_latency(self) -> float | None:
        """Seconds between submission and the scheduler picking it up."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def effective_engine(self) -> engines.EngineSelection:
        """The engine that actually produced the results."""
        return self.fallback_engine or self.engine

    def response(self) -> dict:
        """JSON-safe job response (the service wire format)."""
        data = {
            "job_id": self.job_id,
            "query": self.hmm.name,
            "database": self.database.name,
            "engine": self.engine.value,
            "effective_engine": self.effective_engine.value,
            "state": self.state.value,
            "priority": self.priority,
            "attempts": self.attempts,
            "resumed": self.resumed,
            "error": self.error,
        }
        if self.results is not None:
            data["results"] = self.results.to_dict(include_scores=False)
        return data

    def __repr__(self) -> str:
        return (
            f"SearchJob({self.job_id!r}, query={self.hmm.name!r}, "
            f"db={self.database.name!r}, engine={self.engine.value}, "
            f"state={self.state.value})"
        )


def job_fingerprint(
    hmm: Plan7HMM, database: SequenceDatabase, engine: engines.EngineSelection
) -> str:
    """Content fingerprint of one (query, database, engine) submission.

    The durable-execution layer keys journal entries by this hash, so a
    resumed run only trusts checkpoints whose submission content is
    bit-identical to what it is about to execute - an edited manifest or
    swapped database invalidates stale entries by construction.
    """
    h = hashlib.sha256()
    h.update(hmm_fingerprint(hmm).encode())
    h.update(database.name.encode())
    h.update(str(len(database)).encode())
    h.update(str(database.total_residues).encode())
    h.update(engine.value.encode())
    return h.hexdigest()


class JobQueue:
    """Priority queue of :class:`SearchJob` with deterministic ids."""

    def __init__(self, admission=None) -> None:
        self._lock = threading.RLock()
        self._heap: list[tuple[int, int, SearchJob]] = []  # guarded-by: _lock
        self._serial = 0    # guarded-by: _lock
        self.submitted = 0  # guarded-by: _lock
        self.admission = admission  # AdmissionController | None

    def submit(
        self,
        hmm: Plan7HMM,
        database: SequenceDatabase,
        engine: engines.EngineSelection | str = "gpu_warp",
        priority: int = 0,
        thresholds: PipelineThresholds | None = None,
        settings: PipelineSettings | None = None,
        clock: float | None = None,
        job_id: str | None = None,
        options: SearchOptions | None = None,
    ) -> SearchJob:
        """Mint a job and enqueue it; returns the job (with its id).

        Ids default to ``job-<serial>-<content fingerprint>`` - stable
        across reruns of the same submission sequence.  An explicit
        ``job_id`` (e.g. a manifest's ``id`` field) is used verbatim,
        which makes checkpoint journals robust to manifest edits.

        When admission control is attached, the submission is priced and
        admitted *before* the job is minted: a rejected or shed
        submission raises :class:`~repro.errors.OverloadError` and
        leaves the queue (and the serial counter) untouched.
        """
        engine = engines.resolve(engine)
        estimate = None
        if self.admission is not None:
            estimate = self.admission.admit(
                hmm, database, engine=engine, priority=priority
            )
        with self._lock:
            serial = self._serial
            self._serial += 1
            self.submitted += 1
            job = SearchJob(
                job_id=job_id if job_id is not None else (
                    f"job-{serial:04d}-"
                    f"{job_fingerprint(hmm, database, engine)[:8]}"
                ),
                hmm=hmm,
                database=database,
                engine=engine,
                priority=priority,
                thresholds=thresholds,
                settings=settings or PipelineSettings(),
                options=options,
                estimate=estimate,
                submitted_at=clock,
            )
            heapq.heappush(self._heap, (-priority, serial, job))
            return job

    def pop(self) -> SearchJob | None:
        """Highest-priority pending job (FIFO among equals), or None."""
        with self._lock:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def requeue(self, job: SearchJob) -> None:
        """Put a job back (e.g. after a transient scheduling failure)."""
        if job.state is JobState.DONE:
            raise PipelineError(f"cannot requeue finished job {job.job_id}")
        with self._lock:
            serial = self._serial
            self._serial += 1
            job.state = JobState.PENDING
            heapq.heappush(self._heap, (-job.priority, serial, job))

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._heap)

    def pending(self) -> list[SearchJob]:
        """Pending jobs in pop order (non-destructive)."""
        with self._lock:
            return [item[2] for item in sorted(self._heap)]
