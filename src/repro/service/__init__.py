"""Batch search service: queue, scheduler, pipeline cache, metrics.

This subsystem turns the one-shot
:class:`~repro.pipeline.pipeline.HmmsearchPipeline` into a serving
layer, the regime where the paper's throughput numbers actually arise:
many concurrent queries saturating a pool of devices, calibration
amortized across repeats, every stage observable.

* :mod:`~repro.service.job` - :class:`SearchJob` / :class:`JobQueue`:
  priority queue with deterministic job ids.
* :mod:`~repro.service.devices` - :class:`DevicePool`: a configurable
  (possibly heterogeneous Kepler+Fermi) set of simulated devices with
  per-slot dispatch accounting and fault injection.
* :mod:`~repro.service.cache` - :class:`PipelineCache`: bounded LRU of
  calibrated pipelines keyed by model content, so repeat queries skip
  quantization + calibration.
* :mod:`~repro.service.scheduler` - :class:`Scheduler` /
  :class:`PoolExecutor`: residue-balanced dispatch of each stage across
  the pool, with retry-on-``LaunchError`` degrading to the CPU engine.
* :mod:`~repro.service.faults` - :class:`FaultPlan`: deterministic,
  seedable fault injection (launch/kernel/hang/corruption) armed per
  device and dispatch tick.
* :mod:`~repro.service.resilience` - :class:`ResilientExecutor` /
  :class:`RetryPolicy`: shard-level retry with backoff, repartitioning
  onto surviving devices, residual-shard CPU fallback and device
  quarantine.
* :mod:`~repro.service.wal` - :class:`WriteAheadJournal` /
  :class:`DurableRunJournal` / :class:`ShardCheckpoint`: the
  ``repro-wal-v2`` crash-consistent journal (CRC-framed records, fsync
  epochs, torn-tail recovery) checkpointing jobs, shards and scan
  launch groups for exactly-once resume.
* :mod:`~repro.service.metrics` - :class:`MetricsRegistry`: per-job and
  aggregate observability; ``service.metrics.render()`` is the report.
* :mod:`~repro.service.admission` - :class:`AdmissionController` /
  :class:`AdmissionLimits`: predictive admission control pricing every
  submission through the :mod:`repro.perf` cost model, bounding the
  queue with watermarks and shedding optional work
  (:class:`DegradationState`) under pressure.
* :mod:`~repro.service.watchdog` - :class:`VirtualClock` /
  :class:`Deadline` / :class:`ShardWatchdog`: the shared virtual
  timeline, per-job ``deadline_ms`` budgets, and the hung-shard
  watchdog cancelling shards that exceed ``k x`` their cost-model
  prediction.

Quickstart::

    import numpy as np
    from repro import sample_hmm, swissprot_like
    from repro.service import BatchSearchService

    rng = np.random.default_rng(0)
    hmm = sample_hmm(120, rng)
    db = swissprot_like(300, rng, hmm=hmm)

    service = BatchSearchService()
    service.submit(hmm, db)             # GPU pool job
    service.submit(hmm, db)             # repeat: pipeline-cache hit
    jobs = service.run()
    print(service.metrics.render())
"""

from __future__ import annotations

import time
from typing import Callable

from ..engines import EngineSelection
from ..hmm.plan7 import Plan7HMM
from ..options import PipelineThresholds, SearchOptions
from ..sequence.database import SequenceDatabase
from .admission import (
    AdmissionController,
    AdmissionLimits,
    CostEstimate,
    DegradationState,
    estimate_job_cost,
)
from .cache import PipelineCache, PipelineSettings, hmm_fingerprint
from .devices import DeviceHealth, DevicePool, DeviceSlot
from .faults import FaultKind, FaultPlan, FaultSpec, ResilienceEvent
from .job import JobQueue, JobState, SearchJob
from .manifest import load_manifest, submit_manifest, validate_manifest_paths
from .metrics import JobRecord, MetricsRegistry, ResilienceStats
from .resilience import ResilientExecutor, RetryPolicy, result_digest
from .scheduler import PoolExecutor, Scheduler
from .wal import (
    WAL_SCHEMA,
    CrashPoint,
    DurableRunJournal,
    ShardCheckpoint,
    WriteAheadJournal,
)
from .watchdog import Deadline, ShardWatchdog, VirtualClock

__all__ = [
    "BatchSearchService",
    "AdmissionController",
    "AdmissionLimits",
    "CostEstimate",
    "DegradationState",
    "estimate_job_cost",
    "Deadline",
    "ShardWatchdog",
    "VirtualClock",
    "JobQueue",
    "JobState",
    "SearchJob",
    "DeviceHealth",
    "DevicePool",
    "DeviceSlot",
    "PipelineCache",
    "PipelineSettings",
    "hmm_fingerprint",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "ResilienceEvent",
    "ResilienceStats",
    "ResilientExecutor",
    "RetryPolicy",
    "WAL_SCHEMA",
    "CrashPoint",
    "DurableRunJournal",
    "ShardCheckpoint",
    "WriteAheadJournal",
    "result_digest",
    "PoolExecutor",
    "Scheduler",
    "SearchOptions",
    "JobRecord",
    "MetricsRegistry",
    "load_manifest",
    "submit_manifest",
    "validate_manifest_paths",
]


class BatchSearchService:
    """Facade tying queue, pool, cache, scheduler and metrics together.

    Synchronous core: ``submit`` enqueues, ``run`` drains.  All the
    moving parts are injectable, so tests (and future async workers)
    can swap pools, clocks or caches without touching job semantics.
    """

    def __init__(
        self,
        pool: DevicePool | None = None,
        cache: PipelineCache | None = None,
        cache_size: int = 8,
        options: SearchOptions | None = None,
        clock: Callable[[], float] = time.perf_counter,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        journal: DurableRunJournal | None = None,
        limits: AdmissionLimits | None = None,
        admission: AdmissionController | None = None,
        watchdog: ShardWatchdog | None = None,
        timeline: VirtualClock | None = None,
    ) -> None:
        # explicit None checks: an empty PipelineCache is falsy (__len__)
        self.pool = pool if pool is not None else DevicePool.heterogeneous()
        self.cache = (
            cache if cache is not None else PipelineCache(max_entries=cache_size)
        )
        self.metrics = MetricsRegistry()
        self.options = options if options is not None else SearchOptions()
        # admission control: `limits` builds a controller priced against
        # the pool's lead device; an explicit `admission` wins.  Without
        # either, the queue is unbounded (the pre-overload behaviour).
        if admission is None and limits is not None:
            admission = AdmissionController(
                limits,
                device=self.pool.slots[0].spec if self.pool.slots else None,
            )
        self.admission = admission
        self.queue = JobQueue(admission=admission)
        self.scheduler = Scheduler(
            pool=self.pool,
            cache=self.cache,
            metrics=self.metrics,
            options=self.options,
            clock=clock,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            journal=journal,
            admission=admission,
            watchdog=watchdog,
            timeline=timeline,
        )
        self._clock = clock

    @property
    def tracer(self):
        """The tracer every job records into (None = tracing off)."""
        return self.options.tracer

    @property
    def quarantine(self):
        """The service-wide record quarantine (owned by the metrics)."""
        return self.metrics.quarantine

    @property
    def journal(self) -> DurableRunJournal | None:
        return self.scheduler.journal

    @property
    def timeline(self) -> VirtualClock:
        """The scheduler's shared virtual timeline."""
        return self.scheduler.timeline

    @property
    def watchdog(self) -> ShardWatchdog:
        """The scheduler's hung-shard watchdog."""
        return self.scheduler.watchdog

    @property
    def degradation(self) -> DegradationState:
        """Current degradation rung (NORMAL when admission is off)."""
        if self.admission is None:
            return DegradationState.NORMAL
        return self.admission.state

    def submit(
        self,
        hmm: Plan7HMM,
        database: SequenceDatabase,
        engine: EngineSelection | str = "gpu_warp",
        priority: int = 0,
        thresholds: PipelineThresholds | None = None,
        settings: PipelineSettings | None = None,
        job_id: str | None = None,
        options: SearchOptions | None = None,
    ) -> SearchJob:
        """Enqueue one search request; returns the pending job.

        ``options`` overrides the service-wide :class:`SearchOptions`
        for this job only (the engine still comes from ``engine=`` and
        the quarantine/tracer stay service-owned).
        """
        return self.queue.submit(
            hmm,
            database,
            engine=engine,
            priority=priority,
            thresholds=thresholds,
            settings=settings,
            clock=self._clock(),
            job_id=job_id,
            options=options,
        )

    def run(self) -> list[SearchJob]:
        """Drain the queue; returns the jobs in execution order."""
        return self.scheduler.run(self.queue)

    def __repr__(self) -> str:
        return (
            f"BatchSearchService(pool={self.pool.name!r}, "
            f"pending={len(self.queue)}, "
            f"recorded={len(self.metrics.records)})"
        )
