"""The scheduler: drains the job queue onto the device pool.

For every job the scheduler (1) fetches a calibrated pipeline from the
:class:`~repro.service.cache.PipelineCache`, (2) runs the three-stage
search - GPU jobs have their MSV and P7Viterbi stages dispatched through
a stage executor, which residue-balances each stage's database across
the pool via
:func:`~repro.gpu.multi_gpu.run_multi_gpu` (length-sorting within each
shard, the warp load-balance heuristic) - and (3) deposits a
:class:`~repro.service.metrics.JobRecord`.

Scores are engine- and shard-count-invariant, so a job scheduled over
any pool produces the *same hits* as a direct
:meth:`HmmsearchPipeline.search` call - the property the test suite
pins down.

Search behaviour (engine defaults, selfcheck, policy, tracing) is
configured by one :class:`~repro.options.SearchOptions`.  When
``options.tracer`` is armed, every executed job
records a ``job`` span (wrapping a ``schedule`` span for pipeline
preparation and the pipeline's own search/stage/kernel spans), and each
finished job's stage timings are folded into the metrics registry's
histograms and throughput gauges.

Fault handling comes in two tiers:

* **Legacy (default)**: if a device launch raises
  :class:`~repro.errors.LaunchError` (injected or real), the whole job
  is retried once on the ``cpu_sse`` engine.  Accuracy preservation makes
  the degraded result identical to the fault-free one; only throughput
  accounting changes.
* **Resilient**: given a ``fault_plan`` and/or ``retry_policy`` (or a
  global plan from ``REPRO_FAULT_SEED``), GPU stages run through a
  :class:`~repro.service.resilience.ResilientExecutor`: shard-level
  retry with backoff, re-partitioning onto surviving devices, CPU
  fallback for the residual shard only, and device quarantine - so one
  bad device no longer discards completed shard work.

A :class:`~repro.service.wal.DurableRunJournal` (WAL v2) checkpoints
completed jobs and shards; on a rerun, journaled jobs are *resumed*
(skipped, with metrics marking them resumed rather than recomputed).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

from ..engines import resolve
from ..errors import (
    DeadlineExceeded,
    DivergenceError,
    JournalCorruptError,
    LaunchError,
    ReproError,
)
from ..gpu.multi_gpu import run_multi_gpu
from ..obs.span import span
from ..options import SearchOptions
from .cache import PipelineCache
from .devices import DevicePool
from .faults import FaultPlan, ResilienceEvent
from .job import JobQueue, JobState, SearchJob, job_fingerprint
from .metrics import JobRecord, MetricsRegistry
from .resilience import ResilientExecutor, RetryPolicy
from .wal import DurableRunJournal, ShardCheckpoint
from .watchdog import Deadline, ShardWatchdog, VirtualClock

__all__ = ["PoolExecutor", "Scheduler"]


class PoolExecutor:
    """Stage executor that spreads kernel launches over a device pool.

    Plugs into :meth:`HmmsearchPipeline.search` via its ``executor``
    hook: each accelerated stage's database is residue-balanced across
    the pool's (at most ``len(database)``) devices, each shard is
    length-sorted before scoring, and scores are merged back into
    database order.  Per-device work lands on the pool's slots; merged
    kernel counters land in the pipeline's per-stage counter.

    With a ``tracer``, every dispatch records a ``schedule`` span and
    :func:`run_multi_gpu` adds the per-device ``shard`` and ``kernel``
    spans beneath it.

    Slot accounting stays coherent even when a launch aborts mid-stage:
    every checked-out slot is released on the way out, and failed stage
    launches are counted separately from completed ones.
    """

    def __init__(
        self,
        pool: DevicePool,
        sort_chunks: bool = True,
        tracer=None,
        deadline: Deadline | None = None,
    ) -> None:
        self.pool = pool
        self.sort_chunks = sort_chunks
        self.tracer = tracer
        self.deadline = deadline
        self.stage_dispatches = 0
        self.failed_dispatches = 0

    def score_stage(
        self, name, kernel, profile, database, *, config, counters=None
    ):
        if self.deadline is not None:
            self.deadline.check(f"stage {name} entry")
        slots = self.pool.active_slots(len(database))
        with span(
            self.tracer, f"dispatch:{name}", "schedule",
            stage=name, devices=len(slots), pool=self.pool.name,
        ):
            try:
                # checkout claims every device up front; an armed fault
                # aborts the whole stage launch before any chunk is scored
                specs = [slot.checkout() for slot in slots]
                run = run_multi_gpu(
                    kernel,
                    profile,
                    database,
                    devices=specs,
                    sort_chunks=self.sort_chunks,
                    config=config,
                    tracer=self.tracer,
                    stage=name,
                )
                for slot, c, n_res, n_seq in zip(
                    slots, run.device_counters, run.chunk_residues,
                    run.chunk_sequences,
                ):
                    slot.record(n_seq, n_res, c)
                    if counters is not None:
                        counters.merge(c)
                self.stage_dispatches += 1
                return run.scores
            except Exception:
                self.failed_dispatches += 1
                raise
            finally:
                for slot in slots:
                    slot.release()


class Scheduler:
    """Synchronous scheduling core: pop, execute, record, repeat."""

    def __init__(
        self,
        pool: DevicePool | None = None,
        cache: PipelineCache | None = None,
        metrics: MetricsRegistry | None = None,
        options: SearchOptions | None = None,
        clock: Callable[[], float] = time.perf_counter,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        journal: DurableRunJournal | None = None,
        admission=None,
        watchdog: ShardWatchdog | None = None,
        timeline: VirtualClock | None = None,
    ) -> None:
        # explicit None checks: an empty PipelineCache is falsy (__len__)
        self.pool = pool if pool is not None else DevicePool.heterogeneous()
        self.cache = cache if cache is not None else PipelineCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.attach(self.pool, self.cache)
        # one options object configures every job this scheduler runs
        self.options = options if options is not None else SearchOptions()
        self.clock = clock
        # an explicit plan wins; otherwise REPRO_FAULT_SEED may arm a
        # global chaos plan (the CI chaos job's hook)
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self.retry_policy = retry_policy
        self.journal = journal
        # overload protection: the shared virtual timeline (backoffs and
        # injected stalls advance it; honest work is free), the
        # hung-shard watchdog, and the optional admission controller
        self.timeline = timeline if timeline is not None else VirtualClock()
        self.watchdog = watchdog if watchdog is not None else ShardWatchdog()
        self.admission = admission
        if admission is not None:
            self.metrics.attach_admission(admission)

    @property
    def durable(self) -> bool:
        """Whether a WAL v2 journal checkpoints shard-granular progress."""
        return self.journal is not None

    @property
    def resilient(self) -> bool:
        """Whether GPU stages dispatch through the resilient executor.

        A durable journal forces the resilient path even without a fault
        plan: shard-granular checkpoint/resume lives in
        :class:`ResilientExecutor`, and its shard boundaries are the
        journal's crash-consistent epochs.
        """
        return (
            self.fault_plan is not None
            or self.retry_policy is not None
            or self.durable
        )

    def _executor(
        self,
        job: SearchJob,
        deadline: Deadline | None = None,
        tracer=None,
    ):
        if self.resilient:
            checkpoint = None
            if self.durable:
                checkpoint = ShardCheckpoint(
                    self.journal, job.job_id,
                    job_fingerprint(job.hmm, job.database, job.engine),
                )
            return ResilientExecutor(
                self.pool,
                plan=self.fault_plan,
                policy=self.retry_policy or RetryPolicy(),
                stats=self.metrics.resilience,
                job_id=job.job_id,
                tracer=tracer,
                sleep=self.timeline.sleep,
                clock=self.timeline.now,
                watchdog=self.watchdog,
                deadline=deadline,
                checkpoint=checkpoint,
            )
        return PoolExecutor(self.pool, tracer=tracer, deadline=deadline)

    def run(self, queue: JobQueue) -> list[SearchJob]:
        """Drain the queue; returns the jobs in execution order.

        With a journal attached, jobs already checkpointed as done are
        resumed - marked DONE and recorded as resumed, never recomputed.
        """
        executed: list[SearchJob] = []
        while (job := queue.pop()) is not None:
            entry = (
                self.journal.completed(job.job_id)
                if self.journal is not None
                else None
            )
            if entry is not None:
                entry = self._validated(job, entry)
            if entry is not None:
                self._resume(job, entry)
            else:
                self.execute(job)
            executed.append(job)
        return executed

    def _validated(self, job: SearchJob, entry: dict) -> dict | None:
        """Check a journaled job entry against the submission's content.

        WAL v2 entries carry the job's content fingerprint; an entry
        whose fingerprint no longer matches (edited manifest, swapped
        database, different engine) is *stale* - in salvage mode it is
        discarded and the job recomputed, in strict mode it raises a
        :class:`JournalCorruptError` naming the job.  ``record()`` always
        writes a fingerprint, so an entry without one is stale too.
        """
        recorded = entry.get("fingerprint") or ""
        current = job_fingerprint(job.hmm, job.database, job.engine)
        if recorded == current:
            return entry
        shown = recorded[:12] or "(none)"
        if not self.journal.policy.salvage:
            raise JournalCorruptError(
                f"journal entry for job {job.job_id} is stale: the "
                f"checkpointed submission fingerprint {shown} does "
                f"not match the current submission {current[:12]} (query "
                f"{job.hmm.name!r}, database {job.database.name!r}); "
                "recompute with the salvage policy or a fresh journal"
            )
        self.metrics.resilience.record(
            ResilienceEvent(
                kind="stale_checkpoint",
                stage="job",
                job_id=job.job_id,
                detail=(
                    f"fingerprint {shown} != {current[:12]}; "
                    "entry discarded, job recomputed"
                ),
            )
        )
        return None

    def _job_options(self, job: SearchJob) -> tuple[SearchOptions, list[str]]:
        """The effective options for one job, plus the optional work shed.

        The job's own options (if submitted with any) override the
        scheduler's, the engine comes from the job and the
        quarantine/tracer stay service-owned.  Under load the admission
        controller's :class:`~repro.service.admission.DegradationState`
        then sheds optional work in the documented order - selfcheck
        sampling, tracing, bench span export - and the record of what
        was actually shed rides back to the job's metrics record.
        """
        base = job.options if job.options is not None else self.options
        opts = replace(
            base,
            engine=job.engine,
            quarantine=self.metrics.quarantine,
            tracer=self.options.tracer,
        )
        shed: list[str] = []
        if self.admission is not None:
            for kind in self.admission.state.sheds:
                if kind == "selfcheck" and opts.selfcheck:
                    opts = replace(opts, selfcheck=0)
                    shed.append("selfcheck")
                elif kind == "tracing" and opts.tracer is not None:
                    opts = replace(opts, tracer=None)
                    shed.append("tracing")
                elif kind == "bench" and self.options.tracer is not None:
                    # span aggregation into bench histograms is skipped
                    shed.append("bench")
        return opts, shed

    def execute(self, job: SearchJob) -> SearchJob:
        """Run one job to completion (or failure), recording metrics."""
        job.state = JobState.RUNNING
        job.started_at = self.clock()
        misses_before = self.cache.misses
        q_before = len(self.metrics.quarantine)
        error: str | None = None
        diverged = 0
        deadline_expired = False
        executor = None
        opts, shed = self._job_options(job)
        tracer = opts.tracer
        # the deadline budget starts when execution starts (queueing is
        # free), measured on the shared virtual timeline: retry backoffs
        # and injected stalls consume it, honest work does not
        deadline = (
            Deadline(
                opts.deadline_ms / 1e3, self.timeline.now, label=job.job_id
            )
            if opts.deadline_ms is not None
            else None
        )
        with span(
            tracer, f"job:{job.job_id}", "job",
            job_id=job.job_id, query=job.hmm.name,
            database=job.database.name, engine=job.engine.value,
        ) as job_span:
            try:
                with span(tracer, "prepare", "schedule") as prep:
                    pipeline = self.cache.get(
                        job.hmm, job.settings, job.thresholds
                    )
                    cache_hit = self.cache.misses == misses_before
                    if prep is not None:
                        prep.tags["cache"] = "hit" if cache_hit else "miss"
                try:
                    job.attempts += 1
                    if job.engine.pooled:
                        # every stage shards through the device pool:
                        # the resilient executor owns retry/fallback
                        executor = self._executor(
                            job, deadline=deadline, tracer=tracer
                        )
                        results = pipeline.search(
                            job.database, opts, executor=executor,
                        )
                    else:
                        # non-pooled engines (cpu_sse, gpu_warp_batched,
                        # mp) score in-process under their own dispatch
                        results = pipeline.search(job.database, opts)
                except LaunchError as exc:
                    # device failed to launch: degrade to the CPU engine,
                    # which is bit-identical in scores (the resilient
                    # executor absorbs shard faults itself, so this is the
                    # legacy whole-job path)
                    error = str(exc)
                    job.attempts += 1
                    job.fallback_engine = resolve("cpu_sse")
                    results = pipeline.search(
                        job.database,
                        replace(opts, engine=job.fallback_engine),
                    )
                job.results = results
                job.state = JobState.DONE
            except DivergenceError as exc:
                # strict-policy oracle failure: the engines disagreed; fail
                # fast and count the divergence so the exit code can tell
                # "wrong results" apart from ordinary job failures
                cache_hit = self.cache.misses == misses_before
                error = str(exc)
                diverged = 1
                job.state = JobState.FAILED
            except DeadlineExceeded as exc:
                # the job's deadline_ms budget ran out: terminal, not a
                # transient - counted separately so operators (and exit
                # code 5) can tell timeouts from ordinary failures
                cache_hit = self.cache.misses == misses_before
                error = str(exc)
                deadline_expired = True
                job.state = JobState.FAILED
            except ReproError as exc:
                cache_hit = self.cache.misses == misses_before
                error = str(exc)
                job.state = JobState.FAILED
            if job_span is not None:
                job_span.tags["state"] = job.state.value
        job.error = error
        job.finished_at = self.clock()
        record = self._record(job, cache_hit)
        record.quarantined = len(self.metrics.quarantine) - q_before
        record.divergences += diverged
        record.deadline_expired = deadline_expired
        record.shed = shed
        if executor is not None:
            record.resumed_units = getattr(executor, "resumed_units", 0)
            record.recomputed_units = getattr(executor, "recomputed_units", 0)
        self.metrics.record_job(record)
        if job_span is not None and "bench" not in shed:
            self.metrics.observe_job_span(job_span)
        if self.journal is not None and job.state is JobState.DONE:
            self.journal.record(job)
        if self.admission is not None:
            self.admission.complete(job.estimate)
        return job

    def _resume(self, job: SearchJob, entry: dict) -> SearchJob:
        """Restore a journaled job without recomputing it."""
        if self.admission is not None:
            self.admission.complete(job.estimate)
        job.state = JobState.DONE
        job.resumed = True
        job.started_at = self.clock()
        job.finished_at = job.started_at
        self.metrics.resilience.record(
            ResilienceEvent(
                kind="resume",
                stage="job",
                job_id=job.job_id,
                detail=f"digest {entry.get('digest', '')[:12]}",
            )
        )
        self.metrics.record_job(
            JobRecord(
                job_id=job.job_id,
                query=job.hmm.name,
                database=job.database.name,
                engine=job.engine.value,
                effective_engine=entry.get(
                    "effective_engine", job.engine.value
                ),
                state=JobState.DONE.value,
                n_targets=int(entry.get("n_targets", 0)),
                n_hits=int(entry.get("n_hits", 0)),
                attempts=0,
                resumed=True,
            )
        )
        return job

    def _record(self, job: SearchJob, cache_hit: bool) -> JobRecord:
        results = job.results
        oracle = results.oracle if results is not None else None
        return JobRecord(
            job_id=job.job_id,
            query=job.hmm.name,
            database=job.database.name,
            engine=job.engine.value,
            effective_engine=job.effective_engine.value,
            state=job.state.value,
            n_targets=results.n_targets if results else 0,
            n_hits=len(results.hits) if results else 0,
            attempts=job.attempts,
            fell_back=job.fallback_engine is not None,
            resumed=job.resumed,
            cache_hit=cache_hit,
            queue_latency=job.queue_latency or 0.0,
            run_seconds=job.run_seconds or 0.0,
            stages=list(results.stages) if results else [],
            counters=dict(results.counters) if results else {},
            selfchecked=oracle.checked if oracle is not None else 0,
            divergences=len(oracle.divergences) if oracle is not None else 0,
            error=job.error,
        )
