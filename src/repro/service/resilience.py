"""Resilient shard dispatch: retry, re-partition, degrade, checkpoint.

PR 1's scheduler knew one trick: catch a :class:`LaunchError` around the
*whole* job and rerun it once on the CPU, discarding every completed GPU
shard.  This module replaces that with a shard-level degradation ladder
driven by a :class:`RetryPolicy`:

1. **Retry same device** - up to ``max_device_retries`` times with
   exponential backoff and deterministic jitter, under a per-job
   ``retry_budget``.
2. **Re-partition** - the failed chunk alone is residue-split across the
   surviving devices; completed shards are never recomputed.
3. **CPU fallback for the residual shard only** - the reference batch
   scorer finishes what no device could (scores are bit-identical by
   the paper's accuracy-preservation property).

Failures feed the :class:`~repro.service.devices.DeviceSlot` health
state machine (healthy -> degraded -> quarantined with exponentially
growing cooldowns and reintegration probes), every recovery step lands
in a deterministic :class:`~repro.service.faults.ResilienceEvent` log,
and :func:`result_digest` fingerprints each job's hits for the WAL v2
journal (:mod:`repro.service.wal`), so a killed batch run resumes
without recomputing finished work.

The invariant all of this preserves: faults may change throughput
accounting, device health and the event log - they never change the
reported hits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cpu.msv_reference import msv_score_batch
from ..cpu.results import FilterScores
from ..cpu.viterbi_reference import viterbi_score_batch
from ..errors import (
    DeadlineError,
    DeadlineExceeded,
    KernelError,
    LaunchError,
    PipelineError,
    ShardIntegrityError,
    SlowShardError,
)
from ..gpu.counters import KernelCounters
from ..gpu.multi_gpu import score_chunk
from ..obs.profiling import kernel_tags, record_kernel_counters
from ..obs.span import span
from ..sequence.database import SequenceDatabase
from .devices import DeviceHealth, DevicePool
from .faults import FaultKind, FaultPlan, ResilienceEvent
from .watchdog import Deadline, ShardWatchdog

__all__ = ["RetryPolicy", "ResilientExecutor", "result_digest"]

# Transient shard failures the degradation ladder absorbs.  Anything
# else (a programming error, an invalid profile) propagates unchanged.
TRANSIENT_FAULTS = (LaunchError, KernelError, DeadlineError, ShardIntegrityError)

# Deterministic score perturbation applied by an injected CORRUPT fault:
# every score is biased and every overflow flag flipped, so the shard
# checksum probe detects the corruption no matter which rows it samples.
_CORRUPTION_BIAS = 3.25

_FAULT_BY_ERROR = {
    LaunchError: FaultKind.LAUNCH.value,
    KernelError: FaultKind.KERNEL.value,
    DeadlineError: FaultKind.HANG.value,
    SlowShardError: FaultKind.SLOW.value,
    ShardIntegrityError: FaultKind.CORRUPT.value,
}

# An injected SLOW fault stalls the shard this far past its watchdog
# budget, so the watchdog always cancels it (the margin keeps the test
# signal unambiguous against float comparison).
_SLOW_STALL_FACTOR = 1.25

# Reference scorers used for shard- and stage-level CPU fallback; the
# stage name is the executor-hook contract with HmmsearchPipeline.
_CPU_STAGE_SCORERS: dict[str, Callable[..., FilterScores]] = {
    "msv": msv_score_batch,
    "p7viterbi": viterbi_score_batch,
}


def _reference_scorer(name: str) -> Callable[..., FilterScores]:
    scorer = _CPU_STAGE_SCORERS.get(name)
    if scorer is None:
        raise PipelineError(f"no CPU reference scorer for stage {name!r}")
    return scorer


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the degradation ladder and the device health machine.

    Backoff for retry ``k`` (1-based) is
    ``backoff_base * backoff_multiplier**(k-1)`` scaled by a
    deterministic jitter in ``[1, 1 + backoff_jitter)`` derived from
    ``(seed, key, attempt)`` - no wall clock, no shared RNG state, so
    identical runs log identical backoffs.
    """

    max_device_retries: int = 2      # same-device retries per shard
    retry_budget: int = 8            # total retries per job (all stages)
    backoff_base: float = 0.05       # seconds before the first retry
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.25     # max fractional jitter on top
    stage_deadline: float = 30.0     # watchdog deadline (simulated seconds)
    quarantine_after: int = 3        # consecutive strikes -> quarantine
    cooldown: int = 4                # quarantine cooldown, in pool ticks
    cooldown_multiplier: float = 2.0
    verify_shards: bool = True       # checksum-probe every GPU shard
    seed: int = 0                    # jitter seed

    def __post_init__(self) -> None:
        if self.max_device_retries < 0:
            raise PipelineError("max_device_retries must be >= 0")
        if self.retry_budget < 0:
            raise PipelineError("retry_budget must be >= 0")
        if self.backoff_base < 0 or self.backoff_jitter < 0:
            raise PipelineError("backoff parameters must be non-negative")
        if self.quarantine_after < 1:
            raise PipelineError("quarantine_after must be >= 1")

    def backoff_seconds(self, attempt: int, key: str) -> float:
        """Deterministically jittered exponential backoff for a retry."""
        base = self.backoff_base * self.backoff_multiplier ** max(
            0, attempt - 1
        )
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.backoff_jitter * frac)


class ResilientExecutor:
    """Stage executor with per-shard fault recovery.

    Drop-in for :class:`~repro.service.scheduler.PoolExecutor` via the
    pipeline's ``executor`` hook, but each device's shard is attempted,
    verified and - on transient failure - retried, re-partitioned or
    CPU-degraded *independently*, so one bad device no longer discards
    the whole stage.  Injected faults come from an optional
    :class:`~repro.service.faults.FaultPlan`; armed slot faults
    (:meth:`DeviceSlot.inject_fault`) are absorbed by the same ladder.

    ``sleep`` is the backoff *and stall* actuator and ``clock`` the
    matching monotonic timebase; both default to ``None`` (record
    computed delays in the event log without sleeping) so tests and the
    simulated service stay fast and deterministic.  The scheduler wires
    them to its shared virtual timeline
    (:class:`~repro.service.watchdog.VirtualClock`), on which injected
    hangs, slow-shard stalls and retry backoffs all consume a ``deadline``
    budget while honest work is free - matching the cost model's frame
    of reference (modelled device seconds, not Python wall time).

    The hung-shard ``watchdog`` is always armed (pass your own to tune
    the multiplier): every shard's elapsed timeline seconds are compared
    against ``k x`` its cost-model prediction, and an over-budget shard
    is cancelled with :class:`~repro.errors.SlowShardError` - a
    transient fault the ladder absorbs like any other.
    """

    def __init__(
        self,
        pool: DevicePool,
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        stats=None,
        job_id: str | None = None,
        sort_chunks: bool = True,
        sleep: Callable[[float], None] | None = None,
        tracer=None,
        clock: Callable[[], float] | None = None,
        watchdog: ShardWatchdog | None = None,
        deadline: Deadline | None = None,
        checkpoint=None,
    ) -> None:
        self.pool = pool
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = stats
        self.job_id = job_id
        self.sort_chunks = sort_chunks
        self.sleep = sleep
        self.tracer = tracer
        self.clock = clock
        self.watchdog = watchdog if watchdog is not None else ShardWatchdog()
        self.deadline = deadline
        self.checkpoint = checkpoint  # ShardCheckpoint | None
        self.stage_dispatches = 0
        self.failed_dispatches = 0
        self.retries_left = self.policy.retry_budget
        self.resumed_units = 0       # shards served from the journal
        self.recomputed_units = 0    # shards executed live under a journal

    # -- event log -----------------------------------------------------------

    def _emit(self, kind: str, **kw) -> ResilienceEvent:
        event = ResilienceEvent(kind=kind, job_id=self.job_id, **kw)
        if self.stats is not None:
            self.stats.record(event)
        return event

    # -- the executor hook ---------------------------------------------------

    def score_stage(
        self, name, kernel, profile, database, *, config, counters=None
    ):
        if self.deadline is not None:
            self.deadline.check(f"stage {name} entry")
        self.pool.advance()
        slots = self.pool.serviceable_slots(len(database))
        n = len(database)
        scores = np.empty(n, dtype=np.float64)
        overflowed = np.empty(n, dtype=bool)
        with span(
            self.tracer, f"dispatch:{name}", "schedule",
            stage=name, devices=len(slots), pool=self.pool.name,
        ):
            if not slots:
                # every device quarantined and cooling down: the stage
                # itself degrades to the reference scorer (checkpointed
                # as a single stage-wide unit)
                self._emit(
                    "cpu_stage", stage=name,
                    detail=f"all {self.pool.size} devices quarantined",
                )
                part = self._checkpointed(
                    name, profile, database,
                    lambda: self._cpu_scores(name, profile, database),
                )
                scores[:] = part.scores
                overflowed[:] = part.overflowed
                self.stage_dispatches += 1
                return FilterScores(scores=scores, overflowed=overflowed)
            chunks = database.chunk_by_residues(len(slots))
            offset = 0
            for shard_no, (chunk, slot) in enumerate(zip(chunks, slots)):
                if self.deadline is not None:
                    self.deadline.check(f"{name} shard {shard_no}")
                with span(
                    self.tracer, f"shard{shard_no}", "shard",
                    device=slot.spec.name, stage=name,
                ) as sh:
                    part = self._checkpointed(
                        name, profile, chunk,
                        lambda: self._score_shard(
                            name, kernel, profile, chunk, slot, config,
                            counters, peers=slots,
                        ),
                    )
                    if sh is not None:
                        sh.count(
                            sequences=len(chunk),
                            residues=chunk.total_residues,
                        )
                m = len(chunk)
                scores[offset : offset + m] = part.scores
                overflowed[offset : offset + m] = part.overflowed
                offset += m
            self.stage_dispatches += 1
        return FilterScores(scores=scores, overflowed=overflowed)

    # -- shard-granular checkpointing ----------------------------------------

    def _checkpointed(
        self, name, profile, chunk, compute: Callable[[], FilterScores]
    ) -> FilterScores:
        """Serve one work unit from the journal, or run it and journal it.

        A journal hit is *exactly-once resume*: the stored bit-exact
        scores are returned without touching a device, and the unit is
        never re-recorded (so the journal's duplicate counter stays
        zero).  A miss runs ``compute`` - the full degradation ladder -
        and durably commits the result before the stage moves on, which
        makes every shard boundary a crash-consistent journal epoch.
        """
        if self.checkpoint is None:
            return compute()
        key = self.checkpoint.shard_key(name, profile, chunk)
        part = self.checkpoint.lookup(key, len(chunk))
        if part is not None:
            self.resumed_units += 1
            self._emit(
                "resume_shard", stage=name,
                detail=(
                    f"shard of {len(chunk)} restored from the journal "
                    f"(key {key[:12]})"
                ),
            )
            return part
        part = compute()
        self.recomputed_units += 1
        self.checkpoint.commit(key, name, part)
        return part

    # -- the degradation ladder ----------------------------------------------

    def _score_shard(
        self, name, kernel, profile, chunk, slot, config, counters,
        peers, allow_repartition: bool = True,
    ) -> FilterScores:
        if slot.health is DeviceHealth.QUARANTINED:
            self._emit(
                "probe", stage=name, device=slot.index,
                detail=f"reintegration probe after quarantine "
                       f"#{slot.quarantines}",
            )
        attempt = 0
        while True:
            attempt += 1
            try:
                part = self._attempt(
                    name, kernel, profile, chunk, slot, config, counters
                )
            except TRANSIENT_FAULTS as exc:
                fault = _FAULT_BY_ERROR.get(type(exc), "launch")
                self._emit(
                    "fault", stage=name, device=slot.index,
                    attempt=attempt, fault=fault, detail=str(exc),
                )
                quarantined = slot.mark_failure(
                    self.pool.tick,
                    quarantine_after=self.policy.quarantine_after,
                    cooldown=self.policy.cooldown,
                    cooldown_multiplier=self.policy.cooldown_multiplier,
                )
                if quarantined:
                    self._emit(
                        "quarantine", stage=name, device=slot.index,
                        detail=f"cooldown until tick {slot.cooldown_until}",
                    )
                if (
                    not quarantined
                    and attempt <= self.policy.max_device_retries
                    and self.retries_left > 0
                ):
                    self.retries_left -= 1
                    delay = self.policy.backoff_seconds(
                        attempt, key=f"{self.job_id}:{name}:{slot.index}"
                    )
                    if (
                        self.deadline is not None
                        and delay > self.deadline.remaining()
                    ):
                        # fail fast: the backoff alone would sleep past
                        # the job's deadline - no point burning a retry
                        self._emit(
                            "deadline", stage=name, device=slot.index,
                            attempt=attempt, backoff=delay,
                            detail=(
                                f"backoff {delay:.4f}s exceeds remaining "
                                f"budget {self.deadline.remaining():.4f}s"
                            ),
                        )
                        raise DeadlineExceeded(
                            f"job {self.job_id or ''} deadline: the "
                            f"{delay:.4f}s retry backoff for {name} on "
                            f"device {slot.index} exceeds the remaining "
                            f"{self.deadline.remaining():.4f}s budget"
                        ) from exc
                    self._emit(
                        "retry", stage=name, device=slot.index,
                        attempt=attempt, backoff=delay,
                    )
                    if self.sleep is not None:
                        self.sleep(delay)
                    if self.deadline is not None:
                        self.deadline.check(f"{name} retry backoff")
                    continue
                return self._escalate(
                    name, kernel, profile, chunk, slot, config, counters,
                    peers, allow_repartition,
                )
            if slot.mark_success():
                self._emit(
                    "reintegrate", stage=name, device=slot.index,
                    detail="probe succeeded, device healthy again",
                )
            return part

    def _shard_budget(self, name, profile, chunk, spec) -> float:
        """The watchdog's cancel threshold (= detection period) for a shard."""
        return self.watchdog.budget(
            name, getattr(profile, "M", 0),
            chunk.total_residues, len(chunk), spec,
        )

    def _attempt(
        self, name, kernel, profile, chunk, slot, config, counters
    ) -> FilterScores:
        spec = slot.checkout()
        try:
            fault = self.plan.draw(slot.index) if self.plan is not None else None
            if fault is FaultKind.LAUNCH:
                raise LaunchError(
                    f"injected launch failure on device {slot.index} "
                    f"({spec.name})"
                )
            if fault is FaultKind.HANG:
                # the simulated device stopped responding; detection
                # costs one watchdog period of timeline before the
                # stage watchdog trips its deadline
                if self.sleep is not None:
                    self.sleep(self._shard_budget(name, profile, chunk, spec))
                raise DeadlineError(
                    f"device {slot.index} ({spec.name}) exceeded the "
                    f"{self.policy.stage_deadline:g}s stage deadline "
                    "(simulated hang)"
                )
            if fault is FaultKind.KERNEL:
                raise KernelError(
                    f"transient kernel fault injected on device {slot.index}"
                )
            started = self.clock() if self.clock is not None else None
            stall = 0.0
            if fault is FaultKind.SLOW:
                # the shard will complete, but only after stalling past
                # its cost-model budget; the watchdog below cancels it
                stall = _SLOW_STALL_FACTOR * self._shard_budget(
                    name, profile, chunk, spec
                )
                if self.sleep is not None:
                    self.sleep(stall)
            c = KernelCounters()
            with span(
                self.tracer, f"{name}@{spec.name}", "kernel",
                **kernel_tags(
                    name, getattr(profile, "M", 0), config, spec
                ),
            ) as ks:
                part = score_chunk(
                    kernel, profile, chunk, spec,
                    sort=self.sort_chunks, counters=c, config=config,
                )
                record_kernel_counters(ks, c)
            if fault is FaultKind.CORRUPT:
                part = FilterScores(
                    scores=part.scores + _CORRUPTION_BIAS,
                    overflowed=~part.overflowed,
                )
            # hung-shard watchdog: elapsed *timeline* seconds (injected
            # stalls and backoff sleeps; honest work is free) against
            # k x the cost-model prediction.  An over-budget shard is
            # cancelled even though it technically completed.
            elapsed = (
                self.clock() - started if started is not None else stall
            )
            self.watchdog.observe(
                name, getattr(profile, "M", 0),
                chunk.total_residues, len(chunk), spec,
                elapsed, device_index=slot.index,
            )
            if self.policy.verify_shards:
                self._verify_shard(name, profile, chunk, part, slot)
            slot.record(len(chunk), chunk.total_residues, c)
            if counters is not None:
                counters.merge(c)
            return part
        finally:
            slot.release()

    def _verify_shard(self, name, profile, chunk, part, slot) -> None:
        """Cheap shard checksum: score a 3-row probe on the CPU and compare.

        Every engine is bit-identical to the stage's reference scorer and
        scores sequences independently, so an honest shard reproduces the
        reference on its probe rows exactly; a corrupted shard (scores
        biased, overflow flags flipped) or a deterministic but wrong
        kernel cannot - a second launch of the same kernel would agree
        with the latter.
        """
        n = len(chunk)
        idx = sorted({0, n // 2, n - 1})
        probe = _reference_scorer(name)(profile, chunk.subset(idx))
        if not np.array_equal(probe.scores, part.scores[idx]) or not (
            np.array_equal(probe.overflowed, part.overflowed[idx])
        ):
            raise ShardIntegrityError(
                f"shard checksum mismatch on device {slot.index}: "
                f"reference probe rows {idx} disagree with the "
                "returned scores"
            )

    def _escalate(
        self, name, kernel, profile, chunk, slot, config, counters,
        peers, allow_repartition,
    ) -> FilterScores:
        if allow_repartition:
            survivors = [
                s for s in peers
                if s is not slot and s.available(self.pool.tick)
            ]
            if survivors:
                k = min(len(survivors), len(chunk))
                self._emit(
                    "repartition", stage=name, device=slot.index,
                    detail=(
                        f"chunk of {len(chunk)} re-split across "
                        f"{k} surviving device(s)"
                    ),
                )
                parts = [
                    self._score_shard(
                        name, kernel, profile, sub, peer, config, counters,
                        peers, allow_repartition=False,
                    )
                    for sub, peer in zip(
                        chunk.chunk_by_residues(k), survivors
                    )
                ]
                return FilterScores(
                    scores=np.concatenate([p.scores for p in parts]),
                    overflowed=np.concatenate([p.overflowed for p in parts]),
                )
        self._emit(
            "cpu_fallback", stage=name, device=slot.index,
            detail=f"residual shard of {len(chunk)} scored on the CPU",
        )
        return self._cpu_scores(name, profile, chunk)

    def _cpu_scores(
        self, name: str, profile, database: SequenceDatabase
    ) -> FilterScores:
        scorer = _reference_scorer(name)
        with span(
            self.tracer, f"{name}@cpu_fallback", "kernel",
            stage=name, engine="cpu_sse",
        ) as ks:
            part = scorer(profile, database)
            if ks is not None:
                ks.count(
                    rows=database.total_residues, sequences=len(database)
                )
        return part


# -- checkpoint / resume -----------------------------------------------------


def result_digest(results) -> str:
    """Stable digest of a job's reported hits (names, E-values, targets).

    Two runs that report the same hits - the resilience invariant -
    produce the same digest, making journals diffable across chaos and
    fault-free runs.
    """
    h = hashlib.sha256()
    h.update(str(results.n_targets).encode())
    for hit in results.hits:
        h.update(hit.name.encode())
        h.update(np.float64(hit.evalue).tobytes())
    return h.hexdigest()
