"""Resilient dispatch: deterministic faults, the degradation ladder,
device quarantine, and batch checkpoint/resume.

The invariant every test here pins: injected faults may change retry
counts, device health and the event log - they never change the
reported hits.
"""

import numpy as np
import pytest

from repro import sample_hmm
from repro.cpu.results import FilterScores
from repro.errors import LaunchError, PipelineError, ShardIntegrityError
from repro.gpu import KEPLER_K40
from repro.gpu.counters import KernelCounters
from repro.gpu.multi_gpu import score_chunk
from repro.hardening import SALVAGE, STRICT
from repro.hmm import SearchProfile
from repro.kernels import msv_warp_kernel
from repro.kernels.memconfig import MemoryConfig
from repro.scoring import MSVByteProfile
from repro.sequence import (
    DigitalSequence,
    SequenceDatabase,
    random_sequence_codes,
)
from repro.service import (
    BatchSearchService,
    DurableRunJournal,
    DeviceHealth,
    DevicePool,
    FaultKind,
    FaultPlan,
    FaultSpec,
    JobState,
    PipelineSettings,
    ResilientExecutor,
    RetryPolicy,
    Scheduler,
    result_digest,
)

SETTINGS = PipelineSettings(
    L=90, calibration_filter_sample=80, calibration_forward_sample=25
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(33)
    hmm = sample_hmm(30, rng, name="resilfam")
    seqs = [
        DigitalSequence(f"t{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(40, 150, size=24))
    ]
    seqs.append(DigitalSequence("hom", hmm.sample_sequence(rng)))
    return hmm, SequenceDatabase(seqs)


@pytest.fixture(scope="module")
def baseline(workload):
    """Fault-free reference hits (explicit empty plan defeats any
    REPRO_FAULT_SEED armed in the environment)."""
    hmm, db = workload
    service = BatchSearchService(
        pool=DevicePool.homogeneous(count=2), fault_plan=FaultPlan([])
    )
    job = service.submit(hmm, db, settings=SETTINGS)
    service.run()
    assert job.state is JobState.DONE
    return job.results


def assert_same_hits(results, reference):
    assert results.hit_names() == reference.hit_names()
    assert [h.evalue for h in results.hits] == [
        h.evalue for h in reference.hits
    ]


class TestFaultPlan:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(99, n_faults=6, n_devices=4)
        b = FaultPlan.seeded(99, n_faults=6, n_devices=4)
        assert [f.to_dict() for f in a.faults] == [
            f.to_dict() for f in b.faults
        ]
        assert a.seed == 99 and len(a) == 6

    def test_seeded_plans_respect_min_spacing(self):
        plan = FaultPlan.seeded(3, n_faults=12, n_devices=3, min_spacing=3)
        by_device = {}
        for f in plan.faults:
            by_device.setdefault(f.device, []).append(f.dispatch)
        for ticks in by_device.values():
            assert all(
                b - a >= 3 for a, b in zip(ticks, sorted(ticks)[1:])
            )

    def test_duplicate_arming_rejected(self):
        with pytest.raises(LaunchError, match="twice"):
            FaultPlan(
                [
                    FaultSpec(0, 1, FaultKind.LAUNCH),
                    FaultSpec(0, 1, FaultKind.KERNEL),
                ]
            )

    def test_draw_advances_cursor_and_records_fired(self):
        plan = FaultPlan([FaultSpec(0, 1, FaultKind.KERNEL)])
        assert plan.draw(0) is None                  # tick 0: clean
        assert plan.draw(1) is None                  # other device
        assert plan.draw(0) is FaultKind.KERNEL      # tick 1: armed
        assert plan.fired_count == 1 and plan.remaining == 0
        plan.reset()
        assert plan.fired_count == 0
        assert plan.draw(0) is None and plan.draw(0) is FaultKind.KERNEL

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULT_SEED": ""}) is None
        plan = FaultPlan.from_env(
            {"REPRO_FAULT_SEED": "7", "REPRO_FAULT_COUNT": "5"}
        )
        assert plan is not None and plan.seed == 7 and len(plan) == 5

    def test_describe_lists_armed_faults(self):
        plan = FaultPlan([FaultSpec(2, 4, FaultKind.HANG)], seed=1)
        text = plan.describe()
        assert "dev2 dispatch 4: hang" in text and "seed=1" in text

    def test_scheduler_arms_global_plan_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        sched = Scheduler(pool=DevicePool.homogeneous(count=2))
        assert sched.resilient and sched.fault_plan.seed == 9
        monkeypatch.delenv("REPRO_FAULT_SEED")
        assert not Scheduler(pool=DevicePool.homogeneous(count=2)).resilient


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows(self):
        p = RetryPolicy()
        assert p.backoff_seconds(1, "k") == p.backoff_seconds(1, "k")
        assert p.backoff_seconds(1, "k") != p.backoff_seconds(1, "other")
        assert p.backoff_seconds(2, "k") > p.backoff_seconds(1, "k")
        base = p.backoff_seconds(1, "k")
        assert p.backoff_base <= base <= p.backoff_base * (
            1 + p.backoff_jitter
        )

    def test_validation(self):
        with pytest.raises(PipelineError):
            RetryPolicy(max_device_retries=-1)
        with pytest.raises(PipelineError):
            RetryPolicy(retry_budget=-1)
        with pytest.raises(PipelineError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(PipelineError):
            RetryPolicy(quarantine_after=0)


def run_with_plan(workload, plan, pool=None, policy=None, n_jobs=1):
    hmm, db = workload
    service = BatchSearchService(
        pool=pool if pool is not None else DevicePool.homogeneous(count=2),
        fault_plan=plan,
        retry_policy=policy,
    )
    jobs = [service.submit(hmm, db, settings=SETTINGS) for _ in range(n_jobs)]
    service.run()
    return service, jobs


class TestDegradationLadder:
    def test_transient_fault_retries_on_device(self, workload, baseline):
        plan = FaultPlan([FaultSpec(0, 0, FaultKind.KERNEL)])
        service, (job,) = run_with_plan(workload, plan)
        stats = service.metrics.resilience
        assert job.state is JobState.DONE
        assert job.fallback_engine is None       # no whole-job fallback
        assert stats.total_faults == 1
        assert stats.total_retries == 1
        assert stats.repartitions == 0 and stats.cpu_shard_fallbacks == 0
        assert service.pool.slots[0].health is DeviceHealth.HEALTHY
        assert service.pool.slots[0].failures == 1
        assert_same_hits(job.results, baseline)

    def test_exhausted_retries_repartition_and_quarantine(
        self, workload, baseline
    ):
        # three back-to-back faults on dev0: two on-device retries, then
        # the third strike quarantines it and the chunk re-splits onto
        # the surviving device
        plan = FaultPlan(
            [
                FaultSpec(0, 0, FaultKind.KERNEL),
                FaultSpec(0, 1, FaultKind.LAUNCH),
                FaultSpec(0, 2, FaultKind.HANG),
            ]
        )
        service, (job,) = run_with_plan(workload, plan)
        stats = service.metrics.resilience
        assert job.state is JobState.DONE
        assert stats.total_faults == 3
        assert stats.total_retries == 2
        assert stats.retry_histogram == {1: 1, 2: 1}
        assert stats.repartitions == 1
        assert stats.quarantines == 1
        assert stats.fault_responses == stats.total_faults
        assert service.pool.slots[0].health is DeviceHealth.QUARANTINED
        assert [e.kind for e in stats.events if e.stage == "msv"] == [
            "fault", "retry", "fault", "retry", "fault",
            "quarantine", "repartition",
        ]
        assert_same_hits(job.results, baseline)

    def test_single_device_falls_back_to_cpu_shard(self, workload, baseline):
        plan = FaultPlan(
            [FaultSpec(0, t, FaultKind.KERNEL) for t in range(3)]
        )
        service, (job,) = run_with_plan(
            workload, plan, pool=DevicePool.homogeneous(count=1)
        )
        stats = service.metrics.resilience
        assert job.state is JobState.DONE
        assert stats.cpu_shard_fallbacks == 1    # no survivors to re-split
        assert stats.repartitions == 0
        assert stats.fault_responses == stats.total_faults == 3
        assert_same_hits(job.results, baseline)

    def test_all_quarantined_stage_degrades_to_cpu(self, workload, baseline):
        pool = DevicePool.homogeneous(count=2)
        for slot in pool.slots:
            slot.health = DeviceHealth.QUARANTINED
            slot.cooldown_until = 10_000
        service, (job,) = run_with_plan(workload, FaultPlan([]), pool=pool)
        stats = service.metrics.resilience
        assert job.state is JobState.DONE
        assert stats.cpu_stage_fallbacks >= 1
        assert stats.total_faults == 0           # not a fault response
        assert_same_hits(job.results, baseline)

    def test_quarantined_device_is_probed_and_reintegrated(
        self, workload, baseline
    ):
        plan = FaultPlan(
            [FaultSpec(0, t, FaultKind.KERNEL) for t in range(3)]
        )
        service, jobs = run_with_plan(
            workload,
            plan,
            policy=RetryPolicy(cooldown=1),
            n_jobs=2,
        )
        stats = service.metrics.resilience
        assert all(j.state is JobState.DONE for j in jobs)
        assert stats.quarantines == 1
        assert stats.probes >= 1
        assert stats.reintegrations >= 1
        assert service.pool.slots[0].health is DeviceHealth.HEALTHY
        for job in jobs:
            assert_same_hits(job.results, baseline)

    def test_corrupted_shard_is_detected_and_retried(self, workload, baseline):
        plan = FaultPlan([FaultSpec(1, 0, FaultKind.CORRUPT)])
        service, (job,) = run_with_plan(workload, plan)
        stats = service.metrics.resilience
        assert stats.fault_counts == {"corrupt": 1}
        assert stats.total_retries == 1
        assert any(
            "checksum mismatch" in e.detail
            for e in stats.events
            if e.kind == "fault"
        )
        assert_same_hits(job.results, baseline)

    def test_hang_trips_the_stage_deadline(self, workload, baseline):
        plan = FaultPlan([FaultSpec(0, 0, FaultKind.HANG)])
        service, (job,) = run_with_plan(workload, plan)
        stats = service.metrics.resilience
        assert stats.fault_counts == {"hang": 1}
        assert any(
            "deadline" in e.detail
            for e in stats.events
            if e.kind == "fault"
        )
        assert_same_hits(job.results, baseline)

    def test_zero_retry_budget_escalates_immediately(self, workload, baseline):
        plan = FaultPlan([FaultSpec(0, 0, FaultKind.KERNEL)])
        service, (job,) = run_with_plan(
            workload, plan, policy=RetryPolicy(retry_budget=0)
        )
        stats = service.metrics.resilience
        assert stats.total_retries == 0
        assert stats.repartitions == 1
        assert_same_hits(job.results, baseline)


class TestShardVerification:
    def test_verify_shard_accepts_honest_and_rejects_corrupt(self, workload):
        hmm, db = workload
        bp = MSVByteProfile.from_profile(SearchProfile(hmm, L=90))
        pool = DevicePool.homogeneous(count=1)
        ex = ResilientExecutor(pool, policy=RetryPolicy())
        part = score_chunk(
            msv_warp_kernel, bp, db, KEPLER_K40,
            sort=True, counters=KernelCounters(),
            config=MemoryConfig.SHARED,
        )
        ex._verify_shard("msv", bp, db, part, pool.slots[0])
        corrupted = FilterScores(
            scores=part.scores + 3.25, overflowed=~part.overflowed
        )
        with pytest.raises(ShardIntegrityError, match="checksum mismatch"):
            ex._verify_shard("msv", bp, db, corrupted, pool.slots[0])

    def test_wrong_kernel_fails_probe_and_degrades_to_cpu(
        self, workload, baseline, monkeypatch
    ):
        # deterministic but wrong: a probe that re-launches the kernel
        # agrees with it, the reference scorer does not
        import repro.kernels.msv_warp as msv_warp

        def off_by_one(profile, database, **kw):
            part = msv_warp_kernel(profile, database, **kw)
            return FilterScores(
                scores=part.scores + 1.0, overflowed=part.overflowed
            )

        monkeypatch.setattr(msv_warp, "msv_warp_kernel", off_by_one)
        service, (job,) = run_with_plan(workload, FaultPlan([]))
        stats = service.metrics.resilience
        assert job.state is JobState.DONE
        assert job.fallback_engine is None
        assert set(stats.fault_counts) == {"corrupt"}
        assert stats.cpu_shard_fallbacks >= 1
        msv_events = [e.kind for e in stats.events if e.stage == "msv"]
        assert msv_events[-1] == "cpu_fallback"
        assert_same_hits(job.results, baseline)


@pytest.mark.faults
class TestChaosEquivalence:
    """Any seeded plan yields hits identical to the fault-free run, and
    the recovery counters account for every injected fault."""

    @pytest.mark.parametrize("seed", [1, 7, 2026, 424242])
    def test_seeded_chaos_preserves_hits(self, workload, baseline, seed):
        plan = FaultPlan.seeded(seed, n_faults=5, n_devices=4)
        service, jobs = run_with_plan(
            workload, plan, pool=DevicePool.heterogeneous(2, 2), n_jobs=4
        )
        stats = service.metrics.resilience
        assert all(j.state is JobState.DONE for j in jobs)
        for job in jobs:
            assert_same_hits(job.results, baseline)
        # every fired fault is answered by exactly one recovery action
        assert stats.total_faults == plan.fired_count
        assert (
            stats.total_retries
            + stats.repartitions
            + stats.cpu_shard_fallbacks
            == stats.total_faults
        )

    def test_chaos_digest_matches_fault_free_digest(self, workload, baseline):
        plan = FaultPlan.seeded(11, n_faults=4, n_devices=2)
        _, (job,) = run_with_plan(workload, plan)
        assert result_digest(job.results) == result_digest(baseline)

    def test_event_log_is_deterministic(self, workload):
        logs = []
        for _ in range(2):
            plan = FaultPlan.seeded(5, n_faults=5, n_devices=2)
            service, _ = run_with_plan(workload, plan, n_jobs=3)
            logs.append(
                [e.to_dict() for e in service.metrics.resilience.events]
            )
        assert logs[0] == logs[1]
        assert any(e["kind"] == "fault" for e in logs[0])


class TestRunJournal:
    """Job-granular checkpoint/resume through the WAL v2 run journal."""

    def _submit_all(self, service, workload):
        hmm, db = workload
        return [
            service.submit(hmm, db, settings=SETTINGS, job_id=f"job-{i}")
            for i in range(3)
        ]

    def test_interrupted_batch_resumes_without_recomputing(
        self, tmp_path, workload
    ):
        path = tmp_path / "run.wal"
        first = BatchSearchService(
            pool=DevicePool.homogeneous(count=2),
            fault_plan=FaultPlan([]),
            journal=DurableRunJournal(path, resume=False, fsync=False),
        )
        self._submit_all(first, workload)
        # "crash" after two of three jobs
        first.scheduler.execute(first.queue.pop())
        first.scheduler.execute(first.queue.pop())
        assert len(first.journal) == 2
        first.journal.close()

        second = BatchSearchService(
            pool=DevicePool.homogeneous(count=2),
            fault_plan=FaultPlan([]),
            journal=DurableRunJournal(path, resume=True, fsync=False),
        )
        jobs = self._submit_all(second, workload)
        second.run()
        second.journal.close()
        assert all(j.state is JobState.DONE for j in jobs)
        assert [j.resumed for j in jobs] == [True, True, False]
        assert second.metrics.resumed_jobs == 2
        assert second.metrics.recomputed_jobs == 1
        assert second.metrics.resilience.resumes == 2
        assert "2 resumed from journal (1 recomputed)" in (
            second.metrics.render()
        )
        # resumed records carry the journaled hit counts, not zeros
        done = first.journal.completed("job-0")
        resumed = next(
            r for r in second.metrics.records if r.job_id == "job-0"
        )
        assert resumed.resumed and resumed.n_hits == done["n_hits"]
        assert len(second.journal) == 3

    def test_journal_digest_matches_results(self, tmp_path, workload):
        service = BatchSearchService(
            pool=DevicePool.homogeneous(count=2),
            fault_plan=FaultPlan([]),
            journal=DurableRunJournal(
                tmp_path / "run.wal", resume=False, fsync=False
            ),
        )
        hmm, db = workload
        job = service.submit(hmm, db, settings=SETTINGS)
        service.run()
        service.journal.close()
        entry = service.journal.completed(job.job_id)
        assert entry["digest"] == result_digest(job.results)
        assert entry["n_targets"] == job.results.n_targets

    @staticmethod
    def _journal(path, *jobs, resume=True, policy=STRICT):
        """Reopen ``path``, append ``(job_id, state)`` job records, close."""
        journal = DurableRunJournal(path, resume=resume, policy=policy,
                                    fsync=False)
        for job_id, state in jobs:
            journal.append("job", job_id=job_id, state=state, digest="d")
        journal.close()
        return journal

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.wal"
        self._journal(path, ("a", "done"), ("b", "done"), resume=False)
        path.write_bytes(path.read_bytes()[:-5])  # tear the last record
        journal = self._journal(path, policy=SALVAGE)
        assert len(journal) == 1 and journal.salvaged_bytes > 0
        assert journal.completed("a") is not None
        assert journal.completed("b") is None

    def test_failed_entries_are_not_resumable(self, tmp_path):
        path = tmp_path / "run.wal"
        self._journal(path, ("a", "failed"), resume=False)
        assert self._journal(path).completed("a") is None

    def test_resume_false_truncates(self, tmp_path):
        path = tmp_path / "run.wal"
        self._journal(path, ("a", "done"), resume=False)
        fresh = self._journal(path, resume=False)
        assert len(fresh) == 0 and fresh.completed("a") is None
        assert fresh.generation == 1
