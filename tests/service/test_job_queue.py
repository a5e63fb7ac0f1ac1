"""Job queue: priorities, FIFO ties, deterministic ids, lifecycle."""

import numpy as np
import pytest

from repro import sample_hmm
from repro.engines import resolve
from repro.errors import PipelineError
from repro.sequence import (
    DigitalSequence,
    SequenceDatabase,
    random_sequence_codes,
)
from repro.service import JobQueue, JobState


@pytest.fixture(scope="module")
def hmm():
    return sample_hmm(20, np.random.default_rng(0), name="qfam")


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(1)
    return SequenceDatabase(
        [
            DigitalSequence(f"s{i}", random_sequence_codes(50, rng))
            for i in range(5)
        ]
    )


class TestOrdering:
    def test_fifo_among_equal_priorities(self, hmm, db):
        q = JobQueue()
        jobs = [q.submit(hmm, db) for _ in range(4)]
        assert [q.pop() for _ in range(4)] == jobs

    def test_higher_priority_first(self, hmm, db):
        q = JobQueue()
        low = q.submit(hmm, db, priority=0)
        high = q.submit(hmm, db, priority=10)
        mid = q.submit(hmm, db, priority=5)
        assert [q.pop() for _ in range(3)] == [high, mid, low]

    def test_pop_empty_returns_none(self):
        assert JobQueue().pop() is None

    def test_len_and_bool(self, hmm, db):
        q = JobQueue()
        assert not q and len(q) == 0
        q.submit(hmm, db)
        assert q and len(q) == 1

    def test_pending_preview_matches_pop_order(self, hmm, db):
        q = JobQueue()
        a = q.submit(hmm, db, priority=1)
        b = q.submit(hmm, db, priority=3)
        assert q.pending() == [b, a]
        assert len(q) == 2  # non-destructive


class TestJobIds:
    def test_ids_are_deterministic_across_queues(self, hmm, db):
        ids1 = [JobQueue().submit(hmm, db).job_id]
        ids2 = [JobQueue().submit(hmm, db).job_id]
        assert ids1 == ids2

    def test_ids_unique_within_queue(self, hmm, db):
        q = JobQueue()
        a, b = q.submit(hmm, db), q.submit(hmm, db)
        assert a.job_id != b.job_id          # serial differs
        assert a.job_id.split("-")[2] == b.job_id.split("-")[2]  # same content

    def test_id_depends_on_engine(self, hmm, db):
        q = JobQueue()
        gpu = q.submit(hmm, db, engine=resolve("gpu_warp"))
        cpu = q.submit(hmm, db, engine=resolve("cpu_sse"))
        assert gpu.job_id.split("-")[2] != cpu.job_id.split("-")[2]

    def test_id_depends_on_model(self, hmm, db):
        other = sample_hmm(20, np.random.default_rng(9), name="qfam")
        q = JobQueue()
        a = q.submit(hmm, db)
        b = q.submit(other, db)
        assert a.job_id.split("-")[2] != b.job_id.split("-")[2]


class TestLifecycle:
    def test_new_job_is_pending(self, hmm, db):
        job = JobQueue().submit(hmm, db)
        assert job.state is JobState.PENDING
        assert job.results is None
        assert job.attempts == 0

    def test_effective_engine_tracks_fallback(self, hmm, db):
        job = JobQueue().submit(hmm, db, engine=resolve("gpu_warp"))
        assert job.effective_engine is resolve("gpu_warp")
        job.fallback_engine = resolve("cpu_sse")
        assert job.effective_engine is resolve("cpu_sse")

    def test_requeue_rejects_finished_jobs(self, hmm, db):
        q = JobQueue()
        job = q.submit(hmm, db)
        q.pop()
        job.state = JobState.DONE
        with pytest.raises(PipelineError):
            q.requeue(job)

    def test_requeue_restores_pending(self, hmm, db):
        q = JobQueue()
        job = q.submit(hmm, db)
        q.pop()
        job.state = JobState.RUNNING
        q.requeue(job)
        assert job.state is JobState.PENDING
        assert q.pop() is job

    def test_latency_needs_both_timestamps(self, hmm, db):
        job = JobQueue().submit(hmm, db)
        assert job.queue_latency is None
        job.submitted_at, job.started_at = 1.0, 3.5
        assert job.queue_latency == 2.5

    def test_response_is_json_safe(self, hmm, db):
        import json

        job = JobQueue().submit(hmm, db)
        payload = json.dumps(job.response(), allow_nan=False)
        assert "qfam" in payload
