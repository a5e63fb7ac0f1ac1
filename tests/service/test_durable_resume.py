"""Exactly-once resume through the scheduler and resilient executor.

The contract: with a :class:`DurableRunJournal` attached, a run killed
at *any* fsync boundary resumes with bit-identical hits, every unit is
either resumed from the journal or recomputed (never both, never
neither), and nothing checkpointed is ever re-executed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sample_hmm
from repro.errors import JournalCorruptError
from repro.hardening import SALVAGE, STRICT
from repro.sequence import (
    DigitalSequence,
    SequenceDatabase,
    random_sequence_codes,
)
from repro.service import (
    BatchSearchService,
    CrashPoint,
    DurableRunJournal,
    JobState,
    PipelineCache,
    PipelineSettings,
    result_digest,
)

SETTINGS = PipelineSettings(
    L=90, calibration_filter_sample=80, calibration_forward_sample=25
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(44)
    hmm = sample_hmm(32, rng, name="walfam")
    seqs = [
        DigitalSequence(f"t{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(40, 140, size=14))
    ]
    seqs.append(DigitalSequence("hom", hmm.sample_sequence(rng)))
    return hmm, SequenceDatabase(seqs)


@pytest.fixture(scope="module")
def cache():
    """Calibration paid once for the whole module."""
    return PipelineCache(max_entries=8)


@pytest.fixture(scope="module")
def reference_digest(workload, cache):
    hmm, db = workload
    service = BatchSearchService(cache=cache)
    service.submit(hmm, db, settings=SETTINGS, job_id="wal-job")
    (job,) = service.run()
    return result_digest(job.results)


def run_once(path, workload, cache, epoch_limit=None, policy=SALVAGE):
    """One process lifetime against the journal at ``path``."""
    hook = None
    if epoch_limit is not None:
        def hook(epoch, limit=epoch_limit):
            if epoch >= limit:
                raise CrashPoint(epoch)
    journal = DurableRunJournal(path, policy=policy, epoch_hook=hook)
    service = BatchSearchService(cache=cache, journal=journal)
    hmm, db = workload
    service.submit(hmm, db, settings=SETTINGS, job_id="wal-job")
    service.run()
    journal.close()
    return service, journal


class TestUninterruptedRun:
    def test_all_units_checkpointed(self, tmp_path, workload, cache,
                                    reference_digest):
        service, journal = run_once(tmp_path / "run.wal", workload, cache)
        counts = journal.unit_counts()
        assert counts["jobs"] == 1
        assert counts["shards"] > 0
        assert counts["duplicates"] == 0
        assert journal.completed("wal-job")["digest"] == reference_digest
        # first run: everything was computed live, nothing resumed
        assert service.metrics.resumed_units == 0
        assert service.metrics.recomputed_units == counts["shards"]

    def test_second_run_resumes_whole_job(self, tmp_path, workload, cache):
        path = tmp_path / "run.wal"
        run_once(path, workload, cache)
        service, journal = run_once(path, workload, cache)
        (record,) = service.metrics.records
        assert record.resumed is True
        assert record.attempts == 0
        # the resumed job re-executed nothing, so no new shard units
        assert journal.duplicate_units == 0
        assert service.metrics.resumed_units == 0
        assert service.metrics.recomputed_units == 0


class TestKillAnywhere:
    def _drill(self, path, workload, cache):
        """Kill after epoch k on attempt k until a run completes."""
        crashes = 0
        for attempt in range(1, 200):
            try:
                return run_once(
                    path, workload, cache, epoch_limit=attempt
                ) + (crashes,)
            except CrashPoint:
                crashes += 1
        raise AssertionError("drill never completed")

    def test_every_boundary_killed_still_bit_identical(
        self, tmp_path, workload, cache, reference_digest
    ):
        path = tmp_path / "run.wal"
        service, journal, crashes = self._drill(path, workload, cache)
        assert crashes >= 1
        assert journal.completed("wal-job")["digest"] == reference_digest
        assert journal.duplicate_units == 0
        assert journal.generation == crashes + 1

    @settings(max_examples=6, deadline=None)
    @given(kill_epoch=st.integers(min_value=2, max_value=5))
    def test_single_kill_resumes_exactly_once(
        self, tmp_path_factory, workload, cache, reference_digest,
        kill_epoch,
    ):
        """resumed + recomputed == total units, for any single kill."""
        # total shard units from an unkilled run against a fresh journal
        tmp = tmp_path_factory.mktemp("wal")
        _, clean = run_once(tmp / "clean.wal", workload, cache)
        total = clean.unit_counts()["shards"]

        path = tmp / "run.wal"
        with pytest.raises(CrashPoint):
            run_once(path, workload, cache, epoch_limit=kill_epoch)
        service, journal = run_once(path, workload, cache)
        assert (
            service.metrics.resumed_units + service.metrics.recomputed_units
            == total
        )
        # the kill happened mid-run, so at least one unit was durable
        assert service.metrics.resumed_units >= min(kill_epoch - 1, total)
        assert journal.duplicate_units == 0
        assert journal.completed("wal-job")["digest"] == reference_digest
        # metrics count each unit exactly once across both buckets
        (record,) = service.metrics.records
        assert record.resumed_units + record.recomputed_units == total


class TestStaleFingerprint:
    def _other_workload(self):
        rng = np.random.default_rng(91)
        hmm = sample_hmm(32, rng, name="walfam")  # same name, new content
        seqs = [
            DigitalSequence(f"t{i}", random_sequence_codes(70, rng))
            for i in range(6)
        ]
        return hmm, SequenceDatabase(seqs)

    def test_strict_raises_naming_the_job(self, tmp_path, workload, cache):
        path = tmp_path / "run.wal"
        run_once(path, workload, cache)
        with pytest.raises(JournalCorruptError, match="wal-job"):
            run_once(path, self._other_workload(), cache, policy=STRICT)

    def test_entry_without_fingerprint_is_stale(self, tmp_path, workload,
                                                cache, reference_digest):
        """``record()`` always writes a fingerprint, so a job entry
        lacking one is never resumed: strict raises, salvage recomputes."""
        path = tmp_path / "run.wal"
        journal = DurableRunJournal(path, resume=False, fsync=False)
        journal.append("job", job_id="wal-job", state="done",
                       digest="0" * 64, n_targets=0, n_hits=0)
        journal.close()
        with pytest.raises(JournalCorruptError, match="wal-job"):
            run_once(path, workload, cache, policy=STRICT)
        service, journal = run_once(path, workload, cache, policy=SALVAGE)
        (record,) = service.metrics.records
        assert record.resumed is False
        assert service.metrics.resilience.stale_checkpoints == 1
        assert journal.completed("wal-job")["digest"] == reference_digest

    def test_salvage_discards_and_recomputes(self, tmp_path, workload,
                                             cache):
        path = tmp_path / "run.wal"
        run_once(path, workload, cache)
        other = self._other_workload()
        service, journal = run_once(path, other, cache, policy=SALVAGE)
        (record,) = service.metrics.records
        assert record.resumed is False
        assert record.state == JobState.DONE.value
        assert service.metrics.resilience.stale_checkpoints == 1
        # the recomputed job overwrote the stale entry with its own
        # fingerprint; its shard keys differ, so nothing duplicated
        assert journal.duplicate_units == 0
        # and the entry now matches the new submission
        direct = BatchSearchService(cache=cache)
        direct.submit(other[0], other[1], settings=SETTINGS, job_id="x")
        (job,) = direct.run()
        assert journal.completed("wal-job")["digest"] == result_digest(
            job.results
        )
