"""Acceptance soak: the overload plane under sustained seeded chaos.

The four invariants ISSUE 7 pins, all on the virtual timeline:

1. every admitted job's hits are bit-identical to an unloaded,
   fault-free run of the same search - under hang, slow *and* launch
   faults at once;
2. a rejected submission leaves no trace: no job record, no partial
   execution, nothing on the queue;
3. the in-system gauge never exceeds the ``max_pending`` watermark;
4. an expired deadline aborts the job within one watchdog budget
   period instead of burning devices.

An autouse fixture fails ANY test in this module that reaches the real
``time.sleep`` - the whole soak must be wall-clock free.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import sample_hmm
from repro.errors import OverloadError
from repro.options import SearchOptions
from repro.sequence import (
    DigitalSequence,
    SequenceDatabase,
    random_sequence_codes,
)
from repro.service import (
    AdmissionLimits,
    BatchSearchService,
    DevicePool,
    FaultKind,
    FaultPlan,
    FaultSpec,
    JobState,
    PipelineSettings,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import soak  # noqa: E402  (the tools/ harness under test)

SETTINGS = PipelineSettings(
    L=90, calibration_filter_sample=80, calibration_forward_sample=25
)


@pytest.fixture(autouse=True)
def no_real_sleeps(monkeypatch):
    def _trip(*_a, **_k):
        raise AssertionError("real time.sleep called during the soak")

    monkeypatch.setattr(time, "sleep", _trip)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(55)
    hmm = sample_hmm(30, rng, name="soakfam")
    seqs = [
        DigitalSequence(f"t{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(40, 140, size=18))
    ]
    seqs.append(DigitalSequence("hom", hmm.sample_sequence(rng)))
    return hmm, SequenceDatabase(seqs)


def _run(workload, plan, n_jobs=3, limits=None, options=None):
    hmm, db = workload
    service = BatchSearchService(
        pool=DevicePool.heterogeneous(2, 2),
        fault_plan=plan,
        limits=limits,
    )
    # device-pool jobs: per-job options would otherwise pick the engine
    jobs = [
        service.submit(
            hmm, db, engine="gpu_warp", settings=SETTINGS, options=options
        )
        for _ in range(n_jobs)
    ]
    service.run()
    return service, jobs


class TestHitsBitIdentical:
    def test_under_hang_slow_and_launch_faults(self, workload):
        _, clean_jobs = _run(workload, FaultPlan([]), n_jobs=1)
        reference = clean_jobs[0].results
        plan = FaultPlan(
            [
                FaultSpec(0, 0, FaultKind.HANG),
                FaultSpec(1, 0, FaultKind.SLOW),
                FaultSpec(2, 1, FaultKind.LAUNCH),
            ]
        )
        service, jobs = _run(workload, plan, n_jobs=3)
        assert service.metrics.resilience.total_faults == plan.fired_count
        for job in jobs:
            assert job.state is JobState.DONE
            assert job.results.hit_names() == reference.hit_names()
            assert [h.evalue for h in job.results.hits] == [
                h.evalue for h in reference.hits
            ]


class TestRejectionsAreClean:
    def test_rejected_jobs_leave_no_partial_execution(self, workload):
        hmm, db = workload
        service = BatchSearchService(
            pool=DevicePool.homogeneous(count=2),
            fault_plan=FaultPlan([]),
            limits=AdmissionLimits(max_pending=2),
        )
        admitted = [
            service.submit(hmm, db, settings=SETTINGS) for _ in range(2)
        ]
        with pytest.raises(OverloadError):
            service.submit(hmm, db, settings=SETTINGS)
        assert len(service.queue) == 2
        service.run()
        # exactly the admitted jobs ran; the rejection left nothing
        assert len(service.metrics.records) == len(admitted)
        snap = service.admission.snapshot()
        assert snap["rejected"] == 1
        assert snap["submitted"] == 3
        assert all(j.state is JobState.DONE for j in admitted)


class TestWatermark:
    def test_in_system_gauge_never_exceeds_max_pending(self, workload):
        hmm, db = workload
        limits = AdmissionLimits(max_pending=3)
        service = BatchSearchService(
            pool=DevicePool.homogeneous(count=2),
            fault_plan=FaultPlan([]),
            limits=limits,
        )
        for _ in range(6):
            try:
                service.submit(hmm, db, settings=SETTINGS)
            except OverloadError:
                pass
        service.run()
        snap = service.admission.snapshot()
        assert snap["peak_in_system"] <= limits.max_pending
        assert (
            snap["submitted"]
            == snap["admitted"] + snap["rejected"] + snap["shed"]
        )


class TestDeadlineAborts:
    @pytest.mark.parametrize("kind", [FaultKind.HANG, FaultKind.LAUNCH])
    def test_expired_deadline_aborts_within_one_watchdog_period(
        self, workload, kind
    ):
        hmm, db = workload
        plan = FaultPlan([FaultSpec(0, 0, kind)])
        options = SearchOptions(deadline_ms=1.0)
        service, (job,) = _run(
            workload, plan, n_jobs=1, options=options
        )
        assert job.state is JobState.FAILED
        record = service.metrics.records[0]
        assert record.deadline_expired
        assert service.metrics.deadline_failures == 1
        # the abort consumed at most one watchdog budget period of
        # timeline (the HANG stall); it never burned a retry backoff
        budget = service.watchdog.budget(
            "msv", hmm.M, db.total_residues, len(db),
            service.pool.slots[0].spec,
        )
        assert service.timeline.now() <= budget + 1e-9

    def test_generous_deadline_does_not_fire(self, workload):
        plan = FaultPlan([FaultSpec(0, 0, FaultKind.HANG)])
        service, (job,) = _run(
            workload, plan, n_jobs=1,
            options=SearchOptions(deadline_ms=60_000.0),
        )
        assert job.state is JobState.DONE
        assert service.metrics.deadline_failures == 0


class TestSoakHarness:
    def test_harness_invariants_hold_and_replay_bit_identically(self):
        first = soak.run_soak(seed=3, waves=1, jobs=5)
        again = soak.run_soak(seed=3, waves=1, jobs=5)
        assert first["ok"]
        assert first == again
        wave = first["search_waves"][0]
        # the tight default limits actually exercised the overload plane
        assert wave["admission"]["rejected"] + wave["admission"]["shed"] > 0
        assert wave["admission"]["peak_in_system"] <= soak.LIMITS.max_pending
