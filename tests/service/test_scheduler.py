"""Scheduler: service-path results are identical to direct searches.

The core service guarantee: submitting a job through the queue +
device-pool scheduler - any pool composition, any shard count - yields
the *same hit list* as calling :meth:`HmmsearchPipeline.search`
directly, on both engines.  Accuracy is never traded for scheduling.
"""

import numpy as np
import pytest

from repro import FERMI_GTX580, KEPLER_K40, sample_hmm
from repro.engines import resolve
from repro.options import SearchOptions
from repro.service import (
    BatchSearchService,
    DevicePool,
    JobState,
    PipelineSettings,
)
from repro.sequence import (
    DigitalSequence,
    SequenceDatabase,
    random_sequence_codes,
)

SETTINGS = PipelineSettings(
    L=100, calibration_filter_sample=80, calibration_forward_sample=25
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    hmm = sample_hmm(35, rng, name="schedfam")
    seqs = [
        DigitalSequence(f"t{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(30, 180, size=40))
    ]
    for j in range(3):
        seqs.append(DigitalSequence(f"hom{j}", hmm.sample_sequence(rng)))
    return hmm, SequenceDatabase(seqs)


@pytest.fixture(scope="module")
def direct(workload):
    """Ground truth: direct pipeline searches on both engines."""
    hmm, db = workload
    pipe = SETTINGS.build(hmm)
    return {
        resolve("cpu_sse"): pipe.search(db, SearchOptions(engine="cpu_sse")),
        resolve("gpu_warp"): pipe.search(db, SearchOptions(engine="gpu_warp")),
    }


POOLS = [
    pytest.param(lambda: DevicePool.homogeneous(KEPLER_K40, 1), id="1xK40"),
    pytest.param(lambda: DevicePool.homogeneous(KEPLER_K40, 3), id="3xK40"),
    pytest.param(lambda: DevicePool.homogeneous(FERMI_GTX580, 4), id="4xGTX580"),
    pytest.param(lambda: DevicePool.heterogeneous(2, 2), id="2K+2F"),
    pytest.param(lambda: DevicePool.heterogeneous(1, 5), id="1K+5F"),
]


class TestEquivalence:
    @pytest.mark.parametrize("make_pool", POOLS)
    @pytest.mark.parametrize("engine", [resolve("cpu_sse"), resolve("gpu_warp")])
    def test_service_matches_direct_search(
        self, workload, direct, make_pool, engine
    ):
        hmm, db = workload
        service = BatchSearchService(pool=make_pool())
        job = service.submit(hmm, db, engine=engine, settings=SETTINGS)
        service.run()
        assert job.state is JobState.DONE
        expected = direct[engine]
        got = job.results
        assert got.hit_names() == expected.hit_names()
        assert [h.evalue for h in got.hits] == [
            h.evalue for h in expected.hits
        ]
        for attr in ("msv_bits", "vit_bits", "fwd_bits"):
            a, b = getattr(got, attr), getattr(expected, attr)
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
        assert [st.to_dict() for st in got.stages] == [
            st.to_dict() for st in expected.stages
        ]

    def test_engines_agree_through_the_service(self, workload):
        hmm, db = workload
        service = BatchSearchService(pool=DevicePool.heterogeneous(1, 2))
        gpu = service.submit(hmm, db, engine=resolve("gpu_warp"),
                             settings=SETTINGS)
        cpu = service.submit(hmm, db, engine=resolve("cpu_sse"),
                             settings=SETTINGS)
        service.run()
        assert gpu.results.hit_names() == cpu.results.hit_names()

    def test_pool_larger_than_database(self, workload):
        """A big pool serving a tiny database degrades gracefully."""
        hmm, _ = workload
        rng = np.random.default_rng(2)
        tiny = SequenceDatabase(
            [DigitalSequence("only", hmm.sample_sequence(rng))]
        )
        service = BatchSearchService(pool=DevicePool.homogeneous(count=6))
        job = service.submit(hmm, tiny, settings=SETTINGS)
        service.run()
        assert job.state is JobState.DONE
        assert job.results.hit_names() == ["only"]
        # only one device ever received work
        busy = [s for s in service.pool.slots if s.dispatches > 0]
        assert len(busy) == 1


class TestScheduling:
    def test_priority_order_executes_first(self, workload):
        hmm, db = workload
        service = BatchSearchService(pool=DevicePool.homogeneous(count=2))
        low = service.submit(hmm, db, settings=SETTINGS)
        high = service.submit(hmm, db, priority=9, settings=SETTINGS)
        executed = service.run()
        assert executed == [high, low]

    def test_repeat_queries_hit_the_cache(self, workload):
        hmm, db = workload
        service = BatchSearchService(pool=DevicePool.homogeneous(count=2))
        for _ in range(4):
            service.submit(hmm, db, settings=SETTINGS)
        service.run()
        assert service.cache.misses == 1
        assert service.cache.hits == 3

    def test_device_dispatch_accounting(self, workload):
        hmm, db = workload
        service = BatchSearchService(pool=DevicePool.heterogeneous(2, 2))
        service.submit(hmm, db, settings=SETTINGS)
        service.run()
        # the MSV stage covered the whole database across the pool
        assert sum(s.sequences for s in service.pool.slots) >= len(db)
        assert sum(s.residues for s in service.pool.slots) >= db.total_residues
        assert all(s.dispatches >= 1 for s in service.pool.slots)

    def test_job_timestamps_populated(self, workload):
        hmm, db = workload
        service = BatchSearchService(pool=DevicePool.homogeneous(count=1))
        job = service.submit(hmm, db, settings=SETTINGS)
        service.run()
        assert job.queue_latency is not None and job.queue_latency >= 0
        assert job.run_seconds is not None and job.run_seconds > 0
