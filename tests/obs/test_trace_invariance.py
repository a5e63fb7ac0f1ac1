"""The observability invariant: tracing never changes results.

Tracing on vs off must produce bit-identical hits, stage funnels and
score arrays on every engine and through the batch service - a tracer
is a pure observer.  Also pins the span-tree shape the instrumented
layers emit (job -> schedule/search -> stage -> shard -> kernel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.span import SPAN_KINDS, Tracer
from repro.engines import resolve
from repro.options import SearchOptions
from repro.pipeline.pipeline import HmmsearchPipeline


def assert_identical_results(a, b):
    assert a.n_targets == b.n_targets
    assert [h.name for h in a.hits] == [h.name for h in b.hits]
    assert [h.evalue for h in a.hits] == [h.evalue for h in b.hits]
    assert [h.fwd_bits for h in a.hits] == [h.fwd_bits for h in b.hits]
    for sa, sb in zip(a.stages, b.stages):
        assert (sa.name, sa.n_in, sa.n_out, sa.rows, sa.cells) == (
            sb.name, sb.n_in, sb.n_out, sb.rows, sb.cells
        )
    np.testing.assert_array_equal(a.msv_bits, b.msv_bits)
    np.testing.assert_array_equal(a.vit_bits, b.vit_bits)
    np.testing.assert_array_equal(a.fwd_bits, b.fwd_bits)


class TestPipelineInvariance:
    @pytest.mark.parametrize("engine", [resolve("cpu_sse"), resolve("gpu_warp")])
    def test_tracing_is_bit_identical(self, small_hmm, small_database, engine):
        pipe = HmmsearchPipeline(small_hmm)
        plain = pipe.search(small_database, SearchOptions(engine=engine))
        traced = pipe.search(
            small_database, SearchOptions(engine=engine, tracer=Tracer())
        )
        assert_identical_results(plain, traced)

    def test_search_span_tree_shape(self, small_hmm, small_database):
        tracer = Tracer()
        pipe = HmmsearchPipeline(small_hmm)
        results = pipe.search(
            small_database,
            SearchOptions(engine="gpu_warp", tracer=tracer),
        )
        (root,) = tracer.roots
        assert root.kind == "search"
        stages = root.find("stage")
        assert [s.name for s in stages] == ["msv", "p7viterbi", "forward"]
        st = stages[0]
        assert st.counters["n_in"] == results.stages[0].n_in
        assert st.counters["n_out"] == results.stages[0].n_out
        kernels = root.find("kernel")
        assert kernels, "GPU search must record kernel spans"
        gpu_kernels = [k for k in kernels if "occupancy" in k.tags]
        assert gpu_kernels and all(
            "device" in k.tags for k in gpu_kernels
        )
        assert all(s.kind in SPAN_KINDS for s in tracer.walk())

    def test_all_spans_closed_with_monotonic_times(
        self, small_hmm, small_database
    ):
        tracer = Tracer()
        HmmsearchPipeline(small_hmm).search(
            small_database, SearchOptions(tracer=tracer)
        )
        for sp in tracer.walk():
            assert sp.end is not None and sp.end >= sp.start
            for child in sp.children:
                assert child.start >= sp.start
                assert child.end <= sp.end


class TestServiceInvariance:
    def _run(self, hmm, db, tracer):
        from repro.service import BatchSearchService

        service = BatchSearchService(options=SearchOptions(tracer=tracer))
        service.submit(hmm, db)                          # GPU pool job
        service.submit(hmm, db, engine=resolve("cpu_sse"))   # CPU job
        return service, service.run()

    def test_service_tracing_is_bit_identical(self, small_hmm, small_database):
        _, plain_jobs = self._run(small_hmm, small_database, None)
        _, traced_jobs = self._run(small_hmm, small_database, Tracer())
        for a, b in zip(plain_jobs, traced_jobs):
            assert a.state.value == b.state.value == "done"
            assert_identical_results(a.results, b.results)

    def test_job_span_tree_covers_every_layer(self, small_hmm, small_database):
        tracer = Tracer()
        service, jobs = self._run(small_hmm, small_database, tracer)
        assert len(tracer.roots) == len(jobs) == 2
        gpu_job = tracer.roots[0]
        assert gpu_job.kind == "job"
        assert gpu_job.tags["engine"] == "gpu_warp"
        assert gpu_job.tags["state"] == "done"
        kinds = {s.kind for s in gpu_job.walk()}
        assert {"job", "schedule", "search", "stage", "shard",
                "kernel"} <= kinds
        # every shard's kernel ran on a named device of the pool
        for shard in gpu_job.find("shard"):
            assert "device" in shard.tags
            assert shard.counters["sequences"] > 0

    def test_metrics_ingest_timings_from_spans(self, small_hmm, small_database):
        service, _ = self._run(small_hmm, small_database, Tracer())
        m = service.metrics
        assert m.job_seconds.count == 2
        assert set(m.stage_seconds) == {"msv", "p7viterbi", "forward"}
        assert all(h.count == 2 for h in m.stage_seconds.values())
        assert m.residue_rate.rate > 0
        assert m.sequence_rate.rate > 0
        msv = service.metrics.stage_totals()["msv"]
        assert m.survival["msv"].rate == pytest.approx(
            msv.n_out / msv.n_in
        )
        report = m.render()
        assert "stage timings (traced jobs)" in report
        assert "residues/s" in report
        timings = m.to_dict()["timings"]
        assert timings["stage_seconds"]["msv"]["count"] == 2

    def test_untraced_service_records_no_timings(self, small_hmm, small_database):
        service, _ = self._run(small_hmm, small_database, None)
        assert service.metrics.job_seconds.count == 0
        assert service.metrics.stage_seconds == {}
        assert "stage timings" not in service.metrics.render()


class TestResilientInvariance:
    def test_faulted_run_traces_recovery_and_same_hits(
        self, small_hmm, small_database
    ):
        from repro.service import BatchSearchService, FaultPlan

        def run(tracer, plan):
            service = BatchSearchService(
                options=SearchOptions(tracer=tracer), fault_plan=plan
            )
            service.submit(small_hmm, small_database)
            (job,) = service.run()
            return job

        plain = run(None, None)
        tracer = Tracer()
        faulted = run(
            tracer, FaultPlan.seeded(seed=7, n_faults=2, n_devices=4)
        )
        assert faulted.state.value == "done"
        assert_identical_results(plain.results, faulted.results)
        (root,) = tracer.roots
        assert root.find("kernel"), "resilient path must record kernels"
