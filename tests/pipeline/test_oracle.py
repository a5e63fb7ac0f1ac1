"""The runtime differential oracle: shadow-scoring against the scalar
reference, deterministic sampling, and divergence handling."""

from __future__ import annotations

import pytest

from repro.engines import resolve
from repro.hardening import SALVAGE, STRICT
from repro.options import SearchOptions
from repro.pipeline.oracle import (
    FORWARD_ABS_TOL,
    Divergence,
    OracleReport,
    sample_indices,
    scores_match,
)
from repro.pipeline.pipeline import HmmsearchPipeline


class TestSampling:
    def test_deterministic(self):
        a = sample_indices("q", "db", 100, 8)
        b = sample_indices("q", "db", 100, 8)
        assert a == b

    def test_sorted_unique_in_range(self):
        idx = sample_indices("q", "db", 50, 10)
        assert idx == sorted(set(idx))
        assert all(0 <= i < 50 for i in idx)
        assert len(idx) == 10

    def test_sample_larger_than_db_is_everything(self):
        assert sample_indices("q", "db", 5, 100) == [0, 1, 2, 3, 4]

    def test_keyed_by_query_and_database(self):
        base = sample_indices("q", "db", 1000, 5)
        assert sample_indices("q2", "db", 1000, 5) != base
        assert sample_indices("q", "db2", 1000, 5) != base


class TestScoresMatch:
    def test_exact(self):
        assert scores_match(1.5, 1.5)
        assert not scores_match(1.5, 1.5000001)

    def test_tolerance(self):
        assert scores_match(1.5, 1.5 + 1e-7, abs_tol=FORWARD_ABS_TOL)
        assert not scores_match(1.5, 1.6, abs_tol=FORWARD_ABS_TOL)

    def test_nan_never_matches(self):
        assert not scores_match(float("nan"), float("nan"))
        assert not scores_match(1.0, float("nan"), abs_tol=1.0)

    def test_inf_matches_only_inf(self):
        inf = float("inf")
        assert scores_match(inf, inf)
        assert not scores_match(inf, 1e300)
        assert scores_match(-inf, -inf)


class TestReportRoundtrip:
    def test_divergence_dict_roundtrip_with_inf(self):
        d = Divergence(
            sequence="s", index=3, stage="p7viterbi",
            expected=float("inf"), observed=2.0,
        )
        restored = Divergence.from_dict(d.to_dict())
        assert restored == d
        assert "p7viterbi" in d.describe() and "'s'" in d.describe()

    def test_report_merge(self):
        a = OracleReport(checked=2, comparisons=4)
        b = OracleReport(
            checked=1, comparisons=1,
            divergences=[Divergence("x", 0, "msv", 1.0, 2.0)],
        )
        a.merge(b)
        assert a.checked == 3 and a.comparisons == 5
        assert not a.ok
        restored = OracleReport.from_dict(a.to_dict())
        assert restored.to_dict() == a.to_dict()


class TestCleanSelfcheck:
    @pytest.mark.parametrize("engine", [resolve("cpu_sse"), resolve("gpu_warp")])
    def test_no_divergence_on_healthy_engines(
        self, medium_hmm, medium_database, engine
    ):
        pipe = HmmsearchPipeline(medium_hmm, L=220)
        res = pipe.search(
            medium_database, SearchOptions(engine=engine, selfcheck=6)
        )
        assert res.oracle is not None
        assert res.oracle.checked == 6
        assert res.oracle.ok
        assert res.oracle.divergences == []

    def test_selfcheck_off_by_default(self, medium_hmm, medium_database):
        pipe = HmmsearchPipeline(medium_hmm, L=220)
        res = pipe.search(medium_database)
        assert res.oracle is None or res.oracle.checked == 0

    def test_selfcheck_does_not_change_hits(self, medium_hmm, medium_database):
        pipe = HmmsearchPipeline(medium_hmm, L=220)
        plain = pipe.search(medium_database)
        checked = pipe.search(medium_database, SearchOptions(selfcheck=8))
        assert [h.name for h in checked.hits] == [h.name for h in plain.hits]

    def test_summary_mentions_selfcheck(self, medium_hmm, medium_database):
        pipe = HmmsearchPipeline(medium_hmm, L=220)
        res = pipe.search(medium_database, SearchOptions(selfcheck=4))
        assert "selfcheck" in res.summary()


@pytest.mark.faults
class TestInjectedDivergence:
    """A CORRUPT fault with shard verification disabled is exactly the
    silent-wrong-scores failure the oracle exists to catch."""

    def _service(self, policy):
        from repro.gpu.device import KEPLER_K40
        from repro.service import (
            BatchSearchService,
            DevicePool,
            FaultKind,
            FaultPlan,
            FaultSpec,
            RetryPolicy,
        )

        plan = FaultPlan(
            [FaultSpec(device=0, dispatch=0, kind=FaultKind.CORRUPT)]
        )
        return BatchSearchService(
            pool=DevicePool([KEPLER_K40], name="k40x1"),
            fault_plan=plan,
            retry_policy=RetryPolicy(verify_shards=False),
            options=SearchOptions(selfcheck=6, policy=policy),
        )

    def test_strict_fails_naming_sequence_and_stage(
        self, medium_hmm, medium_database
    ):
        from repro.service import JobState

        service = self._service(STRICT)
        job = service.submit(medium_hmm, medium_database)
        service.run()
        assert job.state is JobState.FAILED
        assert "msv" in job.error
        # the message names at least one concrete database sequence
        assert any(s.name in job.error for s in medium_database)
        assert service.metrics.total_divergences >= 1

    def test_salvage_quarantines_diverged_sequences(
        self, medium_hmm, medium_database
    ):
        from repro.service import JobState

        service = self._service(SALVAGE)
        job = service.submit(medium_hmm, medium_database)
        service.run()
        assert job.state is JobState.DONE
        assert job.results.oracle.divergences
        kinds = service.quarantine.by_kind()
        assert kinds.get("divergence", 0) >= 1
        # diverged sequences must not survive into the hit list
        diverged = {d.sequence for d in job.results.oracle.divergences}
        assert diverged.isdisjoint({h.name for h in job.results.hits})

    def test_oracle_off_misses_the_corruption(
        self, medium_hmm, medium_database
    ):
        """Control: without selfcheck the corrupted job 'succeeds'."""
        from repro.gpu.device import KEPLER_K40
        from repro.service import (
            BatchSearchService,
            DevicePool,
            FaultKind,
            FaultPlan,
            FaultSpec,
            JobState,
            RetryPolicy,
        )

        plan = FaultPlan(
            [FaultSpec(device=0, dispatch=0, kind=FaultKind.CORRUPT)]
        )
        service = BatchSearchService(
            pool=DevicePool([KEPLER_K40], name="k40x1"),
            fault_plan=plan,
            retry_policy=RetryPolicy(verify_shards=False),
        )
        job = service.submit(medium_hmm, medium_database)
        service.run()
        assert job.state is JobState.DONE
        assert service.metrics.total_divergences == 0
