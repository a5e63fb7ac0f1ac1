"""The workload machinery behind the figure benchmarks."""

import pytest

from repro.perf.workloads import (
    ENVNR_N,
    PAPER_RESIDUES,
    SWISSPROT_N,
    BoundedCache,
    ExperimentWorkload,
    experiment_workload,
    paper_database,
    paper_hmm,
)
from repro.perf import workloads as workloads_mod
from repro.perf.cost_model import StageWork


class TestPaperConstants:
    def test_database_residue_counts_match_paper(self):
        assert PAPER_RESIDUES["swissprot"] == 171_731_281
        assert PAPER_RESIDUES["envnr"] == 1_290_247_663

    def test_default_surrogate_sizes(self):
        assert SWISSPROT_N == 300
        assert ENVNR_N == 500


class TestPaperModels:
    def test_cached_identity(self):
        assert paper_hmm(48) is paper_hmm(48)

    def test_different_sizes_different_models(self):
        assert paper_hmm(48).M != paper_hmm(100).M

    def test_databases_cached_per_model(self):
        hmm = paper_hmm(48)
        assert paper_database("envnr", hmm, 30) is paper_database(
            "envnr", hmm, 30
        )


class TestWorkload:
    @pytest.fixture(scope="class")
    def wl(self):
        return experiment_workload(
            48, "swissprot", n_seqs=60,
            calibration_filter_sample=80, calibration_forward_sample=25,
        )

    def test_metadata(self, wl):
        assert wl.M == 48
        assert wl.database_name == "swissprot"
        assert wl.n_seqs == 60
        assert wl.total_residues > 0

    def test_stage_funnel(self, wl):
        assert wl.msv.seqs == 60
        assert wl.vit.seqs <= 60
        assert wl.fwd.rows <= wl.vit.rows <= wl.msv.rows

    def test_survivor_fractions(self, wl):
        assert 0.0 <= wl.vit_survivor_fraction <= 1.0
        assert 0.0 <= wl.msv_survivor_fraction <= 0.5

    def test_scaled_preserves_model_and_fractions(self, wl):
        scaled = wl.scaled()
        assert scaled.M == wl.M
        assert scaled.mean_length == wl.mean_length
        assert scaled.residue_scale == pytest.approx(1.0, abs=1e-9)
        # scaling twice is idempotent up to rounding
        again = scaled.scaled()
        assert again.total_residues == pytest.approx(
            scaled.total_residues, rel=1e-6
        )

    def test_unknown_database_scale_is_identity(self):
        wl = ExperimentWorkload(
            M=10,
            database_name="custom",
            n_seqs=5,
            total_residues=500,
            mean_length=100.0,
            msv=StageWork(rows=500, seqs=5, M=10),
            vit=StageWork(rows=0, seqs=0, M=10),
            fwd=StageWork(rows=0, seqs=0, M=10),
            results=None,
        )
        assert wl.residue_scale == 1.0
        assert wl.scaled().total_residues == 500


class TestBoundedCache:
    def test_evicts_oldest_at_capacity(self):
        cache = BoundedCache(max_entries=3)
        for i in range(5):
            cache[i] = i * 10
        assert len(cache) == 3
        assert 0 not in cache and 1 not in cache
        assert cache[4] == 40
        assert cache.evictions == 2

    def test_overwrite_does_not_evict(self):
        cache = BoundedCache(max_entries=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 3
        assert len(cache) == 2 and cache.evictions == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            BoundedCache(max_entries=0)

    def test_module_caches_are_bounded(self):
        """The figure-benchmark memos cannot grow without limit."""
        for cache in (
            workloads_mod._cache,
            workloads_mod._hmm_cache,
            workloads_mod._db_cache,
        ):
            assert isinstance(cache, BoundedCache)
            assert cache.max_entries <= 64

    def test_hmm_cache_evicts_under_sustained_load(self):
        before = dict(workloads_mod._hmm_cache)
        try:
            workloads_mod._hmm_cache.clear()
            for m in range(10, 10 + workloads_mod._hmm_cache.max_entries + 4):
                paper_hmm(m)
            assert (
                len(workloads_mod._hmm_cache)
                == workloads_mod._hmm_cache.max_entries
            )
        finally:
            workloads_mod._hmm_cache.clear()
            workloads_mod._hmm_cache.update(before)
