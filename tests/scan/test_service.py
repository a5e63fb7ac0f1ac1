"""ScanService: engine/fault/permutation invariance of scan hits, span
structure, scheduling statistics, and one-sequence (hmmscan) queries."""

import numpy as np
import pytest

from repro.hmm import sample_hmm
from repro.obs.span import Tracer
from repro.options import PipelineThresholds, SearchOptions
from repro.scan import LibraryCatalog, PressSettings, ScanOptions, ScanService
from repro.service import DevicePool, FaultPlan, MetricsRegistry
from repro.sequence import SequenceDatabase
from repro.sequence.synthetic import homolog_database

SETTINGS = PressSettings(
    L=100, calibration_filter_sample=80, calibration_forward_sample=25
)


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(91)
    return [
        sample_hmm(M, rng, name=f"fam{M}", conservation=30.0)
        for M in (25, 40, 60)
    ]


@pytest.fixture(scope="module")
def catalog(models):
    return LibraryCatalog.press(models, settings=SETTINGS, name="toy")


@pytest.fixture(scope="module")
def database(models):
    return homolog_database(
        10, 90.0, np.random.default_rng(5), hmm=models[1],
        homolog_fraction=0.5, name="targets",
    )


def _one(seq):
    """A one-sequence database: the hmmscan query shape."""
    return SequenceDatabase([seq], name=seq.name)


def _keys(results):
    return [
        (h.model_name, h.sequence_name, h.msv_bits, h.vit_bits,
         h.fwd_bits, h.evalue)
        for h in results.hits
    ]


class TestScan:
    def test_finds_planted_homologs(self, catalog, database):
        results = ScanService(catalog).scan(database)
        assert results.n_models == 3
        assert results.n_sequences == 10
        assert "fam40" in results.hit_models()

    def test_evalue_scales_with_library_size(self, catalog, database):
        results = ScanService(catalog).scan(database)
        for h in results.hits:
            assert h.evalue == pytest.approx(h.fwd_p * 3)

    def test_hits_ranked_by_significance(self, catalog, database):
        evalues = [h.evalue for h in ScanService(catalog).scan(database).hits]
        assert evalues == sorted(evalues)

    def test_top_hits_truncates(self, catalog, database):
        full = ScanService(catalog).scan(database)
        capped = ScanService(catalog).scan(
            database, ScanOptions(top_hits=1)
        )
        assert len(capped.hits) == 1
        assert _keys(capped) == _keys(full)[:1]

    def test_report_evalue_gate_is_per_library(self, catalog, database):
        baseline = ScanService(catalog).scan(database).hits
        assert baseline
        # a gate just below the most significant hit rejects everything;
        # one at the least significant hit keeps them all
        floor = ScanOptions(
            search=SearchOptions(
                thresholds=PipelineThresholds(
                    report_evalue=baseline[0].evalue / 2
                )
            )
        )
        ceiling = ScanOptions(
            search=SearchOptions(
                thresholds=PipelineThresholds(
                    report_evalue=baseline[-1].evalue
                )
            )
        )
        assert ScanService(catalog).scan(database, floor).hits == []
        assert len(ScanService(catalog).scan(database, ceiling).hits) == \
            len(baseline)

    def test_model_stages_cover_library(self, catalog, database):
        results = ScanService(catalog).scan(database)
        assert set(results.model_stages) == {"fam25", "fam40", "fam60"}
        for stages in results.model_stages.values():
            assert stages[0].name == "msv"
            assert stages[0].n_in == 10


class TestInvariance:
    def test_gpu_matches_cpu(self, catalog, database):
        cpu = ScanService(catalog).scan(database)
        gpu = ScanService(catalog).scan(
            database,
            ScanOptions(search=SearchOptions(engine="gpu_warp")),
        )
        assert _keys(gpu) == _keys(cpu)
        assert gpu.fallbacks == 0

    def test_model_permutation_invariance(self, models, database):
        # the satellite-1 regression: calibration seeds derive from model
        # content, so re-ordering the library cannot change any score
        forward = LibraryCatalog.press(models, settings=SETTINGS)
        backward = LibraryCatalog.press(models[::-1], settings=SETTINGS)
        a = _keys(ScanService(forward).scan(database))
        b = _keys(ScanService(backward).scan(database))
        assert a == b and a

    def test_fault_injection_does_not_change_hits(self, catalog, database):
        baseline = ScanService(catalog).scan(database)
        pool = DevicePool.heterogeneous()
        plan = FaultPlan.seeded(
            20260808, n_faults=12, n_devices=pool.size, min_spacing=1
        )
        faulted = ScanService(catalog, pool=pool, fault_plan=plan).scan(
            database,
            ScanOptions(search=SearchOptions(engine="gpu_warp")),
        )
        assert _keys(faulted) == _keys(baseline)

    def test_exhausted_pool_falls_back_to_cpu(self, catalog, database):
        pool = DevicePool.homogeneous(count=1)
        pool.slots[0].inject_fault(count=100)
        service = ScanService(catalog, pool=pool)
        results = service.scan(
            database,
            ScanOptions(search=SearchOptions(engine="gpu_warp")),
        )
        assert results.fallbacks == len(
            [g for b in service.plan().buckets for g in b.groups]
        )
        assert _keys(results) == _keys(ScanService(catalog).scan(database))

    def test_tracing_does_not_change_hits(self, catalog, database):
        plain = ScanService(catalog).scan(database)
        traced = ScanService(catalog).scan(
            database, ScanOptions(search=SearchOptions(tracer=Tracer()))
        )
        assert _keys(traced) == _keys(plain)


class TestScheduling:
    def test_bucket_stats_reflect_plan(self, catalog, database):
        results = ScanService(catalog).scan(database)
        assert [b["key"] for b in results.bucket_stats] == ["small"]
        assert results.bucket_stats[0]["config"] == "shared"
        assert results.bucket_stats[0]["models"] == 3
        # the three small models ride fewer launches than models
        assert results.bucket_stats[0]["launches"] < 3
        assert results.bucket_stats[0]["coscheduled"] >= 2
        assert results.crossover > 0

    def test_groups_share_device_checkouts(self, catalog, database):
        pool = DevicePool.homogeneous(count=2)
        service = ScanService(catalog, pool=pool)
        service.scan(
            database,
            ScanOptions(search=SearchOptions(engine="gpu_warp")),
        )
        launches = sum(
            len(b.groups) for b in service.plan().buckets
        )
        assert sum(s.dispatches for s in pool.slots) == launches

    def test_per_device_accounting(self, catalog, database):
        pool = DevicePool.homogeneous(count=1)
        service = ScanService(catalog, pool=pool)
        service.scan(
            database,
            ScanOptions(search=SearchOptions(engine="gpu_warp")),
        )
        slot = pool.slots[0]
        assert slot.sequences == 10 * 3  # every model scored the database
        assert slot.counters.rows > 0

    def test_large_models_get_global_config(self, database, models):
        tracer = Tracer()
        # a fake "large" model is expensive to calibrate; instead verify
        # the config tag on the schedule spans of the small bucket and
        # the plan's split logic separately (bucketing tests cover large)
        catalog = LibraryCatalog.press(models, settings=SETTINGS)
        ScanService(catalog).scan(
            database, ScanOptions(search=SearchOptions(tracer=tracer))
        )
        scheds = tracer.spans("schedule")
        assert [s.tags["config"] for s in scheds] == ["shared"]


class TestObservability:
    def test_span_tree_structure(self, catalog, database):
        tracer = Tracer()
        ScanService(catalog).scan(
            database, ScanOptions(search=SearchOptions(tracer=tracer))
        )
        jobs = tracer.spans("job")
        assert len(jobs) == 1
        assert jobs[0].name == "scan:toy"
        assert jobs[0].tags["models"] == 3
        scheds = tracer.spans("schedule")
        assert len(scheds) == 1
        assert scheds[0].name == "bucket:small"
        assert scheds[0].tags["crossover"] > 0
        searches = tracer.spans("search")
        assert len(searches) == 3  # one per model
        assert len(tracer.spans("stage")) >= 3  # at least one MSV each

    def test_job_span_feeds_metrics(self, catalog, database):
        tracer = Tracer()
        metrics = MetricsRegistry()
        ScanService(catalog, metrics=metrics).scan(
            database, ScanOptions(search=SearchOptions(tracer=tracer))
        )
        report = metrics.render()
        assert "msv" in report


class TestModelLibraryFrontEnd:
    """One query sequence (a one-entry database) against the library."""

    def test_scan_single_sequence(self, catalog, database):
        full = ScanService(catalog).scan(database)
        planted = next(s for s in database if full.hits_for(s.name))
        results = ScanService(catalog).scan(_one(planted))
        assert results.n_models == 3
        assert results.n_sequences == 1
        assert "fam40" in results.hit_models()
        assert results.model_stages["fam40"][0].n_out >= 1
        assert "models: 3" in results.summary()

    def test_front_end_permutation_invariance(self, models, database):
        forward, backward = (
            ScanService(LibraryCatalog.press(order, settings=SETTINGS))
            for order in (models, models[::-1])
        )
        for seq in list(database)[:4]:
            a, b = forward.scan(_one(seq)), backward.scan(_one(seq))
            assert _keys(a) == _keys(b)
            assert [st.n_out for st in a.model_stages["fam40"]] == \
                [st.n_out for st in b.model_stages["fam40"]]

    def test_gpu_view_matches_cpu(self, catalog, database):
        seq = _one(list(database)[0])
        gpu = ScanOptions(search=SearchOptions(engine="gpu_warp"))
        assert _keys(ScanService(catalog).scan(seq, gpu)) == \
            _keys(ScanService(catalog).scan(seq))
