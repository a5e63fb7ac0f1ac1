"""Integration tests for the hmmsearch task pipeline (paper Figure 1)."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.gpu import FERMI_GTX580
from repro.hmm import sample_hmm
from repro.kernels import MemoryConfig
from repro.options import SearchOptions
from repro.pipeline import HmmsearchPipeline, PipelineThresholds
from repro.sequence import homolog_database


@pytest.fixture(scope="module")
def hmm():
    return sample_hmm(60, np.random.default_rng(77))


@pytest.fixture(scope="module")
def pipe(hmm):
    return HmmsearchPipeline(
        hmm,
        L=150,
        calibration_filter_sample=250,
        calibration_forward_sample=60,
    )


@pytest.fixture(scope="module")
def db(hmm):
    return homolog_database(
        300,
        mean_length=150,
        rng=np.random.default_rng(123),
        hmm=hmm,
        homolog_fraction=0.03,
        name="pipedb",
    )


@pytest.fixture(scope="module")
def cpu_results(pipe, db):
    return pipe.search(db)


class TestThresholds:
    def test_defaults_are_hmmer3(self):
        th = PipelineThresholds()
        assert th.f1 == 0.02 and th.f2 == 1e-3 and th.f3 == 1e-5

    def test_validation(self):
        with pytest.raises(PipelineError):
            PipelineThresholds(f1=0.0)
        with pytest.raises(PipelineError):
            PipelineThresholds(f2=1.5)


class TestPipelineStructure:
    def test_three_stages(self, cpu_results):
        assert [s.name for s in cpu_results.stages] == [
            "msv",
            "p7viterbi",
            "forward",
        ]

    def test_funnel_monotone(self, cpu_results):
        """Each stage passes a subset of its input (Figure 1's funnel)."""
        s1, s2, s3 = cpu_results.stages
        assert s1.n_in >= s1.n_out == s2.n_in >= s2.n_out == s3.n_in >= s3.n_out

    def test_msv_pass_fraction_near_threshold(self, cpu_results):
        """P < 0.02 on mostly-random targets -> a few percent survive
        (the paper quotes 2.2% on Env-nr)."""
        frac = cpu_results.stage("msv").survivor_fraction
        assert 0.005 < frac < 0.12

    def test_rows_accounting(self, cpu_results, db):
        assert cpu_results.stage("msv").rows == db.total_residues
        assert cpu_results.stage("p7viterbi").rows <= db.total_residues

    def test_homologs_found(self, cpu_results, db):
        planted = {s.name for s in db if s.description == "homolog"}
        found = set(cpu_results.hit_names())
        assert planted, "fixture must plant homologs"
        assert len(found & planted) >= 0.8 * len(planted)

    def test_no_false_positives(self, cpu_results, db):
        decoys = {s.name for s in db if s.description == "decoy"}
        assert not (set(cpu_results.hit_names()) & decoys)

    def test_hits_sorted_by_evalue(self, cpu_results):
        evalues = [h.evalue for h in cpu_results.hits]
        assert evalues == sorted(evalues)

    def test_score_arrays_shapes(self, cpu_results, db):
        assert cpu_results.msv_bits.shape == (len(db),)
        # sequences that never reached Forward carry NaN
        assert np.isnan(cpu_results.fwd_bits).sum() > 0

    def test_summary_renders(self, cpu_results):
        text = cpu_results.summary()
        assert "msv" in text and "hits" in text

    def test_stage_lookup_error(self, cpu_results):
        with pytest.raises(PipelineError):
            cpu_results.stage("bogus")


class TestEngineEquivalence:
    """GPU-accelerated pipeline must reproduce the CPU pipeline exactly."""

    def test_gpu_identical_hits(self, pipe, db, cpu_results):
        gpu = pipe.search(db, SearchOptions(engine="gpu_warp"))
        assert gpu.hit_names() == cpu_results.hit_names()
        assert np.allclose(
            gpu.msv_bits, cpu_results.msv_bits, equal_nan=True
        )
        assert np.allclose(
            gpu.vit_bits, cpu_results.vit_bits, equal_nan=True
        )

    def test_gpu_fermi_global_identical(self, pipe, db, cpu_results):
        gpu = pipe.search(
            db,
            SearchOptions(
                engine="gpu_warp",
                device=FERMI_GTX580,
                config=MemoryConfig.GLOBAL,
            ),
        )
        assert gpu.hit_names() == cpu_results.hit_names()

    def test_gpu_collects_counters(self, pipe, db):
        gpu = pipe.search(db, SearchOptions(engine="gpu_warp"))
        assert "msv" in gpu.counters
        assert gpu.counters["msv"].syncthreads == 0
        # overflowed sequences stop scoring early, so rows processed can
        # fall slightly short of the database total
        assert 0.9 * db.total_residues <= gpu.counters["msv"].rows <= db.total_residues
        if gpu.stage("msv").n_out:
            assert "p7viterbi" in gpu.counters

    def test_cpu_engine_has_no_counters(self, cpu_results):
        assert cpu_results.counters == {}


class TestDeterminism:
    def test_search_is_reproducible(self, hmm, db):
        a = HmmsearchPipeline(hmm, L=150, calibration_filter_sample=100,
                              calibration_forward_sample=30).search(db)
        b = HmmsearchPipeline(hmm, L=150, calibration_filter_sample=100,
                              calibration_forward_sample=30).search(db)
        assert a.hit_names() == b.hit_names()
        assert np.array_equal(a.msv_bits, b.msv_bits)

    def test_stricter_f1_passes_fewer(self, hmm, db):
        loose = HmmsearchPipeline(
            hmm, L=150, thresholds=PipelineThresholds(f1=0.05),
            calibration_filter_sample=100, calibration_forward_sample=30,
        ).search(db)
        tight = HmmsearchPipeline(
            hmm, L=150, thresholds=PipelineThresholds(f1=0.005),
            calibration_filter_sample=100, calibration_forward_sample=30,
        ).search(db)
        assert tight.stage("msv").n_out <= loose.stage("msv").n_out


class TestCalibration:
    def test_calibration_locations_ordered(self, pipe):
        cal = pipe.calibration
        # Forward sums over alignments, so its random-score tail sits
        # above the Viterbi tail, which sits above the cruder MSV tail
        assert cal.msv.kind == "gumbel"
        assert cal.fwd.kind == "exponential"
        assert np.isfinite(cal.msv.location)
        assert np.isfinite(cal.vit.location)
        assert np.isfinite(cal.fwd.location)

    def test_calibration_validation(self, hmm):
        with pytest.raises(Exception):
            HmmsearchPipeline(hmm, calibration_filter_sample=5)


class TestHitAlignments:
    def test_alignments_attached_on_request(self, pipe, db):
        results = pipe.search(db, SearchOptions(alignments=True))
        assert results.hits, "fixture database must produce hits"
        for hit in results.hits:
            assert hit.alignment is not None
            assert hit.alignment.domains
            # the alignment's Viterbi score is consistent with the
            # reported filter scores (same order of magnitude in bits)
            assert hit.alignment.score > 0

    def test_alignments_absent_by_default(self, cpu_results):
        for hit in cpu_results.hits:
            assert hit.alignment is None

    def test_alignment_points_at_scoring_region(self, pipe, db):
        results = pipe.search(db, SearchOptions(alignments=True))
        hit = results.hits[0]
        dom = max(
            hit.alignment.domains, key=lambda d: d.seq_end - d.seq_start
        )
        seq = db[hit.index]
        assert 0 <= dom.seq_start < dom.seq_end <= len(seq)
        assert 0 <= dom.model_start < dom.model_end <= pipe.profile.M


class TestSensitivityTools:
    def test_forward_all_shape(self, pipe, db):
        bits = pipe.forward_all(db)
        assert bits.shape == (len(db),)
        assert np.isfinite(bits).all()

    def test_forward_all_consistent_with_staged_scores(self, pipe, db, cpu_results):
        """Sequences that reached the Forward stage got the same score
        the unfiltered pass computes."""
        bits = pipe.forward_all(db)
        reached = ~np.isnan(cpu_results.fwd_bits)
        assert reached.any()
        assert np.allclose(
            bits[reached], cpu_results.fwd_bits[reached], atol=1e-9
        )

    def test_filter_loss_zero_on_planted_set(self, pipe, db, cpu_results):
        lost, total = pipe.filter_loss(db, cpu_results)
        assert total >= len(cpu_results.hits)
        assert lost == 0

    def test_filter_loss_runs_search_when_needed(self, pipe, db):
        lost, total = pipe.filter_loss(db)
        assert lost == 0 and total > 0


class TestUnihitPipeline:
    def test_unihit_configuration_searches(self, hmm, db):
        """The single-domain configuration runs end to end.

        The MSV byte system is inherently multihit, so the unihit profile
        applies from the Viterbi stage onward; scores differ but the
        pipeline remains coherent.
        """
        import pytest as _pytest
        from repro.errors import ProfileError

        # a fully unihit pipeline cannot build the MSV byte profile
        with _pytest.raises(ProfileError):
            HmmsearchPipeline(
                hmm, L=150, multihit=False,
                calibration_filter_sample=80, calibration_forward_sample=25,
            )
