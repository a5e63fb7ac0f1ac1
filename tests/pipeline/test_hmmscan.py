"""hmmscan-style scanning: one query sequence against a model library,
through the pressed catalog and the scan service."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.hmm import sample_hmm
from repro.options import PipelineThresholds, SearchOptions
from repro.scan import LibraryCatalog, PressSettings, ScanOptions, ScanService
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(55)
    return [
        sample_hmm(M, rng, name=f"fam{M}", conservation=30.0)
        for M in (30, 50, 80)
    ]


@pytest.fixture(scope="module")
def library(models):
    return LibraryCatalog.press(models, settings=PressSettings(
        L=120, calibration_filter_sample=150, calibration_forward_sample=40
    ))


def scan(library, seq, options=None):
    db = SequenceDatabase([seq], name=seq.name)
    return ScanService(library).scan(db, options)


def msv_survivors(results):
    """Models whose MSV filter passed the query."""
    return sum(bool(st[0].n_out) for st in results.model_stages.values())


class TestConstruction:
    def test_length_and_names(self, library, models):
        assert len(library) == 3
        assert library.names() == [m.name for m in models]

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            LibraryCatalog.press([])

    def test_duplicate_names_rejected(self, models):
        with pytest.raises(PipelineError):
            LibraryCatalog.press([models[0], models[0]])


class TestScanning:
    def test_member_matches_its_family_only(self, library, models):
        rng = np.random.default_rng(9)
        for truth in models:
            dom = truth.sample_sequence(rng)
            flank = random_sequence_codes(20, rng)
            seq = DigitalSequence(
                f"member-of-{truth.name}",
                np.concatenate([flank, dom]).astype(np.uint8),
            )
            results = scan(library, seq)
            assert results.hit_models() == [truth.name]
            assert results.n_models == 3

    def test_random_sequence_matches_nothing(self, library):
        rng = np.random.default_rng(10)
        seq = DigitalSequence("random", random_sequence_codes(150, rng))
        results = scan(library, seq)
        assert results.hits == []
        # the cascade short-circuits: few models get past MSV
        assert msv_survivors(results) <= 1

    def test_hits_sorted_by_evalue(self, library, models):
        rng = np.random.default_rng(11)
        # a chimera containing domains of two families
        d0 = models[0].sample_sequence(rng)
        d2 = models[2].sample_sequence(rng)
        seq = DigitalSequence(
            "chimera", np.concatenate([d0, d2]).astype(np.uint8)
        )
        results = scan(library, seq)
        assert len(results.hits) == 2
        assert {h.model_name for h in results.hits} == {
            models[0].name,
            models[2].name,
        }
        evalues = [h.evalue for h in results.hits]
        assert evalues == sorted(evalues)

    def test_summary_renders(self, library, models):
        rng = np.random.default_rng(12)
        seq = DigitalSequence("m", models[1].sample_sequence(rng))
        text = scan(library, seq).summary()
        assert "models: 3" in text

    def test_evalue_uses_library_size(self, library, models):
        rng = np.random.default_rng(13)
        seq = DigitalSequence("m", models[0].sample_sequence(rng))
        hit = scan(library, seq).hits[0]
        assert hit.evalue == pytest.approx(hit.fwd_p * len(library))

    def test_thresholds_respected(self, library, models):
        rng = np.random.default_rng(14)
        seq = DigitalSequence("m", models[0].sample_sequence(rng))
        strict = ScanOptions(
            search=SearchOptions(thresholds=PipelineThresholds(f1=1e-9))
        )
        # an astronomically strict MSV gate blocks everything ordinary
        results = scan(library, seq, strict)
        assert msv_survivors(results) <= 1
