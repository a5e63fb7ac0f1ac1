"""Result containers: StageStats, SearchHit, SearchResults."""

import json

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.gpu import KernelCounters
from repro.pipeline import SearchHit, SearchResults, StageStats


def _hit(name="h", index=0, evalue=1e-6):
    return SearchHit(
        name=name,
        index=index,
        length=100,
        msv_bits=12.0,
        msv_p=1e-4,
        vit_bits=15.0,
        vit_p=1e-5,
        fwd_bits=20.0,
        fwd_p=1e-8,
        evalue=evalue,
    )


def _results(n=10, hits=None):
    return SearchResults(
        query_name="q",
        n_targets=n,
        hits=hits or [],
        stages=[
            StageStats("msv", n, 3, rows=1000, cells=100000),
            StageStats("p7viterbi", 3, 1, rows=300, cells=30000),
            StageStats("forward", 1, 1, rows=100, cells=10000),
        ],
        msv_bits=np.zeros(n),
        vit_bits=np.full(n, np.nan),
        fwd_bits=np.full(n, np.nan),
    )


class TestStageStats:
    def test_survivor_fraction(self):
        assert StageStats("msv", 200, 5, 0, 0).survivor_fraction == 0.025

    def test_zero_input(self):
        assert StageStats("msv", 0, 0, 0, 0).survivor_fraction == 0.0


class TestSearchResults:
    def test_stage_lookup(self):
        r = _results()
        assert r.stage("p7viterbi").n_out == 1
        with pytest.raises(PipelineError):
            r.stage("missing")

    def test_hit_names(self):
        r = _results(hits=[_hit("a"), _hit("b", 1)])
        assert r.hit_names() == ["a", "b"]

    def test_summary_mentions_everything(self):
        r = _results(hits=[_hit("special-hit")])
        text = r.summary()
        assert "special-hit" in text
        assert "msv" in text and "forward" in text
        assert "targets: 10" in text

    def test_summary_truncates_long_hit_lists(self):
        hits = [_hit(f"h{i}", i, evalue=1e-6 * (i + 1)) for i in range(15)]
        text = _results(n=20, hits=hits).summary()
        assert "and 5 more hits" in text

    def test_default_alignment_is_none(self):
        assert _hit().alignment is None

    def test_counters_default_empty(self):
        assert _results().counters == {}

    def test_counters_attachable(self):
        r = _results()
        r.counters["msv"] = KernelCounters(rows=7)
        assert r.counters["msv"].rows == 7


class TestSerialization:
    def test_hit_round_trip(self):
        hit = _hit("roundtrip", index=3, evalue=2.5e-4)
        back = SearchHit.from_dict(
            json.loads(json.dumps(hit.to_dict()))
        )
        assert back == hit

    def test_hit_nan_fields_become_none(self):
        hit = SearchHit(
            name="nan-hit", index=0, length=10,
            msv_bits=5.0, msv_p=1e-3,
            vit_bits=float("nan"), vit_p=float("nan"),
            fwd_bits=float("nan"), fwd_p=float("nan"),
            evalue=float("nan"),
        )
        data = hit.to_dict()
        assert data["vit_bits"] is None and data["evalue"] is None
        json.dumps(data, allow_nan=False)  # strictly JSON-safe
        back = SearchHit.from_dict(data)
        assert np.isnan(back.vit_p) and back.msv_bits == 5.0

    def test_results_round_trip(self):
        r = _results(hits=[_hit("a"), _hit("b", 1)])
        r.counters["msv"] = KernelCounters(rows=11, shuffles=4)
        payload = json.dumps(r.to_dict(), allow_nan=False)
        back = SearchResults.from_dict(json.loads(payload))
        assert back.query_name == r.query_name
        assert back.n_targets == r.n_targets
        assert back.hits == r.hits
        assert back.stages == r.stages
        assert back.counters["msv"].rows == 11
        assert np.array_equal(back.msv_bits, r.msv_bits)
        assert np.array_equal(
            np.isnan(back.vit_bits), np.isnan(r.vit_bits)
        )

    def test_results_without_scores(self):
        data = _results().to_dict(include_scores=False)
        assert "msv_bits" not in data
        back = SearchResults.from_dict(data)
        assert back.msv_bits.shape == (10,)
        assert np.all(np.isnan(back.msv_bits))

    def test_live_search_serializes(self):
        """A real pipeline result (alignments on) survives strict JSON."""
        from repro.hmm import sample_hmm
        from repro.options import SearchOptions
        from repro.pipeline import HmmsearchPipeline
        from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes

        rng = np.random.default_rng(12)
        hmm = sample_hmm(30, rng, name="serde")
        seqs = [
            DigitalSequence(f"s{i}", random_sequence_codes(80, rng))
            for i in range(10)
        ]
        seqs.append(DigitalSequence("hom", hmm.sample_sequence(rng)))
        pipe = HmmsearchPipeline(hmm, L=80)
        results = pipe.search(
            SequenceDatabase(seqs), SearchOptions(alignments=True)
        )
        assert results.hits
        payload = json.dumps(results.to_dict(), allow_nan=False)
        back = SearchResults.from_dict(json.loads(payload))
        assert back.hit_names() == results.hit_names()
        assert back.hits[0].alignment  # rendered text survived
