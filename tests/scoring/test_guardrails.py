"""Numerical guardrails: saturation/overflow/underflow/NaN accounting.

The load-bearing property: the CPU reference engines and the warp
kernels count the *same* saturation events, so guardrail telemetry is
engine-invariant just like the scores themselves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cpu.forward_batch import forward_score_batch
from repro.cpu.msv_reference import msv_score_batch, msv_score_sequence
from repro.cpu.viterbi_reference import (
    viterbi_score_batch,
    viterbi_score_sequence,
)
from repro.gpu.counters import KernelCounters
from repro.gpu.device import FERMI_GTX580, KEPLER_K40
from repro.kernels.msv_warp import msv_warp_kernel
from repro.kernels.viterbi_warp import viterbi_warp_kernel
from repro.options import SearchOptions
from repro.pipeline.pipeline import HmmsearchPipeline
from repro.scoring.guardrails import GuardrailCounters


class TestCounters:
    def test_merge_sums_fields(self):
        a = GuardrailCounters(saturations=1, overflows=2)
        b = GuardrailCounters(saturations=10, underflows=3, nonfinite=4)
        a.merge(b)
        assert a.saturations == 11
        assert a.overflows == 2
        assert a.underflows == 3
        assert a.nonfinite == 4
        assert a.total_events == 20

    def test_dict_roundtrip(self):
        g = GuardrailCounters(saturations=5, overflows=1)
        assert GuardrailCounters.from_dict(g.to_dict()) == g

    def test_describe_mentions_counts(self):
        g = GuardrailCounters(overflows=7)
        assert "overflows=7" in g.describe()


@pytest.fixture
def hot_byte_profile(small_byte_profile):
    """Bias inflated so u8 cells provably pin at the 255 ceiling."""
    return dataclasses.replace(small_byte_profile, bias=np.uint8(200))


class TestMsvSaturationAccounting:
    def test_scalar_batch_and_warp_agree(self, hot_byte_profile, small_database):
        scalar = GuardrailCounters()
        for seq in small_database:
            msv_score_sequence(hot_byte_profile, seq.codes, guard=scalar)
        batch = GuardrailCounters()
        cpu = msv_score_batch(hot_byte_profile, small_database, guard=batch)
        kc = KernelCounters()
        gpu = msv_warp_kernel(
            hot_byte_profile, small_database, device=KEPLER_K40, counters=kc
        )
        assert scalar.saturations > 0
        assert batch.saturations == scalar.saturations
        assert kc.saturations == scalar.saturations
        # saturating arithmetic means scores stay bit-identical too
        assert np.array_equal(cpu.scores, gpu.scores)

    def test_natural_profile_still_agrees(
        self, small_byte_profile, small_database
    ):
        batch = GuardrailCounters()
        msv_score_batch(small_byte_profile, small_database, guard=batch)
        kc = KernelCounters()
        msv_warp_kernel(
            small_byte_profile, small_database, device=FERMI_GTX580, counters=kc
        )
        assert kc.saturations == batch.saturations

    def test_guard_is_optional(self, small_byte_profile, small_database):
        with_guard = msv_score_batch(
            small_byte_profile, small_database, guard=GuardrailCounters()
        )
        without = msv_score_batch(small_byte_profile, small_database)
        assert np.array_equal(with_guard.scores, without.scores)


class TestViterbiSaturationAccounting:
    def test_batch_and_warp_agree(self, small_word_profile, small_database):
        scalar = GuardrailCounters()
        for seq in small_database:
            viterbi_score_sequence(
                small_word_profile, seq.codes, guard=scalar
            )
        batch = GuardrailCounters()
        cpu = viterbi_score_batch(
            small_word_profile, small_database, guard=batch
        )
        kc = KernelCounters()
        gpu = viterbi_warp_kernel(
            small_word_profile, small_database, device=KEPLER_K40, counters=kc
        )
        assert batch.saturations == scalar.saturations
        assert kc.saturations == batch.saturations
        assert np.array_equal(cpu.scores, gpu.scores)


class TestForwardNonfiniteAccounting:
    def test_counts_match_output(self, medium_profile, small_database):
        g = GuardrailCounters()
        nats = forward_score_batch(medium_profile, small_database, guard=g)
        assert g.nonfinite == int(np.count_nonzero(~np.isfinite(nats)))

    def test_clean_batch_counts_zero(self, medium_profile, small_database):
        g = GuardrailCounters()
        nats = forward_score_batch(medium_profile, small_database, guard=g)
        assert np.all(np.isfinite(nats))
        assert g.nonfinite == 0


class TestPipelineStageGuards:
    def test_stage_stats_carry_guards(self, medium_hmm, medium_database):
        pipe = HmmsearchPipeline(medium_hmm, L=220)
        res_cpu = pipe.search(
            medium_database, SearchOptions(engine="cpu_sse")
        )
        res_gpu = pipe.search(
            medium_database, SearchOptions(engine="gpu_warp")
        )
        for res in (res_cpu, res_gpu):
            guards = {s.name: s.guard for s in res.stages}
            assert guards["msv"] is not None
            assert guards["p7viterbi"] is not None
        # guardrail telemetry is engine-invariant, like the scores
        for cs, gs in zip(res_cpu.stages, res_gpu.stages):
            if cs.guard is not None:
                assert cs.guard == gs.guard

    def test_overflows_count_overflowed_lanes(self, medium_hmm, medium_database):
        from repro.scoring.msv_profile import MSVByteProfile

        pipe = HmmsearchPipeline(medium_hmm, L=220)
        res = pipe.search(
            medium_database, SearchOptions(engine="cpu_sse")
        )
        prof = pipe.profile
        raw = msv_score_batch(MSVByteProfile.from_profile(prof), medium_database)
        msv_guard = {s.name: s.guard for s in res.stages}["msv"]
        assert msv_guard.overflows == int(np.count_nonzero(raw.overflowed))

    def test_stage_stats_dict_roundtrip_with_guard(self):
        from repro.pipeline.results import StageStats

        s = StageStats(
            "msv", 10, 3, 120, 1000, guard=GuardrailCounters(saturations=2)
        )
        restored = StageStats.from_dict(s.to_dict())
        assert restored.guard == s.guard
