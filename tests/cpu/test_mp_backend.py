"""Process-parallel scoring backend: shared-memory score arrays,
fork-safe seeding, and worker-count-invariant results."""

import numpy as np
import pytest

from repro.cpu import msv_score_batch, viterbi_score_batch
from repro.cpu.mp_backend import chunk_seed, mp_score_stage
from repro.gpu import KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.sequence.database import PaddedBatch
from repro.sequence.synthetic import homolog_database


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    hmm = sample_hmm(50, rng)
    sp = SearchProfile(hmm, L=100)
    db = homolog_database(36, 100, rng, hmm=hmm, homolog_fraction=0.4)
    return (MSVByteProfile.from_profile(sp),
            ViterbiWordProfile.from_profile(sp), db)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("stage", ["msv", "p7viterbi"])
    def test_bit_identical_across_worker_counts(self, workload, stage, workers):
        mp_prof, vp_prof, db = workload
        prof = mp_prof if stage == "msv" else vp_prof
        ref_fn = msv_score_batch if stage == "msv" else viterbi_score_batch
        ref = ref_fn(prof, db)
        got = mp_score_stage(stage, prof, db, workers=workers,
                             inner="cpu_sse")
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    @pytest.mark.parametrize("inner", ["cpu_sse", "gpu_warp",
                                       "gpu_warp_batched"])
    def test_inner_engines_agree(self, workload, inner):
        mp_prof, _, db = workload
        ref = msv_score_batch(mp_prof, db)
        got = mp_score_stage("msv", mp_prof, db, workers=2, inner=inner)
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    def test_counters_merged_from_workers(self, workload):
        mp_prof, _, db = workload
        serial, parallel = KernelCounters(), KernelCounters()
        mp_score_stage("msv", mp_prof, db, workers=1, inner="gpu_warp",
                       counters=serial)
        mp_score_stage("msv", mp_prof, db, workers=2, inner="gpu_warp",
                       counters=parallel)
        assert parallel.sequences == serial.sequences == len(db)
        assert parallel.rows == serial.rows
        assert parallel.cells == serial.cells

    def test_empty_batch_scores_inline(self, workload):
        _, vp_prof, _ = workload
        empty = PaddedBatch(codes=np.zeros((0, 0), dtype=np.uint8),
                            lengths=np.zeros(0, dtype=np.int64), pad_code=0)
        got = mp_score_stage("p7viterbi", vp_prof, empty, workers=2,
                             inner="gpu_warp_batched")
        assert got.scores.shape == got.overflowed.shape == (0,)


class TestChunkSeed:
    def test_content_derived_and_stable(self):
        a = chunk_seed("msv", 0, 10, b"payload")
        assert a == chunk_seed("msv", 0, 10, b"payload")
        assert a != chunk_seed("p7viterbi", 0, 10, b"payload")
        assert a != chunk_seed("msv", 10, 20, b"payload")
        assert a != chunk_seed("msv", 0, 10, b"other")

    def test_fits_in_uint64(self):
        s = chunk_seed("msv", 0, 1, b"")
        assert 0 <= s < 2 ** 64
        # usable directly as a Generator seed
        np.random.default_rng(s)
