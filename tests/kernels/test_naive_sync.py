"""The synchronized multi-warp baseline (Figure 4) used for ablation."""

import numpy as np

from repro.cpu import msv_score_batch
from repro.gpu import KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.kernels import SYNCS_PER_ROW, msv_multiwarp_sync_kernel, msv_warp_kernel
from repro.scoring import MSVByteProfile
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


def _setup(M=64, n=5, seed=0):
    rng = np.random.default_rng(seed)
    prof = MSVByteProfile.from_profile(
        SearchProfile(sample_hmm(M, rng), L=100)
    )
    seqs = [
        DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(5, 120, size=n))
    ]
    return prof, SequenceDatabase(seqs)


class TestFunctionalEquivalence:
    def test_same_scores_as_reference(self):
        prof, db = _setup()
        assert np.array_equal(
            msv_multiwarp_sync_kernel(prof, db).scores,
            msv_score_batch(prof, db).scores,
        )

    def test_same_scores_as_warp_kernel(self):
        prof, db = _setup(M=33, seed=3)
        assert np.array_equal(
            msv_multiwarp_sync_kernel(prof, db).scores,
            msv_warp_kernel(prof, db).scores,
        )

    def test_overflow_agreement(self):
        rng = np.random.default_rng(1)
        hmm = sample_hmm(50, rng, conservation=80.0)
        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=500))
        hot = np.concatenate(
            [hmm.sample_sequence(rng) for _ in range(10)]
        ).astype(np.uint8)
        db = SequenceDatabase([DigitalSequence("hot", hot)])
        assert msv_multiwarp_sync_kernel(prof, db).scores[0] == float("inf")


class TestSynchronizationCost:
    def test_barriers_scale_with_rows(self):
        prof, db = _setup()
        c = KernelCounters()
        msv_multiwarp_sync_kernel(prof, db, counters=c)
        # 2 data barriers plus 5 reduction barriers per live block-row
        assert c.rows == db.total_residues
        assert c.syncthreads == SYNCS_PER_ROW * db.total_residues

    def test_reduction_traffic_is_per_live_block_row(self):
        """A finished block runs no reduction: its tree's 6 loads and 6
        stores are charged only while the block has rows left."""
        prof, db = _setup()
        c = KernelCounters()
        msv_multiwarp_sync_kernel(prof, db, counters=c)
        warps = -(-prof.M // 32)
        assert c.shared_loads == c.rows * (2 * warps + 6)
        assert c.shared_stores == c.rows * (warps + 6)

    def test_warp_synchronous_design_eliminates_all_barriers(self):
        """The paper's core structural claim, as a direct comparison."""
        prof, db = _setup()
        c_sync, c_warp = KernelCounters(), KernelCounters()
        msv_multiwarp_sync_kernel(prof, db, counters=c_sync)
        msv_warp_kernel(prof, db, counters=c_warp)
        assert c_sync.syncthreads > 0
        assert c_warp.syncthreads == 0
