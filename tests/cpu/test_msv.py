"""MSV engines: reference semantics, batch lockstep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import msv_score_batch, msv_score_sequence
from repro.constants import MSV_BYTE_MAX
from repro.cpu import results as cpu_results
from repro.errors import KernelError
from repro.hmm import SearchProfile, sample_hmm
from repro.scoring import MSVByteProfile
from repro.scoring.guardrails import GuardrailCounters
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


def _profile(M, seed=0, L=100):
    return MSVByteProfile.from_profile(
        SearchProfile(sample_hmm(M, np.random.default_rng(seed)), L=L)
    )


class TestReference:
    def test_deterministic(self, small_byte_profile, rng):
        codes = random_sequence_codes(50, rng)
        assert msv_score_sequence(small_byte_profile, codes) == msv_score_sequence(
            small_byte_profile, codes
        )

    def test_empty_rejected(self, small_byte_profile):
        with pytest.raises(KernelError):
            msv_score_sequence(small_byte_profile, np.array([], dtype=np.uint8))

    def test_random_scores_negative(self, small_byte_profile, rng):
        """Background sequences must not look like motif hits."""
        for _ in range(5):
            codes = random_sequence_codes(80, rng)
            assert msv_score_sequence(small_byte_profile, codes) < 0

    def test_homolog_scores_higher(self, small_hmm, small_byte_profile, rng):
        dom = small_hmm.sample_sequence(rng)
        random = random_sequence_codes(dom.size, rng)
        assert msv_score_sequence(small_byte_profile, dom) > msv_score_sequence(
            small_byte_profile, random
        ) + 3.0

    def test_strong_homolog_overflows_to_inf(self, rng):
        """Repeated strong domains saturate the byte system: +inf."""
        hmm = sample_hmm(60, rng, conservation=80.0)
        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=600))
        doms = [hmm.sample_sequence(rng) for _ in range(10)]
        codes = np.concatenate(doms).astype(np.uint8)
        assert msv_score_sequence(prof, codes) == float("inf")

    def test_degenerate_residues_scoreable(self, small_byte_profile):
        codes = np.array([25] * 30, dtype=np.uint8)  # all X
        score = msv_score_sequence(small_byte_profile, codes)
        assert np.isfinite(score)

    def test_score_independent_of_flank_content_scale(
        self, small_hmm, small_byte_profile, rng
    ):
        """MSV is a local alignment: extending random flanks should not
        raise the score of an embedded domain by much."""
        dom = small_hmm.sample_sequence(rng)
        short = np.concatenate([random_sequence_codes(5, rng), dom])
        long = np.concatenate(
            [random_sequence_codes(150, rng), dom, random_sequence_codes(150, rng)]
        )
        s_short = msv_score_sequence(small_byte_profile, short.astype(np.uint8))
        s_long = msv_score_sequence(small_byte_profile, long.astype(np.uint8))
        assert s_long <= s_short + 2.0


class TestBatch:
    def test_matches_sequential(self, small_byte_profile, small_database):
        batch = msv_score_batch(small_byte_profile, small_database)
        for i, seq in enumerate(small_database):
            assert batch.scores[i] == msv_score_sequence(
                small_byte_profile, seq.codes
            )

    def test_overflow_flags(self, rng):
        hmm = sample_hmm(50, rng, conservation=80.0)
        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=500))
        hot = np.concatenate(
            [hmm.sample_sequence(rng) for _ in range(10)]
        ).astype(np.uint8)
        cold = random_sequence_codes(60, rng)
        db = SequenceDatabase(
            [DigitalSequence("hot", hot), DigitalSequence("cold", cold)]
        )
        batch = msv_score_batch(prof, db)
        assert batch.overflowed[0] and not batch.overflowed[1]
        assert batch.scores[0] == float("inf")

    def test_order_independence(self, small_byte_profile, small_database):
        fwd = msv_score_batch(small_byte_profile, small_database)
        rev = msv_score_batch(
            small_byte_profile, small_database.subset(range(len(small_database) - 1, -1, -1))
        )
        assert np.array_equal(fwd.scores[::-1], rev.scores)

    def test_bits_conversion(self, small_byte_profile, small_database):
        batch = msv_score_batch(small_byte_profile, small_database)
        finite = np.isfinite(batch.scores)
        assert np.allclose(
            batch.bits()[finite], batch.scores[finite] / np.log(2)
        )


def _random_byte_profile(M, gen):
    """Any profile the byte system can hold: costs across [0, 255], so
    cells pin at the u8 ceiling and lanes overflow."""
    return MSVByteProfile(
        M=M, L=100, rbv=gen.integers(0, MSV_BYTE_MAX + 1, size=(29, M)),
        tbm=int(gen.integers(0, 40)), tec=int(gen.integers(0, 40)),
        tjb=int(gen.integers(0, 40)), bias=int(gen.integers(0, 120)),
    )


def _assert_batch_matches_spec(prof, seqs):
    """The lockstep batch scorer against the per-sequence spec: scores,
    overflow flags and the saturation tally."""
    guard = GuardrailCounters()
    got = msv_score_batch(prof, SequenceDatabase(seqs), guard=guard)
    spec_guard = GuardrailCounters()
    want = np.array(
        [msv_score_sequence(prof, s.codes, guard=spec_guard) for s in seqs]
    )
    assert np.array_equal(got.scores, want)
    assert np.array_equal(got.overflowed, want == float("inf"))
    assert guard.saturations == spec_guard.saturations
    return got


class TestLockstepBatch:
    """``msv_score_batch`` runs natively in u8 with the clamp-before-add
    identities, retires overflowed lanes and cuts lanes into blocks; the
    spec does none of that."""

    @given(
        M=st.integers(min_value=1, max_value=50),
        lengths=st.lists(st.integers(min_value=1, max_value=90),
                         min_size=1, max_size=8),
        conservation=st.sampled_from([3.0, 30.0, 90.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_ragged_batches_match_spec(self, M, lengths, conservation, seed):
        gen = np.random.default_rng(seed)
        hmm = sample_hmm(M, gen, conservation=conservation)
        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=100))
        seqs = []
        for k, L in enumerate(lengths):
            if k % 2:  # homolog-rich lanes, cut to length: some overflow
                codes = np.concatenate(
                    [hmm.sample_sequence(gen) for _ in range(1 + L // M)]
                )[:L]
            else:
                codes = random_sequence_codes(L, gen)
            seqs.append(DigitalSequence(f"s{k}", codes.astype(np.uint8)))
        _assert_batch_matches_spec(prof, seqs)

    @given(
        M=st.integers(min_value=1, max_value=40),
        lengths=st.lists(st.integers(min_value=1, max_value=60),
                         min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_byte_profiles_match_spec(self, M, lengths, seed):
        gen = np.random.default_rng(seed)
        prof = _random_byte_profile(M, gen)
        seqs = [DigitalSequence(f"s{k}", random_sequence_codes(L, gen))
                for k, L in enumerate(lengths)]
        _assert_batch_matches_spec(prof, seqs)

    def test_overflow_mid_batch_on_equal_lengths(self):
        """Every lane is live on every row until the hot lane overflows
        some rows in; it then leaves the live prefix mid-batch."""
        gen = np.random.default_rng(4)
        hmm = sample_hmm(30, gen, conservation=90.0)
        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=400))
        hot = np.concatenate([hmm.sample_sequence(gen) for _ in range(8)])
        hot = hot[:120].astype(np.uint8)
        assert np.isfinite(msv_score_sequence(prof, hot[:5]))
        seqs = [DigitalSequence(f"r{k}", random_sequence_codes(120, gen))
                for k in range(4)]
        seqs.insert(2, DigitalSequence("hot", hot))
        got = _assert_batch_matches_spec(prof, seqs)
        assert got.overflowed.tolist() == [False, False, True, False, False]

    @pytest.mark.parametrize("lengths", [[1], [5, 1, 3], [40, 40]])
    def test_single_node_model(self, lengths):
        prof = _profile(1, seed=3)
        gen = np.random.default_rng(len(lengths))
        seqs = [DigitalSequence(f"s{k}", random_sequence_codes(L, gen))
                for k, L in enumerate(lengths)]
        _assert_batch_matches_spec(prof, seqs)

    def test_more_lanes_than_one_block(self):
        """Lanes past the first block start again at their own longest
        lane; overflowing homologs sit in both blocks."""
        gen = np.random.default_rng(8)
        hmm = sample_hmm(12, gen, conservation=90.0)
        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=30))
        n = cpu_results.LANE_BLOCK + 40
        lengths = gen.integers(1, 9, size=n)
        seqs = []
        for k, L in enumerate(lengths):
            if k % 97 == 0:
                codes = np.concatenate([hmm.sample_sequence(gen) for _ in range(6)])
                seqs.append(DigitalSequence(f"h{k}", codes[:40].astype(np.uint8)))
            else:
                seqs.append(DigitalSequence(f"s{k}", random_sequence_codes(int(L), gen)))
        got = _assert_batch_matches_spec(prof, seqs)
        assert got.overflowed.any()

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_tiny_blocks_match_spec(self, block, monkeypatch):
        """Many blocks, each retiring lanes on its own."""
        monkeypatch.setattr(cpu_results, "LANE_BLOCK", block)
        gen = np.random.default_rng(block)
        prof = _random_byte_profile(17, gen)
        seqs = [DigitalSequence(f"s{k}", random_sequence_codes(int(L), gen))
                for k, L in enumerate(gen.integers(1, 50, size=11))]
        _assert_batch_matches_spec(prof, seqs)
