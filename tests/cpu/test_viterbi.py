"""ViterbiFilter engines: reference semantics, exact Delete chain, batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import VF_WORD_MAX, VF_WORD_MIN
from repro.cpu import exact_d_chain, viterbi_score_batch, viterbi_score_sequence
from repro.errors import KernelError
from repro.hmm import SearchProfile, sample_hmm
from repro.scoring import ViterbiWordProfile
from repro.scoring.guardrails import GuardrailCounters
from repro.scoring.quantized import sat_add_i16
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


def _profile(M, seed=0, L=100):
    return ViterbiWordProfile.from_profile(
        SearchProfile(sample_hmm(M, np.random.default_rng(seed)), L=L)
    )


class TestExactDChain:
    def _serial(self, m_row, tmd, tdd):
        """The executable definition: serial saturating recurrence."""
        M = m_row.shape[0]
        D = np.full(M, VF_WORD_MIN, dtype=np.int64)
        for j in range(1, M):
            start = int(sat_add_i16(m_row[j - 1], tmd[j - 1]))
            chain = int(sat_add_i16(D[j - 1], tdd[j - 1]))
            D[j] = max(start, chain)
        return D

    @given(
        M=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_scan_equals_serial(self, M, seed):
        gen = np.random.default_rng(seed)
        m_row = gen.integers(-32768, 2000, size=M).astype(np.int32)
        tmd = gen.integers(-3000, 0, size=M).astype(np.int32)
        tdd = gen.integers(-3000, 0, size=M).astype(np.int32)
        scan = exact_d_chain(m_row, tmd, tdd)
        assert np.array_equal(scan, self._serial(m_row, tmd, tdd))

    def test_neg_inf_transitions(self):
        m_row = np.array([100, 200, 300], dtype=np.int32)
        tmd = np.array([-50, VF_WORD_MIN, -50], dtype=np.int32)
        tdd = np.array([VF_WORD_MIN, -10, VF_WORD_MIN], dtype=np.int32)
        assert np.array_equal(
            exact_d_chain(m_row, tmd, tdd), self._serial(m_row, tmd, tdd)
        )

    def test_batch_axis(self):
        gen = np.random.default_rng(5)
        rows = gen.integers(-32768, 1000, size=(4, 20)).astype(np.int32)
        tmd = gen.integers(-2000, 0, size=20).astype(np.int32)
        tdd = gen.integers(-2000, 0, size=20).astype(np.int32)
        batched = exact_d_chain(rows, tmd, tdd)
        for i in range(4):
            assert np.array_equal(batched[i], exact_d_chain(rows[i], tmd, tdd))

    def test_shape_validation(self):
        with pytest.raises(KernelError):
            exact_d_chain(np.zeros(5, np.int32), np.zeros(4, np.int32), np.zeros(5, np.int32))


class TestReference:
    def test_homolog_scores_higher(self, small_hmm, small_word_profile, rng):
        dom = small_hmm.sample_sequence(rng)
        random = random_sequence_codes(dom.size, rng)
        assert viterbi_score_sequence(
            small_word_profile, dom
        ) > viterbi_score_sequence(small_word_profile, random) + 3.0

    def test_random_scores_negative(self, small_word_profile, rng):
        for _ in range(5):
            assert (
                viterbi_score_sequence(
                    small_word_profile, random_sequence_codes(70, rng)
                )
                < 0
            )

    def test_empty_rejected(self, small_word_profile):
        with pytest.raises(KernelError):
            viterbi_score_sequence(small_word_profile, np.array([], dtype=np.uint8))

    def test_vf_tracks_generic_viterbi(self, small_profile, small_word_profile, rng):
        """Word quantization error is bounded: VF ~ generic Viterbi within
        the filter's documented tolerance (loop approximations < ~1 nat
        plus quantization)."""
        from repro.cpu import generic_viterbi_score

        for _ in range(5):
            codes = random_sequence_codes(90, rng)
            vf = viterbi_score_sequence(small_word_profile, codes)
            gv = generic_viterbi_score(small_profile, codes)
            assert abs(vf - gv) < 1.5

    def test_msv_leq_viterbi_like_scores(self, small_byte_profile,
                                         small_word_profile, small_hmm, rng):
        """On a true domain, the full model finds at least the ungapped
        MSV alignment (scores agree within the models' approximations)."""
        from repro.cpu import msv_score_sequence

        dom = small_hmm.sample_sequence(rng)
        m = msv_score_sequence(small_byte_profile, dom)
        v = viterbi_score_sequence(small_word_profile, dom)
        if np.isfinite(m) and np.isfinite(v):
            assert v >= m - 3.0


class TestBatch:
    def test_matches_sequential(self, small_word_profile, small_database):
        batch = viterbi_score_batch(small_word_profile, small_database)
        for i, seq in enumerate(small_database):
            assert batch.scores[i] == viterbi_score_sequence(
                small_word_profile, seq.codes
            )

    def test_mixed_lengths(self, rng):
        prof = _profile(25)
        seqs = [
            DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
            for i, L in enumerate([1, 3, 200, 50, 17])
        ]
        db = SequenceDatabase(seqs)
        batch = viterbi_score_batch(prof, db)
        for i, seq in enumerate(seqs):
            assert batch.scores[i] == viterbi_score_sequence(prof, seq.codes)


def _random_word_profile(M, gen):
    """A word profile with arbitrary in-range values: emissions up to
    +7000 with a fifth pinned at -32768, costs anywhere in [-32768, 0]."""

    def costs(size=M, lo=VF_WORD_MIN):
        return gen.integers(lo, 1, size=size).astype(np.int32)

    rwv = gen.integers(-3000, 7000, size=(29, M)).astype(np.int32)
    rwv[gen.random((29, M)) < 0.2] = VF_WORD_MIN
    return ViterbiWordProfile(
        M=M, L=100, rwv=rwv, tbm=int(costs(1)[0]),
        enter_mm=costs(lo=-3000), enter_im=costs(), enter_dm=costs(),
        tmi=costs(), tii=costs(), tmd=costs(lo=-3000), tdd=costs(lo=-1500),
        xE_move=int(costs(1, -3000)[0]), xE_loop=int(costs(1, -3000)[0]),
        xNJ_move=int(costs(1, -20000)[0]),
    )


def _assert_batch_matches_spec(prof, seqs):
    """The fused batch scorer against the row-at-a-time spec, one
    sequence at a time: scores, overflow flags and saturation tally."""
    guard = GuardrailCounters()
    got = viterbi_score_batch(prof, SequenceDatabase(seqs), guard=guard)
    spec_guard = GuardrailCounters()
    want = np.array(
        [viterbi_score_sequence(prof, s.codes, guard=spec_guard) for s in seqs]
    )
    assert np.array_equal(got.scores, want)
    assert np.array_equal(got.overflowed, want == float("inf"))
    assert guard.saturations == spec_guard.saturations
    return got


class TestFusedBatch:
    """``viterbi_score_batch`` fuses the clips, hoists the Delete-chain
    constants and double-buffers its rows; the spec does none of that."""

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
        prof = ViterbiWordProfile.from_profile(SearchProfile(hmm, L=100))
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
    def test_arbitrary_word_profiles_match_spec(self, M, lengths, seed):
        """Any profile the word system can hold, not only quantized
        HMMs: scores reach both ends of the range, so cells saturate at
        the floor and lanes overflow at the ceiling."""
        gen = np.random.default_rng(seed)
        prof = _random_word_profile(M, gen)
        seqs = [DigitalSequence(f"s{k}", random_sequence_codes(L, gen))
                for k, L in enumerate(lengths)]
        _assert_batch_matches_spec(prof, seqs)

    def test_overflow_mid_batch_on_equal_lengths(self):
        """Every lane is live on every row until the hot lane overflows
        after row 10; it then leaves the live prefix mid-batch."""
        gen = np.random.default_rng(4)
        hmm = sample_hmm(30, gen, conservation=90.0)
        prof = ViterbiWordProfile.from_profile(SearchProfile(hmm, L=400))
        hot = np.concatenate([hmm.sample_sequence(gen) for _ in range(8)])
        hot = hot[:120].astype(np.uint8)
        assert np.isfinite(viterbi_score_sequence(prof, hot[:10]))
        seqs = [DigitalSequence(f"r{k}", random_sequence_codes(120, gen))
                for k in range(4)]
        seqs.insert(2, DigitalSequence("hot", hot))
        got = _assert_batch_matches_spec(prof, seqs)
        assert got.overflowed.tolist() == [False, False, True, False, False]

    def test_overflowed_lane_stops_counting_saturations(self):
        """Code 0 overflows the lane on its second residue; each code 1
        after that pins every cell of the row at -32768.  The spec stops
        at the overflow, so the batch must not count those cells."""
        M = 5
        rwv = np.zeros((29, M), dtype=np.int32)
        rwv[0], rwv[1] = VF_WORD_MAX, VF_WORD_MIN
        never = np.full(M, VF_WORD_MIN, dtype=np.int32)
        prof = ViterbiWordProfile(
            M=M, L=10, rwv=rwv, tbm=VF_WORD_MIN,
            enter_mm=np.zeros(M, dtype=np.int32), enter_im=never,
            enter_dm=never, tmi=never, tii=never, tmd=never, tdd=never,
            xE_move=-1000, xE_loop=-1000, xNJ_move=0,
        )
        hot = DigitalSequence("hot", np.array([0, 0, 1, 1, 1, 1], np.uint8))
        cold = DigitalSequence("cold", np.array([1, 1, 1, 1, 1, 1], np.uint8))
        got = _assert_batch_matches_spec(prof, [cold, hot])
        assert got.overflowed.tolist() == [False, True]

    @pytest.mark.parametrize("lengths", [[1], [5, 1, 3], [40, 40]])
    def test_single_node_model(self, lengths):
        prof = _profile(1, seed=3)
        gen = np.random.default_rng(len(lengths))
        seqs = [DigitalSequence(f"s{k}", random_sequence_codes(L, gen))
                for k, L in enumerate(lengths)]
        _assert_batch_matches_spec(prof, seqs)

    def test_delete_chain_carrier_does_not_wrap(self):
        """M = 70 000 with every D->D cost at -32768: the cumulative
        chain cost reaches -2.3e9, past the int32 range.  Row 2's best
        cells sit past node 65 536 and are entered from Delete, so a
        wrapped carrier changes the score."""
        M = 70_000
        far = np.arange(M) >= 66_000
        rwv = np.where(far, 1500, -2000).astype(np.int32)
        prof = ViterbiWordProfile(
            M=M, L=2, rwv=np.tile(rwv, (29, 1)), tbm=-9000,
            enter_mm=np.full(M, -20000, dtype=np.int32),
            enter_im=np.full(M, -20000, dtype=np.int32),
            enter_dm=np.zeros(M, dtype=np.int32),
            tmi=np.full(M, -600, dtype=np.int32),
            tii=np.full(M, -600, dtype=np.int32),
            tmd=np.full(M, -100, dtype=np.int32),
            tdd=np.full(M, VF_WORD_MIN, dtype=np.int32),
            xE_move=-700, xE_loop=-700, xNJ_move=-10,
        )
        seq = DigitalSequence("two", np.array([3, 7], dtype=np.uint8))
        got = _assert_batch_matches_spec(prof, [seq])
        assert np.isfinite(got.scores[0])
