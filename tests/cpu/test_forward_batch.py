"""Batched Forward engine equals the per-sequence engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import generic_forward_score
from repro.cpu.forward_batch import forward_score_batch
from repro.cpu.generic import GenericProfile
from repro.hmm import SearchProfile, sample_hmm
from repro.scoring.guardrails import GuardrailCounters
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


class TestBatchForward:
    def test_matches_per_sequence(self, small_profile, small_database):
        batch = forward_score_batch(small_profile, small_database)
        for i, seq in enumerate(small_database):
            single = generic_forward_score(small_profile, seq.codes)
            assert batch[i] == pytest.approx(single, abs=1e-9)

    def test_mixed_extreme_lengths(self, rng):
        hmm = sample_hmm(25, rng)
        prof = SearchProfile(hmm, L=80)
        seqs = [
            DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
            for i, L in enumerate([1, 2, 250, 30, 1])
        ]
        db = SequenceDatabase(seqs)
        batch = forward_score_batch(prof, db)
        for i, s in enumerate(seqs):
            assert batch[i] == pytest.approx(
                generic_forward_score(prof, s.codes), abs=1e-9
            )

    def test_homolog_scores_dominate(self, small_hmm, small_profile, rng):
        dom = small_hmm.sample_sequence(rng)
        rand = random_sequence_codes(dom.size, rng)
        db = SequenceDatabase(
            [DigitalSequence("hom", dom), DigitalSequence("rand", rand)]
        )
        scores = forward_score_batch(small_profile, db)
        assert scores[0] > scores[1] + 5.0

    def test_order_independence(self, small_profile, small_database):
        fwd = forward_score_batch(small_profile, small_database)
        rev_db = small_database.subset(
            list(range(len(small_database) - 1, -1, -1))
        )
        rev = forward_score_batch(small_profile, rev_db)
        assert np.allclose(fwd[::-1], rev, atol=1e-12)


@given(
    M=st.integers(min_value=1, max_value=30),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None)
def test_batch_equals_single_property(M, n, seed):
    rng = np.random.default_rng(seed)
    prof = SearchProfile(sample_hmm(M, rng), L=40)
    seqs = [
        DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(1, 60, size=n))
    ]
    db = SequenceDatabase(seqs)
    batch = forward_score_batch(prof, db)
    for i, s in enumerate(seqs):
        assert batch[i] == pytest.approx(
            generic_forward_score(prof, s.codes), abs=1e-8
        )


def _db(codes_list):
    return SequenceDatabase(
        [DigitalSequence(f"s{i}", c) for i, c in enumerate(codes_list)]
    )


def _assert_oracle(prof, codes_list, guard=None):
    batch = forward_score_batch(prof, _db(codes_list), guard=guard)
    for got, codes in zip(batch, codes_list):
        want = generic_forward_score(prof, codes)
        if np.isfinite(want):
            assert got == pytest.approx(want, abs=1e-9)
        else:
            assert got == want
    return batch


class TestOddsSpaceEdges:
    """Cases the scaled odds-space recurrence handles specially."""

    def test_single_node_model(self, rng):
        prof = SearchProfile(sample_hmm(1, rng), L=30)
        _assert_oracle(
            prof, [random_sequence_codes(L, rng) for L in (1, 2, 7, 40)]
        )

    def test_length_one_beside_very_long_sequences(self, rng):
        # scores far past e^+-709 overflow or underflow unless every row
        # is rescaled: repeated domains climb, a short-L null decays
        hmm = sample_hmm(20, rng)
        repeats = []
        while sum(map(len, repeats)) < 5000:
            repeats.append(hmm.sample_sequence(rng))
        codes = [
            random_sequence_codes(1, rng),
            np.concatenate(repeats).astype(np.uint8),
            random_sequence_codes(1, rng),
            random_sequence_codes(5200, rng),
        ]
        batch = _assert_oracle(SearchProfile(hmm, L=5), codes)
        assert batch[1] > 1000.0

    def test_impossible_delete_link_restarts_the_chain(self, rng):
        gp = GenericProfile.from_profile(SearchProfile(sample_hmm(30, rng), L=60))
        tdd = gp.tdd.copy()
        tdd[[0, 9, 10, 20]] = -np.inf
        prof = dataclasses.replace(gp, tdd=tdd)
        _assert_oracle(prof, [random_sequence_codes(L, rng) for L in (1, 25, 80)])

    def test_delete_chain_past_chunk_bound_carries(self, rng):
        # 250 links of -3 nats: the chain is cut where its log-product
        # passes -600 (before node 201) and D carries across the cut
        gp = GenericProfile.from_profile(SearchProfile(sample_hmm(250, rng), L=60))
        prof = dataclasses.replace(gp, tdd=np.full(gp.M, -3.0))
        codes = [random_sequence_codes(L, rng) for L in (1, 12, 40)]
        batch = _assert_oracle(prof, codes)
        # the link across the cut carries weight: severing it moves the
        # scores by far more than the equality tolerance
        tdd = prof.tdd.copy()
        tdd[200] = -np.inf
        severed = forward_score_batch(dataclasses.replace(prof, tdd=tdd), _db(codes))
        assert np.max(np.abs(batch - severed)) > 1e-8

    def test_nonfinite_count_matches_oracle(self, rng):
        # a residue no match state can emit: a sequence made only of it
        # has no path through the model and scores -inf
        gp = GenericProfile.from_profile(SearchProfile(sample_hmm(15, rng), L=40))
        msc = gp.msc.copy()
        msc[3, :] = -np.inf
        prof = dataclasses.replace(gp, msc=msc)
        codes = [
            np.full(6, 3, dtype=np.uint8),
            random_sequence_codes(20, rng),
            np.full(1, 3, dtype=np.uint8),
        ]
        g = GuardrailCounters()
        batch = _assert_oracle(prof, codes, guard=g)
        assert np.isneginf(batch[[0, 2]]).all() and np.isfinite(batch[1])
        assert g.nonfinite == 2
