"""Full-precision engines: brute-force ground truth and dualities.

The key test here enumerates *every* path through the profile state
machine for tiny models and sequences, computing Viterbi as the max and
Forward as the log-sum-exp over the explicit path scores.  This pins the
DP recurrences (including the flanking N/B/E/C/J machinery and the
within-row Delete chains) to the probabilistic model itself.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import (
    GenericProfile,
    generic_backward_score,
    generic_forward_score,
    generic_viterbi_score,
    posterior_decode,
    viterbi_traceback,
)
from repro.errors import KernelError
from repro.hmm import SearchProfile, sample_hmm
from repro.sequence import random_sequence_codes

NEG = float("-inf")


def enumerate_path_scores(gp: GenericProfile, codes: np.ndarray) -> list[float]:
    """All complete-path scores of the profile on a digital sequence."""
    L = codes.size
    M = gp.M
    out: list[float] = []

    def em(i: int, j: int) -> float:
        return float(gp.msc[int(codes[i])][j])

    def from_N(i: int, acc: float) -> None:
        if i < L:
            step = acc + gp.N_loop
            if np.isfinite(step):
                from_N(i + 1, step)
        if np.isfinite(gp.N_move):
            from_B(i, acc + gp.N_move)

    def from_B(i: int, acc: float) -> None:
        if i >= L:
            return  # a domain must consume at least one residue
        for j in range(M):
            score = acc + gp.tbm + em(i, j)
            if np.isfinite(score):
                from_M(j, i + 1, score)

    def from_M(j: int, i: int, acc: float) -> None:
        from_E(i, acc)  # free local exit
        if j + 1 < M and i < L:
            s = acc + gp.tmm[j] + em(i, j + 1)
            if np.isfinite(s):
                from_M(j + 1, i + 1, s)
        if i < L and np.isfinite(gp.tmi[j]):
            from_I(j, i + 1, acc + gp.tmi[j])
        if j + 1 < M and np.isfinite(gp.tmd[j]):
            from_D(j + 1, i, acc + gp.tmd[j])

    def from_I(j: int, i: int, acc: float) -> None:
        if j + 1 < M and i < L:
            s = acc + gp.tim[j] + em(i, j + 1)
            if np.isfinite(s):
                from_M(j + 1, i + 1, s)
        if i < L and np.isfinite(gp.tii[j]):
            from_I(j, i + 1, acc + gp.tii[j])

    def from_D(j: int, i: int, acc: float) -> None:
        if j + 1 < M and i < L:
            s = acc + gp.tdm[j] + em(i, j + 1)
            if np.isfinite(s):
                from_M(j + 1, i + 1, s)
        if j + 1 < M and np.isfinite(gp.tdd[j]):
            from_D(j + 1, i, acc + gp.tdd[j])

    def from_E(i: int, acc: float) -> None:
        if np.isfinite(gp.E_move):
            from_C(i, acc + gp.E_move)
        if np.isfinite(gp.E_loop):
            from_J(i, acc + gp.E_loop)

    def from_J(i: int, acc: float) -> None:
        if i < L:
            from_J(i + 1, acc + gp.J_loop)
        from_B(i, acc + gp.J_move)

    def from_C(i: int, acc: float) -> None:
        if i < L:
            from_C(i + 1, acc + gp.C_loop)
        else:
            out.append(acc + gp.C_move)

    from_N(0, 0.0)
    return out


@pytest.mark.parametrize("M,L,seed", [(1, 1, 0), (2, 2, 1), (2, 3, 2),
                                      (3, 3, 3), (3, 4, 4), (4, 3, 5)])
def test_brute_force_ground_truth(M, L, seed):
    """DP engines agree with explicit path enumeration."""
    rng = np.random.default_rng(seed)
    profile = SearchProfile(sample_hmm(M, rng), L=L)
    gp = GenericProfile.from_profile(profile)
    codes = random_sequence_codes(L, rng)
    scores = np.array(enumerate_path_scores(gp, codes))
    assert scores.size > 0
    expected_viterbi = scores.max()
    mx = scores.max()
    expected_forward = mx + math.log(np.exp(scores - mx).sum())

    assert generic_viterbi_score(gp, codes) == pytest.approx(
        expected_viterbi, abs=1e-9
    )
    assert generic_forward_score(gp, codes) == pytest.approx(
        expected_forward, abs=1e-9
    )
    assert generic_backward_score(gp, codes) == pytest.approx(
        expected_forward, abs=1e-9
    )


def test_unihit_brute_force():
    """The unihit configuration removes the J loop; enumeration agrees."""
    rng = np.random.default_rng(9)
    profile = SearchProfile(sample_hmm(2, rng), L=3, multihit=False)
    gp = GenericProfile.from_profile(profile)
    codes = random_sequence_codes(3, rng)
    scores = np.array(enumerate_path_scores(gp, codes))
    mx = scores.max()
    assert generic_viterbi_score(gp, codes) == pytest.approx(mx, abs=1e-9)
    assert generic_forward_score(gp, codes) == pytest.approx(
        mx + math.log(np.exp(scores - mx).sum()), abs=1e-9
    )


class TestDualities:
    @given(
        M=st.integers(min_value=1, max_value=25),
        L=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_forward_equals_backward(self, M, L, seed):
        rng = np.random.default_rng(seed)
        profile = SearchProfile(sample_hmm(M, rng), L=L)
        codes = random_sequence_codes(L, rng)
        f = generic_forward_score(profile, codes)
        b = generic_backward_score(profile, codes)
        assert f == pytest.approx(b, abs=1e-7)

    @given(
        M=st.integers(min_value=1, max_value=25),
        L=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_viterbi_le_forward(self, M, L, seed):
        """Max over paths can never exceed the sum over paths."""
        rng = np.random.default_rng(seed)
        profile = SearchProfile(sample_hmm(M, rng), L=L)
        codes = random_sequence_codes(L, rng)
        assert generic_viterbi_score(profile, codes) <= generic_forward_score(
            profile, codes
        ) + 1e-9


class TestSharedPasses:
    @given(
        M=st.integers(min_value=1, max_value=40),
        L=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        cut=st.none() | st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_callers_reproduce_the_scores(self, M, L, seed, cut):
        """Posterior decoding and traceback report the score functions'
        own values, with or without an impossible interior D->D link
        (the Delete chain then splits into segments both ways)."""
        rng = np.random.default_rng(seed)
        gp = GenericProfile.from_profile(SearchProfile(sample_hmm(M, rng), L=L))
        if cut is not None and M >= 2:
            tdd = gp.tdd.copy()
            tdd[cut % (M - 1)] = NEG
            gp = dataclasses.replace(gp, tdd=tdd)
        codes = random_sequence_codes(L, rng)
        forward = generic_forward_score(gp, codes)
        assert posterior_decode(gp, codes).score == forward
        assert viterbi_traceback(gp, codes).score == generic_viterbi_score(gp, codes)
        assert abs(generic_backward_score(gp, codes) - forward) <= 1e-9


@pytest.mark.parametrize(
    "engine",
    [generic_viterbi_score, generic_forward_score, generic_backward_score,
     posterior_decode, viterbi_traceback],
)
@pytest.mark.parametrize("bad", ["negative", "alphabet_size"])
def test_out_of_alphabet_codes_rejected(engine, bad, small_profile):
    """A code outside ``[0, Kp)`` is a KernelError, never another row's
    scores (a negative code would index ``msc`` from the end)."""
    kp = small_profile.msc.shape[0]
    codes = np.array([3, -1 if bad == "negative" else kp, 4])
    with pytest.raises(KernelError, match="residue codes"):
        engine(small_profile, codes)


class TestBehaviour:
    def test_homolog_beats_random(self, small_hmm, small_profile, rng):
        dom = small_hmm.sample_sequence(rng)
        rand = random_sequence_codes(dom.size, rng)
        assert generic_forward_score(small_profile, dom) > generic_forward_score(
            small_profile, rand
        ) + 5.0

    def test_multihit_beats_unihit_on_repeats(self, rng):
        """Two concatenated domains: only multihit can score both."""
        hmm = sample_hmm(30, rng, conservation=60.0)
        multi = SearchProfile(hmm, L=120, multihit=True)
        uni = SearchProfile(hmm, L=120, multihit=False)
        two = np.concatenate(
            [hmm.sample_sequence(rng), hmm.sample_sequence(rng)]
        ).astype(np.uint8)
        assert generic_viterbi_score(multi, two) > generic_viterbi_score(uni, two)

    def test_empty_sequence_rejected(self, small_profile):
        with pytest.raises(KernelError):
            generic_forward_score(small_profile, np.array([], dtype=np.uint8))

    def test_accepts_search_profile_or_generic(self, small_profile, rng):
        codes = random_sequence_codes(20, rng)
        gp = GenericProfile.from_profile(small_profile)
        assert generic_viterbi_score(small_profile, codes) == generic_viterbi_score(
            gp, codes
        )

    def test_longer_flanks_cost_little(self, small_hmm, small_profile, rng):
        """The length model absorbs flanking residues at ~0 net cost."""
        dom = small_hmm.sample_sequence(rng)
        flanked = np.concatenate(
            [random_sequence_codes(60, rng), dom]
        ).astype(np.uint8)
        s1 = generic_forward_score(small_profile, dom)
        s2 = generic_forward_score(small_profile, flanked)
        assert abs(s1 - s2) < 6.0
