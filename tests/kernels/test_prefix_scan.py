"""The prefix-scan Delete chain (paper future work) vs Lazy-F."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import VF_WORD_MIN
from repro.cpu import exact_d_chain
from repro.errors import KernelError
from repro.gpu import KernelCounters
from repro.kernels import parallel_lazy_f
from repro.kernels.prefix_scan import SCAN_STEPS, prefix_scan_d_chain
from repro.scoring.quantized import sat_add_i16


def _case(M, seed, strength=-50):
    gen = np.random.default_rng(seed)
    m_row = gen.integers(-32768, 1500, size=(3, M)).astype(np.int32)
    tmd = gen.integers(-2000, 0, size=M).astype(np.int32)
    tdd = gen.integers(strength, 0, size=M).astype(np.int32)
    partial = np.concatenate(
        [
            np.full((3, 1), VF_WORD_MIN, dtype=np.int32),
            sat_add_i16(m_row[:, :-1], tmd[:-1]).astype(np.int32),
        ],
        axis=1,
    )
    exact = exact_d_chain(m_row, tmd, tdd)
    tdd_enter = np.concatenate(([VF_WORD_MIN], tdd[:-1])).astype(np.int32)
    return partial, exact, tdd_enter


class TestCorrectness:
    @pytest.mark.parametrize("M", [1, 2, 31, 32, 33, 64, 100, 257])
    def test_matches_exact_chain(self, M):
        partial, exact, tdd_enter = _case(M, seed=M)
        assert np.array_equal(
            prefix_scan_d_chain(partial.copy(), tdd_enter), exact
        )

    def test_matches_lazy_f(self):
        partial, _, tdd_enter = _case(96, 5, strength=-3)
        a = parallel_lazy_f(partial.copy(), tdd_enter)
        b = prefix_scan_d_chain(partial.copy(), tdd_enter)
        assert np.array_equal(a, b)

    def test_neg_inf_links_break_chains(self):
        M = 40
        partial, exact, tdd_enter = _case(M, 9)
        tdd_enter = tdd_enter.copy()
        tdd_enter[17] = VF_WORD_MIN  # sever the chain mid-window
        want = parallel_lazy_f(partial.copy(), tdd_enter)
        got = prefix_scan_d_chain(partial.copy(), tdd_enter)
        assert np.array_equal(want, got)

    def test_in_place(self):
        partial, _, tdd_enter = _case(20, 3)
        out = prefix_scan_d_chain(partial, tdd_enter)
        assert out is partial

    def test_validation(self):
        with pytest.raises(KernelError):
            prefix_scan_d_chain(np.zeros(8, np.int32), np.zeros(8, np.int32))
        with pytest.raises(KernelError):
            prefix_scan_d_chain(
                np.zeros((2, 8), np.int32), np.zeros(9, np.int32)
            )


class TestCostStructure:
    def test_fixed_shuffle_count(self):
        """The selling point and the weakness: always exactly
        2 * SCAN_STEPS shuffles per warp per window, data-independent."""
        for strength in (-1, -2000):
            partial, _, tdd_enter = _case(64, 11, strength)
            c = KernelCounters()
            prefix_scan_d_chain(partial.copy(), tdd_enter, c)
            assert c.shuffles == 2 * SCAN_STEPS * 3 * 2  # 3 rows, 2 windows

    def test_lazy_f_cheaper_when_no_dd_work(self):
        """With impossible D-D links Lazy-F stops after one vote per
        window while the scan still pays its full 5 steps."""
        M = 64
        gen = np.random.default_rng(1)
        partial = gen.integers(-30000, 0, size=(4, M)).astype(np.int32)
        tdd_enter = np.full(M, VF_WORD_MIN, dtype=np.int32)
        cl, cs = KernelCounters(), KernelCounters()
        parallel_lazy_f(partial.copy(), tdd_enter, cl)
        prefix_scan_d_chain(partial.copy(), tdd_enter, cs)
        assert cl.lazyf_extra_passes == 0
        assert cs.lazyf_passes > cl.lazyf_passes


def test_scan_inside_viterbi_scores(rng):
    """Swapping the Delete-chain strategy must not change any pipeline
    score: run the batch reference, then recompute rows with both
    strategies on random partials derived from real profiles."""
    from repro.hmm import SearchProfile, sample_hmm
    from repro.scoring import ViterbiWordProfile

    hmm = sample_hmm(70, rng)
    prof = ViterbiWordProfile.from_profile(SearchProfile(hmm, L=90))
    tdd_enter = np.concatenate(([VF_WORD_MIN], prof.tdd[:-1])).astype(np.int32)
    gen = np.random.default_rng(0)
    m_rows = gen.integers(-32768, 3000, size=(6, 70)).astype(np.int32)
    partial = np.concatenate(
        [
            np.full((6, 1), VF_WORD_MIN, dtype=np.int32),
            sat_add_i16(m_rows[:, :-1], prof.tmd[:-1]).astype(np.int32),
        ],
        axis=1,
    )
    a = parallel_lazy_f(partial.copy(), tdd_enter)
    b = prefix_scan_d_chain(partial.copy(), tdd_enter)
    assert np.array_equal(a, b)


@given(
    M=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=2**31),
    strength=st.sampled_from([-1, -30, -800]),
)
@settings(max_examples=60, deadline=None)
def test_prefix_scan_equals_exact_property(M, seed, strength):
    partial, exact, tdd_enter = _case(M, seed, strength)
    assert np.array_equal(
        prefix_scan_d_chain(partial.copy(), tdd_enter), exact
    )
