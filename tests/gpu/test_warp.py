"""Unit and property tests for the warp-level SIMT primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.gpu import (
    lane_ids,
    shfl_down,
    shfl_up,
    shfl_xor,
    vote_all,
    vote_any,
)

lanes32 = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    min_size=32,
    max_size=32,
)


class TestLaneIds:
    def test_range(self):
        ids = lane_ids()
        assert list(ids) == list(range(32))


class TestShflXor:
    def test_mask_one_swaps_pairs(self):
        v = np.arange(32)
        out = shfl_xor(v, 1)
        assert out[0] == 1 and out[1] == 0 and out[30] == 31 and out[31] == 30

    def test_mask_16_swaps_halves(self):
        v = np.arange(32)
        out = shfl_xor(v, 16)
        assert out[0] == 16 and out[16] == 0

    def test_mask_zero_identity(self):
        v = np.arange(32)
        assert np.array_equal(shfl_xor(v, 0), v)

    @given(vals=lanes32, mask=st.integers(min_value=0, max_value=31))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, vals, mask):
        """XOR shuffle applied twice is the identity."""
        v = np.array(vals)
        assert np.array_equal(shfl_xor(shfl_xor(v, mask), mask), v)

    @given(vals=lanes32, mask=st.integers(min_value=0, max_value=31))
    @settings(max_examples=100, deadline=None)
    def test_is_permutation(self, vals, mask):
        v = np.array(vals)
        assert sorted(shfl_xor(v, mask).tolist()) == sorted(vals)

    def test_batched(self):
        v = np.arange(64).reshape(2, 32)
        out = shfl_xor(v, 1)
        assert out[0, 0] == 1 and out[1, 0] == 33

    def test_wrong_width_rejected(self):
        with pytest.raises(KernelError):
            shfl_xor(np.arange(16), 1)

    def test_bad_mask_rejected(self):
        with pytest.raises(KernelError):
            shfl_xor(np.arange(32), 32)


class TestShflUpDown:
    def test_up_keeps_low_lanes(self):
        v = np.arange(32)
        out = shfl_up(v, 2)
        assert out[0] == 0 and out[1] == 1  # hardware leaves them unchanged
        assert out[2] == 0 and out[31] == 29

    def test_up_with_fill(self):
        out = shfl_up(np.arange(32), 1, fill=-9)
        assert out[0] == -9 and out[1] == 0

    def test_down(self):
        out = shfl_down(np.arange(32), 3)
        assert out[0] == 3 and out[28] == 31
        assert out[31] == 31  # unchanged high lanes

    def test_down_with_fill(self):
        out = shfl_down(np.arange(32), 1, fill=0)
        assert out[31] == 0

    def test_zero_delta(self):
        v = np.arange(32)
        assert np.array_equal(shfl_up(v, 0), v)

    def test_bad_delta(self):
        with pytest.raises(KernelError):
            shfl_up(np.arange(32), 40)


class TestVotes:
    def test_all(self):
        assert vote_all(np.ones(32, dtype=bool))
        pred = np.ones(32, dtype=bool)
        pred[7] = False
        assert not vote_all(pred)

    def test_any(self):
        assert not vote_any(np.zeros(32, dtype=bool))
        pred = np.zeros(32, dtype=bool)
        pred[31] = True
        assert vote_any(pred)

    def test_batched_votes(self):
        pred = np.zeros((3, 32), dtype=bool)
        pred[1, :] = True
        pred[2, 0] = True
        assert list(vote_all(pred)) == [False, True, False]
        assert list(vote_any(pred)) == [False, True, True]

    @given(vals=st.lists(st.booleans(), min_size=32, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_de_morgan(self, vals):
        pred = np.array(vals)
        assert vote_all(pred) == (not vote_any(~pred))
