"""Unit and property tests for the warp-level SIMT primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.gpu import shfl_xor
from repro.gpu.warp import lane_ids

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
