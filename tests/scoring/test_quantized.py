"""Unit and property tests for the saturating fixed-point arithmetic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring.quantized import (
    I16_NEG_INF,
    max_i16,
    sat_add_i16,
    sat_add_u8,
    sat_sub_u8,
)

u8 = st.integers(min_value=0, max_value=255)
i16 = st.integers(min_value=-32768, max_value=32767)


class TestU8:
    def test_plain_add(self):
        assert sat_add_u8(100, 50) == 150

    def test_add_saturates_high(self):
        assert sat_add_u8(200, 100) == 255

    def test_plain_sub(self):
        assert sat_sub_u8(100, 30) == 70

    def test_sub_saturates_low(self):
        assert sat_sub_u8(30, 100) == 0

    def test_vectorized(self):
        a = np.array([0, 100, 255])
        assert list(sat_add_u8(a, 10)) == [10, 110, 255]
        assert list(sat_sub_u8(a, 10)) == [0, 90, 245]

    @given(a=u8, b=u8)
    @settings(max_examples=300, deadline=None)
    def test_add_matches_intel_semantics(self, a, b):
        assert sat_add_u8(a, b) == min(255, a + b)

    @given(a=u8, b=u8)
    @settings(max_examples=300, deadline=None)
    def test_sub_matches_intel_semantics(self, a, b):
        assert sat_sub_u8(a, b) == max(0, a - b)

    @given(a=u8, b=u8)
    @settings(max_examples=200, deadline=None)
    def test_bias_trick(self, a, b):
        """add(bias) then sub(cost+bias) == sub(cost) for in-range values.

        This is the identity the MSV byte system relies on: emission costs
        stored biased behave like unbiased costs as long as a+bias < 255.
        """
        bias = 40
        if a + bias <= 255 and b + bias <= 255:
            via_bias = sat_sub_u8(sat_add_u8(a, bias), b + bias)
            direct = sat_sub_u8(a, b)
            assert via_bias == direct


class TestI16:
    def test_plain_add(self):
        assert sat_add_i16(-100, 50) == -50

    def test_saturates_low(self):
        assert sat_add_i16(-32000, -2000) == -32768

    def test_saturates_high(self):
        assert sat_add_i16(32000, 2000) == 32767

    def test_neg_inf_can_resurrect(self):
        """The documented SSE artifact: -32768 + positive lifts the floor."""
        assert sat_add_i16(I16_NEG_INF, 100) == -32668

    def test_max(self):
        assert max_i16(-5, 3) == 3
        assert list(max_i16(np.array([1, -9]), np.array([-1, 9]))) == [1, 9]

    @given(a=i16, b=i16)
    @settings(max_examples=300, deadline=None)
    def test_add_matches_intel_semantics(self, a, b):
        assert sat_add_i16(a, b) == max(-32768, min(32767, a + b))

    @given(a=i16, b=i16)
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, a, b):
        assert sat_add_i16(a, b) == sat_add_i16(b, a)

    @given(
        a=st.lists(i16, min_size=1, max_size=32),
        b=st.lists(i16, min_size=1, max_size=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar(self, a, b):
        n = min(len(a), len(b))
        av, bv = np.array(a[:n]), np.array(b[:n])
        vec = sat_add_i16(av, bv)
        for i in range(n):
            assert vec[i] == sat_add_i16(a[i], b[i])
