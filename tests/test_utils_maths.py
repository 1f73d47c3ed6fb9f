"""Unit and property tests for integer helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.maths import ceil_div, is_power_of_two, round_up


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 7) == 0

    def test_one(self):
        assert ceil_div(1, 100) == 1

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(5, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 3)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_is_smallest_sufficient_multiple(self, a, b):
        q = ceil_div(a, b)
        assert q * b >= a
        assert (q - 1) * b < a or q == 0


class TestRoundUp:
    def test_already_aligned(self):
        assert round_up(128, 64) == 128

    def test_rounds(self):
        assert round_up(65, 64) == 128

    def test_zero(self):
        assert round_up(0, 64) == 0

    @given(st.integers(0, 10**8), st.integers(1, 10**4))
    def test_result_is_aligned_and_minimal(self, v, g):
        r = round_up(v, g)
        assert r % g == 0
        assert r >= v
        assert r - v < g


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("v", [1, 2, 4, 8, 1024, 2**30])
    def test_powers(self, v):
        assert is_power_of_two(v)

    @pytest.mark.parametrize("v", [0, -2, 3, 6, 12, 2**30 + 1])
    def test_non_powers(self, v):
        assert not is_power_of_two(v)

