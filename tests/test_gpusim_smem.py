"""Shared-memory bank-conflict model tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.arch import Generation, rules_for
from repro.gpusim.device import get_device
from repro.gpusim.memory import MemoryStats
from repro.gpusim.smem import (
    SmemAccessProfile,
    conflict_degree,
    dp_conflict_factor,
    padded_pitch_words,
)
from repro.gpusim.timing import time_kernel
from repro.gpusim.workload import BlockWorkload, GridWorkload


class TestConflictDegree:
    def test_unit_stride_conflict_free(self):
        assert conflict_degree(1) == 1

    def test_broadcast_free(self):
        assert conflict_degree(0) == 1

    def test_bank_count_stride_fully_serializes(self):
        assert conflict_degree(32) == 32

    def test_even_stride(self):
        assert conflict_degree(2) == 2

    def test_odd_stride_conflict_free(self):
        # Odd strides are coprime with 32 banks.
        for stride in (1, 3, 5, 7, 33):
            assert conflict_degree(stride) == 1

    def test_sixteen_banks_gt200(self):
        # GT200 services shared memory per half-warp (16 lanes, 16 banks).
        assert conflict_degree(16, lanes=16, banks=16) == 16
        assert conflict_degree(17, lanes=16, banks=16) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            conflict_degree(1, lanes=0)
        with pytest.raises(ValueError):
            conflict_degree(1, banks=0)

    @given(stride=st.integers(0, 256))
    def test_degree_equals_gcd_formula(self, stride):
        """For 32 lanes on 32 banks, degree = gcd-based closed form."""
        got = conflict_degree(stride, lanes=32, banks=32)
        if stride == 0:
            assert got == 1
        else:
            # lanes spread over banks with period 32/gcd; each visited bank
            # receives lanes*gcd/32 distinct words (lanes == banks == 32).
            expected = math.gcd(stride, 32)
            assert got == expected


class TestPaddedPitch:
    def test_pads_multiples_of_banks(self):
        assert padded_pitch_words(32) == 33
        assert padded_pitch_words(64) == 65

    def test_leaves_non_multiples(self):
        assert padded_pitch_words(33) == 33
        assert padded_pitch_words(17) == 17

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            padded_pitch_words(0)

    @given(width=st.integers(1, 4096))
    def test_result_never_bank_aligned(self, width):
        assert padded_pitch_words(width) % 32 != 0

    def test_padding_makes_column_access_conflict_free(self):
        """The point of the padding: column access at the padded pitch."""
        pitch = padded_pitch_words(64)
        assert conflict_degree(pitch) == 1


class TestDpConflictFactor:
    def test_sp_free(self):
        assert dp_conflict_factor(4, rules_for(Generation.FERMI)) == 1.0

    def test_fermi_dp_serializes(self):
        assert dp_conflict_factor(8, rules_for(Generation.FERMI)) == 2.0

    def test_kepler_dp_has_wide_banks(self):
        assert dp_conflict_factor(8, rules_for(Generation.KEPLER)) == 1.0

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            dp_conflict_factor(16, rules_for(Generation.FERMI))


class TestProfile:
    def test_issue_cost(self):
        """The timing model charges (reads + writes) x conflict factor
        shared-memory issue slots per block-plane."""
        prof = SmemAccessProfile(
            read_instructions=10, write_instructions=5, conflict_factor=2.0
        )
        workload = BlockWorkload(
            threads_per_block=128, regs_per_thread=16, smem_bytes=1024,
            elem_bytes=4, points_per_plane=128, flops_per_point=2.0,
            memory=MemoryStats(), smem_profile=prof,
        )
        grid = GridWorkload(blocks=64, planes=8, total_points=64 * 128 * 8)
        timing = time_kernel(workload, grid, get_device("gtx580"))
        assert timing.smem_instructions_per_plane == 15
        assert timing.smem_slots_per_plane == 30.0
