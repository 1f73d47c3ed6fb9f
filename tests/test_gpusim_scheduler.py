"""Greedy vs wave scheduling cross-validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from tests.oracles.scheduler import greedy_schedule, wave_schedule_makespan


class TestGreedy:
    def test_single_wave(self):
        res = greedy_schedule(blocks=32, sm_count=16, slots_per_sm=2, block_cycles=100)
        assert res.makespan == 100
        assert res.utilization == pytest.approx(1.0)

    def test_exact_waves_match_analytic(self):
        greedy = greedy_schedule(96, 16, 2, 100).makespan
        wave = wave_schedule_makespan(96, 16, 2, 100)
        assert greedy == wave == 300

    def test_ragged_tail_blurs(self):
        """33 blocks on 32 slots: the greedy distributor starts the odd
        block the moment a slot frees — same makespan as the wave model
        here, but the busy time is concentrated on one SM."""
        res = greedy_schedule(33, 16, 2, 100)
        assert res.makespan == 200
        assert max(res.blocks_per_sm) == 3
        assert min(res.blocks_per_sm) == 2

    def test_block_counts_sum(self):
        res = greedy_schedule(77, 14, 3, 50)
        assert sum(res.blocks_per_sm) == 77

    def test_sched_overhead_added(self):
        a = greedy_schedule(32, 16, 2, 100).makespan
        b = greedy_schedule(32, 16, 2, 100, sched_overhead_cycles=10).makespan
        assert b == a + 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            greedy_schedule(0, 16, 2, 100)
        with pytest.raises(ConfigurationError):
            greedy_schedule(1, 16, 2, 0)
        with pytest.raises(ConfigurationError):
            wave_schedule_makespan(1, 0, 2, 100)


class TestCrossValidation:
    @settings(max_examples=80, deadline=None)
    @given(
        blocks=st.integers(1, 600),
        sm=st.integers(1, 16),
        slots=st.integers(1, 8),
        cycles=st.floats(1.0, 1e4),
    )
    def test_greedy_never_slower_than_waves(self, blocks, sm, slots, cycles):
        greedy = greedy_schedule(blocks, sm, slots, cycles).makespan
        wave = wave_schedule_makespan(blocks, sm, slots, cycles)
        assert greedy <= wave + 1e-6

    @settings(max_examples=80, deadline=None)
    @given(
        blocks=st.integers(1, 600),
        sm=st.integers(1, 16),
        slots=st.integers(1, 8),
    )
    def test_gap_bounded_by_one_block(self, blocks, sm, slots):
        """The wave model over-counts at most one block duration — its
        remainder-stage tail error, now quantified."""
        cycles = 100.0
        greedy = greedy_schedule(blocks, sm, slots, cycles).makespan
        wave = wave_schedule_makespan(blocks, sm, slots, cycles)
        assert wave - greedy <= cycles + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        blocks=st.integers(1, 400),
        sm=st.integers(1, 16),
        slots=st.integers(1, 4),
    )
    def test_exact_when_waves_divide(self, blocks, sm, slots):
        per_wave = sm * slots
        whole = max(1, (blocks // per_wave)) * per_wave
        greedy = greedy_schedule(whole, sm, slots, 100.0).makespan
        wave = wave_schedule_makespan(whole, sm, slots, 100.0)
        assert greedy == pytest.approx(wave)

    @settings(max_examples=40, deadline=None)
    @given(blocks=st.integers(1, 300), sm=st.integers(1, 16))
    def test_makespan_lower_bound(self, blocks, sm):
        """Never faster than perfect parallelism over all slots."""
        res = greedy_schedule(blocks, sm, 2, 100.0)
        assert res.makespan >= 100.0 * blocks / (sm * 2) - 1e-6
        assert res.makespan >= 100.0
