"""Coalescing-model tests: line spans, vector widths, MemoryStats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.memory import (
    KIND_HALO,
    KIND_INTERIOR,
    KIND_WRITE,
    MemoryStats,
    line_span,
)
from repro.kernels.layout import GridLayout
from tests.oracles.memory import add_access


class TestLineSpan:
    def test_aligned_exact_line(self):
        assert line_span(0, 128) == 1

    def test_aligned_two_lines(self):
        assert line_span(0, 129) == 2

    def test_misaligned_crosses_boundary(self):
        assert line_span(120, 16) == 2

    def test_misaligned_within_line(self):
        assert line_span(4, 16) == 1

    def test_tiny_access_one_line(self):
        assert line_span(0, 4) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            line_span(0, 0)

    @given(start=st.integers(0, 4096), span=st.integers(1, 4096))
    def test_bounds(self, start, span):
        n = line_span(start, span)
        # At least the ceiling of span/line, at most one extra for phase.
        assert n >= -(-span // 128)
        assert n <= -(-span // 128) + 1

    @given(start=st.integers(0, 4096), span=st.integers(1, 4096))
    def test_shift_by_whole_lines_invariant(self, start, span):
        assert line_span(start, span) == line_span(start + 128, span)


def vector_width(x_start: int, width: int, elem: int, tile_stride: int = 64) -> int:
    """Vector width of a row starting at element ``x_start`` of every tile."""
    layout = GridLayout(lx=512, ly=8, lz=8, elem_bytes=elem)
    return layout.vector_width_for(x_start, width, tile_stride)


class TestBestVectorWidth:
    def test_full_vec4(self):
        assert vector_width(0, 128, 4) == 4

    def test_width_not_divisible(self):
        assert vector_width(0, 130, 4) == 2

    def test_odd_width_scalar(self):
        assert vector_width(0, 33, 4) == 1

    def test_misaligned_start(self):
        assert vector_width(1, 128, 4) == 1  # 4B phase: not even 8B aligned

    def test_8b_aligned_gives_vec2(self):
        assert vector_width(2, 128, 4) == 2

    def test_double_caps_at_two(self):
        assert vector_width(0, 128, 8) == 2

    @given(
        start=st.integers(-16, 64),
        width=st.integers(1, 512),
        elem=st.sampled_from([4, 8]),
        stride=st.integers(1, 512),
    )
    def test_returned_width_is_valid(self, start, width, elem, stride):
        vec = vector_width(start, width, elem, stride)
        assert vec in (1, 2, 4)
        if vec > 1:
            assert width % vec == 0
            # Aligned on every tile origin, not just the first.
            assert (start * elem) % (vec * elem) == 0
            assert (stride * elem) % (vec * elem) == 0


class TestWarpAccess:
    def test_validation(self):
        stats = MemoryStats()
        with pytest.raises(ValueError):
            add_access(stats, start_byte=0, span_bytes=0, useful_bytes=0)
        with pytest.raises(ValueError):
            add_access(stats, start_byte=0, span_bytes=4, useful_bytes=8)
        with pytest.raises(ValueError):
            add_access(stats, start_byte=0, span_bytes=4, useful_bytes=4, count=0)
        assert stats == MemoryStats()

    def test_transactions(self):
        stats = MemoryStats()
        add_access(stats, start_byte=124, span_bytes=8, useful_bytes=8)
        assert stats.load_transactions == 2


class TestMemoryStats:
    def test_load_accumulation(self):
        stats = MemoryStats()
        add_access(stats, start_byte=0, span_bytes=128, useful_bytes=128, count=4)
        assert stats.load_transactions == 4
        assert stats.load_transferred_bytes == 512
        assert stats.requested_load_bytes == 512
        assert stats.load_efficiency == 1.0

    def test_halo_classified_separately(self):
        stats = MemoryStats()
        add_access(stats, start_byte=0, span_bytes=4, useful_bytes=4, kind=KIND_HALO)
        assert stats.halo_transferred_bytes == 128
        assert stats.interior_transferred_bytes == 0
        assert stats.load_efficiency == pytest.approx(4 / 128)

    def test_write_accounting(self):
        stats = MemoryStats()
        add_access(
            stats, start_byte=0, span_bytes=128, useful_bytes=128, kind=KIND_WRITE
        )
        assert stats.store_transactions == 1
        assert stats.load_transactions == 0
        assert stats.total_transferred_bytes == 128

    def test_add_raw_fractional(self):
        stats = MemoryStats()
        stats.add_raw(
            kind=KIND_INTERIOR, instructions=1.5, transactions=2.5, requested_bytes=100.0
        )
        assert stats.load_transferred_bytes == pytest.approx(320.0)

    def test_add_raw_camped(self):
        stats = MemoryStats()
        stats.add_raw(
            kind=KIND_HALO,
            instructions=1,
            transactions=2,
            requested_bytes=8,
            camped=True,
        )
        assert stats.camped_bytes == 256

    def test_add_raw_rejects_negative(self):
        stats = MemoryStats()
        with pytest.raises(ValueError):
            stats.add_raw(
                kind=KIND_INTERIOR, instructions=-1, transactions=0, requested_bytes=0
            )

    def test_merge(self):
        a, b = MemoryStats(), MemoryStats()
        add_access(a, start_byte=0, span_bytes=128, useful_bytes=128)
        add_access(b, start_byte=0, span_bytes=64, useful_bytes=64, kind=KIND_HALO)
        b.load_phases = 2
        a.merge(b)
        assert a.load_transactions == 2
        assert a.halo_transferred_bytes == 128
        assert a.load_phases == 2

    def test_merge_line_size_mismatch(self):
        a = MemoryStats(line_bytes=128)
        b = MemoryStats(line_bytes=32)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_efficiency_is_one(self):
        assert MemoryStats().load_efficiency == 1.0
