"""Region-to-traffic builder tests."""

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.memory import MemoryStats, KIND_WRITE
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_column_strip, add_corner_patches, add_row_region


@pytest.fixture
def layout():
    return GridLayout(512, 512, 64, 4)


class TestRowRegion:
    def test_aligned_region(self, layout):
        stats = MemoryStats()
        add_row_region(
            stats, layout, x_start_rel=0, width_elems=64, rows=8,
            tile_stride=64, use_vectors=False,
        )
        assert stats.load_transactions == pytest.approx(16)  # 2 lines x 8 rows
        assert stats.requested_load_bytes == 64 * 4 * 8
        assert stats.load_instructions == pytest.approx(16)  # ceil(64/32) x 8

    def test_vector_loads_reduce_instructions(self, layout):
        scalar, vector = MemoryStats(), MemoryStats()
        kw = dict(x_start_rel=0, width_elems=64, rows=8, tile_stride=64)
        add_row_region(scalar, layout, use_vectors=False, **kw)
        add_row_region(vector, layout, use_vectors=True, **kw)
        assert vector.load_instructions < scalar.load_instructions
        # Same bytes either way — vectors are an instruction-count play.
        assert vector.load_transactions == scalar.load_transactions

    def test_halo_fraction_split(self, layout):
        stats = MemoryStats()
        add_row_region(
            stats, layout, x_start_rel=0, width_elems=64, rows=10,
            tile_stride=64, halo_fraction=0.25, use_vectors=False,
        )
        total = stats.interior_transferred_bytes + stats.halo_transferred_bytes
        assert stats.halo_transferred_bytes == pytest.approx(total * 0.25)

    def test_write_uses_32b_sectors(self, layout):
        stats = MemoryStats()
        add_row_region(
            stats, layout, x_start_rel=1, width_elems=32, rows=1,
            tile_stride=64, kind=KIND_WRITE, use_vectors=False,
        )
        # 4B phase + 128B span -> 5 sectors of 32B = 160B, not 2 x 128B.
        assert stats.store_transferred_bytes == pytest.approx(160)

    def test_aligned_write_exact(self, layout):
        stats = MemoryStats()
        add_row_region(
            stats, layout, x_start_rel=0, width_elems=32, rows=4,
            tile_stride=64, kind=KIND_WRITE, use_vectors=False,
        )
        assert stats.store_transferred_bytes == pytest.approx(32 * 4 * 4)

    def test_rejects_empty(self, layout):
        with pytest.raises(ConfigurationError):
            add_row_region(
                MemoryStats(), layout, x_start_rel=0, width_elems=0, rows=1,
                tile_stride=64,
            )


class TestColumnStrip:
    def test_one_instruction_per_row(self, layout):
        stats = MemoryStats()
        add_column_strip(
            stats, layout, x_start_rel=-2, width_elems=2, rows=16, tile_stride=64
        )
        assert stats.load_instructions == 16
        assert stats.requested_load_bytes == 2 * 4 * 16

    def test_strip_is_camped(self, layout):
        stats = MemoryStats()
        add_column_strip(
            stats, layout, x_start_rel=-2, width_elems=2, rows=16, tile_stride=64
        )
        assert stats.camped_bytes == stats.halo_transferred_bytes > 0

    def test_strip_efficiency_is_terrible(self, layout):
        """The Fig 4 pathology: 8 useful bytes per 128-byte line."""
        stats = MemoryStats()
        add_column_strip(
            stats, layout, x_start_rel=-2, width_elems=2, rows=16, tile_stride=64
        )
        assert stats.requested_load_bytes / stats.load_transferred_bytes == (
            pytest.approx(8 / 128)
        )


class TestCornerPatches:
    def test_four_corners_accounted(self, layout):
        stats = MemoryStats()
        add_corner_patches(
            stats, layout, radius=2, tile_x=64, tile_y=16, tile_stride=64
        )
        assert stats.requested_load_bytes == 4 * 2 * 2 * 4  # 4 corners of r*r
        assert stats.load_instructions == 8  # 2r rows per side pair

    def test_zero_radius_noop(self, layout):
        stats = MemoryStats()
        add_corner_patches(
            stats, layout, radius=0, tile_x=64, tile_y=16, tile_stride=64
        )
        assert stats.load_transactions == 0
