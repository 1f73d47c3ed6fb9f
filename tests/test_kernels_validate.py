"""Tiling coverage validation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernels.config import BlockConfig
from repro.kernels.validate import (
    check_exact_cover,
    halo_fits,
    tile_origins,
)


class TestTileOrigins:
    def test_count(self):
        origins = tile_origins(64, 32, BlockConfig(16, 4, 2, 2))
        assert len(origins) == 2 * 4

    def test_first_origin_is_zero(self):
        assert tile_origins(64, 64, BlockConfig(16, 16))[0] == (0, 0)


class TestExactCover:
    def test_exact_tiling(self):
        check_exact_cover(64, 32, BlockConfig(16, 8))

    def test_partial_tiles_still_cover_once(self):
        check_exact_cover(50, 30, BlockConfig(16, 8))

    @settings(max_examples=30, deadline=None)
    @given(
        lx=st.integers(1, 64),
        ly=st.integers(1, 48),
        tx=st.integers(1, 4).map(lambda v: 8 * v),
        ty=st.integers(1, 8),
        ry=st.integers(1, 4),
    )
    def test_cover_property(self, lx, ly, tx, ty, ry):
        """Axis-aligned ceil tiling always covers each point exactly once."""
        check_exact_cover(lx, ly, BlockConfig(tx, ty, 1, ry))


class TestPredicates:
    def test_halo_fits(self):
        assert halo_fits(9, 9, 9, 4)
        assert not halo_fits(8, 9, 9, 4)


class TestEdgeCases:
    """Edge cases added with the static-analysis framework: degenerate
    blocks, stencil reach beyond the tile, and the rule-id contract of
    check_exact_cover's failure modes."""

    @pytest.mark.parametrize("bad", [(0, 4), (32, 0), (32, 4, 0, 1), (32, 4, 1, -1)])
    def test_zero_sized_blocks_rejected_with_rule(self, bad):
        with pytest.raises(ConfigurationError) as err:
            BlockConfig(*bad)
        assert err.value.rule == "CFG-POSITIVE"

    def test_non_divisible_grid_still_covers_exactly(self):
        # Partial edge tiles clip against the plane; coverage stays exact.
        check_exact_cover(500, 300, BlockConfig(32, 4, 1, 4))

    def test_register_tiled_plans_cover_exactly(self):
        for rx, ry in ((2, 1), (1, 8), (4, 4)):
            check_exact_cover(512, 512, BlockConfig(16, 4, rx, ry))

    def test_radius_larger_than_tile_is_a_halo_problem_not_a_cover_problem(self):
        # A radius-8 stencil on an 8-wide tile covers fine; the halo
        # predicate is what refuses it on a small grid.
        block = BlockConfig(8, 1)
        check_exact_cover(64, 64, block)
        assert not halo_fits(8, 64, 64, 8)
        assert halo_fits(17, 64, 64, 8)

    def test_single_point_plane(self):
        check_exact_cover(1, 1, BlockConfig(16, 16))

    def test_overlap_rule_id(self, monkeypatch):
        import repro.kernels.validate as validate

        monkeypatch.setattr(
            validate, "tile_origins", lambda lx, ly, block: [(0, 0), (0, 0)]
        )
        with pytest.raises(ConfigurationError) as err:
            validate.check_exact_cover(16, 8, BlockConfig(16, 8))
        assert err.value.rule == "COV-TILE-OVERLAP"

    def test_gap_rule_id(self, monkeypatch):
        import repro.kernels.validate as validate

        monkeypatch.setattr(
            validate, "tile_origins", lambda lx, ly, block: [(0, 0)]
        )
        with pytest.raises(ConfigurationError) as err:
            validate.check_exact_cover(32, 8, BlockConfig(16, 8))
        assert err.value.rule == "COV-TILE-GAP"
