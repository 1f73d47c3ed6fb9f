"""Tiling coverage validation tests: a block tiling of the plane, as the
launch grid schedules it, covers every output point exactly once.

The proof is ``repro.analysis.coverage`` (``plan_tile_rects`` and
``check_rect_cover``); the halo-fit bounds are
``repro.analysis.halo.grid_halo_diagnostics``.  The hypothesis cover
property lives beside the sweep-line tests in ``test_analysis_coverage``.
"""

import pytest

from repro.analysis.coverage import (
    check_rect_cover,
    plan_tile_rects,
    tile_cover_diagnostics,
)
from repro.analysis.halo import grid_halo_diagnostics
from repro.errors import ConfigurationError
from repro.kernels.config import BlockConfig
from repro.kernels.inplane import InPlaneKernel
from repro.stencils.spec import symmetric


def plan_of(block, order=2):
    return InPlaneKernel(symmetric(order), block)


def tile_origins(lx, ly, block):
    return [rect[:2] for rect in plan_tile_rects(plan_of(block), (lx, ly, 8))]


def assert_exact_cover(lx, ly, block):
    rects = plan_tile_rects(plan_of(block), (lx, ly, 8))
    result = check_rect_cover(lx, ly, rects)
    assert result.exact, result


def halo_fits(lx, ly, lz, radius):
    plan = plan_of(BlockConfig(8, 1), order=2 * radius)
    diags = grid_halo_diagnostics(plan, (lx, ly, lz))
    return "HALO-GRID-SMALL" not in {d.rule for d in diags}


class TestTileOrigins:
    def test_count(self):
        origins = tile_origins(64, 32, BlockConfig(16, 4, 2, 2))
        assert len(origins) == 2 * 4

    def test_first_origin_is_zero(self):
        assert tile_origins(64, 64, BlockConfig(16, 16))[0] == (0, 0)


class TestExactCover:
    def test_exact_tiling(self):
        assert_exact_cover(64, 32, BlockConfig(16, 8))

    def test_partial_tiles_still_cover_once(self):
        assert_exact_cover(50, 30, BlockConfig(16, 8))


class TestPredicates:
    def test_halo_fits(self):
        assert halo_fits(9, 9, 9, 4)
        assert not halo_fits(8, 9, 9, 4)


class TestEdgeCases:
    """Degenerate blocks, stencil reach beyond the tile, and the rule ids
    of the two ways a launch grid can miss an exact cover."""

    @pytest.mark.parametrize("bad", [(0, 4), (32, 0), (32, 4, 0, 1), (32, 4, 1, -1)])
    def test_zero_sized_blocks_rejected_with_rule(self, bad):
        with pytest.raises(ConfigurationError) as err:
            BlockConfig(*bad)
        assert err.value.rule == "CFG-POSITIVE"

    def test_non_divisible_grid_still_covers_exactly(self):
        # Partial edge tiles clip against the plane; coverage stays exact.
        assert_exact_cover(500, 300, BlockConfig(32, 4, 1, 4))

    def test_register_tiled_plans_cover_exactly(self):
        for rx, ry in ((2, 1), (1, 8), (4, 4)):
            assert_exact_cover(512, 512, BlockConfig(16, 4, rx, ry))

    def test_radius_larger_than_tile_is_a_halo_problem_not_a_cover_problem(self):
        # A radius-8 stencil on an 8-wide tile covers fine; the halo
        # check is what refuses it on a small grid.
        assert_exact_cover(64, 64, BlockConfig(8, 1))
        assert not halo_fits(8, 64, 64, 8)
        assert halo_fits(17, 64, 64, 8)

    def test_single_point_plane(self):
        assert_exact_cover(1, 1, BlockConfig(16, 16))

    def test_overlap_rule_id(self):
        # Two blocks launched at one origin write the same 16x8 tile.
        result = check_rect_cover(16, 8, [(0, 0, 16, 8), (0, 0, 16, 8)])
        assert (result.gap_points, result.overlap_points) == (0, 16 * 8)
        diags = tile_cover_diagnostics(plan_of(BlockConfig(16, 8)), (32, 8, 8), 8)
        assert [d.rule for d in diags] == ["COV-TILE-OVERLAP"]

    def test_gap_rule_id(self):
        # One 16x8 block launched over a 32x8 plane leaves half of it unwritten.
        result = check_rect_cover(32, 8, [(0, 0, 16, 8)])
        assert (result.gap_points, result.overlap_points) == (16 * 8, 0)
        diags = tile_cover_diagnostics(plan_of(BlockConfig(16, 8)), (32, 8, 8), 32)
        assert [d.rule for d in diags] == ["COV-TILE-GAP"]
