"""Race/coverage verifier: sweep-line vs brute-force paint, register
tiling, temporal ghosts, slab decompositions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_plan, analyze_slabs
from repro.analysis.coverage import (
    check_rect_cover,
    plan_tile_rects,
    register_tile_cover,
    slab_diagnostics,
    temporal_diagnostics,
    tile_cover_diagnostics,
)
from repro.cluster.decompose import split_grid
from repro.kernels.config import BlockConfig
from repro.kernels.inplane import InPlaneKernel
from repro.kernels.temporal import TemporalInPlaneKernel
from repro.stencils.spec import symmetric


def paint_cover(lx, ly, rects):
    """O(area) ground truth: literally paint every rectangle."""
    covered = np.zeros((ly, lx), dtype=int)
    for x0, y0, w, h in rects:
        covered[max(y0, 0):max(y0 + h, 0), max(x0, 0):max(x0 + w, 0)] += 1
    return int((covered == 0).sum()), int(np.maximum(covered - 1, 0).sum())


class TestSweepLine:
    def test_exact_tiling(self):
        rects = [(x, y, 8, 4) for x in range(0, 32, 8) for y in range(0, 16, 4)]
        result = check_rect_cover(32, 16, rects)
        assert result.exact

    def test_partial_edge_tiles_are_clipped_not_flagged(self):
        # 10x6 plane with 8x4 tiles: edge tiles overhang but clip clean.
        rects = [(0, 0, 8, 4), (8, 0, 8, 4), (0, 4, 8, 4), (8, 4, 8, 4)]
        assert check_rect_cover(10, 6, rects).exact

    def test_gap_counted_exactly(self):
        result = check_rect_cover(8, 8, [(0, 0, 8, 4)])
        assert result.gap_points == 32
        assert result.overlap_points == 0
        assert result.first_gap is not None

    def test_overlap_counted_exactly(self):
        result = check_rect_cover(8, 4, [(0, 0, 8, 4), (4, 0, 8, 4)])
        assert result.overlap_points == 16
        assert result.gap_points == 0
        assert result.first_overlap is not None

    @settings(max_examples=60, deadline=None)
    @given(
        lx=st.integers(4, 24),
        ly=st.integers(4, 24),
        rects=st.lists(
            st.tuples(
                st.integers(-4, 24), st.integers(-4, 24),
                st.integers(1, 12), st.integers(1, 12),
            ),
            min_size=0, max_size=12,
        ),
    )
    def test_agrees_with_paint_on_random_rectangles(self, lx, ly, rects):
        expected_gap, expected_overlap = paint_cover(lx, ly, rects)
        result = check_rect_cover(lx, ly, rects)
        assert (result.gap_points, result.overlap_points) == (
            expected_gap, expected_overlap,
        )


class TestTileCover:
    def plan(self, tx=32, ty=4, rx=1, ry=4):
        return InPlaneKernel(symmetric(2), BlockConfig(tx, ty, rx, ry))

    def test_healthy_launch_is_exact(self):
        assert tile_cover_diagnostics(self.plan(), (512, 512, 64)) == []

    def test_stride_below_tile_is_a_race(self):
        diags = tile_cover_diagnostics(self.plan(), (512, 512, 64), 24, None)
        assert [d.rule for d in diags] == ["COV-TILE-OVERLAP"]

    def test_stride_above_tile_is_a_gap(self):
        diags = tile_cover_diagnostics(self.plan(), (512, 512, 64), 40, None)
        assert [d.rule for d in diags] == ["COV-TILE-GAP"]

    def test_non_divisible_grid_warns_partial(self):
        diags = tile_cover_diagnostics(self.plan(), (500, 500, 64))
        assert [d.rule for d in diags] == ["COV-PARTIAL-TILE"]

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
        plan = self.plan(tx=tx, ty=ty, ry=ry)
        assert check_rect_cover(lx, ly, plan_tile_rects(plan, (lx, ly, 8))).exact

    def test_rect_count_matches_launch_grid(self):
        plan = self.plan()
        rects = plan_tile_rects(plan, (512, 512, 64))
        assert len(rects) == (512 // 32) * (512 // 16)


class TestRegisterTile:
    def test_correct_stride_is_bijective(self):
        assert register_tile_cover(32, 4).exact

    def test_wrong_stride_breaks_bijection(self):
        result = register_tile_cover(32, 4, stride=24)
        assert not result.exact
        assert result.gap_points > 0 and result.overlap_points > 0

    def test_plan_level_injection(self):
        plan = InPlaneKernel(symmetric(2), BlockConfig(32, 4, 4, 1))
        report = analyze_plan(plan, stride_x=24)
        assert "COV-REGTILE" in {d.rule for d in report.diagnostics}
        assert not report.ok


class TestTemporalGhost:
    def test_correct_ghost_is_clean(self):
        plan = TemporalInPlaneKernel(symmetric(2), BlockConfig(32, 4), time_steps=3)
        assert temporal_diagnostics(plan) == []

    def test_short_ghost_is_a_hazard(self):
        class ShortGhost(TemporalInPlaneKernel):
            def ghost(self):
                return self.spec.radius * self.time_steps - 1

        plan = ShortGhost(symmetric(2), BlockConfig(32, 4), time_steps=3)
        diags = temporal_diagnostics(plan)
        assert [d.rule for d in diags] == ["COV-TEMPORAL-GHOST"]
        report = analyze_plan(plan)
        assert not report.ok

    def test_non_temporal_plans_are_exempt(self):
        plan = InPlaneKernel(symmetric(2), BlockConfig(32, 4))
        assert temporal_diagnostics(plan) == []


class TestSlabs:
    def slabs(self, n=4, lz=64, radius=2):
        grid = np.zeros((lz, 8, 8), dtype=np.float32)
        return split_grid(grid, n, radius)

    def test_split_grid_is_clean(self):
        assert slab_diagnostics(self.slabs(), 64, 2) == []
        assert analyze_slabs(self.slabs(), 64, 2).ok

    def test_short_interior_ghost_flagged(self):
        slabs = self.slabs(radius=1)
        diags = slab_diagnostics(slabs, 64, radius=2)
        assert diags
        assert {d.rule for d in diags} == {"COV-SLAB-GHOST"}

    def test_gap_between_slabs_flagged(self):
        slabs = self.slabs()
        broken = [
            s if s.index != 1 else type(s)(
                index=s.index, z_start=s.z_start + 2, z_stop=s.z_stop,
                ghost_lo=s.ghost_lo, ghost_hi=s.ghost_hi, data=s.data,
            )
            for s in slabs
        ]
        rules = {d.rule for d in slab_diagnostics(broken, 64, 2)}
        assert "COV-SLAB-GAP" in rules

    def test_overlapping_slabs_flagged(self):
        slabs = self.slabs()
        broken = [
            s if s.index != 1 else type(s)(
                index=s.index, z_start=s.z_start - 2, z_stop=s.z_stop,
                ghost_lo=s.ghost_lo, ghost_hi=s.ghost_hi, data=s.data,
            )
            for s in slabs
        ]
        rules = {d.rule for d in slab_diagnostics(broken, 64, 2)}
        assert "COV-SLAB-OVERLAP" in rules

    def test_truncated_domain_flagged(self):
        rules = {d.rule for d in slab_diagnostics(self.slabs(lz=64), 80, 2)}
        assert "COV-SLAB-GAP" in rules
