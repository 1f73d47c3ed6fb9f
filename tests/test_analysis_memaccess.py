"""Static memory lint cross-validated against the brute-force enumerators.

The acceptance bar of the analyzer's MEM- family: its closed-form verdicts
must agree EXACTLY with the counting/enumerating ground truth in
``tests.oracles.smem`` and ``tests.oracles.trace`` — not approximately, not
on examples, but property-tested over randomized configurations.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memaccess import (
    analytic_conflict_degree,
    pitch_conflict_diagnostics,
    region_diagnostics,
    smem_tile_diagnostics,
)
from repro.gpusim.device import get_device
from repro.gpusim.memory import MemoryStats
from repro.gpusim.smem import padded_pitch_words
from repro.kernels.config import BlockConfig
from repro.kernels.inplane import InPlaneKernel
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_row_region
from repro.stencils.spec import symmetric
from repro.utils.maths import ceil_div
from tests.oracles.smem import conflict_degree
from tests.oracles.trace import average_region_trace


class TestBankConflictClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(
        stride=st.integers(-96, 96),
        lanes=st.sampled_from((1, 8, 16, 32, 64)),
        banks=st.sampled_from((16, 32)),
    )
    def test_agrees_exactly_with_brute_force(self, stride, lanes, banks):
        assert analytic_conflict_degree(
            stride, lanes=lanes, banks=banks
        ) == conflict_degree(stride, lanes=lanes, banks=banks)

    def test_broadcast_is_free(self):
        assert analytic_conflict_degree(0) == 1

    def test_bank_count_stride_is_worst_case(self):
        assert analytic_conflict_degree(32) == 32

    def test_pitch_verdict_matches_brute_force_for_all_widths(self):
        for width in range(1, 257):
            pitch = padded_pitch_words(width)
            flagged = bool(pitch_conflict_diagnostics(pitch, "t"))
            assert flagged == (conflict_degree(pitch) > 1)
            # The padding policy always kills the catastrophic case.
            assert conflict_degree(pitch) < 32

    def test_unpadded_multiple_of_banks_flags(self):
        diags = pitch_conflict_diagnostics(32, "t")
        assert [d.rule for d in diags] == ["MEM-BANK-CONFLICT"]
        assert "32" in diags[0].message


class TestSmemTileLint:
    def test_default_layout_policy(self):
        # The library's +1-word padding dodges the worst case by
        # construction; whatever mild degree remains must match the brute
        # force on the actual pitch.
        for order in (2, 4, 8):
            for tx, ty in ((16, 4), (32, 4), (64, 2)):
                plan = InPlaneKernel(symmetric(order), BlockConfig(tx, ty))
                r = plan.halo_radius()
                width = ((plan.block.tile_x + 2 * r) * plan.elem_bytes + 3) // 4
                pitch = padded_pitch_words(width)
                diags = smem_tile_diagnostics(plan)
                flagged = any(d.rule == "MEM-BANK-CONFLICT" for d in diags)
                assert flagged == (conflict_degree(pitch) > 1)

    def test_dp_on_fermi_notes_bank_splitting(self):
        plan = InPlaneKernel(symmetric(2), BlockConfig(32, 4), dtype="dp")
        diags = smem_tile_diagnostics(plan, get_device("gtx580"))
        assert "MEM-DP-BANKS" in {d.rule for d in diags}

    def test_dp_note_needs_a_device(self):
        plan = InPlaneKernel(symmetric(2), BlockConfig(32, 4), dtype="dp")
        assert "MEM-DP-BANKS" not in {
            d.rule for d in smem_tile_diagnostics(plan)
        }


layouts = st.builds(
    GridLayout,
    lx=st.sampled_from((128, 256, 512)),
    ly=st.just(64),
    lz=st.just(8),
    elem_bytes=st.sampled_from((4, 8)),
    aligned_x=st.sampled_from((-4, -2, -1, 0)),
)


class TestRegionRecordsAgainstTrace:
    @settings(max_examples=80, deadline=None)
    @given(
        layout=layouts,
        x_start_rel=st.integers(-4, 4),
        width=st.integers(1, 68),
        stride=st.sampled_from((16, 24, 32, 48, 64)),
    )
    def test_recorded_row_transactions_match_enumerator(
        self, layout, x_start_rel, width, stride
    ):
        """The RegionRecord geometry the analyzer lints from must carry the
        same phase-averaged transaction count the lane-by-lane enumerator
        produces — otherwise every verdict downstream is built on sand."""
        stats = MemoryStats(line_bytes=layout.line_bytes)
        add_row_region(
            stats, layout,
            x_start_rel=x_start_rel, width_elems=width, rows=1,
            tile_stride=stride, use_vectors=False,
        )
        (record,) = stats.regions
        _, tx, _ = average_region_trace(
            layout,
            x_start_rel=x_start_rel, width_elems=width, rows=1,
            tile_stride=stride, vec_width=1,
        )
        assert math.isclose(record.avg_row_transactions, tx, rel_tol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        layout=layouts,
        x_start_rel=st.integers(-4, 4),
        width=st.integers(1, 68),
        stride=st.sampled_from((16, 32, 64)),
    )
    def test_misaligned_verdict_agrees_with_enumerator(
        self, layout, x_start_rel, width, stride
    ):
        """MEM-MISALIGNED fires iff the enumerated average exceeds the
        aligned floor — the analyzer's verdict IS the brute-force verdict."""
        stats = MemoryStats(line_bytes=layout.line_bytes)
        add_row_region(
            stats, layout,
            x_start_rel=x_start_rel, width_elems=width, rows=1,
            tile_stride=stride, use_vectors=False,
        )

        class FakeWorkload:
            memory = stats

        diags = region_diagnostics(FakeWorkload(), "t")
        flagged = any(d.rule == "MEM-MISALIGNED" for d in diags)

        _, tx, _ = average_region_trace(
            layout,
            x_start_rel=x_start_rel, width_elems=width, rows=1,
            tile_stride=stride, vec_width=1,
        )
        floor = ceil_div(width * layout.elem_bytes, layout.line_bytes)
        assert flagged == (tx > floor + 1e-9)


class TestStripLint:
    def test_nvstencil_column_strips_flagged(self):
        from repro.kernels.nvstencil import NvStencilKernel

        plan = NvStencilKernel(symmetric(4), BlockConfig(32, 4))
        device = get_device("gtx580")
        wl = plan.block_workload(device, (512, 512, 64))
        rules = {d.rule for d in region_diagnostics(wl, plan.name)}
        assert "MEM-UNCOALESCED-STRIP" in rules

    def test_fullslice_has_no_strips(self):
        plan = InPlaneKernel(symmetric(4), BlockConfig(32, 4))
        device = get_device("gtx580")
        wl = plan.block_workload(device, (512, 512, 64))
        rules = {d.rule for d in region_diagnostics(wl, plan.name)}
        assert "MEM-UNCOALESCED-STRIP" not in rules
