"""Trace-vs-analytic cross-validation of the coalescing model.

Brute-force address enumeration must agree exactly with the analytic
per-region accounting used by every kernel workload.  This is the test
that makes the simulator's memory numbers trustworthy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.memory import MemoryStats
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_column_strip, add_row_region
from tests.oracles.trace import (
    TracedInstruction,
    average_region_trace,
    trace_column_strip,
)


class TestTracedInstruction:
    def test_contiguous_warp_one_line(self):
        instr = TracedInstruction(
            lane_addresses=tuple(range(0, 128, 4)), vec_width=1, elem_bytes=4
        )
        assert instr.lines_touched() == {0}
        assert instr.useful_bytes() == 128

    def test_straddling_access(self):
        instr = TracedInstruction(lane_addresses=(120,), vec_width=4, elem_bytes=4)
        assert instr.lines_touched() == {0, 1}

    def test_scattered_lanes(self):
        instr = TracedInstruction(
            lane_addresses=(0, 256, 512), vec_width=1, elem_bytes=4
        )
        assert len(instr.lines_touched()) == 3


class TestTraceVsAnalytic:
    @settings(max_examples=60, deadline=None)
    @given(
        x_start=st.integers(-12, 12),
        width=st.integers(1, 200),
        rows=st.integers(1, 6),
        stride_units=st.integers(1, 16),
        elem=st.sampled_from([4, 8]),
        aligned=st.sampled_from([0, -1, -2, -4]),
        vec=st.sampled_from([1, 2, 4]),
    )
    def test_row_region_agreement(
        self, x_start, width, rows, stride_units, elem, aligned, vec
    ):
        """Analytic add_row_region == exact enumeration, averaged over one
        alignment period, for arbitrary geometry."""
        layout = GridLayout(512, 64, 8, elem, aligned_x=aligned)
        tile_stride = 16 * stride_units

        instr, tx, req = average_region_trace(
            layout,
            x_start_rel=x_start,
            width_elems=width,
            rows=rows,
            tile_stride=tile_stride,
            vec_width=vec,
        )

        stats = MemoryStats()
        # The analytic path chooses its own vector width; force parity by
        # comparing against the scalar path when vec == 1 and checking the
        # chosen-vec path separately below.
        if vec == 1:
            add_row_region(
                stats,
                layout,
                x_start_rel=x_start,
                width_elems=width,
                rows=rows,
                tile_stride=tile_stride,
                use_vectors=False,
            )
            assert stats.load_instructions == pytest.approx(instr)
            assert stats.load_transactions == pytest.approx(tx)
            assert stats.requested_load_bytes == pytest.approx(req)

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(1, 12),
        rows=st.integers(1, 12),
        x_start=st.integers(-12, 0),
        elem=st.sampled_from([4, 8]),
    )
    def test_column_strip_agreement(self, width, rows, x_start, elem):
        layout = GridLayout(256, 64, 8, elem)
        stats = MemoryStats()
        add_column_strip(
            stats,
            layout,
            x_start_rel=x_start,
            width_elems=width,
            rows=rows,
            tile_stride=64,
        )
        # Strips start at a fixed offset from each tile; stride 64 elems is
        # a line multiple for SP (and DP), so one origin represents all.
        trace = trace_column_strip(
            layout,
            x_start_rel=x_start,
            width_elems=width,
            rows=rows,
            tile_origin_x=0,
        )
        assert stats.load_instructions == trace.instructions
        assert stats.load_transactions == pytest.approx(trace.transactions)
        assert stats.requested_load_bytes == trace.requested_bytes

    def test_vectorized_path_agreement(self):
        """When the analytic path picks vec4, the enumeration with vec4
        must agree on instructions AND transactions."""
        layout = GridLayout(512, 64, 8, 4, aligned_x=0)
        stats = MemoryStats()
        add_row_region(
            stats,
            layout,
            x_start_rel=0,
            width_elems=128,
            rows=4,
            tile_stride=64,
            use_vectors=True,
        )
        instr, tx, req = average_region_trace(
            layout,
            x_start_rel=0,
            width_elems=128,
            rows=4,
            tile_stride=64,
            vec_width=4,
        )
        assert stats.load_instructions == pytest.approx(instr)
        assert stats.load_transactions == pytest.approx(tx)

    def test_transactions_independent_of_vector_width(self):
        """Vectors change instruction counts, never bytes (III-C-2)."""
        layout = GridLayout(512, 64, 8, 4)
        results = [
            average_region_trace(
                layout, x_start_rel=0, width_elems=96, rows=3,
                tile_stride=32, vec_width=v,
            )
            for v in (1, 2, 4)
        ]
        txs = [r[1] for r in results]
        assert txs[0] == txs[1] == txs[2]
        instrs = [r[0] for r in results]
        assert instrs[0] > instrs[1] > instrs[2]
