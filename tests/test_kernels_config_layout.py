"""BlockConfig and GridLayout tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GridShapeError
from repro.kernels.config import BlockConfig
from repro.kernels.layout import GridLayout, blocks_in_plane


class TestBlockConfig:
    def test_derived_quantities(self):
        cfg = BlockConfig(32, 4, 2, 8)
        assert cfg.threads == 128
        assert cfg.tile_x == 64
        assert cfg.tile_y == 32
        assert cfg.points_per_plane == 2048
        assert cfg.register_tile == 16

    def test_label_matches_table4_style(self):
        assert BlockConfig(256, 1, 1, 8).label() == "(256, 1, 1, 8)"

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0), (1, 1, 0, 1), (1, 1, 1, -1)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ConfigurationError):
            BlockConfig(*bad)

    def test_as_tuple_roundtrip(self):
        cfg = BlockConfig(64, 8, 2, 2)
        assert BlockConfig(*cfg.as_tuple()) == cfg

    def test_ordering_is_stable(self):
        assert BlockConfig(32, 1) < BlockConfig(64, 1)


class TestGridLayout:
    def test_pitch_is_line_multiple(self):
        layout = GridLayout(512, 512, 256, 4)
        assert layout.pitch_elems * layout.elem_bytes % 128 == 0
        assert layout.pitch_elems >= 512

    def test_phase_of_aligned_x(self):
        layout = GridLayout(512, 512, 256, 4, aligned_x=-4)
        assert layout.phase_of(-4) == 0
        assert layout.phase_of(0) == 16

    def test_phase_row_invariant_by_construction(self):
        layout = GridLayout(100, 100, 100, 8)
        # pitch is a line multiple, so phases depend only on x.
        assert layout.pitch_elems * layout.elem_bytes % layout.line_bytes == 0

    def test_row_transactions_aligned(self):
        layout = GridLayout(512, 512, 256, 4)
        assert layout.row_transactions(0, 32) == 1
        assert layout.row_transactions(0, 33) == 2

    def test_row_transactions_misaligned(self):
        layout = GridLayout(512, 512, 256, 4)
        assert layout.row_transactions(-1, 32) == 2

    def test_avg_row_transactions_between_min_and_max(self):
        layout = GridLayout(512, 512, 256, 4)
        avg = layout.avg_row_transactions(-1, 32, 48)
        assert 1.0 <= avg <= 2.0

    def test_avg_equals_exact_when_stride_line_multiple(self):
        layout = GridLayout(512, 512, 256, 4)
        # 64 elems * 4B = 256B: every tile has the same phase.
        assert layout.avg_row_transactions(0, 32, 64) == 1.0

    def test_vector_width_respects_tile_stride(self):
        layout = GridLayout(512, 512, 256, 4)
        # 16-elem stride = 64B: 16B-aligned on every tile.
        assert layout.vector_width_for(0, 32, 16) == 4
        # Width not divisible by 4 -> vec2.
        assert layout.vector_width_for(0, 34, 16) == 2

    def test_vector_width_double_caps_at_2(self):
        layout = GridLayout(512, 512, 256, 8)
        assert layout.vector_width_for(0, 32, 16) == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(GridShapeError):
            GridLayout(0, 1, 1, 4)
        with pytest.raises(GridShapeError):
            GridLayout(8, 8, 8, 3)

    @given(
        width=st.integers(1, 300),
        x0=st.integers(-12, 12),
        stride=st.integers(16, 256),
    )
    def test_avg_transactions_bounds(self, width, x0, stride):
        layout = GridLayout(512, 512, 64, 4)
        avg = layout.avg_row_transactions(x0, width, stride)
        lower = -(-width * 4 // 128)
        assert lower <= avg <= lower + 1


class TestBlocksInPlane:
    def test_exact_division(self):
        assert blocks_in_plane(512, 512, 64, 16) == 8 * 32

    def test_ceil_on_partial(self):
        assert blocks_in_plane(100, 100, 64, 16) == 2 * 7
