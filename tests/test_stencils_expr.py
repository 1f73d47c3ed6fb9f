"""StencilExpr (general tap expression) tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StencilDefinitionError
from repro.stencils.expr import OutputSpec, StencilExpr, Tap
from repro.stencils.spec import default_coefficients
from tests.oracles.expr import symmetric_expr


def simple_expr() -> StencilExpr:
    taps = (
        Tap(grid=0, offset=(0, 0, 0), coeff=0.5),
        Tap(grid=0, offset=(1, 0, 0), coeff=0.25),
        Tap(grid=0, offset=(0, 0, -2), coeff=0.25),
    )
    return StencilExpr(name="t", n_grids=1, outputs=(OutputSpec("o", taps),))


class TestTapValidation:
    def test_requires_exactly_one_coefficient_kind(self):
        with pytest.raises(StencilDefinitionError):
            Tap(grid=0, offset=(0, 0, 0))
        with pytest.raises(StencilDefinitionError):
            Tap(grid=0, offset=(0, 0, 0), coeff=1.0, coeff_grid=1)

    def test_rejects_negative_grid(self):
        with pytest.raises(StencilDefinitionError):
            Tap(grid=-1, offset=(0, 0, 0), coeff=1.0)

    def test_rejects_bad_offset(self):
        with pytest.raises(StencilDefinitionError):
            Tap(grid=0, offset=(0, 0), coeff=1.0)  # type: ignore[arg-type]


class TestExprValidation:
    def test_tap_grid_out_of_range(self):
        taps = (Tap(grid=1, offset=(0, 0, 0), coeff=1.0),)
        with pytest.raises(StencilDefinitionError):
            StencilExpr(name="x", n_grids=1, outputs=(OutputSpec("o", taps),))

    def test_coeff_grid_out_of_range(self):
        taps = (Tap(grid=0, offset=(0, 0, 0), coeff_grid=3),)
        with pytest.raises(StencilDefinitionError):
            StencilExpr(name="x", n_grids=1, outputs=(OutputSpec("o", taps),))

    def test_needs_outputs(self):
        with pytest.raises(StencilDefinitionError):
            StencilExpr(name="x", n_grids=1, outputs=())

    def test_output_needs_taps(self):
        with pytest.raises(StencilDefinitionError):
            OutputSpec("o", ())


class TestGeometry:
    def test_halo_extent_per_axis(self):
        expr = simple_expr()
        assert expr.halo_extent(0) == (1, 0, 2)

    def test_radius(self):
        assert simple_expr().radius() == 2

    def test_z_extent_back_and_forward(self):
        expr = simple_expr()
        assert expr.z_extent(0) == (2, 0)

    def test_stenciled_vs_coefficient_grids(self):
        taps = (
            Tap(grid=0, offset=(1, 0, 0), coeff_grid=1),
            Tap(grid=2, offset=(0, 0, 0), coeff=1.0),
        )
        expr = StencilExpr(name="x", n_grids=3, outputs=(OutputSpec("o", taps),))
        assert expr.stenciled_grids() == [0]
        assert set(expr.coefficient_grids()) == {1, 2}

    def test_mem_refs_dedups_repeated_taps(self):
        taps = (
            Tap(grid=0, offset=(0, 0, 0), coeff=1.0),
            Tap(grid=0, offset=(0, 0, 0), coeff=2.0),
        )
        expr = StencilExpr(name="x", n_grids=1, outputs=(OutputSpec("o", taps),))
        # one distinct read + one write
        assert expr.mem_refs_per_point() == 2


class TestSymmetricLowering:
    @given(radius=st.integers(1, 6))
    def test_tap_count(self, radius):
        expr = symmetric_expr(2 * radius, default_coefficients(radius))
        assert len(expr.all_taps()) == 6 * radius + 1

    @given(radius=st.integers(1, 6))
    def test_extent_matches(self, radius):
        expr = symmetric_expr(2 * radius, default_coefficients(radius))
        assert expr.halo_extent(0) == (radius, radius, radius)
        assert expr.radius() == radius

    @given(radius=st.integers(1, 6))
    def test_mem_refs_match_closed_form(self, radius):
        expr = symmetric_expr(2 * radius, default_coefficients(radius))
        assert expr.mem_refs_per_point() == 6 * radius + 2
