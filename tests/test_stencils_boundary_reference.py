"""Boundary-handling and reference-evaluator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GridShapeError
from repro.stencils.boundary import (
    check_grid,
    interior,
    shifted_interior,
    with_boundary_from,
)
from repro.stencils.reference import apply_expr, apply_symmetric, iterate_symmetric
from repro.stencils.spec import symmetric
from tests.oracles.expr import symmetric_expr


class TestBoundaryHelpers:
    def test_check_grid_accepts(self, rng):
        check_grid(rng.random((3, 5, 7)), (3, 2, 1))

    def test_check_grid_rejects_small_axis(self, rng):
        with pytest.raises(GridShapeError):
            check_grid(rng.random((3, 5, 7)), (3, 2, 2))

    def test_check_grid_rejects_2d(self, rng):
        with pytest.raises(GridShapeError):
            check_grid(rng.random((5, 5)), (1, 1, 1))

    def test_interior_shape(self, rng):
        g = rng.random((10, 12, 14))
        assert g[interior((2, 3, 1))].shape == (8, 6, 10)

    def test_zero_extent_keeps_axis(self, rng):
        g = rng.random((10, 12, 14))
        assert g[interior((0, 0, 2))].shape == (6, 12, 14)

    def test_shifted_matches_manual(self, rng):
        g = rng.random((8, 8, 8))
        view = g[shifted_interior((1, -1, 0), (1, 1, 1))]
        np.testing.assert_array_equal(view, g[1:-1, 0:-2, 2:])

    def test_shift_beyond_extent_rejected(self):
        with pytest.raises(GridShapeError):
            shifted_interior((2, 0, 0), (1, 1, 1))

    def test_with_boundary_from(self, rng):
        g = rng.random((6, 6, 6))
        core = np.zeros((4, 4, 4))
        out = with_boundary_from(g, core, (1, 1, 1))
        assert out[0, 0, 0] == g[0, 0, 0]
        assert out[3, 3, 3] == 0.0
        # Input untouched.
        assert g[3, 3, 3] != 0.0


class TestApplySymmetric:
    def test_boundary_preserved(self, rng):
        spec = symmetric(4)
        g = rng.random((10, 12, 14))
        out = apply_symmetric(spec, g)
        np.testing.assert_array_equal(out[:2], g[:2])
        np.testing.assert_array_equal(out[:, :, -2:], g[:, :, -2:])

    def test_interior_point_by_hand(self, rng):
        """One interior point evaluated against a literal loop."""
        spec = symmetric(4)
        g = rng.random((9, 9, 9))
        out = apply_symmetric(spec, g)
        z, y, x = 4, 4, 4
        expected = spec.coefficients[0] * g[z, y, x]
        for m in (1, 2):
            c = spec.coefficients[m]
            expected += c * (
                g[z, y, x - m] + g[z, y, x + m]
                + g[z, y - m, x] + g[z, y + m, x]
                + g[z - m, y, x] + g[z + m, y, x]
            )
        assert out[z, y, x] == pytest.approx(expected, rel=1e-12)

    def test_linearity(self, rng):
        spec = symmetric(2)
        a = rng.random((8, 8, 8))
        b = rng.random((8, 8, 8))
        lhs = apply_symmetric(spec, a + b)
        rhs = apply_symmetric(spec, a) + apply_symmetric(spec, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_translation_symmetry(self, rng):
        """Shifting the input shifts the deep-interior output."""
        spec = symmetric(2)
        g = rng.random((12, 12, 12))
        out = apply_symmetric(spec, g)
        out_shift = apply_symmetric(spec, g[1:, :, :])
        np.testing.assert_allclose(
            out[3:-2, 2:-2, 2:-2], out_shift[2:-2, 2:-2, 2:-2], rtol=1e-12
        )

    def test_dtype_preserved(self, rng):
        spec = symmetric(2)
        out = apply_symmetric(spec, rng.random((6, 6, 6)).astype(np.float32))
        assert out.dtype == np.float32

    def test_too_small_grid(self, rng):
        with pytest.raises(GridShapeError):
            apply_symmetric(symmetric(8), rng.random((6, 20, 20)))

    @settings(max_examples=25, deadline=None)
    @given(radius=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_agrees_with_expression_form(self, radius, seed):
        """Eqn (1) evaluated directly == evaluated through the general
        tap machinery — ties the two stencil representations together."""
        rng = np.random.default_rng(seed)
        spec = symmetric(2 * radius)
        expr = symmetric_expr(2 * radius, spec.coefficients)
        g = rng.random((2 * radius + 3,) * 3)
        direct = apply_symmetric(spec, g)
        via_expr = apply_expr(expr, [g])[0]
        np.testing.assert_allclose(direct, via_expr, rtol=1e-10)


class TestIterate:
    def test_diffusion_contracts_range(self, rng):
        """Repeated smoothing shrinks the value range (maximum principle
        for positive weights summing to one)."""
        spec = symmetric(2)
        g = rng.random((10, 10, 10))
        out = iterate_symmetric(spec, g, steps=5)
        inner = (slice(1, -1),) * 3
        assert np.ptp(out[inner]) < np.ptp(g[inner])

    def test_zero_steps_identity(self, rng):
        g = rng.random((8, 8, 8))
        np.testing.assert_array_equal(iterate_symmetric(symmetric(2), g, 0), g)
