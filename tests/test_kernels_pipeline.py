"""Plane-pipeline correctness — the numerical core of the reproduction.

The in-plane recurrence (Eqns (3)-(5)) must agree with the forward-plane
schedule and with the direct reference; this is the executable version of
the paper's Eqn (4) identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.pipeline import (
    expr_forward_sweep,
    expr_inplane_sweep,
    forward_sweep,
    inplane_sweep,
)
from repro.stencils.applications import APPLICATIONS
from repro.stencils.reference import apply_expr, apply_symmetric
from repro.stencils.spec import symmetric


class TestSymmetricSchedules:
    @pytest.mark.parametrize("order", [2, 4, 6, 8, 10, 12])
    def test_forward_matches_reference(self, order, rng):
        spec = symmetric(order)
        side = 2 * spec.radius + 5
        g = rng.random((side, side + 2, side + 4))
        np.testing.assert_allclose(
            forward_sweep(spec, g), apply_symmetric(spec, g), rtol=1e-12
        )

    @pytest.mark.parametrize("order", [2, 4, 6, 8, 10, 12])
    def test_inplane_matches_reference(self, order, rng):
        """The Eqn (4) identity, numerically: reassociation only."""
        spec = symmetric(order)
        side = 2 * spec.radius + 5
        g = rng.random((side, side + 2, side + 4))
        np.testing.assert_allclose(
            inplane_sweep(spec, g), apply_symmetric(spec, g), rtol=1e-10
        )

    def test_inplane_float32(self, rng):
        spec = symmetric(4)
        g = rng.random((12, 12, 12)).astype(np.float32)
        out = inplane_sweep(spec, g)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, apply_symmetric(spec, g), rtol=1e-4)

    def test_boundary_planes_untouched(self, rng):
        spec = symmetric(6)
        g = rng.random((12, 12, 12))
        out = inplane_sweep(spec, g)
        np.testing.assert_array_equal(out[:3], g[:3])
        np.testing.assert_array_equal(out[-3:], g[-3:])

    def test_minimal_grid(self, rng):
        """Exactly one interior point (the pipeline's edge case)."""
        spec = symmetric(4)
        g = rng.random((5, 5, 5))
        out = inplane_sweep(spec, g)
        ref = apply_symmetric(spec, g)
        assert out[2, 2, 2] == pytest.approx(ref[2, 2, 2], rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        radius=st.integers(1, 4),
        lz=st.integers(0, 4),
        ly=st.integers(0, 3),
        lx=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_schedules_agree_on_random_shapes(self, radius, lz, ly, lx, seed):
        rng = np.random.default_rng(seed)
        spec = symmetric(2 * radius)
        shape = (2 * radius + 1 + lz, 2 * radius + 1 + ly, 2 * radius + 1 + lx)
        g = rng.standard_normal(shape)
        np.testing.assert_allclose(
            inplane_sweep(spec, g), forward_sweep(spec, g), rtol=1e-9, atol=1e-12
        )


class TestExpressionSchedules:
    @pytest.mark.parametrize("name", list(APPLICATIONS))
    def test_forward_matches_reference(self, name, rng):
        expr = APPLICATIONS[name]
        grids = [rng.random((9, 10, 11)) for _ in range(expr.n_grids)]
        got = expr_forward_sweep(expr, grids)
        want = apply_expr(expr, grids)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", list(APPLICATIONS))
    def test_inplane_matches_reference(self, name, rng):
        expr = APPLICATIONS[name]
        grids = [rng.random((9, 10, 11)) for _ in range(expr.n_grids)]
        got = expr_inplane_sweep(expr, grids)
        want = apply_expr(expr, grids)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)

    def test_inplane_handles_asymmetric_z(self, rng):
        """Upstream's z-taps reach back 2 and forward 1 — the generalized
        pipeline depth equals the forward reach only."""
        expr = APPLICATIONS["upstream"]
        grids = [rng.random((10, 10, 10))]
        got = expr_inplane_sweep(expr, grids)[0]
        want = apply_expr(expr, grids)[0]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_multi_output_order(self, rng):
        expr = APPLICATIONS["grad"]
        grids = [rng.random((8, 8, 8))]
        outs = expr_inplane_sweep(expr, grids)
        assert len(outs) == 3
        refs = apply_expr(expr, grids)
        for o, r in zip(outs, refs):
            np.testing.assert_allclose(o, r, rtol=1e-10)
