"""Roofline analysis and grid-generator tests."""

import numpy as np
import pytest

from repro.errors import GridShapeError
from repro.gpusim.device import get_device
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.metrics.roofline import roofline
from repro.stencils.reference import apply_expr
from repro.stencils.spec import symmetric
from repro.workloads import hot_cube, random_grid

GRID = (256, 256, 64)


class TestRoofline:
    def test_order2_sp_is_bandwidth_bound(self, gtx580):
        """Section V-B: 'the 2nd order SP stencil is bandwidth-limited'."""
        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(64, 4, 1, 2))
        point = roofline(plan, gtx580, GRID)
        assert point.bandwidth_bound
        assert point.arithmetic_intensity < point.ridge_intensity

    def test_high_order_dp_on_kepler_is_compute_bound(self):
        """GTX680's 1/24 DP ratio makes the ridge tiny."""
        dev = get_device("gtx680")
        plan = make_kernel("inplane_fullslice", symmetric(12), BlockConfig(32, 8), "dp")
        point = roofline(plan, dev, GRID)
        assert not point.bandwidth_bound

    def test_achieved_below_ceiling(self, paper_device):
        plan = make_kernel("inplane_fullslice", symmetric(4), BlockConfig(32, 4, 1, 2))
        point = roofline(plan, paper_device, GRID)
        assert 0 < point.achieved_mpoints <= point.ceiling_mpoints * 1.001
        assert 0 < point.efficiency <= 1.0

    def test_reuses_given_report(self, gtx580):
        from repro.gpusim.executor import simulate

        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4))
        rep = simulate(plan, gtx580, GRID)
        point = roofline(plan, gtx580, GRID, report=rep)
        assert point.achieved_mpoints == rep.mpoints_per_s

    def test_summary_names_the_bound(self, gtx580):
        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4))
        assert "bandwidth-bound" in roofline(plan, gtx580, GRID).summary()

    def test_ridge_matches_device_ratio(self, gtx580):
        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4))
        point = roofline(plan, gtx580, GRID)
        assert point.ridge_intensity == pytest.approx(
            gtx580.peak_sp_gflops / gtx580.measured_bandwidth_gbs, rel=1e-9
        )


class TestWorkloads:
    def test_random_grid_deterministic(self):
        a = random_grid((4, 5, 6), seed=9)
        b = random_grid((4, 5, 6), seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.float32

    def test_hot_cube_bounds(self):
        g = hot_cube((16, 16, 16), temperature=50.0)
        assert g.max() == 50.0
        assert g.min() == 0.0
        assert g[8, 8, 8] == 50.0
        assert g[0, 0, 0] == 0.0

    def test_polynomial_known_laplacian(self):
        from repro.stencils.applications import laplacian

        # x^2 + 2y^2 + 3z^2: the discrete Laplacian is 2(1 + 2 + 3).
        z, y, x = np.indices((10, 10, 10), dtype=np.float64)
        g = x * x + 2.0 * y * y + 3.0 * z * z
        lap = apply_expr(laplacian(), [g])[0]
        np.testing.assert_allclose(lap[1:-1, 1:-1, 1:-1], 12.0, rtol=1e-12)

    @pytest.mark.parametrize("bad", [(0, 4, 4), (4, 4), (4, -1, 4)])
    def test_shape_validation(self, bad):
        with pytest.raises(GridShapeError):
            random_grid(bad)  # type: ignore[arg-type]
