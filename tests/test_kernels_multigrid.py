"""MultiGridKernel tests: the section V application kernels."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, StencilDefinitionError
from repro.kernels.config import BlockConfig
from repro.kernels.multigrid import MultiGridKernel
from repro.stencils.applications import APPLICATIONS
from repro.stencils.reference import apply_expr

GRID = (256, 256, 64)
BLOCK = BlockConfig(32, 4, 1, 2)


def kernels_for(name, dtype="sp"):
    expr = APPLICATIONS[name]
    return (
        MultiGridKernel(expr, BLOCK, dtype, method="forward"),
        MultiGridKernel(expr, BLOCK, dtype, method="inplane"),
    )


class TestNumerics:
    @pytest.mark.parametrize("name", list(APPLICATIONS))
    @pytest.mark.parametrize("method", ["forward", "inplane"])
    def test_matches_reference(self, name, method, rng):
        expr = APPLICATIONS[name]
        plan = MultiGridKernel(expr, BLOCK, "sp", method=method)
        grids = [rng.random((10, 12, 14)).astype(np.float32) for _ in range(expr.n_grids)]
        refs = apply_expr(expr, grids)
        plan.validate_against(refs, plan.execute(*grids))

    def test_dp_precision(self, rng):
        expr = APPLICATIONS["poisson"]
        plan = MultiGridKernel(expr, BLOCK, "dp", method="inplane")
        grids = [rng.random((8, 8, 8)) for _ in range(2)]
        out = plan.execute(*grids)
        refs = apply_expr(expr, grids)
        np.testing.assert_allclose(out[0], refs[0], rtol=1e-12)

    def test_wrong_grid_count(self, rng):
        plan = MultiGridKernel(APPLICATIONS["div"], BLOCK)
        with pytest.raises(StencilDefinitionError):
            plan.execute(rng.random((8, 8, 8)))


class TestWorkloads:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            MultiGridKernel(APPLICATIONS["div"], BLOCK, method="sideways")

    def test_hyperthermia_traffic_mostly_method_independent(self, gtx580):
        """Section V-A: the coefficient volumes dominate and are loaded
        identically by both methods, capping the achievable speedup."""
        fwd, inp = kernels_for("hyperthermia")
        f = fwd.block_workload(gtx580, GRID).memory.load_transferred_bytes
        i = inp.block_workload(gtx580, GRID).memory.load_transferred_bytes
        assert abs(f - i) / f < 0.15

    def test_laplacian_traffic_differs_more_than_hyperthermia(self, gtx580):
        fwd_l, inp_l = kernels_for("laplacian")
        fwd_h, inp_h = kernels_for("hyperthermia")

        def rel_gap(fwd, inp):
            f = fwd.block_workload(gtx580, GRID).memory
            i = inp.block_workload(gtx580, GRID).memory
            fe = f.load_transferred_bytes + f.camped_bytes * 2
            ie = i.load_transferred_bytes + i.camped_bytes * 2
            return (fe - ie) / fe

        assert rel_gap(fwd_l, inp_l) > rel_gap(fwd_h, inp_h)

    def test_grad_has_three_store_regions(self, gtx580):
        _, inp = kernels_for("grad")
        lap_inp = kernels_for("laplacian")[1]
        g = inp.block_workload(gtx580, GRID)
        l = lap_inp.block_workload(gtx580, GRID)
        assert g.memory.store_transferred_bytes == pytest.approx(
            3 * l.memory.store_transferred_bytes
        )

    def test_div_loads_three_grids(self, gtx580):
        fwd, _ = kernels_for("div")
        lap = kernels_for("laplacian")[0]
        assert (
            fwd.block_workload(gtx580, GRID).memory.requested_load_bytes
            > 2.3 * lap.block_workload(gtx580, GRID).memory.requested_load_bytes
        )

    def test_forward_has_more_phases_than_inplane(self, gtx580):
        fwd, inp = kernels_for("laplacian")
        assert (
            fwd.block_workload(gtx580, GRID).memory.load_phases
            > inp.block_workload(gtx580, GRID).memory.load_phases
        )

    def test_halo_radius_from_expr(self):
        _, inp = kernels_for("upstream")
        assert inp.halo_radius() == 2

    def test_flops_include_inplane_updates(self):
        fwd, inp = kernels_for("laplacian")
        assert inp.flops_per_point() == fwd.flops_per_point() + 1  # one +z tap

    def test_simulation_end_to_end(self, paper_device):
        from repro.gpusim.executor import simulate

        _, inp = kernels_for("poisson")
        rep = simulate(inp, paper_device, GRID)
        assert rep.mpoints_per_s > 0
        assert 0 < rep.load_efficiency <= 1.0
