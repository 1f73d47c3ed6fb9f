"""Kernel-variant tests: nvstencil, the four in-plane variants, naive, 3D.

Covers both contracts: numeric execution vs the reference, and the
structural properties of the declared workloads (the paper's qualitative
claims about each variant's traffic).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.gpusim.device import PAPER_DEVICES, get_device
from repro.kernels.blocking3d import Blocking3DKernel
from repro.kernels.config import BlockConfig
from repro.kernels.factory import KERNEL_FAMILIES, make_kernel
from repro.kernels.inplane import INPLANE_VARIANTS, InPlaneKernel
from repro.kernels.multigrid import METHODS, MultiGridKernel
from repro.kernels.nvstencil import NvStencilKernel
from repro.stencils.applications import APPLICATIONS
from repro.stencils.catalog import redundant_corner_elems
from repro.stencils.reference import apply_symmetric
from repro.stencils.spec import symmetric
from repro.tuning.space import default_space
from tests.oracles.space import candidates

GRID = (256, 256, 64)
BLOCK = BlockConfig(32, 4, 1, 2)


def workload(family, order=4, block=BLOCK, dtype="sp", device="gtx580", **kw):
    plan = make_kernel(family, symmetric(order), block, dtype, **kw)
    return plan, plan.block_workload(get_device(device), GRID)


class TestNumericContract:
    @pytest.mark.parametrize("family", sorted(set(KERNEL_FAMILIES) - {"temporal"}))
    @pytest.mark.parametrize("order", [2, 6])
    def test_execute_matches_reference(self, family, order, rng):
        plan = make_kernel(family, symmetric(order), BLOCK)
        g = rng.random((16, 20, 24)).astype(np.float32)
        ref = apply_symmetric(symmetric(order), g)
        plan.validate_against(ref, plan.execute(g))

    def test_temporal_family_executes_fused_sweeps(self, rng):
        # The temporal family is multi-sweep by construction; covered in
        # depth by tests/test_kernels_temporal.py.
        plan = make_kernel("temporal", symmetric(2), BLOCK, time_steps=1)
        g = rng.random((12, 20, 24)).astype(np.float32)
        ref = apply_symmetric(symmetric(2), g)
        plan.validate_against(ref, plan.execute(g))

    @pytest.mark.parametrize("variant", INPLANE_VARIANTS)
    def test_all_inplane_variants_numerically_identical(self, variant, rng):
        """Loading variants change memory behaviour, never the numbers."""
        g = rng.random((14, 16, 18)).astype(np.float64)
        base = InPlaneKernel(symmetric(4), BLOCK, variant="fullslice").execute(g)
        other = InPlaneKernel(symmetric(4), BLOCK, variant=variant).execute(g)
        np.testing.assert_array_equal(base, other)

    def test_dp_execution(self, rng):
        plan = make_kernel("inplane_fullslice", symmetric(2), BLOCK, "dp")
        g = rng.random((10, 12, 14))
        out = plan.execute(g)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, apply_symmetric(symmetric(2), g), rtol=1e-12)


class TestWorkloadStructure:
    def test_nvstencil_has_four_load_phases(self):
        _, wl = workload("nvstencil")
        assert wl.memory.load_phases == 4

    def test_fullslice_single_phase(self):
        _, wl = workload("inplane_fullslice")
        assert wl.memory.load_phases == 1

    def test_variant_phase_ordering(self):
        phases = {
            v: workload(f"inplane_{v}")[1].memory.load_phases
            for v in INPLANE_VARIANTS
        }
        assert phases["fullslice"] < phases["horizontal"] < phases["vertical"] <= phases["classical"]

    def test_fullslice_loads_4r2_redundant_corners(self):
        order = 8
        fs = make_kernel("inplane_fullslice", symmetric(order), BLOCK)
        hz = make_kernel("inplane_horizontal", symmetric(order), BLOCK)
        assert (
            fs.loaded_elems_per_plane() - hz.loaded_elems_per_plane()
            == redundant_corner_elems(order)
        )

    def test_nvstencil_and_vertical_have_camped_strips(self):
        for fam in ("nvstencil", "inplane_vertical", "inplane_classical"):
            _, wl = workload(fam)
            assert wl.memory.camped_bytes > 0, fam

    def test_merged_variants_have_no_camping(self):
        for fam in ("inplane_fullslice", "inplane_horizontal"):
            _, wl = workload(fam)
            assert wl.memory.camped_bytes == 0, fam

    def test_inplane_fewer_load_instructions_than_nvstencil(self):
        _, nv = workload("nvstencil")
        _, fs = workload("inplane_fullslice")
        assert fs.memory.load_instructions < nv.memory.load_instructions

    def test_flop_counts_match_table2(self):
        _, nv = workload("nvstencil", order=8)
        _, fs = workload("inplane_fullslice", order=8)
        assert nv.flops_per_point == 29
        assert fs.flops_per_point == 33

    def test_equal_arithmetic_instructions(self):
        """The in-plane extra flops lower to the same instruction count."""
        _, nv = workload("nvstencil", order=8)
        _, fs = workload("inplane_fullslice", order=8)
        assert nv.arith_instructions == fs.arith_instructions == 25

    def test_register_tiling_scales_state(self):
        _, small = workload("inplane_fullslice", block=BlockConfig(32, 4))
        _, big = workload("inplane_fullslice", block=BlockConfig(32, 4, 2, 4))
        assert big.regs_per_thread > small.regs_per_thread
        assert big.ilp == 8.0

    def test_ilp_equals_register_tile(self):
        _, wl = workload("inplane_fullslice", block=BlockConfig(32, 4, 2, 2))
        assert wl.ilp == 4.0

    def test_smem_grows_with_radius(self):
        _, lo = workload("inplane_fullslice", order=2)
        _, hi = workload("inplane_fullslice", order=12)
        assert hi.smem_bytes > lo.smem_bytes

    def test_dp_doubles_bytes(self):
        # Wide tile so line quantization doesn't mask the 2x element size.
        wide = BlockConfig(128, 4, 1, 2)
        _, sp = workload("inplane_fullslice", block=wide, dtype="sp")
        _, dp = workload("inplane_fullslice", block=wide, dtype="dp")
        assert dp.memory.load_transferred_bytes > 1.7 * sp.memory.load_transferred_bytes

    def test_grid_workload_blocks_eqn6(self, gtx580):
        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4, 2, 4))
        gw = plan.grid_workload(gtx580, GRID)
        assert gw.blocks == (256 // 64) * (256 // 16)
        assert gw.total_points == 256 * 256 * 64

    def test_oversized_tile_rejected(self, gtx580):
        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(512, 2, 4, 1))
        with pytest.raises(ConfigurationError):
            plan.block_workload(gtx580, (256, 256, 64))


class TestNaiveAndBlocking3D:
    def test_naive_reloads_every_plane(self):
        """No z reuse: ~(2r+1)x the load traffic of the streaming kernels."""
        _, naive = workload("naive", order=4)
        _, fs = workload("inplane_fullslice", order=4)
        assert naive.memory.load_transferred_bytes > 3 * fs.memory.load_transferred_bytes

    def test_naive_uses_no_smem(self):
        _, wl = workload("naive")
        assert wl.smem_bytes == 0

    def test_blocking3d_z_halo_factor(self):
        plan = Blocking3DKernel(symmetric(8), BLOCK, tz=32)
        assert plan.z_halo_factor() == pytest.approx(1.25)  # paper: 25% at order 8

    def test_blocking3d_more_traffic_than_25d(self, gtx580):
        b3d = Blocking3DKernel(symmetric(8), BLOCK, tz=16)
        fs = InPlaneKernel(symmetric(8), BLOCK, variant="fullslice")
        assert (
            b3d.block_workload(gtx580, GRID).memory.load_transferred_bytes
            > fs.block_workload(gtx580, GRID).memory.load_transferred_bytes
        )

    def test_blocking3d_rejects_bad_tz(self):
        with pytest.raises(ConfigurationError):
            Blocking3DKernel(symmetric(2), BLOCK, tz=0)


class TestFactory:
    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            make_kernel("nope", 2, (32, 4))

    def test_accepts_order_and_tuple(self):
        plan = make_kernel("nvstencil", 4, (32, 4))
        assert isinstance(plan, NvStencilKernel)
        assert plan.spec.order == 4

    def test_family_names(self):
        assert set(KERNEL_FAMILIES) == {
            "nvstencil", "naive", "blocking3d", "temporal", "texture",
            "inplane_classical", "inplane_vertical",
            "inplane_horizontal", "inplane_fullslice",
        }

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            InPlaneKernel(symmetric(2), BLOCK, variant="diagonal")

    def test_name_includes_order_and_dtype(self):
        plan = make_kernel("inplane_fullslice", 6, (32, 8), "dp")
        assert "order6" in plan.name and "dp" in plan.name


class TestTexturePath:
    def test_no_smem_no_barriers(self, gtx580):
        _, wl = workload("texture")
        assert wl.smem_bytes == 0
        assert wl.syncs_per_plane == 0

    def test_cache_load_instructions_grow_with_radius(self):
        _, lo = workload("texture", order=2)
        _, hi = workload("texture", order=12)
        assert hi.memory.load_instructions > 2 * lo.memory.load_instructions

    def test_dram_bytes_match_fullslice(self, gtx580):
        """The cache coalesces the footprint: same lines as the merged load."""
        _, tex = workload("texture", order=4)
        _, fs = workload("inplane_fullslice", order=4)
        assert tex.memory.load_transactions == fs.memory.load_transactions

    def test_numerics(self, rng):
        import numpy as np
        plan = make_kernel("texture", symmetric(4), BLOCK)
        g = rng.random((14, 16, 20)).astype(np.float32)
        ref = apply_symmetric(symmetric(4), g)
        plan.validate_against(ref, plan.execute(g))


class TestSmemFootprint:
    """``plan.smem_bytes()`` is what constraint (iii) checks before any
    workload is built, so it must be exactly the workload's footprint."""

    @pytest.mark.parametrize("device", [d.name for d in PAPER_DEVICES])
    def test_plan_footprint_is_the_workload_footprint(self, device):
        dev = get_device(device)
        checked = 0
        for cfg in candidates(default_space()):
            plans = [
                make_kernel(family, symmetric(8), cfg, dtype)
                for family in KERNEL_FAMILIES
                for dtype in ("sp", "dp")
            ] + [
                MultiGridKernel(expr, cfg, method=method)
                for expr in APPLICATIONS.values()
                for method in METHODS
            ]
            for plan in plans:
                try:
                    block = plan.block_workload(dev, GRID)
                except ReproError:
                    continue  # the tile exceeds the grid
                assert plan.smem_bytes() == block.smem_bytes, plan.name
                checked += 1
        assert checked > 1000
