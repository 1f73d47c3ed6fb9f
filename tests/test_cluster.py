"""Multi-GPU decomposition tests: exact numerics + cost-model shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PCIE_GEN2_X16,
    LinkSpec,
    MultiGpuStencil,
    exchange_halos,
    merge_slabs,
    slab_extents,
    split_grid,
)
from repro.errors import ConfigurationError, GridShapeError
from repro.kernels.factory import make_kernel
from repro.stencils.reference import iterate_symmetric
from repro.stencils.spec import symmetric


def plan_builder(order=2, block=(16, 4, 1, 2)):
    return lambda: make_kernel("inplane_fullslice", symmetric(order), block)


class TestDecompose:
    def test_split_covers_grid(self, rng):
        g = rng.random((20, 8, 8))
        slabs = split_grid(g, 3, radius=2)
        assert slabs[0].z_start == 0
        assert slabs[-1].z_stop == 20
        assert sum(s.owned for s in slabs) == 20

    def test_ghosts_only_at_interfaces(self, rng):
        slabs = split_grid(rng.random((16, 4, 4)), 4, radius=1)
        assert slabs[0].ghost_lo == 0 and slabs[0].ghost_hi == 1
        assert slabs[1].ghost_lo == 1 and slabs[1].ghost_hi == 1
        assert slabs[-1].ghost_lo == 1 and slabs[-1].ghost_hi == 0

    def test_single_part_has_no_ghosts(self, rng):
        slabs = split_grid(rng.random((8, 4, 4)), 1, radius=3)
        assert slabs[0].ghost_lo == slabs[0].ghost_hi == 0

    def test_merge_inverts_split(self, rng):
        g = rng.random((19, 6, 7))
        np.testing.assert_array_equal(merge_slabs(split_grid(g, 4, 2)), g)

    def test_exchange_counts_planes(self, rng):
        slabs = split_grid(rng.random((16, 4, 4)), 4, radius=2)
        assert exchange_halos(slabs) == 2 * 2 * 3  # r planes x 2 dirs x 3 ifaces

    def test_too_thin_rejected(self, rng):
        with pytest.raises(GridShapeError):
            split_grid(rng.random((8, 4, 4)), 4, radius=3)

    def test_bad_args(self, rng):
        g = rng.random((8, 4, 4))
        with pytest.raises(GridShapeError):
            split_grid(g, 0, 1)
        with pytest.raises(GridShapeError):
            split_grid(g, 2, 0)
        with pytest.raises(GridShapeError):
            merge_slabs([])


class TestSlabExtents:
    """The decomposition arithmetic both split_grid and the cost model use."""

    def test_matches_split_grid(self, rng):
        g = rng.random((19, 4, 4))
        extents = slab_extents(19, 4, 2)
        slabs = split_grid(g, 4, 2)
        assert [(s.owned, s.ghost_lo, s.ghost_hi) for s in slabs] == extents

    def test_uneven_remainder_goes_to_leading_slabs(self):
        # 19 = 5 + 5 + 5 + 4: remainder planes land on the leading slabs.
        assert [o for o, _, _ in slab_extents(19, 4, 2)] == [5, 5, 5, 4]
        assert sum(o for o, _, _ in slab_extents(19, 4, 2)) == 19

    def test_slabs_exactly_radius_thick(self):
        # The boundary case: every slab owns exactly ``radius`` planes.
        extents = slab_extents(6, 3, 2)
        assert [o for o, _, _ in extents] == [2, 2, 2]
        assert extents[0] == (2, 0, 2)
        assert extents[1] == (2, 2, 2)
        assert extents[2] == (2, 2, 0)

    def test_more_parts_than_planes_rejected(self):
        with pytest.raises(GridShapeError):
            slab_extents(4, 8, 1)

    def test_thinner_than_radius_rejected(self):
        with pytest.raises(GridShapeError):
            slab_extents(9, 4, 3)  # base slab of 2 < radius 3

    def test_bad_args_rejected(self):
        with pytest.raises(GridShapeError):
            slab_extents(8, 0, 1)
        with pytest.raises(GridShapeError):
            slab_extents(8, 2, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        lz=st.integers(4, 96),
        parts=st.integers(1, 8),
        radius=st.integers(1, 4),
    )
    def test_extents_cover_and_respect_radius(self, lz, parts, radius):
        if lz // parts < radius:
            with pytest.raises(GridShapeError):
                slab_extents(lz, parts, radius)
            return
        extents = slab_extents(lz, parts, radius)
        assert sum(o for o, _, _ in extents) == lz
        assert all(o >= radius for o, _, _ in extents)
        assert max(o for o, _, _ in extents) - min(o for o, _, _ in extents) <= 1


class TestNumericEquivalence:
    @pytest.mark.parametrize("gpus", [1, 2, 3, 4, 7])
    def test_multi_gpu_equals_single_grid(self, gpus, rng):
        """The core invariant: slab sweeps + exchange == global sweeps."""
        sim = MultiGpuStencil(plan_builder(order=2), "gtx580")
        g = rng.random((24, 12, 16)).astype(np.float32)
        got = sim.run_steps(g, gpus=gpus, steps=3)
        want = iterate_symmetric(symmetric(2), g, 3)
        np.testing.assert_allclose(got, want, rtol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(
        gpus=st.integers(1, 4),
        steps=st.integers(1, 3),
        order=st.sampled_from([2, 4]),
        seed=st.integers(0, 1000),
    )
    def test_equivalence_property(self, gpus, steps, order, seed):
        rng = np.random.default_rng(seed)
        lz = 8 * gpus + order
        sim = MultiGpuStencil(plan_builder(order=order, block=(16, 2)), "c2070")
        g = rng.random((lz, 10, 16))
        got = sim.run_steps(g, gpus=gpus, steps=steps)
        want = iterate_symmetric(symmetric(order), g.astype(np.float32), steps)
        np.testing.assert_allclose(got, want, rtol=1e-4)


class TestCostModel:
    def test_link_transfer_time(self):
        link = LinkSpec(name="t", bandwidth_gbs=1.0, latency_us=100.0)
        assert link.transfer_time_s(1e9, 1) == pytest.approx(1.0001)

    def test_link_validation(self):
        with pytest.raises(ConfigurationError):
            PCIE_GEN2_X16.transfer_time_s(-1, 1)

    def test_overlap_validation(self):
        with pytest.raises(ConfigurationError):
            MultiGpuStencil(plan_builder(), "gtx580", overlap=1.5)

    def test_strong_scaling_monotone_then_saturating(self):
        sim = MultiGpuStencil(plan_builder(block=(32, 4, 1, 2)), "gtx580")
        points = sim.strong_scaling((256, 256, 128), (1, 2, 4, 8))
        speedups = [p.speedup for p in points]
        # More GPUs never slower here, but efficiency decays (exchange).
        assert speedups == sorted(speedups)
        assert points[0].efficiency == pytest.approx(1.0)
        assert points[-1].efficiency < points[1].efficiency

    def test_exchange_grows_with_interfaces(self):
        sim = MultiGpuStencil(plan_builder(), "gtx580")
        two = sim.step_cost((128, 128, 64), 2)
        eight = sim.step_cost((128, 128, 64), 8)
        assert eight.exchange_time_s >= two.exchange_time_s
        assert eight.kernel_time_s < two.kernel_time_s

    def test_weak_scaling_holds_efficiency_better(self):
        sim = MultiGpuStencil(plan_builder(block=(32, 4, 1, 2)), "gtx580")
        strong = sim.strong_scaling((128, 128, 128), (1, 4))
        weak = sim.weak_scaling((128, 128, 32), (1, 4))
        # Weak scaling keeps per-GPU work constant: better efficiency.
        weak_eff = weak[1].mpoints_per_s / (4 * weak[0].mpoints_per_s)
        assert weak_eff > strong[1].efficiency * 0.9

    def test_overlap_reduces_step_time(self):
        no = MultiGpuStencil(plan_builder(), "gtx580", overlap=0.0)
        full = MultiGpuStencil(plan_builder(), "gtx580", overlap=1.0)
        a = no.step_cost((128, 128, 64), 4)
        b = full.step_cost((128, 128, 64), 4)
        assert b.step_time_s < a.step_time_s
        assert b.step_time_s == pytest.approx(b.kernel_time_s)

    def test_too_many_gpus_rejected(self):
        sim = MultiGpuStencil(plan_builder(order=8), "gtx580")
        with pytest.raises(ConfigurationError):
            sim.step_cost((64, 64, 16), 8)  # slabs thinner than radius 4

    def test_straggler_uses_true_thickest_slab(self):
        """The straggler slab's thickness comes from slab_extents, not
        the old ``owned_max + 2*radius`` approximation.

        lz=19, gpus=3, r=1: owned planes are 7,6,6 but the 7-plane slab
        is an *end* slab with one ghost region (8 planes); the true
        straggler is a middle slab at 6+1+1=8 — the approximation
        would have priced 7+2=9.
        """
        from repro.gpusim.executor import DeviceExecutor

        sim = MultiGpuStencil(plan_builder(), "gtx580")
        plan = plan_builder()()
        radius = plan.halo_radius()
        extents = slab_extents(19, 3, radius)
        thickest = max(o + lo + hi for o, lo, hi in extents)
        approx = max(o for o, _, _ in extents) + 2 * radius
        assert thickest < approx  # the case the old heuristic overpriced
        point = sim.step_cost((32, 16, 19), 3)
        executor = DeviceExecutor(sim.device)
        want = executor.run(plan, (32, 16, thickest)).time_s
        assert point.kernel_time_s == pytest.approx(want)
        assert point.kernel_time_s < executor.run(plan, (32, 16, approx)).time_s

    def test_strong_scaling_simulates_baseline_once(self, monkeypatch):
        """strong_scaling prices the full grid exactly once, not per point."""
        from repro.gpusim.executor import DeviceExecutor

        shapes = []
        real_run = DeviceExecutor.run

        def counting_run(self, plan, grid_shape, *args, **kwargs):
            shapes.append(tuple(grid_shape))
            return real_run(self, plan, grid_shape, *args, **kwargs)

        monkeypatch.setattr(DeviceExecutor, "run", counting_run)
        sim = MultiGpuStencil(plan_builder(), "gtx580")
        full = (64, 64, 32)
        sim.strong_scaling(full, (1, 2, 4))
        assert shapes.count(full) == 1
        # One thick-slab simulation per multi-GPU point, nothing more.
        assert len(shapes) == 3


class TestHaloValidation:
    """Ghost-plane integrity guard against corrupted transfers."""

    def make_slabs(self, rng, parts=3, radius=2):
        slabs = split_grid(rng.random((18, 4, 4)), parts, radius)
        exchange_halos(slabs)
        return slabs

    def test_clean_exchange_validates(self, rng):
        from repro.cluster import validate_halos

        slabs = self.make_slabs(rng)
        validate_halos(slabs)  # no raise
        assert exchange_halos(slabs) > 0
        validate_halos(slabs)

    def test_corrupted_ghost_detected(self, rng):
        from repro.cluster import validate_halos
        from repro.errors import HaloExchangeError

        slabs = self.make_slabs(rng)
        slabs[1].data[0, 2, 2] += 1.0  # lower ghost of the middle slab
        with pytest.raises(HaloExchangeError, match="slab 1: lower ghost"):
            validate_halos(slabs)

    def test_non_finite_ghost_detected(self, rng):
        from repro.cluster import validate_halos
        from repro.errors import HaloExchangeError

        slabs = self.make_slabs(rng)
        slabs[0].data[-1, 0, 0] = np.nan  # upper ghost of the first slab
        with pytest.raises(HaloExchangeError, match="slab 0: non-finite"):
            validate_halos(slabs)

    def test_fault_injected_exchange_caught(self, rng):
        """A corrupted transfer, injected as ``repro cluster run`` injects
        it, fails validation."""
        from repro.cluster import validate_halos
        from repro.errors import HaloExchangeError
        from repro.gpusim.faults import ClusterFaultPlan

        slabs = self.make_slabs(rng)
        plan = ClusterFaultPlan(seed=1, link_corrupt_rate=1.0, corrupt_mode="nan")
        assert plan.corrupt_ghosts(slabs[1].data[: slabs[1].ghost_lo], 0, 0)
        with pytest.raises(HaloExchangeError, match="slab 1: non-finite"):
            validate_halos(slabs)
