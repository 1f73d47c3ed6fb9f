"""Every TimingParams knob must move simulated cycles in its documented
direction — the executable spec of the calibration surface."""

import dataclasses

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.executor import simulate
from repro.gpusim.timing import params_for
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric

GRID = (256, 256, 64)


def cycles(plan, device, **overrides):
    params = dataclasses.replace(params_for(device), **overrides)
    return simulate(plan, device, GRID, params).total_cycles


@pytest.fixture
def nv(gtx580):
    return make_kernel("nvstencil", symmetric(4), BlockConfig(64, 8))


@pytest.fixture
def fs(gtx580):
    return make_kernel("inplane_fullslice", symmetric(4), BlockConfig(32, 4, 2, 2))


class TestKnobDirections:
    def test_arith_efficiency_up_is_faster(self, nv, gtx580):
        assert cycles(nv, gtx580, arith_efficiency=0.9) <= cycles(
            nv, gtx580, arith_efficiency=0.4
        )

    def test_latency_exposure_up_is_slower(self, nv, gtx580):
        assert cycles(nv, gtx580, latency_exposure=1.5) > cycles(
            nv, gtx580, latency_exposure=0.2
        )

    def test_phase_straggler_hits_split_loading_only_more(self, nv, fs, gtx580):
        """Straggler cost scales with phases: 4-phase nvstencil must lose
        more than 1-phase full-slice when the knob rises."""
        nv_delta = cycles(nv, gtx580, phase_straggler=1.0) / cycles(
            nv, gtx580, phase_straggler=0.0
        )
        fs_delta = cycles(fs, gtx580, phase_straggler=1.0) / cycles(
            fs, gtx580, phase_straggler=0.0
        )
        assert nv_delta > fs_delta
        assert fs_delta == pytest.approx(1.0)

    def test_block_overlap_up_is_faster(self, nv, gtx580):
        assert cycles(nv, gtx580, block_overlap=0.9) <= cycles(
            nv, gtx580, block_overlap=0.1
        )

    def test_ilp_bonus_helps_register_tiled_kernels(self, fs, gtx580):
        assert cycles(fs, gtx580, ilp_bonus=1.0) <= cycles(fs, gtx580, ilp_bonus=0.0)

    def test_sync_cost_up_is_slower(self, nv, gtx580):
        assert cycles(nv, gtx580, sync_base_cycles=200.0) > cycles(
            nv, gtx580, sync_base_cycles=0.0
        )

    def test_sched_overhead_up_is_slower(self, nv, gtx580):
        assert cycles(nv, gtx580, sched_overhead_cycles=2000.0) > cycles(
            nv, gtx580, sched_overhead_cycles=0.0
        )

    def test_l2_reuse_up_is_faster(self, nv, gtx580):
        assert cycles(nv, gtx580, l2_halo_reuse=0.6) < cycles(
            nv, gtx580, l2_halo_reuse=0.0
        )

    def test_camping_up_slows_split_loading_only(self, nv, fs, gtx580):
        assert cycles(nv, gtx580, partition_camping=5.0) > cycles(
            nv, gtx580, partition_camping=1.0
        )
        assert cycles(fs, gtx580, partition_camping=5.0) == pytest.approx(
            cycles(fs, gtx580, partition_camping=1.0)
        )

    def test_spill_cost_only_bites_spilled_kernels(self, gtx580):
        lean = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4))
        fat = make_kernel("inplane_fullslice", symmetric(12), BlockConfig(32, 4, 4, 8))
        assert cycles(lean, gtx580, spill_bytes_per_reg=64.0) == pytest.approx(
            cycles(lean, gtx580, spill_bytes_per_reg=0.0)
        )
        assert cycles(fat, gtx580, spill_bytes_per_reg=64.0) > cycles(
            fat, gtx580, spill_bytes_per_reg=0.0
        )

    def test_addressing_cost_hits_scalar_loads_more(self, gtx580):
        from repro.kernels.inplane import InPlaneKernel

        vec = InPlaneKernel(symmetric(8), BlockConfig(32, 4), use_vectors=True)
        sca = InPlaneKernel(symmetric(8), BlockConfig(32, 4), use_vectors=False)
        vec_delta = cycles(vec, gtx580, load_addressing_instructions=8.0) / cycles(
            vec, gtx580, load_addressing_instructions=0.0
        )
        sca_delta = cycles(sca, gtx580, load_addressing_instructions=8.0) / cycles(
            sca, gtx580, load_addressing_instructions=0.0
        )
        assert sca_delta >= vec_delta


class TestGenerationParams:
    def test_distinct_per_generation(self):
        fermi = params_for(get_device("gtx580"))
        kepler = params_for(get_device("gtx680"))
        gt200 = params_for(get_device("gtx285"))
        assert fermi != kepler
        assert gt200.l2_halo_reuse == 0.0  # GT200 has no L2

    def test_params_are_frozen(self, gtx580):
        with pytest.raises(dataclasses.FrozenInstanceError):
            params_for(gtx580).arith_efficiency = 0.5  # type: ignore[misc]
