"""Occupancy calculator tests (Eqn (7) with hardware granularities)."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ResourceLimitError
from repro.gpusim.device import get_device, list_devices
from repro.gpusim.occupancy import compute_occupancy


class TestBasics:
    def test_unconstrained_small_kernel_hits_block_limit(self, gtx580):
        occ = compute_occupancy(gtx580, 64, 10, 1024)
        assert occ.active_blocks == gtx580.max_blocks_per_sm
        assert occ.limiter == "blocks"

    def test_register_limited(self, gtx580):
        # 63 regs x 512 threads ~ 32K regs: one block fills the file.
        occ = compute_occupancy(gtx580, 512, 63, 0)
        assert occ.limiter == "registers"
        assert occ.active_blocks == 1

    @pytest.mark.parametrize(
        "threads, regs, smem",
        [
            (16, 20, 0),  # naive (16, 1, 1, 1) at order 2: no shared memory
            (64, 0, 1024),  # no registers
            (64, 0, 0),
        ],
    )
    def test_unused_resource_is_never_the_limiter(self, gtx580, threads, regs, smem):
        occ = compute_occupancy(gtx580, threads, regs, smem)
        assert occ.active_blocks == gtx580.max_blocks_per_sm
        assert occ.limiter == "blocks"

    def test_smem_limited(self, gtx580):
        occ = compute_occupancy(gtx580, 64, 8, 20 * 1024)
        assert occ.limiter == "smem"
        assert occ.active_blocks == 2

    def test_warp_limited(self, gtx580):
        occ = compute_occupancy(gtx580, 1024, 8, 0)
        # 32 warps/block, 48 warps max -> 1 block.
        assert occ.active_blocks == 1
        assert occ.warps_per_block == 32

    def test_occupancy_fraction(self, gtx580):
        occ = compute_occupancy(gtx580, 256, 63, 0)
        assert occ.occupancy == pytest.approx(
            occ.active_warps / gtx580.max_warps_per_sm
        )

    def test_warps_rounding(self, gtx580):
        occ = compute_occupancy(gtx580, 48, 16, 0)
        assert occ.warps_per_block == 2  # 48 threads -> 2 warps


class TestErrors:
    def test_zero_threads(self, gtx580):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(gtx580, 0, 10, 0)

    def test_too_many_threads(self, gtx580):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(gtx580, 2048, 10, 0)

    def test_block_exceeds_register_file(self, gtx580):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(gtx580, 1024, 63, 0)

    def test_block_exceeds_smem(self, gtx580):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(gtx580, 64, 8, 64 * 1024)

    def test_negative_resources(self, gtx580):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(gtx580, 64, -1, 0)


class TestProperties:
    @given(
        threads=st.integers(1, 1024),
        regs=st.integers(1, 63),
        smem=st.integers(0, 48 * 1024),
    )
    def test_invariants(self, threads, regs, smem):
        dev = get_device("gtx580")
        try:
            occ = compute_occupancy(dev, threads, regs, smem)
        except ResourceLimitError:
            return
        # Resident resources never exceed SM limits.
        assert occ.active_blocks * occ.regs_per_block <= dev.registers_per_sm
        assert occ.active_blocks * occ.smem_per_block <= dev.smem_per_sm
        assert occ.active_warps <= dev.max_warps_per_sm
        assert occ.active_blocks <= dev.max_blocks_per_sm
        assert 0.0 < occ.occupancy <= 1.0
        # The limiter is a resource the block actually uses.
        assert occ.limiter != "smem" or smem > 0

    @given(threads=st.integers(1, 1024), regs=st.integers(1, 62))
    def test_more_registers_never_increases_occupancy(self, threads, regs):
        dev = get_device("gtx580")
        try:
            lo = compute_occupancy(dev, threads, regs, 0)
            hi = compute_occupancy(dev, threads, regs + 1, 0)
        except ResourceLimitError:
            return
        assert hi.active_blocks <= lo.active_blocks

    @given(smem=st.integers(0, 40 * 1024))
    def test_more_smem_never_increases_occupancy(self, smem):
        dev = get_device("gtx680")
        lo = compute_occupancy(dev, 128, 32, smem)
        hi = compute_occupancy(dev, 128, 32, smem + 4096)
        assert hi.active_blocks <= lo.active_blocks


    @given(
        device=st.sampled_from(list_devices()),
        threads=st.integers(1, 1024),
        regs=st.integers(0, 63),
        smem=st.integers(0, 48 * 1024),
        growth=st.sampled_from((1.1, 1.25, 1.5, 2.0, 4.0)),
    )
    def test_larger_register_file_never_lowers_active_blocks(
        self, device, threads, regs, smem, growth
    ):
        dev = get_device(device)
        big = dataclasses.replace(
            dev, registers_per_sm=int(dev.registers_per_sm * growth)
        )
        try:
            lo = compute_occupancy(dev, threads, regs, smem)
        except ResourceLimitError:
            return
        hi = compute_occupancy(big, threads, regs, smem)
        assert hi.active_blocks >= lo.active_blocks


class TestKeplerDifferences:
    def test_kepler_allows_more_warps(self):
        fermi = compute_occupancy(get_device("gtx580"), 256, 30, 0)
        kepler = compute_occupancy(get_device("gtx680"), 256, 30, 0)
        assert kepler.active_warps >= fermi.active_warps

    def test_register_allocation_granularity_applied(self, gtx580):
        # 10 regs x 32 lanes = 320, rounded to the 64-register chunk.
        occ = compute_occupancy(gtx580, 32, 10, 0)
        assert occ.regs_per_block % gtx580.rules.register_alloc_granularity == 0
        assert occ.regs_per_block >= 320
