"""Timing-model behaviour tests.

These don't pin absolute cycle counts (calibration constants may move);
they verify the *mechanisms*: more bytes cost more time, camping costs
extra, spills cost extra, occupancy and wave structure behave per
Eqns (6)-(9), and per-generation parameters exist for every generation.
"""

import dataclasses

import pytest

from repro.gpusim.arch import Generation
from repro.gpusim.device import get_device
from repro.gpusim.memory import KIND_INTERIOR, KIND_WRITE, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.gpusim.timing import params_for, time_kernel
from repro.gpusim.workload import BlockWorkload, GridWorkload


def make_workload(
    *,
    threads=256,
    regs=32,
    smem=4096,
    elem=4,
    points=1024,
    flops=8.0,
    load_bytes=8192,
    camped=0.0,
    phases=1,
    ilp=1.0,
) -> BlockWorkload:
    stats = MemoryStats()
    stats.add_raw(
        kind=KIND_INTERIOR,
        instructions=load_bytes / 128,
        transactions=load_bytes / 128,
        requested_bytes=load_bytes,
    )
    stats.add_raw(
        kind=KIND_WRITE,
        instructions=points / 32,
        transactions=points * elem / 128,
        requested_bytes=points * elem,
    )
    stats.camped_bytes = camped
    stats.load_phases = phases
    return BlockWorkload(
        threads_per_block=threads,
        regs_per_thread=regs,
        smem_bytes=smem,
        elem_bytes=elem,
        points_per_plane=points,
        flops_per_point=flops,
        memory=stats,
        smem_profile=SmemAccessProfile(read_instructions=100, write_instructions=50),
        ilp=ilp,
    )


GRID = GridWorkload(blocks=256, planes=64, total_points=256 * 1024 * 64)


class TestMechanisms:
    def test_more_bytes_cost_more_cycles(self, gtx580):
        lo = time_kernel(make_workload(load_bytes=4096), GRID, gtx580)
        hi = time_kernel(make_workload(load_bytes=16384), GRID, gtx580)
        assert hi.total_cycles > lo.total_cycles

    def test_camping_costs_extra(self, gtx580):
        base = time_kernel(make_workload(), GRID, gtx580)
        camped = time_kernel(make_workload(camped=4096.0), GRID, gtx580)
        assert camped.total_cycles > base.total_cycles

    def test_camping_raises_effective_bytes(self, gtx580):
        base = time_kernel(make_workload(), GRID, gtx580)
        camped = time_kernel(make_workload(camped=1280.0), GRID, gtx580)
        assert camped.effective_bytes_per_plane > base.effective_bytes_per_plane

    def test_more_phases_cost_extra(self, gtx580):
        lo = time_kernel(make_workload(phases=1), GRID, gtx580)
        hi = time_kernel(make_workload(phases=4), GRID, gtx580)
        assert hi.total_cycles > lo.total_cycles

    def test_spilled_registers_cost_extra(self, gtx580):
        fits = time_kernel(make_workload(regs=60), GRID, gtx580)
        spills = time_kernel(make_workload(regs=80), GRID, gtx580)
        assert spills.spilled_regs == 80 - gtx580.rules.max_regs_per_thread
        assert spills.total_cycles > fits.total_cycles

    def test_dp_arithmetic_slower_than_sp(self, gtx580):
        sp = time_kernel(
            make_workload(flops=40.0, load_bytes=1024), GRID, gtx580
        )
        dp = time_kernel(
            make_workload(flops=40.0, load_bytes=1024, elem=8), GRID, gtx580
        )
        assert dp.total_cycles > sp.total_cycles

    def test_ilp_never_hurts(self, gtx580):
        lo = time_kernel(make_workload(ilp=1.0), GRID, gtx580)
        hi = time_kernel(make_workload(ilp=8.0), GRID, gtx580)
        assert hi.total_cycles <= lo.total_cycles

    def test_l2_reuse_toggle(self, gtx580):
        wl = make_workload()
        wl.memory.halo_transferred_bytes = 4096
        on = time_kernel(wl, GRID, gtx580)
        off = time_kernel(
            wl, GRID, gtx580,
            dataclasses.replace(params_for(gtx580), l2_halo_reuse=0.0),
        )
        assert off.total_cycles > on.total_cycles

    def test_l2_reuse_discounts_halo_bytes(self, gtx580):
        halo = make_workload()
        halo.memory.halo_transferred_bytes = 4096
        interior = make_workload()
        interior.memory.interior_transferred_bytes += 4096
        assert (
            time_kernel(halo, GRID, gtx580).effective_bytes_per_plane
            < time_kernel(interior, GRID, gtx580).effective_bytes_per_plane
        )


class TestWaveStructure:
    def test_stage_count_matches_eqn8(self, gtx580):
        result = time_kernel(make_workload(), GRID, gtx580)
        per_wave = gtx580.sm_count * result.occupancy.active_blocks
        assert result.stages == -(-GRID.blocks // per_wave)

    def test_single_wave_when_few_blocks(self, gtx580):
        grid = GridWorkload(blocks=4, planes=16, total_points=4 * 1024 * 16)
        result = time_kernel(make_workload(), grid, gtx580)
        assert result.stages == 1
        assert result.rem_blocks_per_sm >= 1

    def test_more_blocks_take_longer(self, gtx580):
        small = GridWorkload(blocks=64, planes=64, total_points=1)
        large = GridWorkload(blocks=1024, planes=64, total_points=1)
        wl = make_workload()
        assert (
            time_kernel(wl, large, gtx580).total_cycles
            > time_kernel(wl, small, gtx580).total_cycles
        )

    def test_prologue_planes_add_cost(self, gtx580):
        a = make_workload()
        b = dataclasses.replace(a, prologue_planes=24)
        assert (
            time_kernel(b, GRID, gtx580).total_cycles
            > time_kernel(a, GRID, gtx580).total_cycles
        )


class TestParams:
    def test_every_generation_has_params(self):
        for gen in Generation:
            dev_name = {"fermi": "gtx580", "kepler": "gtx680", "gt200": "gtx285"}[
                gen.value
            ]
            assert params_for(get_device(dev_name)) is not None


class TestWorkloadValidation:
    def test_arith_instructions_default(self):
        wl = make_workload(flops=9.0)
        assert wl.arith_instructions == pytest.approx(6.0)

    def test_arith_instructions_override(self):
        wl = dataclasses.replace(make_workload(), arith_instructions_per_point=7.0)
        assert wl.arith_instructions == 7.0

    def test_rejects_bad_ilp(self):
        with pytest.raises(ValueError):
            make_workload(ilp=0.5)

    def test_rejects_bad_elem(self):
        with pytest.raises(ValueError):
            make_workload(elem=2)

    def test_grid_workload_rejects_empty(self):
        with pytest.raises(ValueError):
            GridWorkload(blocks=0, planes=1, total_points=1)
