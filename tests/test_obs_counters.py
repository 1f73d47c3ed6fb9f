"""Property tests: the hardware-counter analogue vs the gpusim enumerators.

Every counter in :mod:`repro.obs.counters` must agree EXACTLY with the
counting/enumerating ground truth it claims to summarize — the memory
transaction enumerators (:class:`repro.gpusim.memory.MemoryStats`), the
shared-memory conflict profile, the instruction-issue mix recomputed from
the workload, and the wave decomposition —
property-tested over randomized launch configurations so a counter can
never drift from the simulator it describes.
"""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from repro import obs
from repro.errors import ReproError
from repro.gpusim.device import get_device
from repro.gpusim.executor import DeviceExecutor, simulate
from repro.gpusim.smem import dp_conflict_factor
from repro.gpusim.timing import params_for, time_kernel, wave_geometry
from repro.kernels.factory import make_kernel
from repro.obs.counters import (
    COUNTER_KEYS,
    STALL_KEYS,
    CounterSchemaError,
    CounterSet,
    derive_counters,
    validate_counters,
)
from repro.stencils.spec import symmetric

GRID = (128, 128, 32)

launches = st.tuples(
    st.sampled_from(("gtx580", "gtx680", "c2070")),
    st.sampled_from(
        ("nvstencil", "inplane_fullslice", "inplane_vertical",
         "inplane_horizontal", "blocking3d")
    ),
    st.sampled_from((2, 4, 8, 10)),
    st.sampled_from((16, 32, 64)),   # TX
    st.sampled_from((2, 4, 8)),      # TY
    st.sampled_from((1, 2)),         # RX
    st.sampled_from((1, 2)),         # RY
    st.sampled_from(("sp", "dp")),
)


def _launch(params):
    """Build (device, plan, block, grid) for one sampled config or assume-out."""
    device, family, order, tx, ty, rx, ry, dtype = params
    dev = get_device(device)
    try:
        plan = make_kernel(family, symmetric(order), (tx, ty, rx, ry), dtype)
        block = plan.block_workload(dev, GRID)
        grid = plan.grid_workload(dev, GRID)
        timing = time_kernel(block, grid, dev)
    except ReproError:
        assume(False)
    return dev, plan, block, grid, timing


class TestCounterDerivations:
    """derive_counters vs first-principles simulator quantities."""

    @settings(max_examples=80, deadline=None)
    @given(params=launches)
    def test_transaction_counters_match_memory_enumerators(self, params):
        dev, plan, block, grid, timing = _launch(params)
        c = derive_counters(timing, block, grid, dev, params_for(dev))
        sweep = grid.planes * grid.blocks
        mem = block.memory
        # Per-sweep transaction totals are the enumerator counts, scaled.
        assert c["gld_transactions"] == mem.load_transactions * sweep
        assert c["gst_transactions"] == mem.store_transactions * sweep
        # Every transaction moves exactly one 128-byte line: the counter is
        # tied to the line-span enumerator through the transferred bytes.
        assert math.isclose(
            c["gld_transactions"] * mem.line_bytes,
            mem.load_transferred_bytes * sweep, rel_tol=1e-12,
        )
        assert math.isclose(
            c["gst_transactions"] * mem.line_bytes,
            mem.store_transferred_bytes * sweep, rel_tol=1e-12,
        )

    @settings(max_examples=80, deadline=None)
    @given(params=launches)
    def test_dram_and_efficiency_counters(self, params):
        dev, plan, block, grid, timing = _launch(params)
        tp = params_for(dev)
        c = derive_counters(timing, block, grid, dev, tp)
        mem = block.memory
        # DRAM bytes: the timing model's post-L2 effective stream, scaled
        # by the sweep — the same identity SimReport.bandwidth_gbs uses.
        assert c["dram_bytes"] == (
            timing.effective_bytes_per_plane * grid.planes * grid.blocks
        )
        time_s = timing.total_cycles / dev.clock_hz
        assert math.isclose(
            c["dram_bw_fraction"] * dev.measured_bandwidth_gbs * 1e9 * time_s,
            c["dram_bytes"], rel_tol=1e-12,
        )
        assert 0 < c["dram_bw_fraction"] <= 1.0 + 1e-12
        # Fig 9 load efficiency, recomputed from the enumerators.
        eff_stream = (
            mem.load_transferred_bytes
            + mem.camped_bytes * (tp.partition_camping - 1.0)
        )
        expected = (
            min(1.0, mem.requested_load_bytes / eff_stream) if eff_stream else 1.0
        )
        assert c["gld_efficiency"] == expected == timing.load_efficiency
        if mem.store_transferred_bytes:
            assert c["gst_efficiency"] == min(
                1.0, mem.requested_store_bytes / mem.store_transferred_bytes
            )
        reuse = tp.l2_halo_reuse if dev.l2_bytes > 0 else 0.0
        assert c["l2_halo_hit_bytes"] == (
            mem.halo_transferred_bytes * reuse * grid.planes * grid.blocks
        )

    @settings(max_examples=80, deadline=None)
    @given(params=launches)
    def test_instruction_and_replay_counters(self, params):
        dev, plan, block, grid, timing = _launch(params)
        tp = params_for(dev)
        c = derive_counters(timing, block, grid, dev, tp)
        # The compute stream's issue slots per block-plane, from the
        # workload: addressed global loads, stores, shared-memory slots
        # with replays, arithmetic, spill traffic and bookkeeping.
        prof = block.smem_profile
        base = float(prof.read_instructions + prof.write_instructions)
        conflict = dp_conflict_factor(block.elem_bytes, dev.rules)
        spilled = timing.spilled_regs
        slots = (
            block.memory.load_instructions * (1.0 + tp.load_addressing_instructions)
            + block.memory.store_instructions
            + (base * prof.conflict_factor) * conflict
            + block.points_per_plane * block.arith_instructions / 32
            + (spilled * block.threads_per_block / 32 * 2 if spilled else 0)
            + block.extra_instructions
            + tp.loop_overhead_instructions
        )
        assert timing.issue_slots_per_plane == slots
        assert c["inst_issued"] == (
            slots * timing.planes_per_block * grid.blocks
        )
        assert c["ipc"] == c["inst_issued"] / (timing.total_cycles * dev.sm_count)
        assert 0 < c["ipc"] <= dev.rules.issue_width + 1e-12
        # Replay rate from the bank-conflict enumerator: effective issue
        # slots (tile conflict profile x architectural DP factor) over the
        # raw shared-memory instruction count, minus one.
        if base:
            assert c["shared_replay_rate"] == (
                ((base * prof.conflict_factor) * conflict - base) / base
            )
        else:
            assert c["shared_replay_rate"] == 0.0
        assert (
            timing.smem_instructions_per_plane, timing.smem_slots_per_plane
        ) == (base, (base * prof.conflict_factor) * conflict)
        # Spill traffic: the spilled-register model, scaled by the sweep.
        spill_per_plane = (
            timing.spilled_regs * block.threads_per_block * tp.spill_bytes_per_reg
        )
        assert c["local_spill_bytes"] == (
            spill_per_plane * grid.planes * grid.blocks
        )

    @settings(max_examples=80, deadline=None)
    @given(params=launches)
    def test_stall_breakdown_reconciles_with_wave_geometry(self, params):
        dev, plan, block, grid, timing = _launch(params)
        c = derive_counters(timing, block, grid, dev, params_for(dev))
        assert math.isclose(
            sum(c[k] for k in STALL_KEYS), 1.0, rel_tol=1e-9
        )
        # Each share re-derives from the wave decomposition the timeline
        # reconstruction uses; none can drift from the priced cycles.
        planes = timing.planes_per_block
        comp = {"mem": 0.0, "compute": 0.0, "exposed": 0.0, "sync": 0.0,
                "sched": 0.0}
        for wave in wave_geometry(timing):
            comp["mem"] += wave.plane_cost.mem_cycles * planes
            comp["compute"] += wave.plane_cost.compute_cycles * planes
            comp["exposed"] += wave.plane_cost.exposed_cycles * planes
            comp["sync"] += wave.plane_cost.sync_cycles * planes
            comp["sched"] += wave.blocks_per_sm * timing.sched_overhead_cycles
        total = sum(comp.values())
        assert c["stall_mem_frac"] == comp["mem"] / total
        assert c["stall_compute_frac"] == comp["compute"] / total
        assert c["stall_latency_frac"] == comp["exposed"] / total
        assert c["stall_sync_frac"] == comp["sync"] / total
        assert c["stall_sched_frac"] == comp["sched"] / total

    @settings(max_examples=40, deadline=None)
    @given(params=launches)
    def test_executor_single_sources_counters(self, params):
        dev, plan, block, grid, timing = _launch(params)
        report = DeviceExecutor(dev).run(plan, GRID)
        tp = params_for(dev)
        independent = derive_counters(timing, block, grid, dev, tp)
        assert report.counters is not None
        assert report.counters.as_dict() == independent.as_dict()
        # Headline fields are read FROM the counters, not computed twice.
        assert report.load_efficiency == report.counters["gld_efficiency"]
        assert math.isclose(
            report.bandwidth_gbs * 1e9 * report.time_s,
            report.counters["dram_bytes"], rel_tol=1e-12,
        )
        assert report.counters["achieved_occupancy"] == report.occupancy.occupancy
        assert report.counters.occupancy_limiter == report.occupancy.limiter


class TestCounterSchema:
    """The frozen-schema contract of CounterSet / validate_counters."""

    @pytest.fixture
    def values(self):
        plan = make_kernel("inplane_fullslice", symmetric(4), (32, 4, 1, 2), "sp")
        report = simulate(plan, "gtx580", GRID)
        return dict(report.counters.values), report.counters.occupancy_limiter

    def test_valid_set_roundtrips(self, values):
        vals, limiter = values
        cs = CounterSet(values=vals, occupancy_limiter=limiter)
        assert cs.as_dict()["occupancy_limiter"] == limiter
        assert tuple(k for k in cs.as_dict() if k != "occupancy_limiter") == (
            COUNTER_KEYS
        )
        validate_counters(vals, limiter)

    def test_missing_key_rejected(self, values):
        vals, limiter = values
        del vals["ipc"]
        with pytest.raises(CounterSchemaError, match="missing.*ipc"):
            CounterSet(values=vals, occupancy_limiter=limiter)

    def test_unknown_key_rejected(self, values):
        vals, limiter = values
        vals["warp_nonsense"] = 1.0
        with pytest.raises(CounterSchemaError, match="unknown.*warp_nonsense"):
            CounterSet(values=vals, occupancy_limiter=limiter)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), True, "x"])
    def test_bad_values_rejected(self, values, bad):
        vals, limiter = values
        vals["ipc"] = bad
        with pytest.raises(CounterSchemaError, match="ipc"):
            validate_counters(vals, limiter)

    def test_empty_limiter_rejected(self, values):
        vals, _ = values
        with pytest.raises(CounterSchemaError, match="occupancy_limiter"):
            validate_counters(vals, "")


class TestTraceIntegration:
    """Counters flow into the trace spans and device metrics unchanged."""

    def test_kernel_span_and_metrics_single_source(self):
        plan = make_kernel("inplane_fullslice", symmetric(4), (32, 4, 1, 2), "sp")
        with obs.tracing() as tracer:
            report = DeviceExecutor("gtx580").run(plan, GRID)
        (kernel,) = [
            e for e in tracer.spans if e.cat == "sim.kernel"
        ]
        assert kernel.args["counters"] == report.counters.as_dict()
        m = tracer.metrics.snapshot()["counters"]
        assert m["sim.bytes_moved"] == report.counters["dram_bytes"]
        assert m["sim.l2_halo_hit_bytes"] == report.counters["l2_halo_hit_bytes"]
        assert m["sim.spill_bytes"] == report.counters["local_spill_bytes"]
