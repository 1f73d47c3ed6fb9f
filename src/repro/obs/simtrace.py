"""Device-track span emission for one simulated launch.

The cycle model (:mod:`repro.gpusim.timing`) is analytic — it prices a
whole sweep in closed form rather than stepping through time — so the
profiler *reconstructs* the timeline a stepping simulator would have
produced: per-wave spans (every wave but the last runs ``ActBlks`` blocks
per SM; the remainder wave runs fewer), sampled per-plane spans inside
each wave, and one lane per cost component.

Reconciliation is by construction, and test-enforced
(``tests/test_obs_reconcile.py``):

* the last wave's duration is computed as ``total - (stages-1) * stage``,
  so wave durations sum *exactly* to ``TimingResult.total_cycles``;
* full waves carry the same per-plane component cycles that
  ``SimReport.breakdown`` reports, so component-lane spans reconcile with
  the breakdown keys frozen in :data:`repro.gpusim.report.BREAKDOWN_KEYS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.schema import (
    CAT_SIM_COMPONENT,
    CAT_SIM_KERNEL,
    CAT_SIM_PLANE,
    CAT_SIM_WAVE,
)
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.report import SimReport
    from repro.gpusim.timing import TimingParams, TimingResult
    from repro.gpusim.workload import BlockWorkload, GridWorkload


def emit_kernel_spans(
    tracer: Tracer,
    report: "SimReport",
    timing: "TimingResult",
    workload: "BlockWorkload",
    grid: "GridWorkload",
    device: "DeviceSpec",
    params: "TimingParams",
) -> None:
    """Record one launch's device-track spans and accumulate its counters."""
    from repro.gpusim.timing import wave_geometry  # deferred: no import cycle
    from repro.obs.counters import derive_counters

    base = tracer.alloc_cycles(timing.total_cycles)
    planes = timing.planes_per_block
    counters = report.counters or derive_counters(
        timing, workload, grid, device, params
    )

    tracer.device_span(
        report.kernel_name,
        CAT_SIM_KERNEL, "kernel", base, timing.total_cycles,
        device=report.device_name,
        kernel=report.kernel_name,
        grid_shape=report.meta.get("grid_shape"),
        block=report.meta.get("block"),
        dtype=report.meta.get("dtype"),
        total_cycles=timing.total_cycles,
        mpoints_per_s=report.mpoints_per_s,
        load_efficiency=report.load_efficiency,
        occupancy=report.occupancy.occupancy,
        stages=timing.stages,
        blocks=timing.blocks,
        breakdown=dict(report.breakdown),
        counters=counters.as_dict(),
        # Present only on launches an injected fault touched (throttle /
        # ECC); clean traces carry exactly the pre-fault-layer args.
        **(
            {"faults": report.meta["faults"]}
            if report.meta.get("faults") else {}
        ),
    )

    replay_slots = (
        timing.smem_slots_per_plane - timing.smem_instructions_per_plane
    )
    spill_bytes_per_plane = timing.spill_bytes_per_plane

    m = tracer.metrics
    m.counter("sim.kernels").inc()
    m.counter("sim.cycles").inc(timing.total_cycles)
    m.counter("sim.bytes_moved").inc(counters["dram_bytes"])
    m.counter("sim.l2_halo_hit_bytes").inc(counters["l2_halo_hit_bytes"])
    m.counter("sim.spill_bytes").inc(counters["local_spill_bytes"])
    # Replay slots follow the instruction convention (priced planes), the
    # same definition behind the shared_replay_rate counter.
    m.counter("sim.bank_conflict_issue_slots").inc(
        replay_slots * planes * grid.blocks
    )
    m.gauge("sim.occupancy").set(report.occupancy.occupancy)

    for w, wave in enumerate(wave_geometry(timing)):
        blocks_per_sm, cost = wave.blocks_per_sm, wave.plane_cost
        wbase = base + wave.begin
        dur = wave.dur
        tracer.device_span(
            f"wave {w}", CAT_SIM_WAVE, "waves", wbase, dur,
            wave=w,
            blocks_per_sm=blocks_per_sm,
            planes=planes,
            plane_cycles=cost.cycles,
            mem_cycles_per_plane=cost.mem_cycles,
            compute_cycles_per_plane=cost.compute_cycles,
            exposed_cycles_per_plane=cost.exposed_cycles,
            sync_cycles_per_plane=cost.sync_cycles,
            bytes_per_block_plane=timing.effective_bytes_per_plane,
            spill_bytes_per_plane=spill_bytes_per_plane,
        )
        components = (
            ("mem", cost.mem_cycles * planes),
            ("compute", cost.compute_cycles * planes),
            ("exposed", cost.exposed_cycles * planes),
            ("sync", cost.sync_cycles * planes),
            ("overhead", blocks_per_sm * timing.sched_overhead_cycles),
        )
        for lane, cycles in components:
            tracer.device_span(
                lane, CAT_SIM_COMPONENT, f"component:{lane}", wbase, cycles,
                wave=w, per_plane=cycles / planes,
            )
        for p in range(min(tracer.plane_limit, planes)):
            tracer.device_span(
                f"plane {p}", CAT_SIM_PLANE, "planes",
                wbase + p * cost.cycles, cost.cycles,
                wave=w, plane=p,
                mem_cycles=cost.mem_cycles,
                compute_cycles=cost.compute_cycles,
                exposed_cycles=cost.exposed_cycles,
                sync_cycles=cost.sync_cycles,
            )
        m.counter("sim.mem_cycles").inc(cost.mem_cycles * planes)
        m.counter("sim.compute_cycles").inc(cost.compute_cycles * planes)
        m.counter("sim.latency_exposed_cycles").inc(cost.exposed_cycles * planes)
        m.counter("sim.sync_cycles").inc(cost.sync_cycles * planes)
        m.counter("sim.sched_overhead_cycles").inc(
            blocks_per_sm * timing.sched_overhead_cycles
        )
        m.histogram("sim.plane_cycles").observe(cost.cycles)
