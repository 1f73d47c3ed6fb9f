"""Top-level entry point: run a kernel plan on a simulated device.

The executor is the analogue of ``cudaLaunchKernel`` + ``nvprof`` in the
paper's test harness: it asks the kernel plan to compile itself into the
simulator's workload descriptors for a given device and grid, prices the
sweep with the timing model, and packages the profiler-style counters into
a :class:`~repro.gpusim.report.SimReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import FaultInjectedError, KernelHangError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.faults import (
    KIND_ECC,
    KIND_HANG,
    KIND_LAUNCH_FAILURE,
    KIND_THROTTLE,
    STREAM_LAUNCH,
    FaultPlan,
    observe_fault,
)
from repro.gpusim.report import SimReport
from repro.gpusim.timing import TimingParams, params_for, time_kernel
from repro.metrics.efficiency import mpoints_to_gflops
from repro.obs.counters import derive_counters
from repro.obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan


class DeviceExecutor:
    """Runs kernel plans on one simulated device.

    Parameters
    ----------
    device:
        A :class:`DeviceSpec` or registry name.
    params:
        Optional timing-parameter override (used by ablation benches, e.g.
        to switch the L2 halo-reuse effect off).
    faults:
        Optional deterministic fault schedule
        (:class:`repro.gpusim.faults.FaultPlan`).  ``None`` (the default)
        leaves every launch untouched — the hooks below are single
        ``is None`` branches, so a fault-free executor is bit-identical
        to one built before the fault layer existed.
    watchdog_cycles:
        Per-launch simulated-cycle budget.  A launch exceeding it raises
        :class:`repro.errors.KernelHangError` — the per-trial timeout the
        resilient tuning session leans on.  Overrides the plan's own
        ``watchdog_cycles`` when both are set.

    Every launch draws its fault event from the plan's shared
    ``"launch"`` stream, in launch order.
    """

    def __init__(
        self,
        device: DeviceSpec | str,
        params: TimingParams | None = None,
        faults: FaultPlan | None = None,
        watchdog_cycles: float | None = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.params = params
        self.faults = faults
        self.watchdog_cycles = watchdog_cycles
        if watchdog_cycles is None and faults is not None:
            self.watchdog_cycles = faults.watchdog_cycles

    def run(
        self,
        plan: "KernelPlan",
        grid_shape: tuple[int, int, int],
        block: "BlockWorkload | None" = None,
    ) -> SimReport:
        """Simulate one sweep of ``plan`` over ``grid_shape`` (LX, LY, LZ).

        ``block`` lets callers that already compiled the plan's block
        workload (e.g. the tuners' static pre-filter) reuse it instead of
        paying the traffic enumeration twice.
        """
        tracer = current_tracer()
        event = None
        if self.faults is not None:
            event = self.faults.event_for(
                self.faults.next_index(STREAM_LAUNCH), STREAM_LAUNCH
            )
        if event is not None and event.kind == KIND_LAUNCH_FAILURE:
            observe_fault(tracer, event, kernel=plan.name)
            raise FaultInjectedError(
                f"injected launch failure for {plan.name} "
                f"(launch {event.index})",
                kind=event.kind, launch_index=event.index,
            )

        if block is None:
            block = plan.block_workload(self.device, grid_shape)
        grid = plan.grid_workload(self.device, grid_shape)
        timing = time_kernel(block, grid, self.device, self.params)

        if event is not None and event.kind == KIND_HANG:
            hang_cycles = timing.total_cycles * (
                self.faults.hang_multiplier if self.faults else 1.0
            )
            observe_fault(tracer, event, kernel=plan.name, cycles=hang_cycles)
            raise KernelHangError(
                f"injected hang for {plan.name}: {hang_cycles:.0f} simulated "
                f"cycles exceed the watchdog budget (launch {event.index})",
                kind=event.kind, cycles=hang_cycles,
                budget=self.watchdog_cycles, launch_index=event.index,
            )
        if (
            self.watchdog_cycles is not None
            and timing.total_cycles > self.watchdog_cycles
        ):
            raise KernelHangError(
                f"{plan.name} exceeded the per-trial cycle budget: "
                f"{timing.total_cycles:.0f} > {self.watchdog_cycles:.0f}",
                kind="watchdog", cycles=timing.total_cycles,
                budget=self.watchdog_cycles,
            )

        derate = 1.0
        faults_meta: list[dict] = []
        if event is not None and event.kind == KIND_THROTTLE:
            derate = event.factor
            observe_fault(tracer, event, kernel=plan.name, factor=event.factor)
            faults_meta.append({
                "kind": event.kind, "launch_index": event.index,
                "factor": round(event.factor, 6),
            })
        elif event is not None and event.kind == KIND_ECC:
            observe_fault(tracer, event, kernel=plan.name)
            faults_meta.append({"kind": event.kind, "launch_index": event.index})

        # A throttled launch completes, but the derated clock stretches its
        # wall time: every time-derived headline degrades by the factor
        # while the cycle counts (clock-independent) stay pristine.
        time_s = timing.total_cycles / self.device.clock_hz * derate
        # Credit what one pass actually produces: grid.total_points covers
        # kernels whose single sweep yields multiple logical time steps
        # (temporal blocking).
        mpoints = grid.total_points / time_s / 1e6
        gflops = mpoints_to_gflops(mpoints, block.flops_per_point)
        tp = self.params or params_for(self.device)
        counters = derive_counters(timing, block, grid, self.device, tp)
        bandwidth_gbs = counters["dram_bytes"] / time_s / 1e9

        report = SimReport(
            device_name=self.device.name,
            kernel_name=plan.name,
            total_cycles=timing.total_cycles,
            time_s=time_s,
            mpoints_per_s=mpoints,
            gflops=gflops,
            # Fig 9 metric — single-sourced from the counter derivation so
            # the headline and the gld_efficiency counter cannot disagree.
            load_efficiency=counters["gld_efficiency"],
            bandwidth_gbs=bandwidth_gbs,
            occupancy=timing.occupancy,
            stages=timing.stages,
            active_blocks=timing.occupancy.active_blocks,
            blocks=timing.blocks,
            breakdown={
                "mem_cycles_per_plane": timing.plane_cost.mem_cycles,
                "compute_cycles_per_plane": timing.plane_cost.compute_cycles,
                "exposed_cycles_per_plane": timing.plane_cost.exposed_cycles,
                "sync_cycles_per_plane": timing.plane_cost.sync_cycles,
                "spilled_regs": float(timing.spilled_regs),
                "bytes_per_block_plane": timing.effective_bytes_per_plane,
            },
            counters=counters,
            meta={
                "grid_shape": grid_shape,
                "block": plan.block_label(),
                "dtype": plan.dtype_name,
                "variant": plan.variant,
                **({"faults": faults_meta} if faults_meta else {}),
            },
        )
        if tracer is not None:
            from repro.obs.simtrace import emit_kernel_spans

            emit_kernel_spans(
                tracer, report, timing, block, grid, self.device, tp
            )
        return report


def simulate(
    plan: "KernelPlan",
    device: DeviceSpec | str,
    grid_shape: tuple[int, int, int],
    params: TimingParams | None = None,
) -> SimReport:
    """Convenience wrapper: simulate one kernel sweep."""
    return DeviceExecutor(device, params).run(plan, grid_shape)
