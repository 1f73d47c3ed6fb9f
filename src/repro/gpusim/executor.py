"""Top-level entry point: run a kernel plan on a simulated device.

The executor is the analogue of ``cudaLaunchKernel`` + ``nvprof`` in the
paper's test harness: it asks the kernel plan to compile itself into the
simulator's workload descriptors for a given device and grid, prices the
sweep with the timing model, and packages the profiler-style counters into
a :class:`~repro.gpusim.report.SimReport`.  Every launch here is clean:
injected faults are an overlay on a priced launch
(:func:`repro.gpusim.faults.apply_launch_faults`), applied by the
resilient tuning session, never by the executor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.report import SimReport
from repro.gpusim.timing import TimingParams, params_for, sweep_rates, time_kernel
from repro.obs.counters import derive_counters
from repro.obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.timing import TimingResult
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan
    from repro.obs.counters import CounterSet


class DeviceExecutor:
    """Runs kernel plans on one simulated device.

    Parameters
    ----------
    device:
        A :class:`DeviceSpec` or registry name.
    params:
        Optional timing-parameter override (used by ablation benches, e.g.
        to switch the L2 halo-reuse effect off).
    """

    def __init__(
        self,
        device: DeviceSpec | str,
        params: TimingParams | None = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.params = params

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
        if block is None:
            block = plan.block_workload(self.device, grid_shape)
        grid = plan.grid_workload(self.device, grid_shape)
        timing = time_kernel(block, grid, self.device, self.params)
        rates = sweep_rates(
            self.device, timing.total_cycles, grid.total_points, block.flops_per_point
        )
        tp = self.params or params_for(self.device)
        counters = derive_counters(timing, block, grid, self.device, tp)
        report = launch_report(self.device, plan, grid_shape, timing, counters, rates)
        tracer = current_tracer()
        if tracer is not None:
            from repro.obs.simtrace import emit_kernel_spans

            emit_kernel_spans(tracer, report, timing, grid)
        return report


def launch_report(
    device: DeviceSpec,
    plan: "KernelPlan",
    grid_shape: tuple[int, int, int],
    timing: "TimingResult",
    counters: "CounterSet",
    rates: tuple[float, float, float],
) -> SimReport:
    """The :class:`SimReport` of one priced launch.

    ``rates`` is ``(time_s, MPoint/s, GFlop/s)`` from
    :func:`~repro.gpusim.timing.sweep_rates`.  The executor and
    :func:`repro.gpusim.batch.batch_reports` both assemble reports here.
    """
    time_s, mpoints, gflops = rates
    return SimReport(
        device_name=device.name,
        kernel_name=plan.name,
        total_cycles=timing.total_cycles,
        time_s=time_s,
        mpoints_per_s=mpoints,
        gflops=gflops,
        # Fig 9 metric — single-sourced from the counter derivation so
        # the headline and the gld_efficiency counter cannot disagree.
        load_efficiency=counters["gld_efficiency"],
        bandwidth_gbs=counters["dram_bytes"] / time_s / 1e9,
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
        },
    )


def simulate(
    plan: "KernelPlan",
    device: DeviceSpec | str,
    grid_shape: tuple[int, int, int],
    params: TimingParams | None = None,
) -> SimReport:
    """Convenience wrapper: simulate one kernel sweep."""
    return DeviceExecutor(device, params).run(plan, grid_shape)
