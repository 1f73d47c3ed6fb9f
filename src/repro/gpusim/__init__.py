"""Transaction-level GPU performance simulator.

This package is the substitute for the real GeForce GTX580 / GTX680 /
Tesla C2070 hardware used in the paper's evaluation.  It models, at the
granularity the paper's optimizations operate on:

* global-memory coalescing — warp-level load/store instructions are mapped
  onto 128-byte transactions (:mod:`repro.gpusim.memory`);
* occupancy — the interaction between a kernel's register / shared-memory /
  thread footprint and per-SM limits (:mod:`repro.gpusim.occupancy`);
* instruction issue and arithmetic throughput, with per-device SP/DP ratios
  (:mod:`repro.gpusim.timing`);
* shared-memory bank conflicts (:mod:`repro.gpusim.smem`);
* the wave ("stage") scheduler that places thread blocks onto SMs
  (:mod:`repro.gpusim.timing`), including per-block scheduling overhead and
  a small L2 halo-reuse effect — exactly the second-order effects the
  paper's analytical model (section VI) admits to ignoring.

The top-level entry point is :class:`repro.gpusim.executor.DeviceExecutor`.
"""

from typing import Any

from repro.gpusim.device import DeviceSpec, get_device, list_devices, register_device
from repro.gpusim.arch import Generation, WARP_SIZE
from repro.gpusim.faults import FAULT_KINDS, FaultEvent, FaultPlan, flip_bit
from repro.gpusim.occupancy import OccupancyResult, compute_occupancy
from repro.gpusim.report import SimReport
from repro.gpusim.executor import DeviceExecutor, simulate

#: Exported lazily (PEP 562), so ``python -m repro.gpusim.batch`` does not
#: find its own module imported by the package first.
_BATCH_EXPORTS = ("BatchEngine", "BlockClass", "batch_reports")


def __getattr__(name: str) -> Any:
    if name in _BATCH_EXPORTS:
        from repro.gpusim import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DeviceSpec",
    "get_device",
    "list_devices",
    "register_device",
    "Generation",
    "WARP_SIZE",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "flip_bit",
    "OccupancyResult",
    "compute_occupancy",
    "SimReport",
    "DeviceExecutor",
    "simulate",
    "BatchEngine",
    "BlockClass",
    "batch_reports",
]
