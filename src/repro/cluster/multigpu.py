"""Multi-GPU stencil stepping: exact numerics plus a scaling cost model.

Per simulation step, every GPU sweeps its slab (priced by the GPU
simulator on the slab's shape) and then exchanges ``radius`` halo planes
with each neighbour over the interconnect.  The step time is

    max over GPUs(kernel time) + (1 - overlap) * exchange time,

where ``overlap`` models how much of the transfer hides behind compute
(boundary-first scheduling).  This produces the era's canonical scaling
behaviour: near-linear strong scaling while slabs are thick, saturating
when the per-step exchange (which does not shrink with more GPUs)
dominates the shrinking kernel time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, GridShapeError
from repro.cluster.decompose import (
    exchange_halos,
    merge_slabs,
    slab_extents,
    split_grid,
)
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.executor import DeviceExecutor
from repro.kernels.symmetric import SymmetricKernelPlan


@dataclass(frozen=True)
class LinkSpec:
    """Interconnect between GPUs.

    Attributes
    ----------
    bandwidth_gbs:
        Effective point-to-point bandwidth (GB/s), both directions summed
        per interface per step.
    latency_us:
        Per-transfer setup latency (microseconds).
    """

    name: str
    bandwidth_gbs: float
    latency_us: float

    def transfer_time_s(self, bytes_moved: float, transfers: int) -> float:
        """Seconds to move ``bytes_moved`` in ``transfers`` operations."""
        if bytes_moved < 0 or transfers < 0:
            raise ConfigurationError("transfer accounting must be non-negative")
        return transfers * self.latency_us * 1e-6 + bytes_moved / (
            self.bandwidth_gbs * 1e9
        )

    def degraded(self, factor: float) -> "LinkSpec":
        """This link with its bandwidth derated by ``factor`` (>= 1).

        How the cluster fault plane's bandwidth flapping is priced: a
        degraded step charges ``transfer_time_s`` on the derated link,
        latency unchanged (flapping throttles the payload rate, not the
        setup cost).  ``factor == 1.0`` returns ``self`` unchanged.
        """
        if factor < 1.0:
            raise ConfigurationError(f"degrade factor must be >= 1, got {factor}")
        if factor == 1.0:
            return self
        return LinkSpec(
            name=f"{self.name}/x{factor:.2f}",
            bandwidth_gbs=self.bandwidth_gbs / factor,
            latency_us=self.latency_us,
        )


#: PCIe 2.0 x16 through host memory — the 2013-era default path.
PCIE_GEN2_X16 = LinkSpec(name="pcie2-x16", bandwidth_gbs=6.0, latency_us=10.0)

#: Direct peer-to-peer over a shared PCIe switch.
PCIE_P2P = LinkSpec(name="pcie2-p2p", bandwidth_gbs=10.0, latency_us=6.0)


def exchange_cost_s(
    link: LinkSpec, *, interfaces: int, bytes_per_interface: float
) -> float:
    """Per-step halo-exchange time over ``interfaces`` on ``link``.

    All interfaces transfer concurrently only if links are disjoint;
    through a shared host path they serialize per neighbour pair on the
    busiest GPU (2 transfers), which the latency term reflects.  Shared
    by :meth:`MultiGpuStencil.step_cost` and the resilient engine's
    per-step (possibly degraded-link) accounting.
    """
    if interfaces == 0:
        return 0.0
    total = link.transfer_time_s(
        bytes_per_interface * interfaces, transfers=2 * interfaces
    )
    return max(
        total / interfaces,
        link.transfer_time_s(bytes_per_interface, transfers=2),
    )


@dataclass(frozen=True)
class ScalingPoint:
    """Cost-model outcome for one GPU count."""

    gpus: int
    kernel_time_s: float
    exchange_time_s: float
    step_time_s: float
    mpoints_per_s: float
    speedup: float
    efficiency: float


class MultiGpuStencil:
    """Slab-decomposed stencil stepping across identical GPUs."""

    def __init__(
        self,
        plan_builder: Callable[[], SymmetricKernelPlan],
        device: DeviceSpec | str,
        link: LinkSpec = PCIE_GEN2_X16,
        overlap: float = 0.0,
    ) -> None:
        if not 0.0 <= overlap <= 1.0:
            raise ConfigurationError(f"overlap must be in [0, 1], got {overlap}")
        self.plan_builder = plan_builder
        self.device = get_device(device) if isinstance(device, str) else device
        self.link = link
        self.overlap = overlap
        # Single-GPU step time per grid shape: the speedup baseline every
        # step_cost() shares, so an N-point scaling curve simulates the
        # whole grid once instead of N times.
        self._single_time_cache: dict[tuple[int, int, int], float] = {}

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def run_steps(self, grid: np.ndarray, gpus: int, steps: int) -> np.ndarray:
        """Execute ``steps`` sweeps with the slab-exchange schedule.

        Numerically exact: equals ``steps`` sweeps of the whole grid.
        Faults and halo validation belong to
        :class:`repro.cluster.resilient.ResilientClusterStencil`.
        """
        plan = self.plan_builder()
        radius = plan.halo_radius()
        slabs = split_grid(np.asarray(grid, dtype=plan.dtype), gpus, radius)
        for _ in range(steps):
            for slab in slabs:
                slab.data = plan.execute(slab.data)
            exchange_halos(slabs)
        return merge_slabs(slabs)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _single_step_time(
        self,
        executor: DeviceExecutor,
        plan: SymmetricKernelPlan,
        grid_shape: tuple[int, int, int],
    ) -> float:
        """Memoized single-GPU sweep time of the whole grid (the speedup
        baseline shared by every point of a scaling curve)."""
        cached = self._single_time_cache.get(grid_shape)
        if cached is None:
            cached = executor.run(plan, grid_shape).time_s
            self._single_time_cache[grid_shape] = cached
        return cached

    def step_cost(
        self, grid_shape: tuple[int, int, int], gpus: int, *, link: LinkSpec | None = None
    ) -> ScalingPoint:
        """Per-step time and rate for ``gpus`` slabs of ``grid_shape``.

        ``link`` overrides the interconnect for this one point — how the
        resilient engine prices a degraded-bandwidth step without
        perturbing the nominal model.
        """
        lx, ly, lz = grid_shape
        plan = self.plan_builder()
        radius = plan.halo_radius()
        try:
            extents = slab_extents(lz, gpus, radius)
        except GridShapeError as exc:
            raise ConfigurationError(
                f"{gpus} GPUs leave slabs thinner than the radius {radius}"
            ) from exc
        executor = DeviceExecutor(self.device)
        link = self.link if link is None else link

        # The thickest slab is the straggler every step waits for; its
        # true shape (owned planes plus the ghosts it actually holds)
        # comes from the decomposition itself — end slabs carry the
        # remainder planes but only one ghost region.
        thickest = max(owned + lo + hi for owned, lo, hi in extents)
        if gpus == 1:
            kernel_time = self._single_step_time(executor, plan, grid_shape)
        else:
            kernel_time = executor.run(plan, (lx, ly, thickest)).time_s

        interfaces = gpus - 1
        if interfaces == 0:
            exchange_time = 0.0
        else:
            bytes_per_interface = 2 * radius * lx * ly * plan.elem_bytes
            total = link.transfer_time_s(
                bytes_per_interface * interfaces, transfers=2 * interfaces
            )
            # All interfaces transfer concurrently only if links are
            # disjoint; through a shared host path they serialize per
            # neighbour pair on the busiest GPU (2 transfers), which the
            # latency term reflects.
            exchange_time = max(
                total / interfaces,
                link.transfer_time_s(bytes_per_interface, transfers=2),
            )

        step_time = kernel_time + (1.0 - self.overlap) * exchange_time
        single = (
            self._single_step_time(executor, plan, grid_shape)
            if gpus > 1 else step_time
        )
        mpoints = lx * ly * lz / step_time / 1e6
        speedup = single / step_time
        return ScalingPoint(
            gpus=gpus,
            kernel_time_s=kernel_time,
            exchange_time_s=exchange_time,
            step_time_s=step_time,
            mpoints_per_s=mpoints,
            speedup=speedup,
            efficiency=speedup / gpus,
        )

    def strong_scaling(
        self, grid_shape: tuple[int, int, int], gpu_counts: tuple[int, ...]
    ) -> list[ScalingPoint]:
        """Fixed problem, growing GPU count."""
        return [self.step_cost(grid_shape, g) for g in gpu_counts]

    def weak_scaling(
        self,
        base_shape: tuple[int, int, int],
        gpu_counts: tuple[int, ...],
    ) -> list[ScalingPoint]:
        """Problem grows with the GPU count (lz scales)."""
        lx, ly, lz = base_shape
        return [self.step_cost((lx, ly, lz * g), g) for g in gpu_counts]
