"""Naive global-memory kernel — the unoptimized porting baseline.

Every thread reads its 6r+1 neighbours straight from global memory with no
shared-memory staging and no register pipeline.  In-plane neighbour reads
mostly coalesce into the rows already being fetched, but there is *no
temporal reuse along z*: each plane of input is re-fetched for every one of
the 2r+1 output planes that needs it.  This is the kernel whose "considerable
performance increase ... simply by directly porting" the introduction
mentions, and it contextualizes how much the blocked kernels recover.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import KIND_INTERIOR, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.gpusim.workload import BlockWorkload
from repro.kernels.base import BASE_REGISTERS
from repro.kernels.loads import add_row_region
from repro.kernels.pipeline import forward_sweep
from repro.kernels.symmetric import SymmetricKernelPlan


class NaiveKernel(SymmetricKernelPlan):
    """No-reuse global-memory stencil kernel."""

    family = "naive"
    variant = "global"

    def smem_bytes(self) -> int:
        """No shared-memory staging."""
        return 0

    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        self.check_grid_shape(grid_shape)
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        layout = self.layout(grid_shape, aligned_x=0)

        stats = MemoryStats(line_bytes=layout.line_bytes)
        # One row region per z-offset: the 2r+1 planes this output plane
        # reads, none of which persist anywhere for the next plane.
        for _ in range(2 * r + 1):
            add_row_region(
                stats,
                layout,
                x_start_rel=-r,
                width_elems=tx + 2 * r,
                rows=ty + 2 * r,
                tile_stride=tx,
                kind=KIND_INTERIOR,
                use_vectors=False,
            )
        self.add_store_traffic(stats, layout)
        stats.load_phases = 1

        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=BASE_REGISTERS + 4 * self.block.register_tile,
            smem_bytes=self.smem_bytes(),
            elem_bytes=self.elem_bytes,
            points_per_plane=self.block.points_per_plane,
            flops_per_point=self.spec.flops_forward,
            arith_instructions_per_point=6 * self.spec.radius + 1,
            memory=stats,
            smem_profile=SmemAccessProfile(read_instructions=0, write_instructions=0),
            extra_instructions=8,
            ilp=float(self.block.register_tile),
            prologue_planes=0,
        )

    def execute(self, grid: np.ndarray) -> np.ndarray:
        """Numerically identical to the forward schedule."""
        return forward_sweep(self.spec, self.prepare_grid(grid))
