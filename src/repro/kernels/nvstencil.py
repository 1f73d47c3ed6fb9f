"""The nvstencil baseline: 2.5-D spatial blocking with forward-plane loads.

This models the Nvidia SDK ``FDTD3d`` kernel the paper baselines against
(section III-B): the grid is tiled in x/y; each block streams down the
z-axis keeping a 2r+1-deep register pipeline of z-column values; the
current plane's in-plane neighbours are served from a shared tile.

The loading pattern is the *classical* split of Fig 4: interior elements
arrive through the register pipeline (loaded at plane k+r), while the
halos of the *current* plane k are fetched separately — top/bottom rows,
poorly-coalesced left/right columns, and the corner patches that the
corner threads' four-way loads drag in.  Because interior and halo loads
target *different planes*, the merged-rectangle loading of the in-plane
method is structurally unavailable to this kernel — the paper's central
observation.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import MemoryStats
from repro.gpusim.workload import BlockWorkload
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_split_loads
from repro.kernels.pipeline import forward_sweep
from repro.kernels.symmetric import SymmetricKernelPlan

#: Live state per output element: the 2r+1 z-column registers plus the
#: accumulator.
def _per_element_state(radius: int) -> int:
    return 2 * radius + 2


class NvStencilKernel(SymmetricKernelPlan):
    """Forward-plane 2.5-D baseline (the paper's *nvstencil*)."""

    family = "nvstencil"
    variant = "forward"

    #: The SDK kernel issues scalar loads only.
    use_vectors = False

    def _add_load_traffic(self, stats: MemoryStats, layout: GridLayout) -> None:
        # Interior rows feed the register pipeline (plane k + r); the halo
        # rows and the uncoalesced columns of Fig 4 come from the current
        # plane.  No corner bytes: the halo cross covers everything the
        # symmetric stencil reads (the corner threads' extra loads of Fig 4
        # cost divergent instructions, priced below, not extra lines).
        add_split_loads(
            stats, layout, radius=self.spec.radius, tile_x=self.block.tile_x,
            tile_y=self.block.tile_y, use_vectors=self.use_vectors,
        )

    def _extra_instructions(self, load_phases: int) -> int:
        # Register-pipeline shifts: 2r moves per element per plane, plus
        # light address arithmetic per load group and the divergent
        # branch/address work of the per-row halo loads (Fig 4).
        r = self.spec.radius
        shifts = self.block.points_per_plane * 2 * r / WARP_SIZE
        divergent_rows = 2 * self.block.tile_y + 4 * r
        return int(shifts + 2 * load_phases + 2 * divergent_rows)

    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        r = self.spec.radius
        tile = self.tile_record(grid_shape, aligned_x=0)
        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=self.estimate_registers(_per_element_state(r)),
            smem_bytes=tile.smem_bytes,
            elem_bytes=self.elem_bytes,
            points_per_plane=self.block.points_per_plane,
            flops_per_point=self.spec.flops_forward,
            arith_instructions_per_point=6 * r + 1,
            memory=tile.memory,
            smem_profile=tile.smem_profile,
            extra_instructions=tile.extra_instructions,
            ilp=float(self.block.register_tile),
            prologue_planes=2 * r,
        )

    def execute(self, grid: np.ndarray) -> np.ndarray:
        """One sweep with the forward-plane schedule."""
        return forward_sweep(self.spec, self.prepare_grid(grid))
