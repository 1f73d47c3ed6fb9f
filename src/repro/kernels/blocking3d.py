"""Full 3D spatial blocking (section III-B, Fig 3 left).

The grid is decomposed into TX x TY x TZ blocks; each block loads its
(TX+2r) x (TY+2r) x (TZ+2r) data volume — including z-halos on both faces —
into shared memory before computing.  Compared to 2.5-D streaming, the
z-halo planes are loaded *again* by the z-neighbouring block, costing an
extra factor (1 + 2r/TZ) of load bandwidth; this kernel exists to
demonstrate exactly that trade-off (the paper quotes 11% / 25% bandwidth
reductions for 4th/8th order at TZ = 32 when moving to 2.5-D).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import KIND_HALO, KIND_INTERIOR, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.gpusim.workload import BlockWorkload
from repro.kernels.config import BlockConfig
from repro.kernels.loads import add_row_region
from repro.kernels.pipeline import forward_sweep
from repro.kernels.symmetric import SymmetricKernelPlan
from repro.stencils.spec import SymmetricStencil
from repro.utils.maths import ceil_div


class Blocking3DKernel(SymmetricKernelPlan):
    """Full 3D blocking with z-tile depth ``tz``."""

    family = "blocking3d"
    variant = "full3d"

    def __init__(
        self,
        spec: SymmetricStencil,
        block: BlockConfig,
        dtype: str = "sp",
        tz: int = 32,
    ) -> None:
        super().__init__(spec, block, dtype)
        if tz <= 0:
            raise ConfigurationError(f"tz must be positive, got {tz}")
        self.tz = tz

    @property
    def name(self) -> str:
        return (
            f"{self.family}.{self.variant}"
            f"[order{self.spec.order},{self.dtype_name},tz{self.tz}]"
            f"{self.block.label()}"
        )

    def z_halo_factor(self) -> float:
        """Extra z-direction load factor (1 + 2r/TZ) over 2.5-D streaming."""
        return 1.0 + 2.0 * self.spec.radius / self.tz

    def smem_bytes(self) -> int:
        """The buffered working set holds 2r+1 planes at a time (a rolling
        window through the 3D tile) — more than the 2.5-D single plane."""
        r = self.spec.radius
        return self.smem_tile_bytes(r, r) * (2 * r + 1)

    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        self.check_grid_shape(grid_shape)
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        layout = self.layout(grid_shape, aligned_x=-r)

        stats = MemoryStats(line_bytes=layout.line_bytes)
        # The per-plane share of the full (TX+2r)(TY+2r)(TZ+2r) volume: the
        # xy slice every plane needs, plus the amortized z-halo slices.
        frac_halo = 1.0 - (tx * ty) / ((tx + 2 * r) * (ty + 2 * r))
        add_row_region(
            stats,
            layout,
            x_start_rel=-r,
            width_elems=tx + 2 * r,
            rows=ty + 2 * r,
            tile_stride=tx,
            kind=KIND_INTERIOR,
            use_vectors=False,
            halo_fraction=frac_halo,
        )
        # Amortized z-halo planes: 2r extra slices per TZ computed planes,
        # pure halo traffic (re-fetched by the z-neighbour block).
        z_halo_rows = ceil_div(2 * r * (ty + 2 * r), self.tz)
        add_row_region(
            stats,
            layout,
            x_start_rel=-r,
            width_elems=tx + 2 * r,
            rows=z_halo_rows,
            tile_stride=tx,
            kind=KIND_HALO,
            use_vectors=False,
        )
        self.add_store_traffic(stats, layout)
        stats.load_phases = 2

        # 3D blocking reads z-neighbours from shared memory too.
        reads = self.block.points_per_plane * (6 * r + 1) / WARP_SIZE
        writes = (tx + 2 * r) * (ty + 2 * r) * self.z_halo_factor() / WARP_SIZE

        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=self.estimate_registers(4),
            smem_bytes=self.smem_bytes(),
            elem_bytes=self.elem_bytes,
            points_per_plane=self.block.points_per_plane,
            flops_per_point=self.spec.flops_forward,
            arith_instructions_per_point=6 * self.spec.radius + 1,
            memory=stats,
            smem_profile=SmemAccessProfile(
                read_instructions=int(reads), write_instructions=int(writes)
            ),
            extra_instructions=10,
            ilp=float(self.block.register_tile),
            prologue_planes=2 * r,
        )

    def execute(self, grid: np.ndarray) -> np.ndarray:
        """Numerically identical to the forward schedule."""
        return forward_sweep(self.spec, self.prepare_grid(grid))
