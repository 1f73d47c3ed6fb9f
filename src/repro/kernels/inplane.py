"""The in-plane method — the paper's contribution (section III-C).

All four variants share the in-plane compute schedule (the Eqn (3)-(5)
partial-sum pipeline; 8r+1 flops per element, only r+1 live registers of
z-state per element) and differ in how the current plane's rectangle of
interior + halo elements is fetched (Fig 6):

* **classical** — nvstencil-style split loading (interior, top/bottom,
  left/right strips).  Kept for completeness; the paper leaves it out of
  the evaluation because it inherits the baseline's coalescing problems.
* **vertical** — top/bottom halos merged with the interior column;
  left/right halo columns still loaded separately (poorly coalesced, which
  is why this variant loses at high orders — Fig 7).
* **horizontal** — left/right halos merged into the interior rows; the
  top/bottom strips load separately but are rows, hence coalesced.
* **full-slice** — the whole (TX*RX + 2r) x (TY*RY + 2r) rectangle in one
  group, at the cost of 4r^2 redundant corner elements per plane.

Because all loads target the *current* plane, merged rectangles are
possible at all — the structural advantage over forward-plane loading.
Merged-region variants align the grid so the merged row start (x = -r)
sits on a transaction line, and use the widest vector loads the alignment
rules of section III-C-2 permit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import KIND_HALO, KIND_INTERIOR, MemoryStats
from repro.gpusim.workload import BlockWorkload
from repro.kernels.config import BlockConfig
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_column_strip, add_row_region, add_split_loads
from repro.kernels.pipeline import inplane_sweep
from repro.kernels.symmetric import SymmetricKernelPlan
from repro.stencils.spec import SymmetricStencil

#: Loading variants of Fig 6, in the paper's order.
INPLANE_VARIANTS: tuple[str, ...] = ("classical", "vertical", "horizontal", "fullslice")


def _per_element_state(radius: int) -> int:
    """Live registers per output element: r queued partial outputs plus the
    r backward z-column values Eqn (3) reads, plus the current value —
    2r + 2, the same column state the forward pipeline keeps.  The in-plane
    advantage is in the *loading pattern*, not register count (Table II
    shows equal data references)."""
    return 2 * radius + 2


class InPlaneKernel(SymmetricKernelPlan):
    """In-plane kernel with a selectable loading variant."""

    family = "inplane"

    def __init__(
        self,
        spec: SymmetricStencil,
        block: BlockConfig,
        dtype: str = "sp",
        variant: str = "fullslice",
        use_vectors: bool = True,
    ) -> None:
        super().__init__(spec, block, dtype)
        if variant not in INPLANE_VARIANTS:
            raise ConfigurationError(
                f"unknown in-plane variant {variant!r}; pick one of {INPLANE_VARIANTS}"
            )
        self.variant = variant
        self.use_vectors = use_vectors

    # ------------------------------------------------------------------
    # Loading patterns
    # ------------------------------------------------------------------
    def _aligned_x(self) -> int:
        """Which x index the array padding aligns to a transaction line.

        Variants whose dominant row load starts at -r align that; the
        others align the interior start.
        """
        return -self.spec.radius if self.variant in ("fullslice", "horizontal") else 0

    def loaded_elems_per_plane(self) -> int:
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        base = (tx + 2 * r) * (ty + 2 * r) - 4 * r * r
        if self.variant == "fullslice":
            return base + 4 * r * r  # the redundant corners
        return base

    def _add_load_traffic(self, stats: MemoryStats, layout: GridLayout) -> None:
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        vec = self.use_vectors

        if self.variant == "fullslice":
            frac_halo = 1.0 - (tx * ty) / ((tx + 2 * r) * (ty + 2 * r))
            add_row_region(
                stats,
                layout,
                x_start_rel=-r,
                width_elems=tx + 2 * r,
                rows=ty + 2 * r,
                tile_stride=tx,
                kind=KIND_INTERIOR,
                use_vectors=vec,
                halo_fraction=frac_halo,
            )
            stats.load_phases = 1
            return

        if self.variant == "horizontal":
            # Interior rows with left/right halos merged in.
            frac_halo = 2 * r / (tx + 2 * r)
            add_row_region(
                stats,
                layout,
                x_start_rel=-r,
                width_elems=tx + 2 * r,
                rows=ty,
                tile_stride=tx,
                kind=KIND_INTERIOR,
                use_vectors=vec,
                halo_fraction=frac_halo,
            )
            # Top/bottom strips (rows: coalesced, just a second group).
            add_row_region(
                stats,
                layout,
                x_start_rel=0,
                width_elems=tx,
                rows=2 * r,
                tile_stride=tx,
                kind=KIND_HALO,
                use_vectors=vec,
            )
            stats.load_phases = 2
            return

        if self.variant == "vertical":
            # Interior column with top/bottom halos merged in.
            frac_halo = 2 * r / (ty + 2 * r)
            add_row_region(
                stats,
                layout,
                x_start_rel=0,
                width_elems=tx,
                rows=ty + 2 * r,
                tile_stride=tx,
                kind=KIND_INTERIOR,
                use_vectors=vec,
                halo_fraction=frac_halo,
            )
            # Left/right halo columns load separately — poorly coalesced.
            add_column_strip(
                stats, layout, x_start_rel=-r, width_elems=r, rows=ty, tile_stride=tx
            )
            add_column_strip(
                stats, layout, x_start_rel=tx, width_elems=r, rows=ty, tile_stride=tx
            )
            stats.load_phases = 3
            return

        # classical: nvstencil-style split loading of the current plane.
        add_split_loads(stats, layout, radius=r, tile_x=tx, tile_y=ty, use_vectors=vec)

    def _extra_instructions(self, load_phases: int) -> int:
        # Pipeline shifts: r register moves per element per plane, plus
        # address arithmetic per load group and divergent per-row work for
        # variants that still load halo column strips separately.
        r = self.spec.radius
        shifts = self.block.points_per_plane * r / WARP_SIZE
        divergent_rows = 0
        if self.variant in ("vertical", "classical"):
            divergent_rows += 2 * self.block.tile_y
        if self.variant == "classical":
            divergent_rows += 4 * r
        return int(shifts + 2 * load_phases + 2 * divergent_rows)

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        r = self.spec.radius
        tile = self.tile_record(grid_shape, self._aligned_x())
        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=self.estimate_registers(_per_element_state(r)),
            smem_bytes=tile.smem_bytes,
            elem_bytes=self.elem_bytes,
            points_per_plane=self.block.points_per_plane,
            flops_per_point=self.spec.flops_inplane,
            arith_instructions_per_point=6 * r + 1,
            memory=tile.memory,
            smem_profile=tile.smem_profile,
            extra_instructions=tile.extra_instructions,
            ilp=float(self.block.register_tile),
            prologue_planes=2 * r,
        )

    def execute(self, grid: np.ndarray) -> np.ndarray:
        """One sweep with the in-plane schedule (Eqns (3)-(5))."""
        return inplane_sweep(self.spec, self.prepare_grid(grid))
