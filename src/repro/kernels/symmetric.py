"""Shared machinery for symmetric-stencil kernel plans.

Both the forward-plane baseline and the in-plane variants operate on one
input grid with the Eqn (1) stencil; they share store traffic, the
shared-memory tile, the per-plane shared-memory instruction profile and
the grid workload.  What differs — and what the subclasses define — is the
*load* pattern, the flop count and the per-element register state.

A plane's global traffic depends only on the effective tile
(TX*RX x TY*RY), the radius, the layout and the loading variant (with
its use of vector loads), not on how the tile splits into threads and
register tiles.  Inside
:func:`plane_memory_memo` — one tuning sweep — every plan with the same
such key therefore shares one :class:`~repro.gpusim.memory.MemoryStats`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

import numpy as np

from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.memory import KIND_WRITE, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_row_region
from repro.stencils.spec import SymmetricStencil

#: The plane-traffic memo of the running sweep; ``None`` outside one.
PLANE_MEMORY_MEMO: ContextVar[dict[tuple[Any, ...], MemoryStats] | None] = (
    ContextVar("repro_plane_memory_memo", default=None)
)


@contextmanager
def plane_memory_memo() -> Iterator[None]:
    """Share plane traffic between same-tile plans until the block exits.

    The shared :class:`MemoryStats` objects are read-only for as long as
    the trials holding them live; nothing outlives the block.
    """
    token = PLANE_MEMORY_MEMO.set({})
    try:
        yield
    finally:
        PLANE_MEMORY_MEMO.reset(token)


class SymmetricKernelPlan(KernelPlan):
    """Base for kernels computing one symmetric Eqn (1) stencil."""

    #: Whether row loads may use vector types (set by the subclasses that
    #: price their traffic through :meth:`plane_memory`).
    use_vectors: bool

    def __init__(
        self, spec: SymmetricStencil, block: BlockConfig, dtype: str = "sp"
    ) -> None:
        super().__init__(block, dtype)
        self.spec = spec

    @property
    def name(self) -> str:
        return (
            f"{self.family}.{self.variant}"
            f"[order{self.spec.order},{self.dtype_name}]{self.block.label()}"
        )

    def halo_radius(self) -> int:
        return self.spec.radius

    # ------------------------------------------------------------------
    # Shared traffic pieces
    # ------------------------------------------------------------------
    def _add_load_traffic(self, stats: MemoryStats, layout: GridLayout) -> None:
        """This variant's per-plane loads (and its ``load_phases``)."""
        raise NotImplementedError(f"{type(self).__name__} has no load pattern")

    def plane_memory(self, layout: GridLayout) -> MemoryStats:
        """One plane's global traffic: this variant's loads plus the stores.

        Inside :func:`plane_memory_memo` the result is shared by every plan
        with the same key, which holds everything the traffic code reads;
        outside it each call builds fresh stats.
        """
        memo = PLANE_MEMORY_MEMO.get()
        key = (
            type(self), self.variant, self.spec.radius, self.use_vectors,
            self.block.tile_x, self.block.tile_y, layout,
        )
        stats = memo.get(key) if memo is not None else None
        if stats is None:
            stats = MemoryStats(line_bytes=layout.line_bytes)
            self._add_load_traffic(stats, layout)
            self.add_store_traffic(stats, layout)
            if memo is not None:
                memo[key] = stats
        return stats

    def add_store_traffic(self, stats: MemoryStats, layout: GridLayout) -> None:
        """Output writes: one coalesced row region of the effective tile.

        Register-tiled threads write with indices strided by the thread
        count (section III-C-3), which keeps every store row contiguous.
        """
        add_row_region(
            stats,
            layout,
            x_start_rel=0,
            width_elems=self.block.tile_x,
            rows=self.block.tile_y,
            tile_stride=self.block.tile_x,
            kind=KIND_WRITE,
            use_vectors=False,
        )

    def loaded_elems_per_plane(self) -> int:
        """Elements staged through shared memory per plane (tile + halos).

        Variants that over-fetch (full-slice corners) override this.
        """
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        return (tx + 2 * r) * (ty + 2 * r) - 4 * r * r

    def smem_profile(self) -> SmemAccessProfile:
        """Per-plane shared-memory instructions.

        Every loaded element is written to the tile once; the compute phase
        reads the 4r+1 in-plane cross per output element (z-neighbours
        live in registers for both methods).
        """
        r = self.spec.radius
        writes = self.loaded_elems_per_plane() / WARP_SIZE
        reads = self.block.points_per_plane * (4 * r + 1) / WARP_SIZE
        return SmemAccessProfile(
            read_instructions=int(reads),
            write_instructions=int(writes),
            conflict_factor=1.0,
        )

    def smem_bytes(self) -> int:
        """Shared tile footprint (effective tile + halos, padded pitch)."""
        r = self.spec.radius
        return self.smem_tile_bytes(r, r)

    # ------------------------------------------------------------------
    # Numeric helpers
    # ------------------------------------------------------------------
    def prepare_grid(self, grid: np.ndarray) -> np.ndarray:
        """Cast the input to this kernel's dtype without copying when
        already correct."""
        return np.asarray(grid, dtype=self.dtype)
