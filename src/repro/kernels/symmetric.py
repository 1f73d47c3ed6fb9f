"""Shared machinery for symmetric-stencil kernel plans.

Both the forward-plane baseline and the in-plane variants operate on one
input grid with the Eqn (1) stencil; they share store traffic, the
shared-memory tile, the per-plane shared-memory instruction profile and
the grid workload.  What differs — and what the subclasses define — is the
*load* pattern, the flop count and the per-element register state.

A plane's global traffic, the shared-memory footprint, the per-plane
shared-memory profile and the bookkeeping instruction count depend only
on the effective tile (TX*RX x TY*RY), the radius, the layout and the
loading variant (with its use of vector loads), not on how the tile
splits into threads and register tiles.  :meth:`SymmetricKernelPlan.tile_record`
builds them together as one :class:`TileRecord`; inside
:func:`tile_record_memo` — one tuning sweep — every plan with the same
such key shares that record.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, NamedTuple

import numpy as np

from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.memory import KIND_WRITE, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_row_region
from repro.stencils.spec import SymmetricStencil


class TileRecord(NamedTuple):
    """The tile-determined part of a block workload."""

    memory: MemoryStats
    smem_bytes: int
    smem_profile: SmemAccessProfile
    extra_instructions: int


#: The tile-record memo of the running sweep; ``None`` outside one.
TILE_RECORD_MEMO: ContextVar[dict[tuple[Any, ...], TileRecord] | None] = (
    ContextVar("repro_tile_record_memo", default=None)
)


@contextmanager
def tile_record_memo() -> Iterator[None]:
    """Share tile records between same-tile plans until the block exits.

    The shared records (and the :class:`MemoryStats` inside them) are
    read-only for as long as the trials holding them live; nothing
    outlives the block.
    """
    token = TILE_RECORD_MEMO.set({})
    try:
        yield
    finally:
        TILE_RECORD_MEMO.reset(token)


class SymmetricKernelPlan(KernelPlan):
    """Base for kernels computing one symmetric Eqn (1) stencil."""

    #: Whether row loads may use vector types (set by the subclasses that
    #: build their workload through :meth:`tile_record`).
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
    # The tile record
    # ------------------------------------------------------------------
    def _add_load_traffic(self, stats: MemoryStats, layout: GridLayout) -> None:
        """This variant's per-plane loads (and its ``load_phases``)."""
        raise NotImplementedError(f"{type(self).__name__} has no load pattern")

    def _extra_instructions(self, load_phases: int) -> int:
        """This variant's per-plane bookkeeping instructions."""
        raise NotImplementedError(f"{type(self).__name__} has no tile record")

    def tile_record(
        self, grid_shape: tuple[int, int, int], aligned_x: int
    ) -> TileRecord:
        """Everything of the block workload the effective tile determines.

        Checks the grid shape, then builds one plane's global traffic (this
        variant's loads plus the stores), the shared-memory footprint and
        profile and the bookkeeping instructions.  Inside
        :func:`tile_record_memo` the record is shared by every plan with the
        same key, which holds everything those builders read (the grid
        shape, element size and alignment are the layout's fields); outside
        it each call builds a fresh record.
        """
        memo = TILE_RECORD_MEMO.get()
        lx, ly, lz = grid_shape
        key = (
            type(self), self.variant, self.spec.radius, self.use_vectors,
            self.block.tile_x, self.block.tile_y,
            lx, ly, lz, self.elem_bytes, aligned_x,
        )
        record = memo.get(key) if memo is not None else None
        if record is None:
            self.check_grid_shape(grid_shape)
            layout = self.layout(grid_shape, aligned_x=aligned_x)
            stats = MemoryStats(line_bytes=layout.line_bytes)
            self._add_load_traffic(stats, layout)
            self.add_store_traffic(stats, layout)
            record = TileRecord(
                memory=stats,
                smem_bytes=self.smem_bytes(),
                smem_profile=self.smem_profile(),
                extra_instructions=self._extra_instructions(stats.load_phases),
            )
            if memo is not None:
                memo[key] = record
        return record

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
