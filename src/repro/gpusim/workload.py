"""Workload descriptors — the contract between kernels and the simulator.

A kernel plan (in :mod:`repro.kernels`) compiles itself into a
:class:`BlockWorkload` (what one thread block does per z-plane) plus a
:class:`GridWorkload` (how many blocks / planes / points one sweep covers).
The timing model consumes only these records, so the simulator never needs
to know what a "stencil" is — it prices memory transactions, instructions
and synchronization like the hardware would for any kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.memory import MemoryStats
from repro.gpusim.smem import SmemAccessProfile


@dataclass(frozen=True)
class BlockWorkload:
    """Per-block, per-z-plane workload of a kernel configuration.

    Attributes
    ----------
    threads_per_block:
        Launch block size (TX x TY).
    regs_per_thread:
        Estimated register footprint; may exceed the architectural cap, in
        which case the executor models spilling.
    smem_bytes:
        Shared-memory buffer per block (tile + padding).
    elem_bytes:
        4 (SP) or 8 (DP).
    points_per_plane:
        Output elements produced per block per plane (TX*RX x TY*RY).
    flops_per_point:
        Floating-point operations per output element (Table I / II column).
        Used for GFlop/s *reporting*; timing prices instructions.
    arith_instructions_per_point:
        Arithmetic instructions per output element.  This is what the SM's
        pipelines actually execute: an FMA is one instruction carrying two
        flops, so the in-plane method's 8r+1 flops and the forward method's
        7r+1 flops both lower to ~6r+1 instructions — the reason the extra
        in-plane flops are nearly free on hardware (section III-C).  When
        omitted, derived as ``flops / 1.5``.
    memory:
        Global-memory traffic per plane (loads + stores), from the
        coalescing model.
    smem_profile:
        Shared-memory instruction counts per plane.
    extra_instructions:
        Warp-level bookkeeping instructions per plane (index arithmetic,
        loop control, register-queue shifting).
    ilp:
        Independent instruction streams per thread; register tiling gives
        roughly RX*RY independent accumulation chains.
    prologue_planes:
        Planes that must be streamed in before the first output plane can
        be written (r for the in-plane pipeline, 2r+1 for forward-plane).
    syncs_per_plane:
        ``__syncthreads()`` barriers per plane (typically 2).
    """

    threads_per_block: int
    regs_per_thread: int
    smem_bytes: int
    elem_bytes: int
    points_per_plane: int
    flops_per_point: float
    memory: MemoryStats
    smem_profile: SmemAccessProfile
    arith_instructions_per_point: float | None = None
    extra_instructions: int = 0
    ilp: float = 1.0
    prologue_planes: int = 0
    syncs_per_plane: int = 2

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        if self.points_per_plane <= 0:
            raise ValueError("points_per_plane must be positive")
        if self.elem_bytes not in (4, 8):
            raise ValueError("elem_bytes must be 4 or 8")
        if self.ilp < 1.0:
            raise ValueError("ilp must be >= 1")

    @property
    def arith_instructions(self) -> float:
        """Arithmetic instructions per point (derived when not declared)."""
        if self.arith_instructions_per_point is not None:
            return self.arith_instructions_per_point
        return self.flops_per_point / 1.5


@dataclass(frozen=True)
class GridWorkload:
    """One sweep of the kernel over the full grid.

    Attributes
    ----------
    blocks:
        Thread blocks launched (Eqn (6): ceil over both tiled dimensions).
    planes:
        Output z-planes each block traverses (LZ - 2r interior planes).
    total_points:
        Output points of one sweep, used for the MPoint/s metric.  The
        paper normalizes by the full grid volume LX*LY*LZ; we do the same
        (boundary planes are copied, not computed, on both sides).
    """

    blocks: int
    planes: int
    total_points: int

    def __post_init__(self) -> None:
        if self.blocks <= 0 or self.planes <= 0 or self.total_points <= 0:
            raise ValueError("grid workload must be non-empty")
