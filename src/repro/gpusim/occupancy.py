"""Occupancy calculation — the paper's Eqn (7) with hardware granularities.

Given a kernel's per-thread register use, per-block shared-memory use and
block size, compute how many blocks can be resident on one SM at once.
The paper's model takes

    ActBlks = min( Reg/K_R, Smem/K_S, Warp_SM/Warp_Blk, Blk_SM )     (7)

We implement the same minimum but apply the real allocation granularities
(registers are handed out per warp in fixed chunks, shared memory per block
in fixed chunks), which is how the CUDA occupancy calculator works and is
one of the places a naive application of Eqn (7) deviates slightly from
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.ops import SCALAR, Ops, cdiv


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of placing one kernel configuration on an SM.

    Attributes
    ----------
    active_blocks:
        Blocks resident per SM (``ActBlks`` in the paper).
    warps_per_block / active_warps:
        Warps in one block and total resident warps per SM.
    occupancy:
        ``active_warps / max_warps_per_sm`` in [0, 1].
    limiter:
        Which resource bound the result: ``"registers"``, ``"smem"``,
        ``"warps"`` or ``"blocks"``.
    regs_per_block / smem_per_block:
        Granularity-rounded footprints actually charged by the allocator.
    """

    active_blocks: int
    warps_per_block: int
    active_warps: int
    occupancy: float
    limiter: str
    regs_per_block: int
    smem_per_block: int


#: Limiter names in the order the occupancy race lists them; a tie goes
#: to the earlier name.
LIMITERS = ("registers", "smem", "warps", "blocks")


def occupancy_stage(
    ops: Ops, device: DeviceSpec, threads: Any, regs: Any, smem: Any
) -> tuple[Any, OccupancyResult]:
    """Eqn (7) with allocation granularities: ``(reason, occupancy)``.

    ``reason`` is 0 for a launchable block, else the index (1-6) of the
    first failed launch check — see :func:`launch_error`.  Written once
    over ``ops`` (:mod:`repro.gpusim.ops`): the result holds Python numbers
    under the scalar table and columns under the vector one.  Every
    divisor is guarded, so rows that fail a check evaluate without error.
    """
    rules = device.rules
    warps = cdiv(threads, WARP_SIZE)
    # Register allocation is per warp, rounded to the allocation chunk.
    granule = rules.register_alloc_granularity
    regs_blk = cdiv(regs * WARP_SIZE, granule) * granule * warps
    smem_granule = rules.smem_alloc_granularity
    smem_blk = ops.where(smem != 0, cdiv(smem, smem_granule) * smem_granule, 0)

    # A resource the block does not use cannot limit it: it sits one
    # above the always-present block cap, so it never wins the race.
    absent = device.max_blocks_per_sm + 1
    limiter, active = ops.first_min(LIMITERS, (
        ops.where(
            regs_blk != 0,
            device.registers_per_sm // ops.where(regs_blk != 0, regs_blk, 1),
            absent,
        ),
        ops.where(
            smem_blk != 0,
            device.smem_per_sm // ops.where(smem_blk != 0, smem_blk, 1),
            absent,
        ),
        device.max_warps_per_sm // ops.where(warps != 0, warps, 1),
        device.max_blocks_per_sm,
    ))
    reason = ops.select(
        (
            threads <= 0,
            threads > device.max_threads_per_block,
            (regs < 0) | (smem < 0),
            regs_blk > device.registers_per_sm,
            smem_blk > device.smem_per_sm,
            active < 1,
        ),
        (1, 2, 3, 4, 5, 6),
        0,
    )
    active_warps = active * warps
    return reason, OccupancyResult(
        active_blocks=active,
        warps_per_block=warps,
        active_warps=active_warps,
        occupancy=active_warps / device.max_warps_per_sm,
        limiter=limiter,
        regs_per_block=regs_blk,
        smem_per_block=smem_blk,
    )


def launch_error(
    device: DeviceSpec, reason: int, threads: int, regs_per_block: int,
    smem_per_block: int,
) -> str:
    """The :class:`ResourceLimitError` message for a failed launch check."""
    if reason == 1:
        return "threads_per_block must be positive"
    if reason == 2:
        return (
            f"{threads} threads/block exceeds device limit "
            f"{device.max_threads_per_block} on {device.name}"
        )
    if reason == 3:
        return "resource footprints must be non-negative"
    if reason == 4:
        return (
            f"one block needs {regs_per_block} registers, SM has "
            f"{device.registers_per_sm} on {device.name}"
        )
    if reason == 5:
        return (
            f"one block needs {smem_per_block}B shared memory, SM has "
            f"{device.smem_per_sm}B on {device.name}"
        )
    return f"no block of {threads} threads fits an SM on {device.name}"


def compute_occupancy(
    device: DeviceSpec,
    threads_per_block: int,
    regs_per_thread: int,
    smem_bytes_per_block: int,
) -> OccupancyResult:
    """Compute resident blocks per SM for a kernel configuration.

    Raises
    ------
    ResourceLimitError
        If the configuration cannot be launched at all: zero threads, more
        threads per block than the device allows, a single block exceeding
        the register file, or a shared-memory buffer over the SM limit.
    """
    reason, occ = occupancy_stage(
        SCALAR, device, threads_per_block, regs_per_thread, smem_bytes_per_block
    )
    SCALAR.launchable(reason, lambda: launch_error(
        device, reason, threads_per_block, occ.regs_per_block,
        occ.smem_per_block,
    ))
    return occ
