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

from repro.errors import ResourceLimitError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.utils.maths import ceil_div, round_up


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
    if threads_per_block <= 0:
        raise ResourceLimitError("threads_per_block must be positive")
    if threads_per_block > device.max_threads_per_block:
        raise ResourceLimitError(
            f"{threads_per_block} threads/block exceeds device limit "
            f"{device.max_threads_per_block} on {device.name}"
        )
    if regs_per_thread < 0 or smem_bytes_per_block < 0:
        raise ResourceLimitError("resource footprints must be non-negative")

    rules = device.rules
    warps_per_block = ceil_div(threads_per_block, WARP_SIZE)

    # Register allocation is per warp, rounded to the allocation chunk.
    regs_per_warp = round_up(
        regs_per_thread * WARP_SIZE, rules.register_alloc_granularity
    )
    regs_per_block = regs_per_warp * warps_per_block

    smem_per_block = (
        round_up(smem_bytes_per_block, rules.smem_alloc_granularity)
        if smem_bytes_per_block
        else 0
    )

    if regs_per_block > device.registers_per_sm:
        raise ResourceLimitError(
            f"one block needs {regs_per_block} registers, SM has "
            f"{device.registers_per_sm} on {device.name}"
        )
    if smem_per_block > device.smem_per_sm:
        raise ResourceLimitError(
            f"one block needs {smem_per_block}B shared memory, SM has "
            f"{device.smem_per_sm}B on {device.name}"
        )

    # A resource the block does not use cannot limit it, so it takes no
    # part in the race; the block cap is always there.
    limits: dict[str, int] = {}
    if regs_per_block:
        limits["registers"] = device.registers_per_sm // regs_per_block
    if smem_per_block:
        limits["smem"] = device.smem_per_sm // smem_per_block
    limits["warps"] = device.max_warps_per_sm // warps_per_block
    limits["blocks"] = device.max_blocks_per_sm
    limiter, active_blocks = min(limits.items(), key=lambda kv: kv[1])
    if active_blocks < 1:
        # Thread limit per SM can bind when warps_per_block > max_warps_per_sm,
        # but that implies threads_per_block > max_threads_per_block, already
        # rejected above; reaching here means warps limit rounded to zero.
        raise ResourceLimitError(
            f"no block of {threads_per_block} threads fits an SM on {device.name}"
        )

    active_warps = active_blocks * warps_per_block
    return OccupancyResult(
        active_blocks=active_blocks,
        warps_per_block=warps_per_block,
        active_warps=active_warps,
        occupancy=active_warps / device.max_warps_per_sm,
        limiter=limiter,
        regs_per_block=regs_per_block,
        smem_per_block=smem_per_block,
    )
