"""Resource-overflow diagnostics — the ``RES-*`` rules of ``repro lint``.

Whether a configuration can launch is decided in one place: the op
table's launch check (:mod:`repro.gpusim.ops`), which every price runs —
``BatchEngine.score(...).launch_error`` for the tuners, a
:class:`~repro.errors.ResourceLimitError` from the executor.

:func:`resource_diagnostics` *explains* that verdict: it re-derives each
limit with its own rule id and the allocation-granularity arithmetic
spelled out.  A test asserts its error verdict coincides with the price's
launch check on the whole default tuning space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis import rules
from repro.analysis.diagnostics import Diagnostic
from repro.gpusim.arch import HALF_WARP, WARP_SIZE
from repro.utils.maths import ceil_div, round_up

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan


def effective_registers(regs_per_thread: int, device: "DeviceSpec") -> int:
    """Registers actually allocated per thread (the compiler spills above
    the cap; the excess becomes local-memory traffic, not a launch failure)."""
    return min(regs_per_thread, device.rules.max_regs_per_thread)


def resource_diagnostics(
    plan: "KernelPlan", workload: "BlockWorkload", device: "DeviceSpec"
) -> list[Diagnostic]:
    """RES-* diagnostics for one workload on one device.

    The error-level findings re-derive, with the real allocation
    granularities, the limits the op table's launch check enforces; the
    warnings cover conditions that launch but hurt (spilling, a TX that
    breaks the paper's coalescing constraint (i)).
    """
    out: list[Diagnostic] = []
    loc = plan.name
    rules_ = device.rules
    threads = workload.threads_per_block
    cap = rules_.max_regs_per_thread

    if workload.regs_per_thread > cap:
        out.append(rules.RES_SPILL.diag(
            loc,
            f"register estimate {workload.regs_per_thread}/thread exceeds "
            f"the {cap}-register cap on {device.name}: "
            f"{workload.regs_per_thread - cap} registers spill to local "
            "memory",
            hint="lower RX*RY; spilling runs but adds global traffic",
        ))
    if plan.block.tx % HALF_WARP:
        out.append(rules.RES_HALFWARP.diag(
            loc,
            f"TX={plan.block.tx} is not a multiple of a half-warp "
            f"({HALF_WARP}): row loads straddle lines on every tile",
            hint="constraint (i): pick TX from multiples of 16",
        ))

    if threads > device.max_threads_per_block:
        out.append(rules.RES_THREADS.diag(
            loc,
            f"{threads} threads/block exceeds the device limit "
            f"{device.max_threads_per_block} on {device.name}",
            hint="shrink TX*TY",
        ))
        return out  # the remaining arithmetic is meaningless

    warps = ceil_div(threads, WARP_SIZE)
    regs_per_warp = round_up(
        effective_registers(workload.regs_per_thread, device) * WARP_SIZE,
        rules_.register_alloc_granularity,
    )
    regs_per_block = regs_per_warp * warps
    smem_per_block = (
        round_up(workload.smem_bytes, rules_.smem_alloc_granularity)
        if workload.smem_bytes
        else 0
    )

    if regs_per_block > device.registers_per_sm:
        out.append(rules.RES_REGS.diag(
            loc,
            f"one block allocates {regs_per_block} registers "
            f"({regs_per_warp}/warp x {warps} warps) but the SM register "
            f"file holds {device.registers_per_sm} on {device.name}",
            hint="lower RX*RY or the block size",
        ))
    if smem_per_block > device.smem_per_sm:
        out.append(rules.RES_SMEM.diag(
            loc,
            f"one block needs {smem_per_block}B shared memory "
            f"(granularity-rounded) of the {device.smem_per_sm}B per SM "
            f"on {device.name}",
            hint="constraint (iii): shrink the tile",
        ))
    if not any(d.rule in (rules.RES_REGS.id, rules.RES_SMEM.id) for d in out):
        blocks = min(
            device.registers_per_sm // regs_per_block
            if regs_per_block else device.max_blocks_per_sm,
            device.smem_per_sm // smem_per_block
            if smem_per_block else device.max_blocks_per_sm,
            device.max_warps_per_sm // warps,
            device.max_blocks_per_sm,
        )
        if blocks < 1:
            out.append(rules.RES_NOFIT.diag(
                loc,
                f"no block of {threads} threads ({warps} warps) fits an SM "
                f"on {device.name}: zero occupancy",
            ))
    return out
