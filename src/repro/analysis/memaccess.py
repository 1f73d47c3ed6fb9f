"""Static coalescing and shared-memory bank-conflict lint.

Two closed forms, each cross-validated in the property tests against a
brute-force enumerator so the lint's verdicts are *checked*, not guessed:

* :func:`analytic_conflict_degree` — the serialization factor of a strided
  shared-memory access, in closed form over gcd(stride, banks); agrees
  exactly with a counting loop the tests keep as a reference
  (``tests/oracles/smem.py``).
* Region verdicts — read from the :class:`~repro.gpusim.memory.RegionRecord`
  geometry the load builders attach to every workload, whose phase-averaged
  transaction counts agree exactly with a lane-by-lane address
  enumerator the tests keep as a reference (``tests/oracles/trace.py``).

The lint is *static* in the useful sense: it never prices a cycle, it only
compares each region's transaction count against the aligned minimum the
same bytes could have cost.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.analysis import rules
from repro.analysis.diagnostics import Diagnostic
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.memory import RegionRecord
from repro.gpusim.smem import dp_conflict_factor, padded_pitch_words
from repro.utils.maths import ceil_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan


def analytic_conflict_degree(
    stride_words: int, *, lanes: int = WARP_SIZE, banks: int = 32
) -> int:
    """Closed-form bank-conflict degree for a strided warp access.

    Lane ``i`` reads word ``i * stride``; lanes ``i`` and ``j`` collide in
    a bank exactly when ``i = j (mod banks / gcd(stride, banks))``, so the
    worst bank serves ``ceil(lanes / (banks / gcd))`` distinct words.  A
    stride of zero is a broadcast (degree 1).  Must agree exactly with the
    brute-force counting loop of ``tests/oracles/smem.py`` — enforced by a
    property test over the full argument space.
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    if banks <= 0:
        raise ValueError("banks must be positive")
    if stride_words == 0:
        return 1
    period = banks // math.gcd(abs(stride_words), banks)
    return ceil_div(lanes, period)


def pitch_conflict_diagnostics(
    pitch_words: int,
    location: str,
    *,
    lanes: int = WARP_SIZE,
    banks: int = 32,
) -> list[Diagnostic]:
    """MEM-BANK-CONFLICT when a column walk of ``pitch_words`` serializes."""
    degree = analytic_conflict_degree(pitch_words, lanes=lanes, banks=banks)
    if degree <= 1:
        return []
    return [rules.MEM_BANK_CONFLICT.diag(
        location,
        f"tile pitch of {pitch_words} words puts {degree} lanes of a "
        f"column access in the same bank ({degree}-way serialization)",
        hint=f"pad the pitch to {pitch_words | 1 if pitch_words % 2 == 0 else pitch_words + 2} "
             "words (an odd pitch is coprime to the bank count)",
    )]


def smem_tile_diagnostics(
    plan: "KernelPlan", device: "DeviceSpec | None" = None
) -> list[Diagnostic]:
    """Bank-conflict lint of the plan's shared-tile layout.

    Recomputes the pitch exactly as
    :meth:`~repro.kernels.base.KernelPlan.smem_tile_bytes` chooses it and
    checks the column-access stride; with the +1-word padding policy this
    is clean by construction, so a finding here means a subclass changed
    the layout.  On 4-byte-bank parts, 8-byte elements additionally
    serialize two ways regardless of pitch (MEM-DP-BANKS, informational).
    """
    r = plan.halo_radius()
    width_words = ((plan.block.tile_x + 2 * r) * plan.elem_bytes + 3) // 4
    pitch = padded_pitch_words(width_words)
    out = pitch_conflict_diagnostics(pitch, plan.name)
    if (
        device is not None
        and plan.elem_bytes == 8
        and dp_conflict_factor(8, device.rules) > 1.0
    ):
        out.append(rules.MEM_DP_BANKS.diag(
            plan.name,
            "8-byte elements span two 4-byte banks on "
            f"{device.name}: shared accesses serialize 2-way",
            hint="inherent to DP on Fermi; not a layout defect",
        ))
    return out


def _min_row_transactions(record: RegionRecord, line_bytes: int) -> int:
    """Lines a perfectly aligned row of this region would cost."""
    return ceil_div(record.width_elems * record.elem_bytes, line_bytes)


def region_diagnostics(
    workload: "BlockWorkload", location: str
) -> list[Diagnostic]:
    """MEM-UNCOALESCED-STRIP / MEM-MISALIGNED over recorded load regions.

    Works from the geometry records the builders in
    :mod:`repro.kernels.loads` attach to the workload's
    :class:`~repro.gpusim.memory.MemoryStats`; a workload built without the
    builders simply has nothing to lint.
    """
    out: list[Diagnostic] = []
    mem = workload.memory
    strips = [r for r in mem.regions if r.camped]
    if strips:
        tx = sum(r.avg_row_transactions * r.rows for r in strips)
        useful = sum(
            r.width_elems * r.elem_bytes * r.rows for r in strips
        )
        moved = tx * mem.line_bytes
        out.append(rules.MEM_UNCOALESCED_STRIP.diag(
            location,
            f"{len(strips)} column-strip/corner region(s) drag in whole "
            f"{mem.line_bytes}B lines per row: {useful}B useful of "
            f"{moved:.0f}B moved ({useful / moved:.0%} efficient), all of "
            "it partition-camped",
            hint="merge the side halos into the row loads "
                 "(horizontal/fullslice variants)",
        ))
    for record in mem.regions:
        if record.camped:
            continue
        floor = _min_row_transactions(record, mem.line_bytes)
        if record.avg_row_transactions > floor + 1e-9:
            out.append(rules.MEM_MISALIGNED.diag(
                location,
                f"{record.kind} region ({record.width_elems} elems x "
                f"{record.rows} rows at x={record.x_start_rel}) averages "
                f"{record.avg_row_transactions:.2f} transactions/row; a "
                f"line-aligned start would cost {floor}",
                hint="re-aim the layout's aligned_x at this region's start "
                     "(only one region can win)",
            ))
    return out
