"""Trace-level oracle for the analytic coalescing model.

The kernel workloads are priced from *analytic* per-region formulas
(transactions per row averaged over tile alignment phases).  This module
provides the slow, exact alternative: enumerate every warp instruction a
block issues for a region — lane by lane, byte address by byte address —
and count the distinct transaction lines the hardware would fetch.

It exists for verification, not speed: property tests drive both paths
over randomized geometries and require exact agreement, which turns the
analytic accounting from "plausible arithmetic" into a checked invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.arch import WARP_SIZE
from repro.kernels.layout import GridLayout


@dataclass(frozen=True)
class TracedInstruction:
    """One enumerated warp load/store instruction.

    Attributes
    ----------
    lane_addresses:
        Byte address of each active lane's first byte (lanes may carry
        ``vec_width`` consecutive elements each).
    vec_width / elem_bytes:
        Per-lane access shape.
    """

    lane_addresses: tuple[int, ...]
    vec_width: int
    elem_bytes: int

    def lines_touched(self, line_bytes: int = 128) -> set[int]:
        """Distinct transaction lines this instruction drags in."""
        lines: set[int] = set()
        span = self.vec_width * self.elem_bytes
        for addr in self.lane_addresses:
            first = addr // line_bytes
            last = (addr + span - 1) // line_bytes
            lines.update(range(first, last + 1))
        return lines

    def useful_bytes(self) -> int:
        """Bytes the active lanes actually request."""
        return len(self.lane_addresses) * self.vec_width * self.elem_bytes


@dataclass
class TraceResult:
    """Aggregate of an enumerated access stream."""

    instructions: int = 0
    transactions: int = 0
    requested_bytes: int = 0

    @property
    def transferred_bytes(self) -> int:
        return self.transactions * 128

    def add(self, instr: TracedInstruction, line_bytes: int = 128) -> None:
        self.instructions += 1
        self.transactions += len(instr.lines_touched(line_bytes))
        self.requested_bytes += instr.useful_bytes()


def trace_row_region(
    layout: GridLayout,
    *,
    x_start_rel: int,
    width_elems: int,
    rows: int,
    tile_origin_x: int,
    vec_width: int = 1,
) -> TraceResult:
    """Enumerate the warp instructions for one tile's row region.

    Mirrors the warp-based assignment of section III-C-2: each row is
    covered left to right in chunks of ``WARP_SIZE * vec_width`` elements;
    the final chunk runs with fewer active lanes.  Every row is enumerated
    at its true pitch-offset address.
    """
    result = TraceResult()
    elem = layout.elem_bytes
    for row in range(rows):
        row_base = (
            row * layout.pitch_elems * elem
            + (tile_origin_x + x_start_rel - layout.aligned_x) * elem
        )
        row_lines: set[int] = set()
        done = 0
        while done < width_elems:
            addrs = tuple(
                row_base + (done + lane * vec_width) * elem
                for lane in range(WARP_SIZE)
                if done + lane * vec_width < width_elems
            )
            instr = TracedInstruction(
                lane_addresses=addrs, vec_width=vec_width, elem_bytes=elem
            )
            result.instructions += 1
            result.requested_bytes += instr.useful_bytes()
            # A line touched by an earlier instruction of the same row is
            # L1-resident by the time the next instruction needs it: the
            # DRAM transaction count dedups within the row, exactly as the
            # analytic line_span over the whole segment assumes.
            row_lines |= instr.lines_touched(layout.line_bytes)
            done += WARP_SIZE * vec_width
        result.transactions += len(row_lines)
    return result


def trace_column_strip(
    layout: GridLayout,
    *,
    x_start_rel: int,
    width_elems: int,
    rows: int,
    tile_origin_x: int,
) -> TraceResult:
    """Enumerate the per-row predicated strip loads of the Fig 4 pattern:
    one instruction per row with ``width_elems`` active lanes."""
    result = TraceResult()
    elem = layout.elem_bytes
    for row in range(rows):
        row_base = (
            row * layout.pitch_elems * elem
            + (tile_origin_x + x_start_rel - layout.aligned_x) * elem
        )
        addrs = tuple(row_base + lane * elem for lane in range(width_elems))
        result.add(
            TracedInstruction(lane_addresses=addrs, vec_width=1, elem_bytes=elem),
            layout.line_bytes,
        )
    return result


def average_region_trace(
    layout: GridLayout,
    *,
    x_start_rel: int,
    width_elems: int,
    rows: int,
    tile_stride: int,
    vec_width: int = 1,
) -> tuple[float, float, float]:
    """(instructions, transactions, requested) per tile, averaged exactly
    over one full period of tile alignment phases — the quantity the
    analytic :func:`repro.kernels.loads.add_row_region` claims to compute.
    """
    stride_bytes = tile_stride * layout.elem_bytes
    period = layout.line_bytes // math.gcd(stride_bytes, layout.line_bytes)
    instr = tx = req = 0
    for i in range(period):
        res = trace_row_region(
            layout,
            x_start_rel=x_start_rel,
            width_elems=width_elems,
            rows=rows,
            tile_origin_x=i * tile_stride,
            vec_width=vec_width,
        )
        instr += res.instructions
        tx += res.transactions
        req += res.requested_bytes
    return instr / period, tx / period, req / period
