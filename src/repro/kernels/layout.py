"""Grid memory layout: pitch, padding and alignment.

Array padding (section III-C-2) is one of the levers the paper's kernels
pull: rows are padded so the pitch is a multiple of the 128-byte
transaction line, and the allocation is offset so that the x-index the
kernel's dominant load pattern starts from (``aligned_x``) lands on a line
boundary.  The in-plane full-slice and horizontal variants align the
*merged* region start ``x = -r``; nvstencil, vertical and classical align
the interior start ``x = 0``.  The remaining mis-phase of every *other*
region, and of tiles whose x-origin is not a multiple of the line, is what
the transaction-count helpers below average over — exactly the cost of not
being able to align everything at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GridShapeError
from repro.gpusim.memory import line_span
from repro.utils.maths import ceil_div, round_up


@dataclass(frozen=True)
class GridLayout:
    """Padded row-major (x-fastest) layout of one 3D grid.

    Attributes
    ----------
    lx, ly, lz:
        Logical grid shape.
    elem_bytes:
        4 (SP) or 8 (DP).
    aligned_x:
        Logical x index that is placed on a transaction-line boundary
        (may be negative: ``-r`` aligns the merged halo start).
    line_bytes:
        Transaction line size; the pitch is padded to a multiple of it.
    """

    lx: int
    ly: int
    lz: int
    elem_bytes: int
    aligned_x: int = 0
    line_bytes: int = 128

    def __post_init__(self) -> None:
        if min(self.lx, self.ly, self.lz) <= 0:
            raise GridShapeError(f"grid shape must be positive, got "
                                 f"({self.lx}, {self.ly}, {self.lz})")
        if self.elem_bytes not in (4, 8):
            raise GridShapeError(f"elem_bytes must be 4 or 8, got {self.elem_bytes}")

    @property
    def pitch_elems(self) -> int:
        """Padded row length in elements (pitch is a line multiple)."""
        line_elems = self.line_bytes // self.elem_bytes
        # Room for the logical row plus lead/trail halo padding.
        needed = self.lx + 2 * line_elems
        return round_up(needed, line_elems)

    def phase_of(self, x: int) -> int:
        """Byte phase of logical x within a transaction line.

        Because the pitch is a line multiple, the phase is row-invariant;
        ``aligned_x`` has phase 0 by construction.
        """
        return ((x - self.aligned_x) * self.elem_bytes) % self.line_bytes

    def row_transactions(self, x_start: int, width_elems: int) -> int:
        """Transaction lines for one row segment [x_start, x_start+width)."""
        return line_span(self.phase_of(x_start), width_elems * self.elem_bytes,
                         self.line_bytes)

    def avg_row_transactions(
        self, x_start_rel: int, width_elems: int, tile_stride: int
    ) -> float:
        """Average transactions per row over all tile x-origins.

        Tiles start at ``bx * tile_stride``; the row segment of one tile
        starts at ``bx * tile_stride + x_start_rel``.  Distinct tiles see
        distinct line phases unless the tile stride in bytes is a line
        multiple; the exact average over one phase period is returned so a
        "representative block" workload remains exact in aggregate.
        """
        if width_elems <= 0:
            raise GridShapeError("row width must be positive")
        if tile_stride <= 0:
            raise GridShapeError("tile stride must be positive")
        stride_bytes = tile_stride * self.elem_bytes
        period = self.line_bytes // math.gcd(stride_bytes, self.line_bytes)
        total = 0
        for i in range(period):
            x = i * tile_stride + x_start_rel
            total += self.row_transactions(x, width_elems)
        return total / period

    def vector_width_for(
        self, x_start_rel: int, width_elems: int, tile_stride: int, max_vec: int = 4
    ) -> int:
        """Largest vector width usable for this row pattern on *every* tile.

        Requires (section III-C-2): the start byte of the segment aligned
        to the vector size on every tile origin, and the width divisible by
        the vector width so no lane straddles the edge.
        """
        vec = max_vec
        if self.elem_bytes == 8:
            vec = min(vec, 2)
        stride_bytes = tile_stride * self.elem_bytes
        while vec > 1:
            vbytes = vec * self.elem_bytes
            if (
                width_elems % vec == 0
                and self.phase_of(x_start_rel) % vbytes == 0
                and stride_bytes % vbytes == 0
            ):
                return vec
            vec //= 2
        return 1


def blocks_in_plane(lx: int, ly: int, tile_x: int, tile_y: int) -> int:
    """Thread blocks needed to cover one plane — the paper's Eqn (6)."""
    return ceil_div(lx, tile_x) * ceil_div(ly, tile_y)
