"""Race / coverage verification.

The correctness contract of every kernel plan is that one sweep writes
every output point of the plane **exactly once**: a gap is a stale result,
an overlap is a write race between thread blocks.  Painting an LX x LY
array would prove it for plain thread tiles in O(area) (the tests do
exactly that, as the reference); this module is the library's one
cover proof and goes further three ways, while staying exact:

* **arbitrary rectangle sets** via a sweep-line over compressed x-spans
  (O(R log R) in the number of rectangles, independent of grid area), so
  register-tiled effective tiles, stride-mismatched launch grids and
  clipped partial tiles are all handled;
* **within-block register tiling** — the strided per-thread write pattern
  of section III-C-3 is checked to be a bijection onto the block tile;
* **temporal blocking and multi-GPU slabs** — ghost-zone sufficiency
  (read-after-write hazards across fused steps) and exact z-partition of
  slab decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis import rules
from repro.analysis.diagnostics import Diagnostic
from repro.utils.maths import ceil_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.decompose import Slab
    from repro.kernels.base import KernelPlan


@dataclass(frozen=True)
class CoverResult:
    """Exact-cover verdict over a plane.

    ``gap_points`` / ``overlap_points`` count grid points covered zero /
    more-than-one times; the ``first_*`` fields name a witness point.
    """

    gap_points: int
    overlap_points: int
    first_gap: tuple[int, int] | None = None
    first_overlap: tuple[int, int] | None = None

    @property
    def exact(self) -> bool:
        return self.gap_points == 0 and self.overlap_points == 0


def check_rect_cover(
    lx: int, ly: int, rects: list[tuple[int, int, int, int]]
) -> CoverResult:
    """Prove ``rects`` (x0, y0, w, h) cover [0,lx) x [0,ly) exactly once.

    Rectangles are clipped to the plane first (a block computing a partial
    edge tile predicates its out-of-range threads off — that is not a
    hazard).  The sweep walks the compressed x-cuts; within each x-slab the
    active rectangles' y-intervals must partition [0, ly) with neither gap
    nor overlap.  Point counts are exact: slab width times the offending
    interval length.
    """
    clipped = []
    for x0, y0, w, h in rects:
        cx0, cy0 = max(x0, 0), max(y0, 0)
        cx1, cy1 = min(x0 + w, lx), min(y0 + h, ly)
        if cx0 < cx1 and cy0 < cy1:
            clipped.append((cx0, cy0, cx1, cy1))

    cuts = sorted({0, lx, *(r[0] for r in clipped), *(r[2] for r in clipped)})
    gap = overlap = 0
    first_gap: tuple[int, int] | None = None
    first_overlap: tuple[int, int] | None = None

    for xa, xb in zip(cuts, cuts[1:]):
        if xa >= lx or xb <= 0:
            continue
        width = xb - xa
        spans = sorted(
            (cy0, cy1) for cx0, cy0, cx1, cy1 in clipped if cx0 <= xa and cx1 >= xb
        )
        cursor = 0
        for y0, y1 in spans:
            if y0 > cursor:
                gap += width * (y0 - cursor)
                first_gap = first_gap or (xa, cursor)
            elif y0 < cursor:
                depth = min(cursor, y1) - y0
                overlap += width * depth
                first_overlap = first_overlap or (xa, y0)
            cursor = max(cursor, y1)
        if cursor < ly:
            gap += width * (ly - cursor)
            first_gap = first_gap or (xa, cursor)
    return CoverResult(gap, overlap, first_gap, first_overlap)


def plan_tile_rects(
    plan: "KernelPlan",
    grid_shape: tuple[int, int, int],
    stride_x: int | None = None,
    stride_y: int | None = None,
) -> list[tuple[int, int, int, int]]:
    """Output rectangles of every block the launch grid would schedule.

    ``stride_x`` / ``stride_y`` default to the effective tile (the correct
    launch); overriding them models a host driver whose launch-grid stride
    disagrees with the kernel's tile — the classic source of inter-block
    write races (stride < tile) and coverage holes (stride > tile).
    """
    lx, ly, _ = grid_shape
    tile_x, tile_y = plan.block.tile_x, plan.block.tile_y
    sx = stride_x or tile_x
    sy = stride_y or tile_y
    nx, ny = ceil_div(lx, sx), ceil_div(ly, sy)
    return [
        (bx * sx, by * sy, tile_x, tile_y)
        for by in range(ny)
        for bx in range(nx)
    ]


def tile_cover_diagnostics(
    plan: "KernelPlan",
    grid_shape: tuple[int, int, int],
    stride_x: int | None = None,
    stride_y: int | None = None,
) -> list[Diagnostic]:
    """COV-TILE-* and COV-PARTIAL-TILE over the plan's launch grid."""
    lx, ly, _ = grid_shape
    loc = plan.name
    result = check_rect_cover(lx, ly, plan_tile_rects(plan, grid_shape, stride_x, stride_y))
    out: list[Diagnostic] = []
    if result.overlap_points:
        out.append(rules.COV_TILE_OVERLAP.diag(
            loc,
            f"{result.overlap_points} of {lx}x{ly} points written by more "
            f"than one block (first at {result.first_overlap})",
            hint="launch-grid stride must equal the effective tile "
                 f"({plan.block.tile_x}x{plan.block.tile_y})",
        ))
    if result.gap_points:
        out.append(rules.COV_TILE_GAP.diag(
            loc,
            f"{result.gap_points} of {lx}x{ly} points written by no block "
            f"(first at {result.first_gap})",
            hint="launch-grid stride must equal the effective tile "
                 f"({plan.block.tile_x}x{plan.block.tile_y})",
        ))
    if result.exact and (lx % plan.block.tile_x or ly % plan.block.tile_y):
        out.append(rules.COV_PARTIAL_TILE.diag(
            loc,
            f"grid plane {lx}x{ly} not divisible by tile "
            f"{plan.block.tile_x}x{plan.block.tile_y}: edge blocks run "
            "partially predicated",
            hint="the paper's constraint (iv) excludes such configurations "
                 "from the tuning space",
        ))
    return out


def register_tile_cover(
    tx: int, rx: int, stride: int | None = None
) -> CoverResult:
    """Check the strided per-thread write pattern covers [0, tx*rx) once.

    Thread ``i`` writes elements ``i + k*stride`` for ``k < rx`` (section
    III-C-3 strided stores keep rows contiguous).  With ``stride == tx``
    (the correct choice) this is a bijection; any other stride leaves gaps
    and duplicates — the injectable within-block analogue of a launch-grid
    mismatch.
    """
    stride = tx if stride is None else stride
    extent = tx * rx
    counts: dict[int, int] = {}
    for i in range(tx):
        for k in range(rx):
            x = i + k * stride
            if 0 <= x < extent:
                counts[x] = counts.get(x, 0) + 1
    gaps = [x for x in range(extent) if x not in counts]
    dups = [x for x, c in counts.items() if c > 1]
    return CoverResult(
        gap_points=len(gaps),
        overlap_points=sum(counts[x] - 1 for x in dups),
        first_gap=(gaps[0], 0) if gaps else None,
        first_overlap=(min(dups), 0) if dups else None,
    )


def register_tile_diagnostics(
    plan: "KernelPlan",
    stride_x: int | None = None,
    stride_y: int | None = None,
) -> list[Diagnostic]:
    """COV-REGTILE along both axes of the per-thread write pattern."""
    out: list[Diagnostic] = []
    block = plan.block
    for axis, t, r, stride in (
        ("x", block.tx, block.rx, stride_x),
        ("y", block.ty, block.ry, stride_y),
    ):
        result = register_tile_cover(t, r, stride)
        if not result.exact:
            out.append(rules.COV_REGTILE.diag(
                plan.name,
                f"register-tile writes along {axis} cover "
                f"{result.gap_points} points zero times and "
                f"{result.overlap_points} points multiply "
                f"(T{axis.upper()}={t}, R{axis.upper()}={r}, "
                f"stride {stride if stride is not None else t})",
                hint=f"per-thread stores must stride by T{axis.upper()}",
            ))
    return out


def temporal_diagnostics(plan: "KernelPlan") -> list[Diagnostic]:
    """COV-TEMPORAL-GHOST for ghost-zone temporal blocking.

    A plan fusing T sweeps must enlarge its tile by ``r*T`` ghost cells per
    side: fused step t reads step t-1 values up to ``r`` cells beyond the
    rectangle it will itself produce, so a narrower ghost makes some step
    read cells the block never computed — values that, in the shared tile,
    are stale step t-2 data (a read-after-write hazard with respect to the
    owning neighbour block).
    """
    time_steps = getattr(plan, "time_steps", None)
    ghost_of = getattr(plan, "ghost", None)
    if time_steps is None or not callable(ghost_of):
        return []
    required = plan.halo_radius() * time_steps
    ghost = ghost_of()
    if ghost < required:
        return [rules.COV_TEMPORAL_GHOST.diag(
            plan.name,
            f"ghost zone {ghost} < radius*time_steps = {required}: fused "
            f"step {ghost // max(plan.halo_radius(), 1) + 1} reads cells "
            "this block never recomputed",
            hint="enlarge the ghost zone to r*T or lower time_steps",
        )]
    return []


def slab_diagnostics(
    slabs: list["Slab"], lz: int, radius: int
) -> list[Diagnostic]:
    """COV-SLAB-* for a multi-GPU z-slab decomposition.

    Owned ranges must partition [0, lz) exactly (an overlap is a write race
    between GPUs, a gap a stale region), and every interior interface needs
    ``radius`` ghost planes on both sides or the sweep reads planes the
    neighbour has already overwritten in the same step.
    """
    out: list[Diagnostic] = []
    ordered = sorted(slabs, key=lambda s: s.z_start)
    cursor = 0
    for slab in ordered:
        loc = f"slab[{slab.index}]"
        if slab.z_start > cursor:
            out.append(rules.COV_SLAB_GAP.diag(
                loc,
                f"planes [{cursor}, {slab.z_start}) owned by no slab",
            ))
        elif slab.z_start < cursor:
            out.append(rules.COV_SLAB_OVERLAP.diag(
                loc,
                f"planes [{slab.z_start}, {min(cursor, slab.z_stop)}) owned "
                "by two slabs",
            ))
        cursor = max(cursor, slab.z_stop)
    if cursor < lz:
        out.append(rules.COV_SLAB_GAP.diag(
            "slab[-]", f"planes [{cursor}, {lz}) owned by no slab"
        ))
    for prev, slab in zip(ordered, ordered[1:]):
        if slab.ghost_lo < radius:
            out.append(rules.COV_SLAB_GHOST.diag(
                f"slab[{slab.index}]",
                f"lower ghost {slab.ghost_lo} < radius {radius} at the "
                f"interface with slab[{prev.index}]",
                hint="the sweep would read neighbour planes already "
                     "overwritten this step",
            ))
        if prev.ghost_hi < radius:
            out.append(rules.COV_SLAB_GHOST.diag(
                f"slab[{prev.index}]",
                f"upper ghost {prev.ghost_hi} < radius {radius} at the "
                f"interface with slab[{slab.index}]",
                hint="the sweep would read neighbour planes already "
                     "overwritten this step",
            ))
    return out
