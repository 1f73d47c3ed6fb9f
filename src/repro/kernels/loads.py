"""Region-to-traffic builders: turn load regions into MemoryStats.

Every kernel variant's per-plane global traffic decomposes into three
region shapes:

* **row regions** — rectangles loaded as contiguous row spans, cooperatively
  decomposed onto warps in vector-width chunks (interior loads, merged
  halo+interior loads, top/bottom halo strips, stores);
* **column strips** — narrow vertical halos of width r loaded row-by-row by
  perimeter lanes (the uncoalesced nvstencil pattern of Fig 4);
* **corner patches** — the r x r corners nvstencil's four-way loading drags
  in.

Each builder averages transaction counts over tile alignment phases (see
:class:`~repro.kernels.layout.GridLayout`) so one "representative block"
workload is exact in aggregate over the whole grid.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.memory import (
    KIND_HALO,
    KIND_INTERIOR,
    KIND_WRITE,
    MemoryStats,
    RegionRecord,
)
from repro.kernels.layout import GridLayout
from repro.utils.maths import ceil_div


def add_row_region(
    stats: MemoryStats,
    layout: GridLayout,
    *,
    x_start_rel: int,
    width_elems: int,
    rows: int,
    tile_stride: int,
    kind: str = KIND_INTERIOR,
    use_vectors: bool = True,
    halo_fraction: float = 0.0,
) -> None:
    """Account a rectangle loaded (or stored) as contiguous row spans.

    ``halo_fraction`` splits the transferred lines between interior and
    halo classes for the L2-reuse model when one merged region covers both
    (the full-slice pattern); requested bytes are always counted in full —
    deliberately over-fetched corners still count as "requested" in the
    profiler's load-efficiency metric, which is why Fig 9 shows full-slice
    with near-perfect efficiency despite its 4r^2 redundant elements.
    """
    if rows <= 0 or width_elems <= 0:
        raise ConfigurationError(
            "region must be non-empty", rule="CFG-POSITIVE"
        )
    vec = (
        layout.vector_width_for(x_start_rel, width_elems, tile_stride)
        if use_vectors
        else 1
    )
    instr_per_row = ceil_div(width_elems, WARP_SIZE * vec)
    tx_per_row = layout.avg_row_transactions(x_start_rel, width_elems, tile_stride)
    requested = width_elems * layout.elem_bytes * rows
    def record(tx: float) -> None:
        stats.regions.append(RegionRecord(
            kind=kind,
            x_start_rel=x_start_rel,
            width_elems=width_elems,
            rows=rows,
            tile_stride=tile_stride,
            elem_bytes=layout.elem_bytes,
            vec_width=vec,
            avg_row_transactions=tx,
        ))

    if kind == KIND_WRITE:
        # Stores bypass L1 and move through L2 in 32-byte sectors, so a
        # misaligned row costs one extra *sector*, not one extra 128-byte
        # line.  Expressed in fractional line units for the aggregate.
        sector = 32
        span = width_elems * layout.elem_bytes
        phase = layout.phase_of(x_start_rel) % sector
        sectors_per_row = (phase + span + sector - 1) // sector
        tx_equiv = sectors_per_row * sector / layout.line_bytes
        record(tx_equiv)
        stats.add_raw(
            kind=KIND_WRITE,
            instructions=instr_per_row * rows,
            transactions=tx_equiv * rows,
            requested_bytes=requested,
        )
        return
    record(tx_per_row)

    total_tx = tx_per_row * rows
    halo_tx = total_tx * halo_fraction
    if halo_tx:
        stats.add_raw(
            kind=KIND_HALO,
            instructions=0.0,
            transactions=halo_tx,
            requested_bytes=0.0,
        )
    stats.add_raw(
        kind=kind,
        instructions=instr_per_row * rows,
        transactions=total_tx - halo_tx,
        requested_bytes=requested,
    )


def add_column_strip(
    stats: MemoryStats,
    layout: GridLayout,
    *,
    x_start_rel: int,
    width_elems: int,
    rows: int,
    tile_stride: int,
) -> None:
    """Account a narrow halo column loaded row-by-row by perimeter lanes.

    One predicated warp instruction per row; each instance spans only
    ``width * elem`` bytes but drags in whole transaction lines — the
    poorly coalesced access pattern the in-plane merged variants eliminate.
    Because successive rows sit one grid pitch (a transaction-line
    multiple) apart, the strip's lines all map to the same DRAM partition:
    the traffic is flagged *camped* and the timing model charges the
    partition-serialization penalty.
    """
    if rows <= 0 or width_elems <= 0:
        raise ConfigurationError(
            "strip must be non-empty", rule="CFG-POSITIVE"
        )
    tx_per_row = layout.avg_row_transactions(x_start_rel, width_elems, tile_stride)
    stats.regions.append(RegionRecord(
        kind=KIND_HALO,
        x_start_rel=x_start_rel,
        width_elems=width_elems,
        rows=rows,
        tile_stride=tile_stride,
        elem_bytes=layout.elem_bytes,
        vec_width=1,
        avg_row_transactions=tx_per_row,
        camped=True,
    ))
    stats.add_raw(
        kind=KIND_HALO,
        instructions=float(rows),
        transactions=tx_per_row * rows,
        requested_bytes=width_elems * layout.elem_bytes * rows,
        camped=True,
    )


def add_split_loads(
    stats: MemoryStats,
    layout: GridLayout,
    *,
    radius: int,
    tile_x: int,
    tile_y: int,
    use_vectors: bool,
) -> None:
    """Account the classical split loading of Fig 4: four load groups.

    Interior rows, top/bottom halo rows, then the left and right halo
    columns (the uncoalesced strips), issued as four divergent phases.
    nvstencil and the classical in-plane variant both load this way; they
    differ only in whether the row loads may vectorize.
    """
    for rows, kind in ((tile_y, KIND_INTERIOR), (2 * radius, KIND_HALO)):
        add_row_region(
            stats,
            layout,
            x_start_rel=0,
            width_elems=tile_x,
            rows=rows,
            tile_stride=tile_x,
            kind=kind,
            use_vectors=use_vectors,
        )
    for x_rel in (-radius, tile_x):
        add_column_strip(
            stats, layout, x_start_rel=x_rel, width_elems=radius, rows=tile_y,
            tile_stride=tile_x,
        )
    stats.load_phases = 4


def add_corner_patches(
    stats: MemoryStats,
    layout: GridLayout,
    *,
    radius: int,
    tile_x: int,
    tile_y: int,
    tile_stride: int,
) -> None:
    """Account the four r x r corner patches of a rectangle-completing load.

    The symmetric cross stencil never reads the diagonal corners, and the
    SDK baseline's halo loads cover the cross only — so neither nvstencil
    nor the classical in-plane variant moves corner *bytes* (their cost is
    the extra divergent instructions, priced separately).  The forward
    method of the multi-grid kernels (:mod:`repro.kernels.multigrid`)
    calls it for every grid read with both x- and y-halos: its split
    loading completes the halo rectangle, corners included.
    """
    if radius <= 0:
        return
    for x_rel in (-radius, tile_x):
        tx_per_row = layout.avg_row_transactions(x_rel, radius, tile_stride)
        # Two corners (top and bottom) share this x position.
        stats.regions.append(RegionRecord(
            kind=KIND_HALO,
            x_start_rel=x_rel,
            width_elems=radius,
            rows=2 * radius,
            tile_stride=tile_stride,
            elem_bytes=layout.elem_bytes,
            vec_width=1,
            avg_row_transactions=tx_per_row,
            camped=True,
        ))
        stats.add_raw(
            kind=KIND_HALO,
            instructions=float(2 * radius),
            transactions=tx_per_row * 2 * radius,
            requested_bytes=radius * layout.elem_bytes * 2 * radius,
            camped=True,
        )
