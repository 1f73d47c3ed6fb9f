"""Out-of-bounds halo analysis.

A stencil of radius ``r`` reads up to ``r`` cells past the point it
computes; a plan is only sound when the grid leaves room for that reach
(interior points exist at all), when the effective tile fits inside one
plane, and when the shared-memory staging buffer is at least large enough
to hold what the kernel stages into it.  These are the static versions of
the eager checks in :meth:`repro.kernels.base.KernelPlan.check_grid_shape`,
extended to per-tap offsets of general
:class:`~repro.stencils.expr.StencilExpr` programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis import rules
from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan

_AXES = ("x", "y", "z")


def grid_halo_diagnostics(
    plan: "KernelPlan", grid_shape: tuple[int, int, int]
) -> list[Diagnostic]:
    """HALO-GRID-SMALL / HALO-TILE-EXCEEDS / HALO-TAP-OOB for one plan."""
    lx, ly, lz = grid_shape
    r = plan.halo_radius()
    loc = plan.name
    out: list[Diagnostic] = []

    if min(lx, ly, lz) < 2 * r + 1:
        out.append(rules.HALO_GRID_SMALL.diag(
            loc,
            f"grid {grid_shape} smaller than the stencil extent "
            f"{2 * r + 1} on some axis: no interior point exists",
            hint=f"radius-{r} stencils need at least "
                 f"({2 * r + 1}, {2 * r + 1}, {2 * r + 1})",
        ))
    if plan.block.tile_x > lx or plan.block.tile_y > ly:
        out.append(rules.HALO_TILE_EXCEEDS.diag(
            loc,
            f"effective tile {plan.block.tile_x}x{plan.block.tile_y} "
            f"exceeds the {lx}x{ly} grid plane",
            hint="shrink TX*RX / TY*RY or enlarge the grid",
        ))

    # Per-tap reach for general expressions: an offset whose magnitude
    # meets or exceeds the axis extent is out of bounds for *every* output
    # point, boundary handling included.
    expr = getattr(plan, "expr", None)
    if expr is not None:
        seen: set[tuple[int, tuple[int, int, int]]] = set()
        for tap in expr.all_taps():
            key = (tap.grid, tap.offset)
            if key in seen:
                continue
            seen.add(key)
            for axis, dim in enumerate(grid_shape):
                if abs(tap.offset[axis]) >= dim:
                    out.append(rules.HALO_TAP_OOB.diag(
                        loc,
                        f"tap grid[{tap.grid}] offset {tap.offset} reaches "
                        f"{abs(tap.offset[axis])} cells along "
                        f"{_AXES[axis]}, but the grid is only {dim} deep",
                    ))
                    break
    return out


def workload_halo_diagnostics(
    plan: "KernelPlan",
    workload: "BlockWorkload",
    grid_shape: tuple[int, int, int],
) -> list[Diagnostic]:
    """Workload-level halo checks: HALO-SMEM-SHORT and HALO-PROLOGUE.

    The shared-buffer check is a conservative lower bound: whatever a
    staging kernel keeps in shared memory, it must at least hold the bare
    effective tile of one plane — a declared buffer below that guarantees
    out-of-bounds shared writes regardless of the halo variant.  Kernels
    that do not stage (``smem_bytes == 0``, e.g. texture loads) are exempt.
    """
    out: list[Diagnostic] = []
    loc = plan.name
    if workload.smem_bytes:
        floor = plan.block.tile_x * plan.block.tile_y * plan.elem_bytes
        if workload.smem_bytes < floor:
            out.append(rules.HALO_SMEM_SHORT.diag(
                loc,
                f"declared shared buffer {workload.smem_bytes}B cannot hold "
                f"even the bare {plan.block.tile_x}x{plan.block.tile_y} tile "
                f"({floor}B): staging writes run past the buffer",
                hint="size the buffer with smem_tile_bytes(halo_x, halo_y)",
            ))
    lz = grid_shape[2]
    if workload.prologue_planes >= lz:
        out.append(rules.HALO_PROLOGUE.diag(
            loc,
            f"register-pipeline prologue streams {workload.prologue_planes} "
            f"planes but the grid is only {lz} deep: the sweep never reaches "
            "steady state",
            hint="lower the fused depth or use a deeper grid",
        ))
    return out
