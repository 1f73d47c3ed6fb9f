"""Tiling and coverage validation.

The numeric execution is plane-global (NumPy), so the block decomposition
never touches the numbers — these validators prove, independently, that
the decomposition the *simulator* prices covers the output domain exactly
once, that halos reach far enough, and that the per-plane traffic is
self-consistent with the tile geometry.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.kernels.config import BlockConfig
from repro.utils.maths import ceil_div


def tile_origins(
    lx: int, ly: int, block: BlockConfig
) -> list[tuple[int, int]]:
    """(x0, y0) origins of every tile covering an LX x LY plane."""
    nx = ceil_div(lx, block.tile_x)
    ny = ceil_div(ly, block.tile_y)
    return [
        (bx * block.tile_x, by * block.tile_y)
        for by in range(ny)
        for bx in range(nx)
    ]


def check_exact_cover(lx: int, ly: int, block: BlockConfig) -> None:
    """Assert the tiles partition the plane exactly once.

    Raises :class:`ConfigurationError` when a point would be computed by
    zero or multiple blocks (cannot happen with axis-aligned tiling unless
    tile sizes are invalid — this is the executable proof).
    """
    covered = [[0] * lx for _ in range(ly)]
    for x0, y0 in tile_origins(lx, ly, block):
        for y in range(y0, min(y0 + block.tile_y, ly)):
            row = covered[y]
            for x in range(x0, min(x0 + block.tile_x, lx)):
                row[x] += 1
    bad = [
        (x, y)
        for y in range(ly)
        for x in range(lx)
        if covered[y][x] != 1
    ]
    if bad:
        x0, y0 = bad[0]
        over = covered[y0][x0] > 1
        raise ConfigurationError(
            f"tiling {block.label()} covers {len(bad)} points of "
            f"{lx}x{ly} a wrong number of times (first: {bad[0]})",
            rule="COV-TILE-OVERLAP" if over else "COV-TILE-GAP",
        )


def halo_fits(lx: int, ly: int, lz: int, radius: int) -> bool:
    """True when the stencil extent fits the grid on every axis."""
    return min(lx, ly, lz) >= 2 * radius + 1
