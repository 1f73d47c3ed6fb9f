"""Slab decomposition along z with ghost planes.

Each GPU owns a contiguous range of z-planes plus ``radius`` ghost planes
per interior interface.  One simulation step is then: sweep every slab
(the kernels compute exactly the owned planes, because their z-boundary
ring equals the ghost width), then refresh the ghosts from the
neighbours' freshly computed interiors.  The decomposition is *exact*:
``merge(sweep+exchange over slabs) == sweep(whole grid)`` plane for
plane, which the property tests assert over multiple steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GridShapeError, HaloExchangeError


@dataclass
class Slab:
    """One GPU's piece of the grid.

    Attributes
    ----------
    index:
        Position in the z-order of slabs.
    z_start / z_stop:
        Owned plane range within the global grid (half-open).
    ghost_lo / ghost_hi:
        Ghost planes held below / above the owned range (0 at the domain
        ends, ``radius`` at interior interfaces).
    data:
        The local array, shape ``(ghost_lo + owned + ghost_hi, ly, lx)``.
    """

    index: int
    z_start: int
    z_stop: int
    ghost_lo: int
    ghost_hi: int
    data: np.ndarray

    @property
    def owned(self) -> int:
        """Number of owned planes."""
        return self.z_stop - self.z_start

    def interior_view(self) -> np.ndarray:
        """View of the owned planes within the local array."""
        stop = self.ghost_lo + self.owned
        return self.data[self.ghost_lo : stop]


def slab_extents(
    lz: int, parts: int, radius: int
) -> list[tuple[int, int, int]]:
    """Per-slab ``(owned, ghost_lo, ghost_hi)`` plane counts — no arrays.

    The single source of the decomposition arithmetic: :func:`split_grid`
    materializes exactly these extents, and the cost model derives the
    straggler slab's true thickness from them (``owned + ghost_lo +
    ghost_hi``) instead of approximating it.  Plane counts are balanced
    to within one (the remainder goes to the *leading* slabs); every
    slab must own at least ``radius`` planes so a single exchange per
    step suffices.
    """
    if parts < 1:
        raise GridShapeError(f"parts must be >= 1, got {parts}")
    if radius < 1:
        raise GridShapeError(f"radius must be >= 1, got {radius}")
    base, extra = divmod(lz, parts)
    if base < radius:
        raise GridShapeError(
            f"cannot split {lz} planes into {parts} slabs of >= {radius} "
            f"planes each (radius {radius})"
        )
    return [
        (
            base + (1 if i < extra else 0),
            radius if i > 0 else 0,
            radius if i < parts - 1 else 0,
        )
        for i in range(parts)
    ]


def split_grid(grid: np.ndarray, parts: int, radius: int) -> list[Slab]:
    """Split ``grid`` into ``parts`` z-slabs with ``radius`` ghosts.

    Plane counts follow :func:`slab_extents`: balanced to within one,
    every slab owning at least ``radius`` planes.
    """
    if grid.ndim != 3:
        raise GridShapeError(f"expected a 3D grid, got shape {grid.shape}")
    extents = slab_extents(grid.shape[0], parts, radius)

    slabs: list[Slab] = []
    z0 = 0
    for i, (owned, ghost_lo, ghost_hi) in enumerate(extents):
        z1 = z0 + owned
        local = grid[z0 - ghost_lo : z1 + ghost_hi].copy()
        slabs.append(
            Slab(
                index=i,
                z_start=z0,
                z_stop=z1,
                ghost_lo=ghost_lo,
                ghost_hi=ghost_hi,
                data=local,
            )
        )
        z0 = z1
    return slabs


def exchange_halos(slabs: list[Slab]) -> int:
    """Refresh every ghost plane from its neighbour's owned interior.

    Returns the number of planes moved (the quantity the cost model
    prices).  Mirrors a pairwise `cudaMemcpyPeer`/MPI exchange: lower
    ghosts receive the top of the slab below, upper ghosts the bottom of
    the slab above.  Corrupted transfers are the resilient engine's
    business (:mod:`repro.cluster.resilient` corrupts through
    :meth:`repro.gpusim.faults.ClusterFaultPlan.corrupt_ghosts` and
    checks with :func:`validate_halos`).
    """
    moved = 0
    for lo, hi in zip(slabs, slabs[1:]):
        r_up = hi.ghost_lo
        if r_up:
            hi.data[:r_up] = lo.interior_view()[lo.owned - r_up :]
            moved += r_up
        r_dn = lo.ghost_hi
        if r_dn:
            lo.data[lo.ghost_lo + lo.owned :] = hi.interior_view()[:r_dn]
            moved += r_dn
    return moved


def validate_halos(slabs: list[Slab]) -> None:
    """Check every ghost plane is finite and matches its source exactly.

    The integrity check a defensive exchange runs before trusting its
    received buffers; raises :class:`repro.errors.HaloExchangeError`
    naming the receiving slab and direction on the first violation.
    """
    for lo, hi in zip(slabs, slabs[1:]):
        pairs = (
            (hi, "lower", hi.data[: hi.ghost_lo],
             lo.interior_view()[lo.owned - hi.ghost_lo :] if hi.ghost_lo else None),
            (lo, "upper", lo.data[lo.ghost_lo + lo.owned :],
             hi.interior_view()[: lo.ghost_hi] if lo.ghost_hi else None),
        )
        for slab, side, ghost, source in pairs:
            if source is None or not len(ghost):
                continue
            if not np.isfinite(ghost).all():
                raise HaloExchangeError(
                    f"slab {slab.index}: non-finite value in {side} ghost "
                    f"planes after exchange"
                )
            if not np.array_equal(ghost, source):
                bad = int(np.argmax(np.any(ghost != source, axis=(1, 2))))
                raise HaloExchangeError(
                    f"slab {slab.index}: {side} ghost plane {bad} does not "
                    f"match its neighbour's interior (corrupted transfer)"
                )


def merge_slabs(slabs: list[Slab]) -> np.ndarray:
    """Reassemble the global grid from the slabs' owned planes."""
    if not slabs:
        raise GridShapeError("no slabs to merge")
    total = slabs[-1].z_stop
    _, ly, lx = slabs[0].data.shape
    out = np.empty((total, ly, lx), dtype=slabs[0].data.dtype)
    for slab in slabs:
        out[slab.z_start : slab.z_stop] = slab.interior_view()
    return out
