"""General multi-grid stencil expressions.

The application stencils of the paper's section V differ from Eqn (1) in
the number of input/output grids (Table V), in asymmetry (Upstream), and in
spatially-varying coefficients (Hyperthermia).  A :class:`StencilExpr`
captures all of that as a set of *taps*: each tap reads one input grid at a
constant offset and multiplies it either by a constant coefficient or by a
coefficient grid sampled at the centre point.

The kernel layer derives everything it needs mechanically from the taps:
per-grid halo extents (which grids need merged-halo loading), the z-extent
(which grids participate in the forward/in-plane register pipeline), and
flop counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StencilDefinitionError

Offset = tuple[int, int, int]


@dataclass(frozen=True)
class Tap:
    """One term of an output expression: ``coeff * grid[x+dx, y+dy, z+dz]``.

    Exactly one of ``coeff`` (compile-time constant) or ``coeff_grid``
    (index of a spatially-varying coefficient volume, sampled at the output
    point) must be given.
    """

    grid: int
    offset: Offset
    coeff: float | None = None
    coeff_grid: int | None = None

    def __post_init__(self) -> None:
        if self.grid < 0:
            raise StencilDefinitionError(f"tap grid index must be >= 0, got {self.grid}")
        if len(self.offset) != 3:
            raise StencilDefinitionError(f"tap offset must be 3D, got {self.offset}")
        if (self.coeff is None) == (self.coeff_grid is None):
            raise StencilDefinitionError(
                "tap needs exactly one of coeff / coeff_grid"
            )
        if self.coeff_grid is not None and self.coeff_grid < 0:
            raise StencilDefinitionError("coeff_grid index must be >= 0")


@dataclass(frozen=True)
class OutputSpec:
    """One output grid: a sum of taps."""

    name: str
    taps: tuple[Tap, ...]

    def __post_init__(self) -> None:
        if not self.taps:
            raise StencilDefinitionError(f"output {self.name!r} has no taps")


@dataclass(frozen=True)
class StencilExpr:
    """A complete application stencil.

    Attributes
    ----------
    name:
        Identifier used by the harness (matches the paper's Table V names).
    n_grids:
        Number of input grids; taps and coeff_grids index into [0, n_grids).
    outputs:
        One :class:`OutputSpec` per output grid.
    """

    name: str
    n_grids: int
    outputs: tuple[OutputSpec, ...]

    def __post_init__(self) -> None:
        if self.n_grids <= 0:
            raise StencilDefinitionError("stencil needs at least one input grid")
        if not self.outputs:
            raise StencilDefinitionError("stencil needs at least one output")
        for out in self.outputs:
            for tap in out.taps:
                if tap.grid >= self.n_grids:
                    raise StencilDefinitionError(
                        f"output {out.name!r} taps grid {tap.grid}, but the "
                        f"stencil declares only {self.n_grids} inputs",
                        rule="DSL-UNDEF-GRID",
                    )
                if tap.coeff_grid is not None and tap.coeff_grid >= self.n_grids:
                    raise StencilDefinitionError(
                        f"output {out.name!r} uses coeff grid {tap.coeff_grid}, "
                        f"but the stencil declares only {self.n_grids} inputs",
                        rule="DSL-UNDEF-GRID",
                    )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    def all_taps(self) -> list[Tap]:
        """Every tap across all outputs."""
        return [tap for out in self.outputs for tap in out.taps]

    def halo_extent(self, grid: int) -> Offset:
        """Maximum |offset| per axis among taps reading ``grid``.

        Coefficient-grid sampling is always at the centre, so a pure
        coefficient volume has extent (0, 0, 0) and never needs halos —
        exactly why Hyperthermia's nine coefficient volumes dilute the
        in-plane method's advantage (section V-A).
        """
        ext = [0, 0, 0]
        for tap in self.all_taps():
            if tap.grid == grid:
                for axis in range(3):
                    ext[axis] = max(ext[axis], abs(tap.offset[axis]))
        return (ext[0], ext[1], ext[2])

    def radius(self) -> int:
        """Maximum halo extent over all grids and axes."""
        return max(
            (max(self.halo_extent(g)) for g in range(self.n_grids)), default=0
        )

    def z_extent(self, grid: int) -> tuple[int, int]:
        """(max backward, max forward) z reach of taps on ``grid``."""
        back = fwd = 0
        for tap in self.all_taps():
            if tap.grid == grid:
                back = max(back, -tap.offset[2])
                fwd = max(fwd, tap.offset[2])
        return (back, fwd)

    def stenciled_grids(self) -> list[int]:
        """Grids read with at least one non-centre tap."""
        return [
            g for g in range(self.n_grids) if self.halo_extent(g) != (0, 0, 0)
        ]

    def coefficient_grids(self) -> list[int]:
        """Grids used only at the centre (coefficient volumes / sources)."""
        used = {t.grid for t in self.all_taps()}
        used.update(t.coeff_grid for t in self.all_taps() if t.coeff_grid is not None)
        return [
            g
            for g in sorted(used)
            if self.halo_extent(g) == (0, 0, 0)
        ]

    def flops_per_point(self) -> int:
        """Flops per output point: one multiply-add per tap, plus the extra
        accumulate per tap beyond the first of each output."""
        total = 0
        for out in self.outputs:
            total += 2 * len(out.taps) - 1
        return total

    def mem_refs_per_point(self) -> int:
        """Memory references per point: distinct (grid, offset) reads,
        centre-sampled coefficient grids, plus one write per output."""
        reads = {(t.grid, t.offset) for t in self.all_taps()}
        coeffs = {t.coeff_grid for t in self.all_taps() if t.coeff_grid is not None}
        return len(reads) + len(coeffs) + len(self.outputs)

