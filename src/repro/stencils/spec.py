"""Symmetric nearest-neighbour stencils — the paper's Eqn (1) family.

A stencil of order ``2r`` (radius ``r``) computes

    out[i,j,k] = c0 * in[i,j,k]
               + sum_{m=1..r} c_m * ( in[i+-m, j, k]
                                    + in[i, j+-m, k]
                                    + in[i, j, k+-m] )

using ``6r + 1`` neighbours within a ``(2r+1)^3`` extent, ``6r + 2`` memory
references per element (including the write) and ``7r + 1`` flops with the
forward-plane formulation or ``8r + 1`` with the in-plane formulation
(Tables I and II).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StencilDefinitionError


@dataclass(frozen=True)
class SymmetricStencil:
    """One symmetric Jacobi stencil.

    Attributes
    ----------
    order:
        Stencil order ``2r`` (must be even and positive).
    coefficients:
        ``(c0, c1, ..., cr)`` — the centre weight followed by one weight per
        ring; each ring weight multiplies all six neighbours at that
        distance, as in Eqn (1).
    """

    order: int
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.order <= 0 or self.order % 2 != 0:
            raise StencilDefinitionError(
                f"stencil order must be a positive even integer, got {self.order}"
            )
        if len(self.coefficients) != self.radius + 1:
            raise StencilDefinitionError(
                f"order-{self.order} stencil needs {self.radius + 1} coefficients "
                f"(c0..c{self.radius}), got {len(self.coefficients)}",
                rule="DSL-ARITY",
            )

    @property
    def radius(self) -> int:
        """Stencil radius r = order / 2."""
        return self.order // 2

    @property
    def extent(self) -> tuple[int, int, int]:
        """Computation-cell extent, (2r+1)^3 (Table I)."""
        side = 2 * self.radius + 1
        return (side, side, side)

    @property
    def points(self) -> int:
        """Neighbours used per output element: 6r + 1."""
        return 6 * self.radius + 1

    @property
    def mem_refs_per_point(self) -> int:
        """Memory references per element, incl. the write: 6r + 2."""
        return 6 * self.radius + 2

    @property
    def flops_forward(self) -> int:
        """Flops per element with the forward-plane formulation: 7r + 1."""
        return 7 * self.radius + 1

    @property
    def flops_inplane(self) -> int:
        """Flops per element with the in-plane formulation: 8r + 1."""
        return 8 * self.radius + 1


def default_coefficients(radius: int) -> tuple[float, ...]:
    """Diffusion-flavoured weights that sum (over all taps) to one.

    ``c0`` plus ``6 * sum(c_m)`` equals 1, with ring weights decaying as
    ``1/m^2`` — a stable Jacobi smoothing stencil at every order, so
    iterative examples don't blow up and correctness comparisons stay
    well-conditioned.
    """
    if radius <= 0:
        raise StencilDefinitionError(f"radius must be positive, got {radius}")
    raw = [1.0 / (m * m) for m in range(1, radius + 1)]
    scale = 0.5 / (6.0 * sum(raw))
    rings = tuple(w * scale for w in raw)
    c0 = 1.0 - 6.0 * sum(rings)
    return (c0, *rings)


def symmetric(order: int, coefficients: tuple[float, ...] | None = None) -> SymmetricStencil:
    """Build an order-``2r`` symmetric stencil (default diffusion weights)."""
    if order <= 0 or order % 2 != 0:
        raise StencilDefinitionError(
            f"stencil order must be a positive even integer, got {order}"
        )
    coeffs = coefficients if coefficients is not None else default_coefficients(order // 2)
    return SymmetricStencil(order=order, coefficients=tuple(float(c) for c in coeffs))


def dtype_for(name: str) -> np.dtype:
    """Map ``"sp"``/``"dp"`` (or NumPy names) to the element dtype."""
    key = name.lower()
    if key in ("sp", "float32", "f4", "single"):
        return np.dtype(np.float32)
    if key in ("dp", "float64", "f8", "double"):
        return np.dtype(np.float64)
    raise StencilDefinitionError(f"unknown precision {name!r}; use 'sp' or 'dp'")
