"""A symmetric Eqn (1) stencil lowered by hand into the tap representation.

The general-expression evaluator (:func:`repro.stencils.reference.apply_expr`)
and the parser must agree with the specialised symmetric reference on this
expression; the program itself never builds it.
"""

from __future__ import annotations

from repro.stencils.expr import OutputSpec, StencilExpr, Tap


def symmetric_expr(order: int, coefficients: tuple[float, ...], name: str = "") -> StencilExpr:
    """Lower a symmetric Eqn (1) stencil into the tap representation."""
    radius = order // 2
    taps: list[Tap] = [Tap(grid=0, offset=(0, 0, 0), coeff=coefficients[0])]
    for m in range(1, radius + 1):
        c = coefficients[m]
        for axis in range(3):
            for sign in (-m, m):
                off = [0, 0, 0]
                off[axis] = sign
                taps.append(Tap(grid=0, offset=(off[0], off[1], off[2]), coeff=c))
    return StencilExpr(
        name=name or f"symmetric{order}",
        n_grids=1,
        outputs=(OutputSpec(name="out", taps=tuple(taps)),),
    )
