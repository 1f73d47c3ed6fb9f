"""Plane-pipeline execution — the numerical core of both loading methods.

These functions execute one sweep *with the same algorithmic structure the
GPU kernels use*, traversing the grid plane by plane:

* :func:`forward_sweep` mirrors nvstencil's 2.5-D register pipeline
  (Eqn (2)): when plane ``k + r`` has been streamed in, output plane ``k``
  is computed from the 2r+1 resident planes.
* :func:`inplane_sweep` implements the paper's recurrence exactly
  (Eqns (3)-(5)): when plane ``k`` arrives, a *partial* output for plane
  ``k`` is formed from the in-plane cross and the backward z-neighbours
  (Eqn (3)); each subsequent plane ``k + p`` adds its ``c_p`` contribution
  (Eqn (5)); the output is complete — and only then written — at
  ``z = k + r``.  At most ``r`` partials are in flight, matching the
  paper's claim that r output elements are cached in registers.

Because the in-plane method *reassociates* the z-accumulation, its results
differ from the forward method by floating-point rounding only; tests
assert both against the direct reference within dtype-appropriate
tolerances, which validates the paper's Eqn (4) identity numerically.

The general-expression variants (:func:`expr_forward_sweep`,
:func:`expr_inplane_sweep`) extend the same two schedules to multi-grid
application stencils with arbitrary (possibly asymmetric) z-taps.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.stencils.boundary import check_grid
from repro.stencils.expr import StencilExpr
from repro.stencils.spec import SymmetricStencil


def _xy_partial(spec: SymmetricStencil, plane: np.ndarray) -> np.ndarray:
    """Eqn (3)'s in-plane part: c0*centre + sum_m c_m * (x/y neighbours).

    ``plane`` is a full [y, x] plane; the result covers the xy-interior.
    """
    r = spec.radius
    core = spec.coefficients[0] * plane[r:-r, r:-r]
    for m in range(1, r + 1):
        c = spec.coefficients[m]
        core = core + c * (
            plane[r:-r, r - m : plane.shape[1] - r - m]
            + plane[r:-r, r + m : plane.shape[1] - r + m or None]
            + plane[r - m : plane.shape[0] - r - m, r:-r]
            + plane[r + m : plane.shape[0] - r + m or None, r:-r]
        )
    return core


def _xy_window(plane: np.ndarray, r: int) -> np.ndarray:
    """The xy-interior view of a plane."""
    return plane[r:-r, r:-r]


def forward_sweep(spec: SymmetricStencil, grid: np.ndarray) -> np.ndarray:
    """One sweep with the forward-plane (nvstencil) schedule."""
    r = spec.radius
    check_grid(grid, (r, r, r))
    lz = grid.shape[0]
    out = grid.copy()
    for k in range(r, lz - r):
        acc = _xy_partial(spec, grid[k])
        for m in range(1, r + 1):
            acc = acc + spec.coefficients[m] * (
                _xy_window(grid[k - m], r) + _xy_window(grid[k + m], r)
            )
        out[k, r:-r, r:-r] = acc.astype(grid.dtype, copy=False)
    return out


def inplane_sweep(spec: SymmetricStencil, grid: np.ndarray) -> np.ndarray:
    """One sweep with the in-plane schedule — Eqns (3)-(5) verbatim."""
    r = spec.radius
    check_grid(grid, (r, r, r))
    lz = grid.shape[0]
    out = grid.copy()

    # Queue of (output plane index k, partial accumulation) — the register
    # pipeline.  Entries are created at z = k and completed at z = k + r.
    queue: deque[tuple[int, np.ndarray]] = deque()

    for z in range(lz):
        plane = grid[z]

        # Step 3 of the procedure: update the r queued partials with this
        # plane's forward contribution (Eqn (5)).
        window = _xy_window(plane, r)
        for k, partial in queue:
            p = z - k
            partial += spec.coefficients[p] * window

        # Step 2: start a new partial for output plane z (Eqn (3)) —
        # in-plane cross plus *backward* z-neighbours from the register
        # column of previously streamed planes.
        if r <= z < lz - r:
            partial = _xy_partial(spec, plane).astype(np.result_type(grid.dtype), copy=False)
            for m in range(1, r + 1):
                partial = partial + spec.coefficients[m] * _xy_window(grid[z - m], r)
            queue.append((z, partial))

        # Steps 4-5: the head of the queue is complete once z = k + r;
        # shift it out and write it to (simulated) global memory.
        if queue and z - queue[0][0] == r:
            k, done = queue.popleft()
            out[k, r:-r, r:-r] = done.astype(grid.dtype, copy=False)

    if queue:  # pragma: no cover - guarded by check_grid
        raise AssertionError("in-plane pipeline did not drain")
    return out


# ----------------------------------------------------------------------
# General expressions (application stencils)
# ----------------------------------------------------------------------

def _expr_plane_term(
    expr: StencilExpr,
    grids: list[np.ndarray],
    out_index: int,
    z_out: int,
    dz_group: int,
    ext: tuple[int, int, int],
) -> np.ndarray | None:
    """Sum of output ``out_index``'s taps with z-offset ``dz_group`` at
    output plane ``z_out``, evaluated over the xy-interior."""
    ex, ey, _ = ext
    ys = slice(ey, -ey) if ey else slice(None)
    acc: np.ndarray | None = None
    for tap in expr.outputs[out_index].taps:
        if tap.offset[2] != dz_group:
            continue
        dx, dy, dz = tap.offset
        xs = slice(ex + dx, (-ex + dx) or None)
        yss = slice(ey + dy, (-ey + dy) or None)
        term = grids[tap.grid][z_out + dz, yss, xs]
        if tap.coeff_grid is not None:
            term = grids[tap.coeff_grid][z_out, ys, slice(ex, -ex) if ex else slice(None)] * term
        else:
            term = tap.coeff * term
        acc = term if acc is None else acc + term
    return acc


def expr_forward_sweep(expr: StencilExpr, grids: list[np.ndarray]) -> list[np.ndarray]:
    """Forward-plane schedule for a general expression.

    All taps of an output are evaluated at its own output plane, directly —
    numerically this is the same accumulation the multi-grid forward kernel
    performs plane by plane.
    """
    r = expr.radius()
    ext = (r, r, r)
    check_grid(grids[0], ext)
    lz = grids[0].shape[0]

    outputs = []
    for oi, out_spec in enumerate(expr.outputs):
        base = grids[out_spec.taps[0].grid].copy()
        dzs = sorted({t.offset[2] for t in out_spec.taps})
        for k in range(r, lz - r):
            acc: np.ndarray | None = None
            for dz in dzs:
                term = _expr_plane_term(expr, grids, oi, k, dz, ext)
                if term is not None:
                    acc = term if acc is None else acc + term
            ys = slice(r, -r) if r else slice(None)
            base[k, ys, ys] = acc.astype(base.dtype, copy=False)
        outputs.append(base)
    return outputs


def expr_inplane_sweep(expr: StencilExpr, grids: list[np.ndarray]) -> list[np.ndarray]:
    """In-plane schedule for a general expression.

    At plane ``z``: (1) every queued partial whose pending forward tap
    group matches receives its contribution; (2) a new partial for output
    plane ``z`` is created from all taps with ``dz <= 0`` (in-plane and
    backward reads); (3) partials whose forward taps are exhausted are
    written out.  The queue depth per output equals its maximum forward
    z-reach — the generalization of the paper's "r outputs cached in
    registers".
    """
    r = expr.radius()
    ext = (r, r, r)
    check_grid(grids[0], ext)
    lz = grids[0].shape[0]
    ys = slice(r, -r) if r else slice(None)

    outputs = []
    for oi, out_spec in enumerate(expr.outputs):
        base = grids[out_spec.taps[0].grid].copy()
        fwd_dzs = sorted({t.offset[2] for t in out_spec.taps if t.offset[2] > 0})
        back_dzs = sorted({t.offset[2] for t in out_spec.taps if t.offset[2] <= 0})
        depth = fwd_dzs[-1] if fwd_dzs else 0

        queue: deque[tuple[int, np.ndarray]] = deque()
        for z in range(lz):
            # Forward contributions to queued partials (Eqn (5) analogue).
            for k, partial in queue:
                dz = z - k
                if dz in fwd_dzs:
                    term = _expr_plane_term(expr, grids, oi, k, dz, ext)
                    if term is not None:
                        partial += term
            # Create the partial for output plane z (Eqn (3) analogue).
            if r <= z < lz - r:
                acc: np.ndarray | None = None
                for dz in back_dzs:
                    term = _expr_plane_term(expr, grids, oi, z, dz, ext)
                    if term is not None:
                        acc = term if acc is None else acc + term
                if acc is None:
                    acc = np.zeros_like(base[z, ys, ys], dtype=np.result_type(base.dtype))
                queue.append((z, acc))
            # Emit completed partials.
            while queue and z - queue[0][0] >= depth:
                k, done = queue.popleft()
                base[k, ys, ys] = done.astype(base.dtype, copy=False)
        while queue:
            k, done = queue.popleft()
            base[k, ys, ys] = done.astype(base.dtype, copy=False)
        outputs.append(base)
    return outputs
