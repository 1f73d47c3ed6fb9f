"""Grid initializers for examples, tests and benchmarks.

All generators return [z, y, x]-indexed arrays (the library convention)
with a requested dtype and are deterministic given their arguments, so
correctness comparisons across kernels never chase moving inputs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GridShapeError

Shape = tuple[int, int, int]


def _check(shape: Shape) -> None:
    if len(shape) != 3 or min(shape) <= 0:
        raise GridShapeError(f"grid shape must be 3 positive dims, got {shape}")


def random_grid(shape: Shape, dtype: str = "float32", seed: int = 0) -> np.ndarray:
    """Uniform [0, 1) noise — the standard correctness-test input."""
    _check(shape)
    rng = np.random.default_rng(seed)
    return rng.random(shape).astype(dtype)


def hot_cube(
    shape: Shape,
    dtype: str = "float32",
    temperature: float = 100.0,
    half_width: int | None = None,
) -> np.ndarray:
    """Cold block with a hot cube in the centre (heat-diffusion demos)."""
    _check(shape)
    grid = np.zeros(shape, dtype=dtype)
    lz, ly, lx = shape
    hw = half_width if half_width is not None else max(1, min(shape) // 8)
    grid[
        lz // 2 - hw : lz // 2 + hw,
        ly // 2 - hw : ly // 2 + hw,
        lx // 2 - hw : lx // 2 + hw,
    ] = temperature
    return grid


def plane_wave(
    shape: Shape, dtype: str = "float32", wavelength: float = 16.0, axis: int = 2
) -> np.ndarray:
    """Sinusoid along one axis — smooth input for convergence studies."""
    _check(shape)
    if axis not in (0, 1, 2):
        raise GridShapeError(f"axis must be 0..2, got {axis}")
    if wavelength <= 0:
        raise GridShapeError("wavelength must be positive")
    coord = np.arange(shape[axis], dtype=np.float64)
    wave = np.sin(2.0 * np.pi * coord / wavelength)
    view = [1, 1, 1]
    view[axis] = shape[axis]
    return np.broadcast_to(wave.reshape(view), shape).astype(dtype)


def checkerboard(shape: Shape, dtype: str = "float32", cell: int = 4) -> np.ndarray:
    """Alternating cells — the roughest smoothing-test input."""
    _check(shape)
    if cell <= 0:
        raise GridShapeError("cell must be positive")
    z, y, x = np.indices(shape)
    board = ((z // cell) + (y // cell) + (x // cell)) % 2
    return board.astype(dtype)


def coordinate_polynomial(
    shape: Shape,
    dtype: str = "float64",
    coeffs: tuple[float, float, float] = (1.0, 2.0, 3.0),
) -> np.ndarray:
    """``ax^2 + by^2 + cz^2`` — known discrete Laplacian ``2(a+b+c)``.

    A manufactured solution for Laplacian and Poisson checks.
    """
    _check(shape)
    z, y, x = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in shape), indexing="ij")
    a, b, c = coeffs
    return (a * x * x + b * y * y + c * z * z).astype(dtype)
