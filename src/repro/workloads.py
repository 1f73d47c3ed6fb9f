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

