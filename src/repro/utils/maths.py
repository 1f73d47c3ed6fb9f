"""Integer helpers used throughout the simulator.

These mirror the integer arithmetic a CUDA kernel's launch code performs
(ceil-division of grids into blocks, rounding allocations up to hardware
granularities) and are deliberately strict about their domains: sizes are
positive, granularities are positive, and violations raise ``ValueError``
rather than returning nonsense.

:func:`jittered_backoff` is the one retry delay both recovery ladders
(tuning sessions and cluster campaigns) use.
"""

from __future__ import annotations

import random


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div numerator must be non-negative, got {a}")
    return -(-a // b)


def round_up(value: int, granularity: int) -> int:
    """Round ``value`` up to the next multiple of ``granularity``.

    Used for register-file and shared-memory allocation granularity: the
    hardware hands out registers per warp in fixed-size chunks, so resource
    accounting must round up exactly the way the allocator does.
    """
    return ceil_div(value, granularity) * granularity


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def jittered_backoff(
    base_s: float, factor: float, jitter: float, seed: int, key: str, attempt: int
) -> float:
    """Deterministic delay before retry ``attempt`` of ``key``.

    ``base_s * factor**attempt``, scaled by a jitter in ``[1 - jitter,
    1 + jitter]`` drawn from ``seed``, so two runs with the same seed back
    off identically.  String seeding is process-independent (unlike tuple
    seeding, which goes through hash() and PYTHONHASHSEED).
    """
    rng = random.Random(f"{seed}:{key}:{attempt}")
    return base_s * factor ** attempt * (1.0 + jitter * (2.0 * rng.random() - 1.0))

