"""Exact per-access pricing of one warp instruction.

The kernels account traffic through the phase-averaged region builders of
:mod:`repro.kernels.loads` and :meth:`MemoryStats.add_raw`.  This oracle
prices a single access at one fixed line phase instead: the transaction
count is :func:`repro.gpusim.memory.line_span` of the byte span, and the
counts land in the same :class:`MemoryStats` fields.
"""

from __future__ import annotations

from repro.gpusim.memory import KIND_INTERIOR, MemoryStats, line_span


def add_access(
    stats: MemoryStats,
    *,
    start_byte: int,
    span_bytes: int,
    useful_bytes: int,
    count: int = 1,
    kind: str = KIND_INTERIOR,
) -> None:
    """Accumulate ``count`` identical warp instructions into ``stats``.

    ``start_byte`` is the byte offset of the first byte touched (only its
    phase within a transaction line matters), ``span_bytes`` the
    contiguous extent the active lanes cover and ``useful_bytes`` what the
    live lanes request (smaller when some lanes are predicated off).
    """
    if span_bytes <= 0:
        raise ValueError("span_bytes must be positive")
    if not 0 < useful_bytes <= span_bytes:
        raise ValueError("useful_bytes must be in (0, span_bytes]")
    if count <= 0:
        raise ValueError("count must be positive")
    stats.add_raw(
        kind=kind,
        instructions=count,
        transactions=line_span(start_byte, span_bytes, stats.line_bytes) * count,
        requested_bytes=useful_bytes * count,
    )
