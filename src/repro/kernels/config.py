"""Thread/register blocking configuration — the (TX, TY, RX, RY) tuple.

This is the four-dimensional parameter the auto-tuner searches
(section IV-C): the thread block is TX x TY threads; register tiling scales
the area each block computes to (TX*RX) x (TY*RY) output elements per
plane, with each thread holding RX*RY independent accumulation chains in
registers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class BlockConfig:
    """One blocking configuration (TX, TY, RX, RY)."""

    tx: int
    ty: int
    rx: int = 1
    ry: int = 1

    def __post_init__(self) -> None:
        for name, v in (("tx", self.tx), ("ty", self.ty), ("rx", self.rx), ("ry", self.ry)):
            if v <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {v}", rule="CFG-POSITIVE"
                )

    @property
    def threads(self) -> int:
        """Threads per block (TX * TY)."""
        return self.tx * self.ty

    @property
    def tile_x(self) -> int:
        """Output elements per block per plane along x (TX * RX)."""
        return self.tx * self.rx

    @property
    def tile_y(self) -> int:
        """Output elements per block per plane along y (TY * RY)."""
        return self.ty * self.ry

    @property
    def points_per_plane(self) -> int:
        """Output elements per block per plane."""
        return self.tile_x * self.tile_y

    @property
    def register_tile(self) -> int:
        """Independent elements each thread accumulates (RX * RY)."""
        return self.rx * self.ry

    def as_tuple(self) -> tuple[int, int, int, int]:
        """(TX, TY, RX, RY) — the paper's Table IV notation."""
        return (self.tx, self.ty, self.rx, self.ry)

    def label(self) -> str:
        """Table IV-style label, e.g. ``(256, 1, 1, 8)``."""
        return f"({self.tx}, {self.ty}, {self.rx}, {self.ry})"
