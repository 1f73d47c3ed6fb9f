"""Tuning result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernels.config import BlockConfig


@dataclass(frozen=True)
class TuneEntry:
    """One evaluated configuration."""

    config: BlockConfig
    mpoints_per_s: float
    #: Model prediction, when a model participated (MPoint/s).
    predicted: float | None = None
    #: Extra diagnostics (occupancy, load efficiency, ...).
    info: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        """JSON form for ``repro tune --json`` (stable key order)."""
        return {
            "config": self.config.label(),
            "tile": list(self.config.as_tuple()),
            "mpoints_per_s": self.mpoints_per_s,
            "predicted": self.predicted,
            "info": dict(sorted(self.info.items())),
        }


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run.

    Attributes
    ----------
    best:
        The winning entry (highest measured MPoint/s).
    entries:
        Every *measured* configuration, sorted best-first.
    evaluated / space_size:
        How many configurations were actually run vs. the feasible space
        size — the model-based tuner's economy metric (section VI).
    method:
        ``"exhaustive"``, ``"stochastic"`` or ``"model"``.
    info:
        Run-level diagnostics, e.g. ``rejected_static`` (configurations
        whose price found them unlaunchable) and ``rejected_simulated``
        (always 0, kept for output compatibility).
    """

    best: TuneEntry
    entries: tuple[TuneEntry, ...]
    evaluated: int
    space_size: int
    method: str
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def best_config(self) -> BlockConfig:
        """The winning (TX, TY, RX, RY)."""
        return self.best.config

    @property
    def best_mpoints(self) -> float:
        """The winning measured rate."""
        return self.best.mpoints_per_s

    def summary(self) -> str:
        """One-line report in the paper's Table IV style."""
        return (
            f"{self.method}: best {self.best.config.label()} at "
            f"{self.best.mpoints_per_s:.1f} MPoint/s "
            f"({self.evaluated}/{self.space_size} configs executed)"
        )

    def to_json_obj(self) -> dict[str, Any]:
        """JSON form for ``repro tune --json``.

        Every ranked entry ships its ``predicted`` score and ``info``
        diagnostics (occupancy, load efficiency, ...), not just the
        winner, so ``repro explain``-style analysis is scriptable from
        tuner output alone when no archive was written.
        """
        return {
            "method": self.method,
            "best": self.best.to_json_obj(),
            "entries": [e.to_json_obj() for e in self.entries],
            "evaluated": self.evaluated,
            "space_size": self.space_size,
            "info": dict(sorted(self.info.items())),
        }
