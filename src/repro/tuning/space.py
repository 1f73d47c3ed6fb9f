"""The auto-tuner's parameter space (section IV-C).

The search runs over (TX, TY, RX, RY) with the paper's constraints:

 (i)   TX is a multiple of a half-warp (memory coalescing);
 (ii)  TX * TY is within the device's thread-per-block limit;
 (iii) the shared-memory buffer fits the per-SM limit;
 (iv)  TY * RY divides the vertical grid size (and we apply the analogous
       condition on TX * RX so no partial tiles exist).

Feasibility checks only these four constraints.  It does not check
registers: a configuration whose block cannot fit an SM's register file
stays in the space, and the tuners classify it ``rejected_static`` when
its price finds it unlaunchable — just as a real tuner meets a launch
failure.  Configurations that merely *spill* run, just slowly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import product

from repro.errors import ReproError, TuningError
from repro.gpusim.arch import HALF_WARP
from repro.gpusim.device import DeviceSpec
from repro.kernels.config import BlockConfig

#: Default candidate values, covering everything Table IV reports.
DEFAULT_TX = (16, 32, 64, 128, 256, 512)
DEFAULT_TY = (1, 2, 4, 8, 16, 32)
DEFAULT_RX = (1, 2, 4)
DEFAULT_RY = (1, 2, 4, 8)


@dataclass(frozen=True)
class ParameterSpace:
    """Candidate blocking factors plus the constraint context."""

    tx_values: tuple[int, ...] = DEFAULT_TX
    ty_values: tuple[int, ...] = DEFAULT_TY
    rx_values: tuple[int, ...] = DEFAULT_RX
    ry_values: tuple[int, ...] = DEFAULT_RY

    def candidates(self) -> Iterator[BlockConfig]:
        """All cross-product configurations, unconstrained."""
        for tx, ty, rx, ry in product(
            self.tx_values, self.ty_values, self.rx_values, self.ry_values
        ):
            yield BlockConfig(tx=tx, ty=ty, rx=rx, ry=ry)

    def feasible(
        self,
        device: DeviceSpec,
        grid_shape: tuple[int, int, int],
        smem_bytes_of: Callable[[BlockConfig], int],
    ) -> list[BlockConfig]:
        """Configurations satisfying constraints (i)-(iv) on ``device``.

        ``smem_bytes_of(config)`` returns the kernel's shared-memory
        footprint for a candidate (it depends on the stencil radius, which
        the space does not know).  Constraints (i), (ii) and (iv) are
        checked on the integer values, so only their survivors become
        :class:`BlockConfig` objects and reach ``smem_bytes_of``; the
        result is in :meth:`candidates` order.
        """
        lx, ly, _lz = grid_shape
        max_threads = device.max_threads_per_block
        out: list[BlockConfig] = []
        for tx, ty, rx, ry in product(
            self.tx_values, self.ty_values, self.rx_values, self.ry_values
        ):
            if tx <= 0 or ty <= 0 or rx <= 0 or ry <= 0:
                BlockConfig(tx, ty, rx, ry)  # raises CFG-POSITIVE
            if tx % HALF_WARP != 0:  # (i)
                continue
            if tx * ty > max_threads:  # (ii)
                continue
            tile_y = ty * ry
            if ly % tile_y != 0 or tile_y > ly:  # (iv)
                continue
            tile_x = tx * rx
            if lx % tile_x != 0 or tile_x > lx:  # analogous on x
                continue
            cfg = BlockConfig(tx, ty, rx, ry)
            try:
                if smem_bytes_of(cfg) > device.smem_per_sm:  # (iii)
                    continue
            except ReproError:
                continue
            out.append(cfg)
        if not out:
            raise TuningError(
                f"no feasible configuration for grid {grid_shape} on {device.name}"
            )
        return out


def default_space() -> ParameterSpace:
    """The space used by the paper-reproduction experiments."""
    return ParameterSpace()
