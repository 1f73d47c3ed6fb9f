"""The unconstrained parameter space — what ``feasible()`` filters.

:meth:`repro.tuning.space.ParameterSpace.feasible` walks the cross
product of a space's candidate values and keeps the configurations that
satisfy the paper's constraints; this module yields the whole product,
so tests can check the survivors against it (subset, order, coverage of
the paper's optima) and build per-candidate fixtures.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.kernels.config import BlockConfig
from repro.tuning.space import ParameterSpace


def candidates(space: ParameterSpace) -> Iterator[BlockConfig]:
    """All cross-product configurations of ``space``, unconstrained."""
    for tx, ty, rx, ry in product(
        space.tx_values, space.ty_values, space.rx_values, space.ry_values
    ):
        yield BlockConfig(tx=tx, ty=ty, rx=rx, ry=ry)
