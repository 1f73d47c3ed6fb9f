"""The op table the simulator's model arithmetic is written against.

Occupancy (:func:`repro.gpusim.occupancy.occupancy_stage`), the cycle
model (:func:`repro.gpusim.timing.time_stage`), the counter derivations
(:func:`repro.obs.counters.counter_stage`) and the paper's Eqns (6)-(14)
(:class:`repro.tuning.perfmodel.PaperModel`) are each written once, as a
function of their inputs and an :class:`Ops` table.  Python's operators
(``+ - * / // < ==``) mean the same thing on numbers and on NumPy arrays;
the few operations whose builtin and array spellings differ go through
the table.  Two tables exist:

* :data:`SCALAR` — builtins over Python numbers: one configuration per
  call, no NumPy object is ever created (the executor's path);
* :data:`repro.gpusim.batch.VECTOR` — NumPy over columns: a whole
  candidate set per call (the batch engine and ``predict_batch``).

Both tables perform the identical IEEE-754 operations in the identical
order, so every lane of a vector evaluation is bit-identical to the
scalar evaluation of that configuration.  ``python -m
repro.gpusim.batch`` checks that the two tables agree on every recorded
launch.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import ResourceLimitError


def cdiv(a: Any, b: Any) -> Any:
    """``ceil(a / b)`` in floor-division form, on ints or int arrays.

    Unlike :func:`repro.utils.maths.ceil_div` it does not validate: the
    model evaluates rows that the launch check later discards.
    """
    return -((-a) // b)


class Ops(NamedTuple):
    """The operations whose scalar and array spellings differ."""

    #: Elementwise ``max`` / ``min`` of two operands.
    maximum: Callable[[Any, Any], Any]
    minimum: Callable[[Any, Any], Any]
    #: ``where(cond, a, b)``: ``a`` where ``cond`` holds, else ``b``.  Both
    #: branches are evaluated, so a guarded divisor must itself be a
    #: ``where``.
    where: Callable[[Any, Any, Any], Any]
    #: ``select(conds, choices, default)``: the choice of the first
    #: condition that holds.
    select: Callable[[Sequence[Any], Sequence[Any], Any], Any]
    #: ``first_min(names, values)``: ``(name, value)`` of the first
    #: minimum, ties going to the earlier entry.
    first_min: Callable[[Sequence[str], Sequence[Any]], tuple[Any, Any]]
    #: ``repeat_add(terms, n)``: each term added ``n`` times to 0.0, one
    #: addition at a time (floating-point addition is not associative,
    #: so this is not ``n * term``).
    repeat_add: Callable[[Sequence[Any], Any], list[Any]]
    #: Ceiling of a float.
    ceil: Callable[[Any], Any]
    #: ``launchable(reason, error)``: the rows whose failure ``reason`` is
    #: 0.  The scalar table raises ``ResourceLimitError(error())`` for a
    #: failing configuration instead.
    launchable: Callable[[Any, Callable[[], str]], Any]
    #: ``rows(selection, x)``: ``x`` (a column, or a tuple or dataclass
    #: record of columns) restricted to the selected rows.
    rows: Callable[[Any, Any], Any]


def _select(conds: Sequence[Any], choices: Sequence[Any], default: Any) -> Any:
    for cond, choice in zip(conds, choices):
        if cond:
            return choice
    return default


def _first_min(names: Sequence[str], values: Sequence[Any]) -> tuple[Any, Any]:
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best]:
            best = i
    return names[best], values[best]


def _repeat_add(terms: Sequence[Any], n: int) -> list[Any]:
    out = []
    for term in terms:
        acc = 0.0
        for _ in range(n):
            acc += term
        out.append(acc)
    return out


def _launchable(reason: int, error: Callable[[], str]) -> None:
    if reason:
        raise ResourceLimitError(error())


SCALAR = Ops(
    maximum=max,
    minimum=min,
    where=lambda cond, a, b: a if cond else b,
    select=_select,
    first_min=_first_min,
    repeat_add=_repeat_add,
    ceil=math.ceil,
    launchable=_launchable,
    rows=lambda selection, x: x,
)
