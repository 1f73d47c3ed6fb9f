"""Plain-text table and series rendering for benchmark harness output.

The benchmark harness prints the same rows/columns the paper's tables and
figures report.  Everything renders to monospaced ASCII so it is diffable,
greppable, and readable in a terminal or CI log.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def _cell(value: object, float_fmt: str) -> str:
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = ".2f",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Floats are formatted with ``float_fmt``; all other values via ``str``.
    Column widths adapt to content.  Returns the table as a single string
    (no trailing newline).
    """
    str_rows = [[_cell(v, float_fmt) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_series(
    name: str,
    xs: Sequence[object],
    ys: Sequence[float],
    *,
    float_fmt: str = ".3f",
) -> str:
    """Render one figure series as ``name: x=y`` pairs on a single line.

    Used by the figure-regeneration benches: each plotted line in the paper
    becomes one such series so the "shape" (ordering, crossovers) is visible
    without a plotting backend.
    """
    if len(xs) != len(ys):
        raise ValueError(f"series {name!r}: {len(xs)} xs vs {len(ys)} ys")
    pairs = ", ".join(f"{x}={format(y, float_fmt)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"

