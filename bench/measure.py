"""Statistics and host-speed normalisation for the wall-clock benchmark.

Apart from the reference loops and the CPU clock, everything here is a
pure function of its arguments, so ``test_bench.py`` can pin the rules
the benchmark reports by:

* a percentile is reported only when at least :data:`MIN_BEYOND` samples
  lie beyond it (p90 needs 100 samples, p50 needs 20);
* timings are converted to *reference units* with calibration samples
  taken around them (:func:`norm_time`, :func:`norm_split`), throughputs
  the other way (:func:`norm_rate`);
* the run-to-run spread is the interquartile distance as a share of the
  median, computed the way ``statistics.quantiles(values, n=4)`` does.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np

#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10

#: An op is normalised by the calibration samples this close to it (s).
CALIB_WINDOW_S = 1.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _python_loop() -> float:
    """Interpreter-bound work (small objects, attribute and dict churn,
    string formatting) plus NumPy dispatch on tiny arrays: the shape of
    plan building, tuning and module import."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(16000):
        cell = _Cell(i & 127, i)
        table[cell.key] = table.get(cell.key, 0) + cell.value
        acc += len(str(cell.key))
    small = np.arange(64, dtype=np.float64)
    for _ in range(300):
        small = np.sqrt(small * 1.0001 + 1.0)
    return acc + float(small[0])


_ARRAYS: list[np.ndarray] = []


def _numpy_loop() -> float:
    """Memory-streaming NumPy work, the shape of the cluster numerics: a
    3-point stencil over a 4 MiB float32 grid, four times.  It writes into
    buffers of its own, so how the program left the heap cannot change
    what it costs."""
    if not _ARRAYS:
        grid = np.random.default_rng(0).random((16, 256, 256)).astype(np.float32)
        _ARRAYS.extend((grid, np.zeros_like(grid[2:]), np.zeros_like(grid[2:])))
    grid, out, tmp = _ARRAYS
    total = 0.0
    for _ in range(4):
        np.multiply(grid[2:], 0.25, out=out)
        np.multiply(grid[1:-1], 0.5, out=tmp)
        np.add(out, tmp, out=out)
        np.multiply(grid[:-2], 0.25, out=tmp)
        np.add(out, tmp, out=out)
        total += float(out.sum())
    return total


#: Reference loop -> (loop, its median in ms, measured between ops of the
#: benchmark at the commit that introduced it; see README.md,
#: "Normalisation").  The loops' work and the references are fixed once;
#: changing either silently changes every later result's units.  A
#: workload's calibration names one loop or several joined by ``+``,
#: which run back to back and count as one sample.
CALIBRATIONS = {
    "python": (_python_loop, 6.2),
    "numpy": (_numpy_loop, 7.6),
}


def reference_ms(kind: str) -> float:
    """The reference time of a calibration (summed over its loops)."""
    return sum(CALIBRATIONS[k][1] for k in kind.split("+"))


def calib_loop(kind: str = "python") -> float:
    """Run a calibration's loops once; returns their wall time in ms."""
    start = time.perf_counter()
    results = [CALIBRATIONS[k][0]() for k in kind.split("+")]
    elapsed = (time.perf_counter() - start) * 1000.0
    if not all(math.isfinite(r) and r > 0 for r in results):
        raise RuntimeError("calibration loop produced an impossible result")
    return elapsed


def calib_sample(origin: float, kind: str = "python") -> tuple[float, float]:
    """One calibration sample: (start, seconds after ``origin``; wall ms)."""
    return time.perf_counter() - origin, calib_loop(kind)


def local_calib(samples: list[tuple[float, float]], t: float) -> float:
    """Median calibration time of the samples within :data:`CALIB_WINDOW_S`
    of ``t`` (the nearest three when none are that close)."""
    near = [ms for s, ms in samples if abs(s - t) <= CALIB_WINDOW_S]
    if not near:
        near = [ms for _s, ms in sorted(samples, key=lambda x: abs(x[0] - t))[:3]]
    return statistics.median(near)


def cpu_seconds() -> float:
    """CPU time of this process plus that of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def norm_time(raw: float, calib_ms: float, kind: str = "python") -> float:
    """A timing in reference units: ``raw * reference_ms / calib_ms``.

    On a host running slower than the reference the calibration loop
    takes longer too, so the normalised value stays put.
    """
    return raw * reference_ms(kind) / calib_ms


def norm_split(wall: float, cpu: float, calib_ms: float, kind: str = "python") -> float:
    """Normalise only the CPU part of a wall time.

    The calibration loop measures CPU speed; time spent waiting (fsync,
    process start-up I/O) does not scale with it and is kept as measured.
    """
    cpu = min(cpu, wall)
    return norm_time(cpu, calib_ms, kind) + (wall - cpu)


def norm_rate(raw: float, calib_ms: float, kind: str = "python") -> float:
    """A throughput in reference units: ``raw * calib_ms / reference_ms``."""
    return raw * calib_ms / reference_ms(kind)


def percentile(values: list[float], pct: float) -> float | None:
    """The ``pct``-th percentile (linear interpolation), or ``None``.

    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it,
    because such a tail is one or two outliers, not a percentile.
    """
    n = len(values)
    if n == 0 or n * (100.0 - pct) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(values)
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


class Tally:
    """Counts ops attempted and failed; a failure is a raise or a bad output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def relative_delta(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` (positive = worse)."""
    if better == "lower":
        return (new - base) / base
    return (base - new) / base


def compare_metric(
    base: list[float], new: list[float], bound: float, better: str
) -> tuple[float, str]:
    """Delta of the medians against ``bound``: ``ok``, ``worse`` or
    ``unresolved`` (either side's own spread exceeds the bound)."""
    delta = relative_delta(statistics.median(base), statistics.median(new), better)
    if spread(base) > bound or spread(new) > bound:
        return delta, "unresolved"
    return delta, "worse" if delta > bound else "ok"
