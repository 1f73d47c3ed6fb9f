"""Span tracer — the simulated GPU's nvprof/Nsight timeline recorder.

Two clocks coexist in one trace:

* the **host track** records wall-clock spans (tuner trials, experiment
  drivers) measured with ``time.perf_counter``;
* the **device track** records *simulated* time in cycles.  The timing
  model is analytic — it never steps through time — so device spans are
  reconstructed post-hoc from a :class:`~repro.gpusim.timing.TimingResult`
  (see :mod:`repro.obs.simtrace`) and placed on a monotonically advancing
  cycle cursor, one launch after another.

Tracing is **off by default** and costs one :class:`~contextvars.ContextVar`
lookup per instrumentation point when disabled (see
``tests/test_obs_tracer.py::test_disabled_overhead``).  Enable it with::

    from repro.obs import Tracer, tracing

    with tracing() as tracer:
        simulate(plan, "gtx580", (512, 512, 256))
    write_chrome_trace(tracer, "trace.json")

The active tracer is contextvar-scoped, so concurrent tuning runs (e.g.
thread pools) each see their own tracer rather than a shared global.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator

from repro.obs.metrics import MetricsRegistry

#: Track (Chrome-trace "process") names.
HOST_TRACK = "host"
DEVICE_TRACK = "device"


@dataclass
class Span:
    """One recorded interval.

    ``begin``/``dur`` are microseconds since trace start on the host
    track and *cycles* since trace start on the device track.  ``tid``
    names the timeline lane inside the track (e.g. ``"waves"``,
    ``"component:mem"``); ``depth`` records host-span nesting for the
    text report.  ``instant`` spans have zero duration by construction.
    """

    name: str
    cat: str
    track: str
    tid: str
    begin: float
    dur: float
    depth: int = 0
    args: dict[str, Any] = field(default_factory=dict)
    instant: bool = False


class Tracer:
    """Collects spans and metrics for one profiling session.

    Parameters
    ----------
    plane_limit:
        Per-plane device spans emitted per scheduling wave (planes within
        a wave are identical under the analytic model, so a small sample
        plus the wave-level aggregate loses nothing; the wave span's
        ``planes`` arg records the true count).
    """

    def __init__(self, *, plane_limit: int = 4) -> None:
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self.plane_limit = plane_limit
        self._t0 = time.perf_counter()
        self._sim_cursor = 0.0
        self._host_depth = 0

    # -- host (wall clock) ------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    @contextmanager
    def span(self, name: str, cat: str, **args: Any) -> Iterator[Span]:
        """Record a wall-clock span around a ``with`` body.

        The yielded :class:`Span` is live: mutate ``span.args`` inside the
        body to attach results (measured rate, rejection reason, ...).
        """
        sp = Span(
            name=name, cat=cat, track=HOST_TRACK, tid="main",
            begin=self._now_us(), dur=0.0, depth=self._host_depth, args=args,
        )
        self.spans.append(sp)
        self._host_depth += 1
        try:
            yield sp
        finally:
            self._host_depth -= 1
            sp.dur = self._now_us() - sp.begin

    def instant(self, name: str, cat: str, **args: Any) -> Span:
        """Record a zero-duration host marker (e.g. a rejected config)."""
        sp = Span(
            name=name, cat=cat, track=HOST_TRACK, tid="main",
            begin=self._now_us(), dur=0.0, depth=self._host_depth,
            args=args, instant=True,
        )
        self.spans.append(sp)
        return sp

    # -- device (simulated cycles) ----------------------------------------

    def alloc_cycles(self, cycles: float) -> float:
        """Reserve ``[base, base + cycles)`` on the device timeline.

        Successive simulated launches land back to back, which is what
        makes a tuning sweep render as one continuous device timeline.
        """
        base = self._sim_cursor
        self._sim_cursor += cycles
        return base

    def device_span(
        self, name: str, cat: str, tid: str, begin: float, dur: float,
        **args: Any,
    ) -> Span:
        """Record one device-track span at an explicit cycle interval."""
        sp = Span(
            name=name, cat=cat, track=DEVICE_TRACK, tid=tid,
            begin=begin, dur=dur, args=args,
        )
        self.spans.append(sp)
        return sp

    # -- queries -----------------------------------------------------------

    def device_spans(self, cat: str | None = None) -> list[Span]:
        """Device-track spans, optionally filtered by category."""
        return [
            s for s in self.spans
            if s.track == DEVICE_TRACK and (cat is None or s.cat == cat)
        ]

    def host_spans(self, cat: str | None = None) -> list[Span]:
        """Host-track spans, optionally filtered by category."""
        return [
            s for s in self.spans
            if s.track == HOST_TRACK and (cat is None or s.cat == cat)
        ]


#: The contextvar consulted by every instrumentation point.  ``None``
#: (the default) means tracing is disabled and the hook is a no-op.
_ACTIVE: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def current_tracer() -> Tracer | None:
    """The tracer active in this context, or ``None`` when disabled."""
    return _ACTIVE.get()


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active tracer's registry (no-op when untraced).

    The service-gauge hook (``tune.quarantined``): the engines call
    this at state transitions and the cost with tracing off stays one
    contextvar lookup, preserving the disabled-path bound.
    """
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.metrics.gauge(name).set(value)


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Enable tracing for the ``with`` body; yields the active tracer."""
    tracer = tracer if tracer is not None else Tracer()
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def maybe_span(
    tracer: Tracer | None, name: str, cat: str, **args: Any
) -> ContextManager[Span | None]:
    """A host span when tracing is on, an inert context otherwise.

    Lets instrumented call sites keep a single code path::

        with maybe_span(tracer, label, "tune.trial") as sp:
            report = executor.run(...)
            if sp is not None:
                sp.args["mpoints_per_s"] = report.mpoints_per_s
    """
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat, **args)
