"""Structured event stream — the live telemetry plane of the tuner.

The tracer (:mod:`repro.obs.tracer`) and the trial journal
(:mod:`repro.tuning.robust`) are both *post-hoc*: spans become visible
when a trace is exported, journal records when a session is resumed.
This module adds the third plane — a schema-versioned stream of small
structured events, appended as a campaign runs (each line written at
once, fsynced per event or with its trial batch, like the journal), so
long tuning sessions and the future ``repro serve`` daemon can be
observed *while* they run (``repro top`` tails it).

Design contracts, in decreasing order of importance:

1. **No-op by default.**  With no sink installed every emission point is
   one :class:`~contextvars.ContextVar` lookup, mirroring the tracer's
   disabled path (overhead pinned by
   ``tests/test_obs_events.py::test_disabled_overhead``).  ``faults=None``
   plus no sink means zero perturbation of any simulated number —
   ``repro bench diff`` stays bit-identical with the event layer merged.
2. **Determinism.**  Events carry no wall-clock timestamps or pids —
   only a per-sink sequence number and payload fields that are pure
   functions of the (seeded) campaign.  Trial-plane events are derived
   from completed :class:`~repro.tuning.evaluator.TrialOutcome` records
   and emitted by the trial runner **in input order**, never live from
   inside a measurement, so two runs of the same storm campaign write
   byte-identical stream files — the same guarantee the journal gives,
   extended to telemetry.

The stream file is a record log (:mod:`repro.obs.recordlog`, kind
``stream``): line 1 is a header binding the stream to the schema version
and session key; every further line is one event object.
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator


logger = logging.getLogger("repro.obs.events")

#: Version stamped into stream headers and crash reports — bump on
#: incompatible changes to the catalog or record layout.
EVENTS_SCHEMA_VERSION = 1

_STREAM_TOOL = "repro.obs.events"
_FLIGHT_TOOL = "repro.obs.flight"


class EventSchemaError(ValueError):
    """An event (or a stream document) violates the catalog/schema."""


@dataclass(frozen=True)
class EventSpec:
    """One catalog entry: an event name and its contract.

    ``fields`` documents the payload keys an emitter is expected to
    provide (extra keys are allowed; the catalog is a floor, not a
    straitjacket).
    """

    name: str
    doc: str
    fields: tuple[str, ...] = ()


#: The event catalog (mirrored as a table in docs/OBSERVABILITY.md).
EVENT_SPECS: tuple[EventSpec, ...] = (
    # -- session plane (repro.tuning.robust) ------------------------------
    EventSpec("session.start", "a resilient tuning session begins",
              ("session", "method")),
    EventSpec("session.tier_start", "one degradation-ladder tier begins",
              ("tier",)),
    EventSpec("session.tier_failed", "a tier produced no usable winner",
              ("tier", "error")),
    EventSpec("session.finished", "the session produced a winner",
              ("method", "best_config", "best_mpoints")),
    EventSpec("session.crash", "an unhandled error ended the session",
              ("error",)),
    # -- sweep plane (the three tuners) ------------------------------------
    EventSpec("sweep.start", "one tuner invocation begins",
              ("method", "device", "space_size")),
    EventSpec("sweep.finished", "one tuner invocation completed",
              ("method", "evaluated")),
    # -- trial plane (derived from TrialOutcome, input order) --------------
    EventSpec("trial.measured", "a configuration produced a usable rate",
              ("config", "mpoints_per_s", "attempts")),
    EventSpec("trial.rejected", "a configuration could not launch",
              ("config", "reason")),
    EventSpec("trial.quarantined", "retries exhausted; config excluded",
              ("config", "attempts", "faults")),
    EventSpec("trial.retried", "a trial needed more than one attempt",
              ("config", "retries")),
    EventSpec("trial.replayed", "a journaled outcome was reused, not re-run",
              ("config", "status")),
    # -- fault plane (repro.gpusim.faults) ---------------------------------
    EventSpec("fault.observed", "a fault kind touched a finished trial",
              ("config", "kind")),
    # -- archive plane (repro.obs.archive) ---------------------------------
    EventSpec("archive.start", "a trial provenance archive opened",
              ("session",)),
    EventSpec("archive.finished", "the trial provenance archive is complete",
              ("records",)),
    # -- cluster plane (repro.cluster.resilient) ---------------------------
    EventSpec("cluster.run.start", "a resilient stepping campaign begins",
              ("session", "gpus", "steps")),
    EventSpec("cluster.run.finished", "the campaign completed all steps",
              ("steps", "gpus_alive")),
    EventSpec("cluster.exchange.retry", "a validated-corrupt halo exchange "
              "is being retried", ("step", "attempt", "error")),
    EventSpec("cluster.gpu.quarantined", "a GPU dropped out and left the fleet",
              ("step", "gpu")),
    EventSpec("cluster.redecompose", "surviving slabs were re-split over the "
              "smaller fleet", ("step", "gpus")),
    EventSpec("cluster.checkpoint.written", "an atomic grid snapshot was "
              "published", ("step",)),
    EventSpec("cluster.checkpoint.restored", "a campaign resumed from a "
              "snapshot", ("step",)),
)

EVENT_CATALOG: dict[str, EventSpec] = {spec.name: spec for spec in EVENT_SPECS}


@dataclass(frozen=True)
class Event:
    """One emitted event: catalog name, per-sink sequence, payload.

    Frozen — an event is a record, not a builder.  ``fields`` is kept as
    a sorted tuple of pairs so events are hashable and their JSON form
    (:meth:`to_obj`) is key-stable, which is what makes two streams of
    the same campaign byte-comparable.
    """

    name: str
    seq: int
    fields: tuple[tuple[str, Any], ...] = ()

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"event": self.name, "seq": self.seq}
        obj.update(self.fields)
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "Event":
        if "event" not in obj or "seq" not in obj:
            raise EventSchemaError(
                f"event record needs 'event' and 'seq' keys: {obj!r}"
            )
        payload = tuple(sorted(
            (k, v) for k, v in obj.items() if k not in ("event", "seq")
        ))
        return cls(name=str(obj["event"]), seq=int(obj["seq"]), fields=payload)


def validate_event(obj: Any, *, path: str = "$") -> Event:
    """Validate one decoded stream record against the catalog.

    Checks the required keys, that the name is catalogued, and that the
    catalog's documented payload fields are present.  Returns the parsed
    :class:`Event`; raises :class:`EventSchemaError` naming ``path``.
    """
    if not isinstance(obj, dict):
        raise EventSchemaError(f"{path}: event must be an object, got {type(obj).__name__}")
    event = Event.from_obj(obj)
    spec = EVENT_CATALOG.get(event.name)
    if spec is None:
        raise EventSchemaError(f"{path}: unknown event {event.name!r}")
    present = {k for k, _ in event.fields}
    missing = [f for f in spec.fields if f not in present]
    if missing:
        raise EventSchemaError(
            f"{path}: event {event.name!r} missing field(s) {missing}"
        )
    if event.seq < 0:
        raise EventSchemaError(f"{path}: seq must be >= 0, got {event.seq}")
    return event


# -- sinks -------------------------------------------------------------------


class EventSink:
    """Base sink: checks the catalog and assigns sequence numbers.

    Subclasses implement :meth:`write`; :meth:`emit` is the entry point
    the instrumentation helpers call.
    """

    def __init__(self) -> None:
        self._seq = 0

    def emit(self, name: str, **fields: Any) -> Event | None:
        spec = EVENT_CATALOG.get(name)
        if spec is None:
            raise EventSchemaError(f"cannot emit uncatalogued event {name!r}")
        event = Event(
            name=name, seq=self._seq, fields=tuple(sorted(fields.items()))
        )
        self._seq += 1
        self.write(event)
        return event

    def write(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class MemoryEventSink(EventSink):
    """In-memory sink (tests and programmatic consumers)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[Event] = []

    def write(self, event: Event) -> None:
        self.events.append(event)


class JsonlEventSink(EventSink):
    """Append-only JSONL event stream — a record log of kind ``stream``.

    Line 1 is a header binding the stream to the schema version and an
    optional session key; each further line is one event.  Format and
    crash discipline are :mod:`repro.obs.recordlog`'s.
    """

    def __init__(self, path: str | Path, *, session: str | None = None) -> None:
        # recordlog is imported where it is used, never at module level:
        # the package imports this module, and ``python -m
        # repro.obs.recordlog`` must be the first to import its own module.
        from repro.obs import recordlog

        super().__init__()
        self.path = Path(path)
        recordlog.create(self.path, recordlog.make_header(
            "stream", _STREAM_TOOL, EVENTS_SCHEMA_VERSION, session
        ))

    def write(self, event: Event) -> None:
        from repro.obs import recordlog

        recordlog.append(self.path, event.to_obj())


class TeeEventSink(EventSink):
    """Fan one emission out to several sinks.

    Each child keeps its own sequence counter, so a persistent stream and
    a flight recorder can share the emission points.
    """

    def __init__(self, sinks: list[EventSink]) -> None:
        super().__init__()
        self.sinks = sinks

    def emit(self, name: str, **fields: Any) -> Event | None:
        last: Event | None = None
        for sink in self.sinks:
            out = sink.emit(name, **fields)
            last = out if out is not None else last
        return last

    def write(self, event: Event) -> None:  # pragma: no cover - unused
        raise NotImplementedError("TeeEventSink dispatches via emit()")


class FlightRecorder(EventSink):
    """Bounded ring buffer of recent events — the crash forensics plane.

    Keeps the last ``capacity`` events and dumps them as a JSON crash
    report on demand.  Wired through
    :class:`repro.tuning.robust.RobustTuningSession`, which dumps on any
    unhandled error escaping the campaign.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: deque[Event] = deque(maxlen=capacity)

    def write(self, event: Event) -> None:
        self.events.append(event)

    def dump(
        self,
        path: str | Path,
        *,
        reason: str,
        error: BaseException | None = None,
        session: str | None = None,
        extra: dict[str, Any] | None = None,
    ) -> Path:
        """Write the crash report; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        report: dict[str, Any] = {
            "report": _FLIGHT_TOOL,
            "version": EVENTS_SCHEMA_VERSION,
            "reason": reason,
            "session": session,
            "dropped": max(0, self._seq - len(self.events)),
            "events": [e.to_obj() for e in self.events],
        }
        if error is not None:
            report["error"] = {
                "type": type(error).__name__,
                "message": str(error),
            }
        if extra:
            report["extra"] = extra
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        logger.warning("wrote crash report %s (%s)", path, reason)
        return path


# -- the contextvar plumbing -------------------------------------------------

#: The contextvar every emission point consults.  ``None`` (the default)
#: means the event layer is off and the hook is one lookup + branch.
_ACTIVE: ContextVar[EventSink | None] = ContextVar(
    "repro_obs_events", default=None
)


def current_sink() -> EventSink | None:
    """The sink active in this context, or ``None`` when events are off."""
    return _ACTIVE.get()


@contextmanager
def event_stream(sink: EventSink) -> Iterator[EventSink]:
    """Install ``sink`` for the ``with`` body; yields it back."""
    token = _ACTIVE.set(sink)
    try:
        yield sink
    finally:
        _ACTIVE.reset(token)


def emit(name: str, **fields: Any) -> Event | None:
    """Emit one event to the active sink (no-op when events are off)."""
    sink = _ACTIVE.get()
    if sink is None:
        return None
    return sink.emit(name, **fields)


# -- reading a stream back ---------------------------------------------------


def read_events(
    path: str | Path, *, strict: bool = False
) -> tuple[dict[str, Any], list[Event]]:
    """Parse one stream file; returns ``(header, events)``.

    Reads through :func:`repro.obs.recordlog.read`: a torn final line is
    dropped unless ``strict``.  With ``strict`` every record is also
    validated against the catalog — the mode of :func:`validate_stream`.
    """
    from repro.obs import recordlog

    header, records = recordlog.read(
        path, kind="stream", tool=_STREAM_TOOL, version=EVENTS_SCHEMA_VERSION,
        error=EventSchemaError, strict=strict,
    )
    if strict:
        return header, [validate_event(obj, path=f"{path}:{i}") for i, obj in records]
    return header, [Event.from_obj(obj) for _i, obj in records]


def validate_stream(path: str | Path) -> int:
    """Strictly validate a stream file; returns the event count."""
    _header, events = read_events(path, strict=True)
    return len(events)
