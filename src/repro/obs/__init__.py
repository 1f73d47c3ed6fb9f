"""repro.obs — profiler for the simulated GPU.

The nvprof/Nsight analogue for :mod:`repro.gpusim`: a near-zero-overhead
span tracer with a metrics registry (:mod:`repro.obs.tracer`,
:mod:`repro.obs.metrics`), device-timeline reconstruction from the
analytic cycle model (:mod:`repro.obs.simtrace`), the hardware-counter
analogue set (:mod:`repro.obs.counters`) with ranked bottleneck
attribution (:mod:`repro.obs.attribution`), Chrome trace-event and
bench-telemetry exporters (:mod:`repro.obs.chrome`,
:mod:`repro.obs.telemetry`), the perf-regression sentinel behind
``repro bench diff`` (:mod:`repro.obs.regress`), a text flame/summary
report (:mod:`repro.obs.summary`), and the trace schema + validator the
whole stack shares (:mod:`repro.obs.schema`).  The *live* telemetry
plane is :mod:`repro.obs.events` (schema-versioned structured event
stream + flight recorder, tailed by ``repro top``) with metrics export
to Prometheus/OTLP in :mod:`repro.obs.export`.

Tracing is disabled unless a :class:`Tracer` is installed with
:func:`tracing`; instrumentation points cost one contextvar lookup when
off.  See ``docs/OBSERVABILITY.md`` for the event taxonomy and how to
open exported traces in Perfetto.
"""

from repro.obs.events import (
    EVENT_CATALOG,
    EVENTS_SCHEMA_VERSION,
    Event,
    EventSchemaError,
    EventSink,
    EventSpec,
    FlightRecorder,
    JsonlEventSink,
    MemoryEventSink,
    TeeEventSink,
    current_sink,
    emit,
    event_stream,
    read_events,
    validate_event,
    validate_stream,
)
from repro.obs.export import (
    SERVICE_GAUGES,
    ExportFormatError,
    lint_prometheus,
    to_otlp_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.attribution import (
    AttributionReport,
    Limiter,
    attribute,
    limiter_name,
    rank_limiters,
)
from repro.obs.chrome import to_chrome_trace, write_chrome_trace
from repro.obs.counters import (
    COUNTER_KEYS,
    CounterSchemaError,
    CounterSet,
    derive_counters,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_metric_name,
)
from repro.obs.schema import (
    CATEGORIES,
    SCHEMA_VERSION,
    TraceSchemaError,
    validate_trace,
)
from repro.obs.regress import DiffReport, diff_baseline
from repro.obs.summary import reconcile_failures, summarize, top_planes
from repro.obs.telemetry import (
    PROFILE_SCHEMA_VERSION,
    TelemetryCollector,
    TelemetryRecord,
    load_profile,
    record_from_report,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    current_tracer,
    maybe_span,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "tracing",
    "maybe_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "validate_metric_name",
    "to_chrome_trace",
    "write_chrome_trace",
    "summarize",
    "top_planes",
    "reconcile_failures",
    "TelemetryCollector",
    "TelemetryRecord",
    "record_from_report",
    "load_profile",
    "PROFILE_SCHEMA_VERSION",
    "COUNTER_KEYS",
    "CounterSet",
    "CounterSchemaError",
    "derive_counters",
    "AttributionReport",
    "Limiter",
    "attribute",
    "limiter_name",
    "rank_limiters",
    "DiffReport",
    "diff_baseline",
    "CATEGORIES",
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "validate_trace",
    "EVENT_CATALOG",
    "EVENTS_SCHEMA_VERSION",
    "Event",
    "EventSchemaError",
    "EventSink",
    "EventSpec",
    "FlightRecorder",
    "JsonlEventSink",
    "MemoryEventSink",
    "TeeEventSink",
    "current_sink",
    "emit",
    "event_stream",
    "read_events",
    "validate_event",
    "validate_stream",
    "SERVICE_GAUGES",
    "ExportFormatError",
    "lint_prometheus",
    "to_otlp_json",
    "to_prometheus",
    "write_metrics",
]
