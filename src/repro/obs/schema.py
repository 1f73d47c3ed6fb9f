"""Trace schema: the event taxonomy and a structural validator.

The Chrome trace-event documents produced by :mod:`repro.obs.chrome`
follow the schema documented in ``docs/OBSERVABILITY.md``:

* top level: ``{"traceEvents": [...], "displayTimeUnit": "ms",
  "otherData": {"schema_version", "tool", "metrics"}}``;
* every event carries ``name``/``cat``/``ph``/``pid``/``tid``/``ts``;
* ``ph`` is ``"X"`` (complete span, with ``dur >= 0``), ``"i"``
  (instant) or ``"M"`` (metadata);
* non-metadata categories come from :data:`CATEGORIES`;
* device-track ``sim.kernel`` events carry a ``breakdown`` arg whose
  keys are exactly :data:`repro.gpusim.report.BREAKDOWN_KEYS` — the one
  frozen component-name set shared by ``SimReport``, the trace schema,
  and the reconciliation tests — and (since schema version 2) a
  ``counters`` arg whose keys are exactly
  :data:`repro.obs.counters.COUNTER_KEYS` plus ``occupancy_limiter``.

:func:`validate_trace` is the self-check run by ``tools/check.py`` and
the golden-trace test; it raises :class:`TraceSchemaError` with the path
of the first offending event.
"""

from __future__ import annotations

from typing import Any

#: Version stamped into ``otherData`` — bump on incompatible changes.
#: v2: ``sim.kernel`` spans carry the hardware-counter analogue set.
SCHEMA_VERSION = 2

#: Span/event categories (the taxonomy of docs/OBSERVABILITY.md).
CAT_SIM_KERNEL = "sim.kernel"        #: one simulated launch (device track)
CAT_SIM_WAVE = "sim.wave"            #: one scheduling wave within a launch
CAT_SIM_PLANE = "sim.plane"          #: one sampled z-plane within a wave
CAT_SIM_COMPONENT = "sim.component"  #: per-wave cost-component lane
CAT_TUNE_RUN = "tune.run"            #: one whole tuner invocation (host)
CAT_TUNE_TRIAL = "tune.trial"        #: one evaluated/rejected configuration
CAT_HARNESS = "harness.experiment"   #: experiment-driver scope (host)
CAT_CLI = "cli"                      #: CLI command scope (host)
#: One injected fault (host instant; see ``repro.gpusim.faults``).  Added
#: after the v2 freeze as a pure extension: traces without faults are
#: byte-identical to pre-fault v2 traces, so no version bump.
CAT_SIM_FAULT = "sim.fault"

CATEGORIES = frozenset({
    CAT_SIM_KERNEL,
    CAT_SIM_WAVE,
    CAT_SIM_PLANE,
    CAT_SIM_COMPONENT,
    CAT_SIM_FAULT,
    CAT_TUNE_RUN,
    CAT_TUNE_TRIAL,
    CAT_HARNESS,
    CAT_CLI,
})

#: Component lanes of the device track; ``component:<name>`` thread names.
COMPONENT_LANES = ("mem", "compute", "exposed", "sync", "overhead")

_PHASES = frozenset({"X", "i", "M"})
_REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "pid", "tid", "ts")


class TraceSchemaError(ValueError):
    """A trace document violates the documented schema."""


def _fail(path: str, message: str) -> None:
    raise TraceSchemaError(f"{path}: {message}")


def validate_trace(trace: dict[str, Any]) -> None:
    """Validate one exported trace document; raises on the first violation."""
    from repro.gpusim.report import BREAKDOWN_KEYS  # deferred: no import cycle
    from repro.obs.counters import COUNTER_KEYS

    if not isinstance(trace, dict):
        _fail("$", f"trace must be an object, got {type(trace).__name__}")
    for key in ("traceEvents", "displayTimeUnit", "otherData"):
        if key not in trace:
            _fail("$", f"missing top-level key {key!r}")
    other = trace["otherData"]
    if not isinstance(other, dict) or "schema_version" not in other:
        _fail("$.otherData", "must be an object with 'schema_version'")
    if other["schema_version"] != SCHEMA_VERSION:
        _fail(
            "$.otherData.schema_version",
            f"expected {SCHEMA_VERSION}, got {other['schema_version']!r}",
        )
    events = trace["traceEvents"]
    if not isinstance(events, list):
        _fail("$.traceEvents", "must be a list")

    for i, ev in enumerate(events):
        path = f"$.traceEvents[{i}]"
        if not isinstance(ev, dict):
            _fail(path, "event must be an object")
        for key in _REQUIRED_EVENT_KEYS:
            if key not in ev:
                _fail(path, f"missing key {key!r}")
        ph = ev["ph"]
        if ph not in _PHASES:
            _fail(path, f"unknown phase {ph!r}")
        if ph == "M":
            continue
        if ev["cat"] not in CATEGORIES:
            _fail(path, f"unknown category {ev['cat']!r}")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            _fail(path, f"ts must be a non-negative number, got {ev['ts']!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(path, f"complete event needs dur >= 0, got {dur!r}")
        args = ev.get("args", {})
        if not isinstance(args, dict):
            _fail(path, "args must be an object")
        if ev["cat"] == CAT_SIM_KERNEL:
            breakdown = args.get("breakdown")
            if not isinstance(breakdown, dict):
                _fail(path, "sim.kernel event needs a 'breakdown' arg")
            if set(breakdown) != set(BREAKDOWN_KEYS):
                _fail(
                    path,
                    "breakdown keys "
                    f"{sorted(breakdown)} != {sorted(BREAKDOWN_KEYS)}",
                )
            counters = args.get("counters")
            if not isinstance(counters, dict):
                _fail(path, "sim.kernel event needs a 'counters' arg")
            expected = set(COUNTER_KEYS) | {"occupancy_limiter"}
            if set(counters) != expected:
                _fail(
                    path,
                    "counter keys "
                    f"{sorted(counters)} != {sorted(expected)}",
                )
