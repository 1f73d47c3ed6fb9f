"""Metrics exporters — Prometheus text exposition and OTLP-style JSON.

Both exporters render one :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
(the same document the Chrome trace embeds as ``otherData.metrics``), so
anything the tracer counted during a run can be scraped or shipped:

* :func:`to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` lines, ``_total``-suffixed counters,
  histograms as summaries with ``quantile`` labels from the registry's
  exact p50/p95/p99);
* :func:`to_otlp_json` — an OTLP-shaped JSON document
  (``resourceMetrics`` → ``scopeMetrics`` → ``metrics`` with
  ``sum`` / ``gauge`` / ``summary`` points).

Determinism: snapshots are sorted by metric name and neither format
emits timestamps, so exporting the same registry twice is byte-identical
— which is what lets ``tests/test_obs_export.py`` pin golden outputs and
the ``tools/check.py`` session-smoke step parse the exposition back.

Service-shaped gauges
---------------------
The resilient session maintains one service-level gauge in the active
tracer's registry (a no-op when tracing is off), sized for the future
``repro serve`` daemon's scrape endpoint:

* ``tune.quarantined`` — configurations the resilient ladder has given
  up on so far (:mod:`repro.tuning.robust`).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any

from repro.obs.metrics import HISTOGRAM_PERCENTILES, MetricsRegistry

#: The service-level gauge name above (documented export surface).
SERVICE_GAUGES: tuple[str, ...] = ("tune.quarantined",)

#: Model-calibration gauges set by ``repro explain`` (per-model Spearman
#: rank correlation of predicted vs measured rates, and top-k regret —
#: how much rate the model's top-k shortlist leaves on the table).
CALIBRATION_GAUGES: tuple[str, ...] = (
    "model.rank_corr",
    "model.topk_regret",
    "estimate.rank_corr",
    "estimate.topk_regret",
)

#: Fleet-health gauges set by the resilient cluster engine
#: (:mod:`repro.cluster.resilient`): surviving GPU count after
#: quarantines, and cumulative validated-corrupt exchange retries.
CLUSTER_GAUGES: tuple[str, ...] = (
    "cluster.gpus_alive",
    "cluster.exchange_retries",
)

#: Every gauge name this repo exports by convention — the one list
#: ``repro top`` and the golden exposition files key off, so a new gauge
#: lands here or it does not exist.
KNOWN_GAUGES: tuple[str, ...] = SERVICE_GAUGES + CALIBRATION_GAUGES + CLUSTER_GAUGES

#: Prefix every exported sample name carries (the Prometheus "namespace").
PROM_NAMESPACE = "repro"

_PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_PROM_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')


class ExportFormatError(ValueError):
    """Exporter output violates the target exposition format."""


def prometheus_name(name: str, kind: str) -> str:
    """Map a dotted registry name onto a Prometheus sample name.

    ``sim.bytes_moved`` → ``repro_sim_bytes_moved`` (counters gain the
    conventional ``_total`` suffix).
    """
    flat = f"{PROM_NAMESPACE}_{name.replace('.', '_')}"
    if kind == "counter" and not flat.endswith("_total"):
        flat += "_total"
    if not _PROM_NAME_RE.match(flat):
        raise ExportFormatError(f"metric name {name!r} maps to invalid {flat!r}")
    return flat


def _fmt(value: float) -> str:
    """Prometheus float rendering (repr keeps exporters byte-stable)."""
    return repr(float(value))


def to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render one registry snapshot as Prometheus text exposition."""
    lines: list[str] = []

    def family(flat: str, source: str, kind: str) -> None:
        lines.append(f"# HELP {flat} repro metric {source}")
        lines.append(f"# TYPE {flat} {kind}")

    for name, value in snapshot.get("counters", {}).items():
        flat = prometheus_name(name, "counter")
        family(flat, name, "counter")
        lines.append(f"{flat} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        flat = prometheus_name(name, "gauge")
        family(flat, name, "gauge")
        lines.append(f"{flat} {_fmt(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        flat = prometheus_name(name, "summary")
        family(flat, name, "summary")
        if summary["count"]:
            # An empty series has no percentiles: its quantile samples are
            # omitted entirely (never 0.0, never NaN) per the exposition
            # convention; sum/count still export so the family is visible.
            for p in HISTOGRAM_PERCENTILES:
                lines.append(
                    f'{flat}{{quantile="{p / 100:g}"}} {_fmt(summary[f"p{p}"])}'
                )
        lines.append(f"{flat}_sum {_fmt(summary['sum'])}")
        lines.append(f"{flat}_count {_fmt(summary['count'])}")
    return "\n".join(lines) + "\n" if lines else ""


def to_otlp_json(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Render one registry snapshot as an OTLP-style JSON document.

    Shape follows OTLP/JSON metrics (``resourceMetrics`` →
    ``scopeMetrics`` → ``metrics``); data points omit ``timeUnixNano``
    because registry snapshots are logical-time documents — stamping a
    wall clock on export is the shipper's job, not the exporter's.
    """
    metrics: list[dict[str, Any]] = []
    for name, value in snapshot.get("counters", {}).items():
        metrics.append({
            "name": name,
            "sum": {
                "dataPoints": [{"asDouble": float(value)}],
                "isMonotonic": True,
                "aggregationTemporality": 2,  # CUMULATIVE
            },
        })
    for name, value in snapshot.get("gauges", {}).items():
        metrics.append({
            "name": name,
            "gauge": {"dataPoints": [{"asDouble": float(value)}]},
        })
    for name, summary in snapshot.get("histograms", {}).items():
        metrics.append({
            "name": name,
            "summary": {
                "dataPoints": [{
                    "count": int(summary["count"]),
                    "sum": float(summary["sum"]),
                    # Empty series: no quantile values (omitted, never NaN).
                    "quantileValues": [
                        {"quantile": p / 100.0,
                         "value": float(summary[f"p{p}"])}
                        for p in HISTOGRAM_PERCENTILES
                    ] if summary["count"] else [],
                }],
            },
        })
    return {
        "resourceMetrics": [{
            "resource": {
                "attributes": [{
                    "key": "service.name",
                    "value": {"stringValue": PROM_NAMESPACE},
                }],
            },
            "scopeMetrics": [{
                "scope": {"name": "repro.obs"},
                "metrics": metrics,
            }],
        }],
    }


def write_metrics(registry: MetricsRegistry, path: str | Path) -> Path:
    """Export ``registry`` to ``path``, format chosen by extension.

    ``.prom`` / ``.txt`` → Prometheus exposition; anything else (``.json``
    recommended) → OTLP-style JSON.
    """
    path = Path(path)
    snapshot = registry.snapshot()
    if path.suffix in (".prom", ".txt"):
        path.write_text(to_prometheus(snapshot))
    else:
        path.write_text(
            json.dumps(to_otlp_json(snapshot), indent=1, sort_keys=True) + "\n"
        )
    return path


# -- exposition-format lint --------------------------------------------------

_SUMMARY_SUFFIXES = ("_sum", "_count")
_KINDS = ("counter", "gauge", "summary")


def lint_prometheus(text: str) -> list[str]:
    """Check exposition text for name/type/help-line conformance.

    Returns a list of problems (empty means clean).  This is the parser
    the ``tools/check.py`` session-smoke step runs over the exporter's own
    output — the exporter cannot drift from the format without the gate
    noticing.  Checked per family: exactly one ``# HELP`` and one
    ``# TYPE`` line, in that order, before any sample; a known type;
    valid sample names belonging to the family (summaries may append
    ``_sum`` / ``_count``); parseable float values; well-formed labels;
    counters ending in ``_total``.
    """
    problems: list[str] = []
    current: str | None = None       # family name from # TYPE
    current_kind: str | None = None
    helped: set[str] = set()
    typed: set[str] = set()

    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                problems.append(f"line {n}: HELP line needs a name and text")
                continue
            name = parts[2]
            if not _PROM_NAME_RE.match(name):
                problems.append(f"line {n}: invalid metric name {name!r}")
            if name in helped:
                problems.append(f"line {n}: duplicate HELP for {name}")
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"line {n}: TYPE line needs a name and a kind")
                continue
            _, _, name, kind = parts
            if name not in helped:
                problems.append(f"line {n}: TYPE for {name} precedes its HELP")
            if name in typed:
                problems.append(f"line {n}: duplicate TYPE for {name}")
            typed.add(name)
            if kind not in _KINDS:
                problems.append(f"line {n}: unknown type {kind!r}")
            if kind == "counter" and not name.endswith("_total"):
                problems.append(
                    f"line {n}: counter {name} should end in _total"
                )
            current, current_kind = name, kind
            continue
        if line.startswith("#"):
            continue  # comments are legal
        m = _PROM_SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {n}: unparseable sample line {line!r}")
            continue
        name = m.group("name")
        base = name
        for suffix in _SUMMARY_SUFFIXES:
            if name.endswith(suffix):
                base = name[: -len(suffix)]
        if current is None or base not in (current,) and name != current:
            problems.append(
                f"line {n}: sample {name} outside its family "
                f"(current family: {current})"
            )
        elif base != name and current_kind != "summary":
            problems.append(
                f"line {n}: {name} sample in non-summary family {current}"
            )
        if name == current and name not in typed:
            problems.append(f"line {n}: sample {name} has no TYPE line")
        labels = m.group("labels")
        if labels:
            for pair in labels.split(","):
                if not _PROM_LABEL_RE.match(pair.strip()):
                    problems.append(f"line {n}: malformed label {pair!r}")
        try:
            value = float(m.group("value"))
        except ValueError:
            problems.append(
                f"line {n}: sample value {m.group('value')!r} is not a float"
            )
        else:
            # "nan" parses as a float, so reject it explicitly: our
            # exporters omit samples for empty series instead of emitting
            # NaN, and a NaN in a scrape poisons every aggregation.
            if math.isnan(value):
                problems.append(f"line {n}: sample value for {name} is NaN")
    return problems


def _sample_registry() -> MetricsRegistry:
    """A deterministic registry exercising all three kinds (for --lint)."""
    reg = MetricsRegistry()
    reg.counter("tune.trials").inc(42)
    reg.counter("sim.fault.throttle").inc(3)
    reg.gauge("tune.inflight").set(8)
    h = reg.histogram("tune.trial_mpoints")
    for v in (110.0, 220.0, 330.0, 440.0, 550.0):
        h.observe(v)
    return reg


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.export`` — export/lint plumbing for the gate.

    ``--lint`` with no file renders the deterministic sample registry in
    both formats, lints the exposition and parses the OTLP JSON back;
    with files, lints each as Prometheus exposition text.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Prometheus/OTLP exporter self-lint "
                    "(the tools/check.py session-smoke step)",
    )
    parser.add_argument("paths", nargs="*", metavar="EXPOSITION")
    parser.add_argument("--lint", action="store_true",
                        help="lint exposition files (or the built-in "
                             "sample export when no files are given)")
    args = parser.parse_args(argv)

    if not args.lint:
        print(to_prometheus(_sample_registry().snapshot()), end="")
        return 0

    status = 0
    if not args.paths:
        snapshot = _sample_registry().snapshot()
        problems = lint_prometheus(to_prometheus(snapshot))
        doc = to_otlp_json(snapshot)
        if len(doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]) == 0:
            problems.append("OTLP export produced no metrics")
        for problem in problems:
            print(f"sample export: {problem}")
            status = 1
        if status == 0:
            print("sample export: ok (prometheus + otlp)")
        return status
    for raw in args.paths:
        problems = lint_prometheus(Path(raw).read_text())
        for problem in problems:
            print(f"{raw}: {problem}")
            status = 1
        if not problems:
            print(f"{raw}: ok")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
