"""Decision-provenance analysis — the engine behind ``repro explain``.

Everything here is a pure function of a parsed trial archive
(:mod:`repro.obs.archive`), so the explain output inherits the archive's
determinism contract for free: same archive bytes in, same report,
landscape and calibration bytes out.

Three products, matching the three questions a tuning run leaves open:

* :func:`explain` — *why did the winner win?*  Ranks the measured
  records, then runs winner-vs-runner-up differential attribution
  (:func:`repro.obs.attribution.differential`) over their archived
  clean-launch :class:`~repro.obs.counters.CounterSet`\\ s.
* :func:`landscape_csv` / :func:`landscape_specs` — *what does the
  search space look like?*  A flat CSV of every record plus one
  Vega-Lite heatmap spec per ``(RX, RY)`` slice of the
  ``(TX, TY)`` plane — the text-based-figure pattern the paper-artifact
  pipeline reuses.
* :func:`calibrate` — *can the models be trusted?*  Spearman rank
  correlation and top-k regret of predicted-vs-measured rates for both
  the :class:`~repro.tuning.perfmodel.PaperModel` prediction and the
  codegen-time :class:`~repro.analysis.estimate.PerfEstimate`, exported
  as the ``CALIBRATION_GAUGES`` of :mod:`repro.obs.export`.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.obs.archive import ArchiveRecord
from repro.obs.attribution import DifferentialReport, differential
from repro.obs.metrics import MetricsRegistry

#: How many predicted-best configs top-k regret considers by default.
DEFAULT_TOP_K = 3

#: Columns of :func:`landscape_csv`, in order.
CSV_COLUMNS: tuple[str, ...] = (
    "tx", "ty", "rx", "ry", "label", "status", "mpoints_per_s",
    "predicted", "estimate_mpoints_per_s", "attempts", "faults", "replayed",
)


# -- ranking -----------------------------------------------------------------


def measured_ranking(records: Sequence[ArchiveRecord]) -> list[ArchiveRecord]:
    """Measured records, best rate first.

    Ties break on the config tuple so the ranking — and therefore the
    winner/runner-up choice — is a pure function of the archive, exactly
    like the tuners' own stable sort.
    """
    return sorted(
        (r for r in records if r.measured),
        key=lambda r: (-r.mpoints_per_s, r.config),
    )


# -- rank statistics ---------------------------------------------------------


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation (average ranks on ties).

    ``None`` when undefined: fewer than two pairs, or either series
    constant (zero rank variance).
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        return None
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def topk_regret(
    pairs: Sequence[tuple[float, float]], k: int = DEFAULT_TOP_K
) -> float | None:
    """How much rate trusting the model's top-k would leave on the table.

    ``pairs`` is ``(predicted, measured)`` per config.  The regret is
    ``(best - best_among_predicted_top_k) / best`` — 0.0 when the true
    winner ranks inside the model's top k, approaching 1.0 as the model
    shortlists only slow configs.  ``None`` for an empty series or a
    zero best rate.
    """
    if not pairs or k < 1:
        return None
    best = max(m for _p, m in pairs)
    if best <= 0.0:
        return None
    shortlist = sorted(pairs, key=lambda pm: (-pm[0], pm[1]))[:k]
    best_in_k = max(m for _p, m in shortlist)
    return (best - best_in_k) / best


# -- calibration -------------------------------------------------------------


def _estimate_rate(record: ArchiveRecord) -> float | None:
    est = record.estimate
    if not est:
        return None
    rate = est.get("mpoints_per_s")
    return float(rate) if isinstance(rate, (int, float)) else None


def calibrate(
    records: Sequence[ArchiveRecord], *, k: int = DEFAULT_TOP_K
) -> dict[str, dict[str, Any]]:
    """Predicted-vs-measured calibration for both models.

    Returns ``{"model": {...}, "estimate": {...}}`` where each entry
    carries the scatter pairs (``predicted`` / ``measured`` / ``label``),
    the Spearman rank correlation and the top-k regret.  Only measured
    records with the respective prediction participate.
    """
    out: dict[str, dict[str, Any]] = {}
    measured = [r for r in records if r.measured]
    for name, score in (
        ("model", lambda r: r.predicted),
        ("estimate", _estimate_rate),
    ):
        scatter = [
            {
                "label": r.label,
                "predicted": float(score(r)),  # type: ignore[arg-type]
                "measured": r.mpoints_per_s,
            }
            for r in measured
            if score(r) is not None
        ]
        pairs = [(s["predicted"], s["measured"]) for s in scatter]
        out[name] = {
            "n": len(pairs),
            "k": k,
            "spearman": spearman(
                [p for p, _m in pairs], [m for _p, m in pairs]
            ),
            "topk_regret": topk_regret(pairs, k),
            "scatter": scatter,
        }
    return out


def calibration_registry(
    calibration: dict[str, dict[str, Any]]
) -> MetricsRegistry:
    """The calibration numbers as a metrics registry.

    Gauge names are the ``CALIBRATION_GAUGES`` registered in
    :mod:`repro.obs.export` beside the service gauges; undefined
    statistics (``None``) set no gauge at all — the exporters omit
    samples rather than invent values, mirroring the empty-histogram
    rule.
    """
    reg = MetricsRegistry()
    for name, stats in calibration.items():
        for stat, gauge in (("spearman", "rank_corr"), ("topk_regret", "topk_regret")):
            value = stats.get(stat)
            if value is not None:
                reg.gauge(f"{name}.{gauge}").set(float(value))
    return reg


# -- landscape export --------------------------------------------------------


def landscape_csv(records: Sequence[ArchiveRecord]) -> str:
    """Every archived record as one flat CSV (header + one row each).

    Empty cells mean "not applicable" (no prediction / the config never
    launched); ``faults`` joins the fault kinds with ``+`` so each cell
    stays a single token.  Rates serialize via ``repr`` — full float
    precision, so the CSV round-trips the archive exactly.
    """
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        est = _estimate_rate(r)
        writer.writerow([
            r.config[0], r.config[1], r.config[2], r.config[3],
            r.label, r.status,
            repr(r.mpoints_per_s) if r.measured else "",
            repr(r.predicted) if r.predicted is not None else "",
            repr(est) if est is not None else "",
            r.attempts,
            "+".join(r.faults),
            "1" if r.replayed else "0",
        ])
    return buf.getvalue()


def landscape_specs(
    records: Sequence[ArchiveRecord]
) -> dict[str, dict[str, Any]]:
    """One Vega-Lite heatmap spec per ``(RX, RY)`` slice.

    Keys are file stems (``landscape_rx{RX}_ry{RY}``); values are
    self-contained Vega-Lite v5 specs with inline data — measured
    MPoint/s as rect color over the ``(TX, TY)`` plane.  Slices with no
    measured point are skipped (a heatmap of nothing renders as an
    empty axis, which reads as a bug).
    """
    slices: dict[tuple[int, int], list[dict[str, Any]]] = {}
    for r in records:
        if not r.measured:
            continue
        tx, ty, rx, ry = r.config
        slices.setdefault((rx, ry), []).append(
            {"tx": tx, "ty": ty, "mpoints_per_s": r.mpoints_per_s}
        )
    specs: dict[str, dict[str, Any]] = {}
    for (rx, ry) in sorted(slices):
        values = sorted(
            slices[(rx, ry)], key=lambda v: (v["tx"], v["ty"])
        )
        specs[f"landscape_rx{rx}_ry{ry}"] = {
            "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
            "description": (
                f"Measured MPoint/s over (TX, TY) at RX={rx}, RY={ry}"
            ),
            "data": {"values": values},
            "mark": "rect",
            "encoding": {
                "x": {"field": "tx", "type": "ordinal", "title": "TX"},
                "y": {"field": "ty", "type": "ordinal", "title": "TY"},
                "color": {
                    "field": "mpoints_per_s",
                    "type": "quantitative",
                    "title": "MPoint/s",
                },
            },
        }
    return specs


# -- the report --------------------------------------------------------------


@dataclass(frozen=True)
class ExplainReport:
    """Everything ``repro explain`` prints, as one object."""

    session: str | None
    total: int
    measured: int
    ranking: tuple[ArchiveRecord, ...]   #: measured records, best first
    diff: DifferentialReport | None      #: None with < 2 measured configs
    calibration: dict[str, dict[str, Any]]
    top: int

    @property
    def winner(self) -> ArchiveRecord | None:
        return self.ranking[0] if self.ranking else None

    def render(self) -> str:
        lines: list[str] = []
        head = f"{self.total} archived trial(s), {self.measured} measured"
        if self.session:
            head = f"session {self.session}: " + head
        lines.append(head)
        for i, r in enumerate(self.ranking[: self.top], start=1):
            pred = (
                f" (model predicted {r.predicted:,.1f})"
                if r.predicted is not None else ""
            )
            lines.append(
                f"  #{i} {r.label:<24s} {r.mpoints_per_s:>10,.1f} MPoint/s"
                f"{pred}"
            )
        if self.diff is not None:
            lines.append("")
            lines.append(self.diff.render())
        lines.append("")
        for name, stats in self.calibration.items():
            rho = stats["spearman"]
            regret = stats["topk_regret"]
            lines.append(
                f"{name} calibration over {stats['n']} config(s): "
                + (
                    f"spearman {rho:+.3f}" if rho is not None
                    else "spearman undefined"
                )
                + ", "
                + (
                    f"top-{stats['k']} regret {regret:.1%}"
                    if regret is not None else "regret undefined"
                )
            )
        return "\n".join(lines)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "session": self.session,
            "total": self.total,
            "measured": self.measured,
            "ranking": [r.to_obj() for r in self.ranking[: self.top]],
            "differential": (
                self.diff.to_json_obj() if self.diff is not None else None
            ),
            "calibration": self.calibration,
        }


def explain(
    header: dict[str, Any],
    records: Sequence[ArchiveRecord],
    *,
    top: int = DEFAULT_TOP_K,
) -> ExplainReport:
    """Build the full explain report from one parsed archive.

    The differential runs over the winner's and runner-up's *archived*
    clean-launch counters — no resimulation — and is omitted (not
    errored) when fewer than two measured records or either counter set
    is missing.
    """
    ranking = measured_ranking(records)
    diff: DifferentialReport | None = None
    if len(ranking) >= 2:
        winner, runner_up = ranking[0], ranking[1]
        if winner.counters and runner_up.counters:
            diff = differential(
                winner.counters,
                runner_up.counters,
                winner_label=winner.label,
                runner_up_label=runner_up.label,
                winner_rate=winner.mpoints_per_s,
                runner_up_rate=runner_up.mpoints_per_s,
            )
    return ExplainReport(
        session=header.get("session"),
        total=len(records),
        measured=len(ranking),
        ranking=tuple(ranking),
        diff=diff,
        calibration=calibrate(records, k=top),
        top=top,
    )


def dump_landscape(
    records: Sequence[ArchiveRecord], out_dir: str
) -> list[str]:
    """Write the CSV and every Vega-Lite spec under ``out_dir``.

    Returns the written file names (sorted, relative to ``out_dir``).
    Specs serialize with sorted keys and a trailing newline so repeated
    exports of the same archive are byte-identical.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = ["landscape.csv"]
    (out / "landscape.csv").write_text(landscape_csv(records))
    for stem, spec in landscape_specs(records).items():
        name = f"{stem}.vl.json"
        (out / name).write_text(
            json.dumps(spec, sort_keys=True, indent=2) + "\n"
        )
        written.append(name)
    return sorted(written)
