"""Perf-regression sentinel: ``repro bench diff --baseline BENCH_profile.json``.

``BENCH_profile.json`` is the repository's recorded performance
trajectory; the simulator is deterministic, so every record in it can be
*resimulated* from its own identity fields (device, kernel family,
order, dtype, block config, grid) and compared value-for-value against
what the current tree produces.  Tolerance therefore defaults to
**exact**: on an unchanged tree the diff is empty, and any delta is a
real behaviour change of the model.

Every changed record is attributed to the explanatory quantity that
moved — the hardware-counter set for v2 baselines, the cycle-breakdown
components that v1 records already carry otherwise — so a slowdown
arrives with its cause attached ("total_cycles +4.2% from
stall_sched_frac +180%"), and a headline move with *no* moved counter is
flagged ``unexplained`` (a model/counter inconsistency worth a bug
report either way).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.telemetry import TelemetryRecord, load_profile, record_from_report

#: Explanatory fields compared per record, beyond the headline rate.
_EXPLAIN_FIELDS = ("total_cycles", "gflops", "load_efficiency", "occupancy")


def plan_for_record(record: TelemetryRecord) -> Any:
    """Rebuild the kernel plan a telemetry record describes.

    Kernel names follow ``{family}.{variant}[order{N},{dtype}]{config}``;
    in-plane variants register as ``inplane_{variant}`` families, every
    other family under its head name.
    """
    from repro.kernels.factory import make_kernel
    from repro.stencils.spec import symmetric

    head = record.kernel.partition("[")[0].split(".")
    family = f"inplane_{head[1]}" if head[0] == "inplane" else head[0]
    config = ast.literal_eval(record.config)
    return make_kernel(family, symmetric(record.order), tuple(config), record.dtype)


@dataclass(frozen=True)
class CounterDelta:
    """One explanatory quantity that moved between baseline and current."""

    name: str
    baseline: float
    current: float

    @property
    def rel(self) -> float:
        """Relative move; exact +/-inf-free (0 baseline → current as is)."""
        if self.baseline:
            return (self.current - self.baseline) / self.baseline
        return self.current

    def render(self) -> str:
        return f"{self.name} {self.baseline:g} -> {self.current:g} ({self.rel:+.1%})"


@dataclass(frozen=True)
class RecordDiff:
    """Baseline-vs-current comparison of one trajectory record."""

    record: TelemetryRecord
    baseline_mpoints: float
    current_mpoints: float
    deltas: tuple[CounterDelta, ...]
    tolerance: float = 0.0

    @property
    def rel_change(self) -> float:
        return (self.current_mpoints - self.baseline_mpoints) / self.baseline_mpoints

    @property
    def regressed(self) -> bool:
        return self.rel_change < -self.tolerance

    @property
    def improved(self) -> bool:
        return self.rel_change > self.tolerance

    @property
    def changed(self) -> bool:
        return self.regressed or self.improved or bool(self.deltas)

    @property
    def responsible(self) -> CounterDelta | None:
        """The counter that moved most (relative), if any.

        Headline-derived fields (gflops, total_cycles, ...) are excluded:
        they restate *that* performance moved, not *why*.  ``None`` with a
        nonempty ``deltas`` means only headline fields moved — an
        unexplained delta (or a v1 baseline whose breakdown didn't shift).
        """
        causes = [d for d in self.deltas if d.name not in _EXPLAIN_FIELDS]
        if not causes:
            return None
        return max(causes, key=lambda d: abs(d.rel))

    def render(self) -> str:
        verdict = (
            "REGRESSED" if self.regressed
            else "improved" if self.improved
            else "changed"
        )
        cause = self.responsible
        why = f" — {cause.render()}" if cause else " — unexplained (no counter moved)"
        return (
            f"{verdict}: {self.record.kernel} on {self.record.device} "
            f"[{self.record.source}] {self.baseline_mpoints:,.1f} -> "
            f"{self.current_mpoints:,.1f} MPoint/s ({self.rel_change:+.2%}){why}"
        )


@dataclass(frozen=True)
class DiffReport:
    """Whole-baseline comparison result."""

    baseline_path: str
    total: int
    diffs: tuple[RecordDiff, ...]      #: only records that changed
    errors: tuple[str, ...]            #: records that failed to resimulate
    tolerance: float
    skipped: int = 0                   #: faulted records (not comparable)

    @property
    def regressions(self) -> tuple[RecordDiff, ...]:
        return tuple(d for d in self.diffs if d.regressed)

    @property
    def improvements(self) -> tuple[RecordDiff, ...]:
        return tuple(d for d in self.diffs if d.improved)

    def exit_code(self) -> int:
        """Nonzero on any slowdown or unresimulatable record."""
        return 1 if self.regressions or self.errors else 0

    def render(self, *, verbose: bool = False) -> str:
        lines = [
            f"bench diff vs {self.baseline_path}: {self.total} records, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.diffs)} changed, {len(self.errors)} error(s)"
            + (f", {self.skipped} faulted skipped" if self.skipped else "")
            + f" (tolerance {self.tolerance:g})"
        ]
        for d in self.diffs:
            lines.append("  " + d.render())
            if verbose:
                for delta in d.deltas:
                    lines.append("      " + delta.render())
        lines.extend(f"  ERROR: {e}" for e in self.errors)
        return "\n".join(lines)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline_path,
            "total": self.total,
            "tolerance": self.tolerance,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "skipped_faulted": self.skipped,
            "errors": list(self.errors),
            "diffs": [
                {
                    "kernel": d.record.kernel,
                    "device": d.record.device,
                    "source": d.record.source,
                    "baseline_mpoints_per_s": d.baseline_mpoints,
                    "current_mpoints_per_s": d.current_mpoints,
                    "rel_change": d.rel_change,
                    "regressed": d.regressed,
                    "responsible": (
                        d.responsible.name if d.responsible else None
                    ),
                    "deltas": [
                        {
                            "name": x.name,
                            "baseline": x.baseline,
                            "current": x.current,
                            "rel": x.rel,
                        }
                        for x in d.deltas
                    ],
                }
                for d in self.diffs
            ],
        }


def _explain_deltas(
    baseline: TelemetryRecord, current: TelemetryRecord
) -> tuple[CounterDelta, ...]:
    """Every explanatory quantity that moved, counters preferred."""
    deltas: list[CounterDelta] = []
    if baseline.counters:
        for name, b in baseline.counters.items():
            if name == "occupancy_limiter":
                continue
            c = current.counters.get(name)
            if c is not None and c != b:
                deltas.append(CounterDelta(name, float(b), float(c)))
    else:  # v1 baseline: the breakdown components are the explanation
        for name, b in baseline.breakdown.items():
            c = current.breakdown.get(name)
            if c is not None and c != b:
                deltas.append(CounterDelta(name, b, c))
    for fieldname in _EXPLAIN_FIELDS:
        b = getattr(baseline, fieldname)
        c = getattr(current, fieldname)
        if b != c:
            deltas.append(CounterDelta(fieldname, b, c))
    return tuple(deltas)


def resimulate_profile(
    path: str | Path,
) -> tuple[list[TelemetryRecord], list[TelemetryRecord], list[Any]]:
    """Resimulate every unfaulted record of a profile, batched per device.

    Returns ``(records, comparable, reports)``: every record of the
    document, the unfaulted ones, and one ``SimReport`` or ``Exception``
    per comparable record, in input order.  A faulted measurement is not
    a performance statement — the clean resimulation *should* disagree
    with it — so it is not resimulated.  Any stage the scalar path
    (:func:`~repro.gpusim.executor.simulate` of :func:`plan_for_record`)
    would fail at (plan rebuild, device lookup,
    workload compilation, an unlaunchable configuration) puts that
    exception in the record's slot; the reports themselves are
    bit-identical to the scalar path (the batch-identity gate).
    """
    from repro.gpusim.batch import BatchEngine, batch_reports
    from repro.gpusim.device import get_device

    records = load_profile(path)
    comparable = [r for r in records if not r.faulted]
    slots: list[Any] = [None] * len(comparable)
    by_device: dict[str, list[tuple[int, TelemetryRecord, Any]]] = {}
    for idx, record in enumerate(comparable):
        try:
            plan = plan_for_record(record)
        except Exception as exc:  # noqa: BLE001 - becomes the slot's error
            slots[idx] = exc
            continue
        by_device.setdefault(record.device, []).append((idx, record, plan))
    for device, group in by_device.items():
        try:
            engine = BatchEngine(get_device(device))
        except Exception as exc:  # noqa: BLE001 - e.g. unknown device
            for idx, _record, _plan in group:
                slots[idx] = exc
            continue
        reports = batch_reports(
            [(plan, record.grid) for _idx, record, plan in group],
            engine.device, engine=engine,
        )
        for (idx, _record, _plan), report in zip(group, reports):
            slots[idx] = report
    return records, comparable, slots


def diff_baseline(path: str | Path, tolerance: float = 0.0) -> DiffReport:
    """Resimulate every record of a baseline document and diff it."""
    records, comparable, reports = resimulate_profile(path)
    diffs: list[RecordDiff] = []
    errors: list[str] = []
    for record, report in zip(comparable, reports):
        try:
            if isinstance(report, Exception):
                raise report
            current = record_from_report(
                report, order=record.order, source=record.source
            )
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            errors.append(f"{record.kernel} on {record.device}: {exc}")
            continue
        diff = RecordDiff(
            record=record,
            baseline_mpoints=record.mpoints_per_s,
            current_mpoints=current.mpoints_per_s,
            deltas=_explain_deltas(record, current),
            tolerance=tolerance,
        )
        if diff.changed:
            diffs.append(diff)
    return DiffReport(
        baseline_path=str(path),
        total=len(records),
        diffs=tuple(diffs),
        errors=tuple(errors),
        tolerance=tolerance,
        skipped=len(records) - len(comparable),
    )
