"""Codegen-time performance estimation from the access-plan IR.

Following the "performance estimation during code generation" idea of
Ernst et al. (PAPERS.md), every generated translation unit carries a
structured prediction header: the transactions, DRAM bytes, shared-memory
replay rate, occupancy and named limiter the kernel *will* exhibit on a
device, computed before any simulation runs.

The estimator is deliberately not a second model.  It reconstructs the
plan's :class:`~repro.gpusim.workload.BlockWorkload` from the IR
(:meth:`~repro.analysis.planir.AccessPlanIR.to_workload`) and prices it
with the public simulator entry points — :func:`repro.gpusim.timing.time_kernel`
and :func:`repro.obs.counters.derive_counters` — so its transaction counts
and DRAM bytes are **exact** against the profiler's counters by
construction, and any drift between the IR and the kernel model surfaces
as a reconciliation failure rather than a silently wrong comment.

:func:`reconcile_profile` is that cross-check at repository scale: every
record of ``BENCH_profile.json`` is resimulated and compared
value-for-value with the estimate derived from its plan's IR
(faulted records are skipped, mirroring the regression sentinel — fault
injection perturbs *measurement*, never the prediction).  ``tools/check.py``
runs it as a required gate.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.analysis.planir import DEFAULT_GRID, AccessPlanIR, lower_plan
from repro.errors import ReproError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.timing import TimingResult, params_for, time_kernel
from repro.gpusim.workload import GridWorkload
from repro.obs.counters import CounterSet, derive_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.symmetric import SymmetricKernelPlan

#: Device the prediction header assumes when codegen gets none — the
#: paper's primary evaluation GPU.
DEFAULT_DEVICE = "gtx580"

#: Marker of the structured comment line attached to generated sources.
HEADER_PREFIX = "// repro.estimate:"

#: Estimate fields that must match the measured counters bit-for-bit on a
#: fault-free record (same floating-point expressions on identical inputs).
EXACT_FIELDS: tuple[str, ...] = (
    "gld_transactions",
    "gst_transactions",
    "dram_bytes",
    "shared_replay_rate",
    "achieved_occupancy",
)


@dataclass(frozen=True)
class PerfEstimate:
    """One kernel's predicted launch behaviour on one device/grid."""

    kernel: str
    device: str
    grid_shape: tuple[int, int, int]
    mpoints_per_s: float
    total_cycles: float
    gld_transactions: float
    gst_transactions: float
    dram_bytes: float
    dram_bw_fraction: float
    gld_efficiency: float
    shared_replay_rate: float
    achieved_occupancy: float
    limiter: str

    @classmethod
    def priced(
        cls,
        kernel: str,
        device: DeviceSpec,
        grid_shape: tuple[int, int, int],
        grid: GridWorkload,
        timing: TimingResult,
        counters: CounterSet,
    ) -> "PerfEstimate":
        """The estimate one timing and its derived counters imply."""
        time_s = timing.total_cycles / device.clock_hz
        return cls(
            kernel=kernel,
            device=device.name,
            grid_shape=grid_shape,
            mpoints_per_s=grid.total_points / time_s / 1e6,
            total_cycles=timing.total_cycles,
            gld_transactions=counters["gld_transactions"],
            gst_transactions=counters["gst_transactions"],
            dram_bytes=counters["dram_bytes"],
            dram_bw_fraction=counters["dram_bw_fraction"],
            gld_efficiency=counters["gld_efficiency"],
            shared_replay_rate=counters["shared_replay_rate"],
            achieved_occupancy=counters["achieved_occupancy"],
            limiter=counters.occupancy_limiter,
        )

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "device": self.device,
            "grid": list(self.grid_shape),
            "mpoints_per_s": self.mpoints_per_s,
            "total_cycles": self.total_cycles,
            "gld_transactions": self.gld_transactions,
            "gst_transactions": self.gst_transactions,
            "dram_bytes": self.dram_bytes,
            "dram_bw_fraction": self.dram_bw_fraction,
            "gld_efficiency": self.gld_efficiency,
            "shared_replay_rate": self.shared_replay_rate,
            "achieved_occupancy": self.achieved_occupancy,
            "limiter": self.limiter,
        }

    def render(self) -> str:
        lx, ly, lz = self.grid_shape
        return "\n".join([
            f"estimate {self.kernel} on {self.device} ({lx}x{ly}x{lz}):",
            f"  predicted rate     : {self.mpoints_per_s:,.1f} MPoint/s",
            f"  total cycles       : {self.total_cycles:,.0f}",
            f"  gld transactions   : {self.gld_transactions:,.1f}",
            f"  gst transactions   : {self.gst_transactions:,.1f}",
            f"  DRAM bytes         : {self.dram_bytes:,.0f}"
            f" ({self.dram_bw_fraction:.1%} of measured bandwidth)",
            f"  load efficiency    : {self.gld_efficiency:.1%}",
            f"  smem replay rate   : {self.shared_replay_rate:.4f}",
            f"  occupancy          : {self.achieved_occupancy:.1%}"
            f" (limited by {self.limiter})",
        ])


def estimate_ir(
    ir: AccessPlanIR,
    device: "DeviceSpec | str" = DEFAULT_DEVICE,
    grid_shape: tuple[int, int, int] | None = None,
) -> PerfEstimate:
    """Price one access-plan IR on ``device`` without executing a sweep.

    May raise :class:`~repro.errors.ResourceLimitError` when no block of
    the IR's shape fits the device — the same refusal the executor gives.
    """
    dev = get_device(device) if isinstance(device, str) else device
    shape = grid_shape or ir.grid_shape
    workload = ir.to_workload()
    grid = ir.grid_workload(shape)
    timing = time_kernel(workload, grid, dev)
    counters = derive_counters(timing, workload, grid, dev, params_for(dev))
    return PerfEstimate.priced(ir.kernel, dev, shape, grid, timing, counters)


def estimate_plan(
    plan: "SymmetricKernelPlan",
    device: "DeviceSpec | str" = DEFAULT_DEVICE,
    grid_shape: tuple[int, int, int] = DEFAULT_GRID,
) -> PerfEstimate:
    """Lower ``plan`` and price it — the one-call form."""
    return estimate_ir(lower_plan(plan, grid_shape), device, grid_shape)


# ---------------------------------------------------------------------------
# The structured source header
# ---------------------------------------------------------------------------
def prediction_header(
    ir: AccessPlanIR,
    device: "DeviceSpec | str" = DEFAULT_DEVICE,
    grid_shape: tuple[int, int, int] | None = None,
) -> str:
    """The ``// repro.estimate: {...}`` line emitters attach to sources.

    Values are kept at full precision (the reconciliation gate compares
    them bit-for-bit against the profiler counters); an IR that cannot
    launch on the assumed device yields an ``"unavailable"`` header with
    the refusal attached instead of failing code generation.
    """
    try:
        est = estimate_ir(ir, device, grid_shape)
    except ReproError as exc:
        payload: dict[str, Any] = {
            "kernel": ir.kernel,
            "device": device if isinstance(device, str) else device.name,
            "unavailable": str(exc),
        }
        return f"{HEADER_PREFIX} {json.dumps(payload, sort_keys=True)}"
    return f"{HEADER_PREFIX} {json.dumps(est.to_json_obj(), sort_keys=True)}"


def parse_header(text: str) -> dict[str, Any] | None:
    """Extract the prediction payload from a generated source.

    Returns ``None`` when no header line is present; raises
    ``ValueError`` when a header is present but its payload is not valid
    JSON (a tampered or truncated source).
    """
    match = re.search(rf"^{re.escape(HEADER_PREFIX)} (.+)$", text, re.MULTILINE)
    if match is None:
        return None
    payload = json.loads(match.group(1))
    if not isinstance(payload, dict):
        raise ValueError("prediction header payload must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Estimator <-> counters reconciliation over a recorded trajectory
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldMismatch:
    """One estimate field that disagreed with the measured counter."""

    field: str
    predicted: float | str
    measured: float | str

    def render(self) -> str:
        return f"{self.field}: predicted {self.predicted!r} != measured {self.measured!r}"


@dataclass(frozen=True)
class RecordReconcile:
    """Reconciliation outcome of one trajectory record."""

    kernel: str
    device: str
    mismatches: tuple[FieldMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        detail = "; ".join(m.render() for m in self.mismatches)
        return f"MISMATCH {self.kernel} on {self.device}: {detail}"


@dataclass(frozen=True)
class ReconcileReport:
    """Whole-baseline estimator/counters (and IR/source) reconciliation."""

    baseline_path: str
    total: int
    compared: int
    skipped_faulted: int
    failures: tuple[RecordReconcile, ...]
    source_failures: tuple[str, ...]   #: emitted-source verification errors
    errors: tuple[str, ...]            #: records that failed to run at all

    def exit_code(self) -> int:
        return 1 if self.failures or self.source_failures or self.errors else 0

    def render(self) -> str:
        lines = [
            f"estimate reconcile vs {self.baseline_path}: {self.total} records, "
            f"{self.compared} compared, {self.skipped_faulted} faulted skipped, "
            f"{len(self.failures)} counter mismatch(es), "
            f"{len(self.source_failures)} source failure(s), "
            f"{len(self.errors)} error(s)"
        ]
        lines.extend("  " + f.render() for f in self.failures)
        lines.extend(f"  SOURCE: {s}" for s in self.source_failures)
        lines.extend(f"  ERROR: {e}" for e in self.errors)
        return "\n".join(lines)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline_path,
            "total": self.total,
            "compared": self.compared,
            "skipped_faulted": self.skipped_faulted,
            "failures": [
                {
                    "kernel": f.kernel,
                    "device": f.device,
                    "mismatches": [
                        {
                            "field": m.field,
                            "predicted": m.predicted,
                            "measured": m.measured,
                        }
                        for m in f.mismatches
                    ],
                }
                for f in self.failures
            ],
            "source_failures": list(self.source_failures),
            "errors": list(self.errors),
        }


def _reconcile_record(record: Any, report: Any = None) -> RecordReconcile:
    """Compare one record's resimulated counters with the IR estimate.

    ``report`` lets a caller that already resimulated the record (the
    batched profile loop) hand in the launch report; it is bit-identical
    to the scalar resimulation either way, so the exact-field comparison
    below is unaffected by who produced it.
    """
    from repro.obs.regress import plan_for_record

    plan = plan_for_record(record)
    if report is None:
        from repro.gpusim.executor import simulate

        report = simulate(plan, record.device, record.grid)
    est = estimate_plan(plan, record.device, record.grid)

    mismatches: list[FieldMismatch] = []
    for name in EXACT_FIELDS:
        predicted = getattr(est, name)
        measured = report.counters[name]
        if predicted != measured:
            mismatches.append(FieldMismatch(name, predicted, measured))
    if est.limiter != report.counters.occupancy_limiter:
        mismatches.append(FieldMismatch(
            "limiter", est.limiter, report.counters.occupancy_limiter
        ))
    # The headline must agree too: the estimate's clean time derivation is
    # the executor's own (fault derating never reaches this path).
    if est.mpoints_per_s != report.mpoints_per_s:
        mismatches.append(FieldMismatch(
            "mpoints_per_s", est.mpoints_per_s, report.mpoints_per_s
        ))
    return RecordReconcile(
        kernel=record.kernel, device=record.device, mismatches=tuple(mismatches)
    )


def _verify_record_sources(records: Iterable[Any]) -> list[str]:
    """Run the emitted-source verifier over every distinct plan in a set.

    Generates all three backends unverified, then checks each against the
    shared IR — so the gate fails on an IR<->source divergence even if an
    emitter's own self-check were bypassed.  Imported lazily: codegen
    imports this package.
    """
    from repro.analysis.diagnostics import Severity
    from repro.analysis.srcverify import verify_emitted
    from repro.codegen import (
        generate_hip_kernel,
        generate_kernel,
        generate_opencl_kernel,
    )
    from repro.obs.regress import plan_for_record

    failures: list[str] = []
    seen: set[str] = set()
    for record in records:
        try:
            plan = plan_for_record(record)
            ir = lower_plan(plan, record.grid)
        except ReproError as exc:
            failures.append(f"{record.kernel}: {exc}")
            continue
        if ir.kernel in seen:
            continue
        seen.add(ir.kernel)
        for emit in (generate_kernel, generate_opencl_kernel, generate_hip_kernel):
            try:
                src = emit(plan, verify=False)
            except ReproError as exc:
                failures.append(f"{record.kernel}: {exc}")
                continue
            for diag in verify_emitted(src, ir):
                if diag.severity == Severity.ERROR:
                    failures.append(
                        f"{src.name} [{src.backend}]: [{diag.rule}] {diag.message}"
                    )
    return failures


def reconcile_profile(
    path: str | Path, *, verify_sources: bool = True
) -> ReconcileReport:
    """Reconcile the estimator against every record of a trajectory file.

    Faulted records are skipped exactly as the regression sentinel skips
    them: their *measurements* embed an injected perturbation, while the
    estimate — a pure function of the plan — describes the clean launch.
    """
    from repro.obs.regress import resimulate_profile

    records, comparable, reports = resimulate_profile(path)
    failures: list[RecordReconcile] = []
    errors: list[str] = []
    for record, report in zip(comparable, reports):
        try:
            if isinstance(report, Exception):
                raise report
            outcome = _reconcile_record(record, report=report)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            errors.append(f"{record.kernel} on {record.device}: {exc}")
            continue
        if not outcome.ok:
            failures.append(outcome)
    source_failures = (
        tuple(_verify_record_sources(comparable)) if verify_sources else ()
    )
    return ReconcileReport(
        baseline_path=str(path),
        total=len(records),
        compared=len(comparable),
        skipped_faulted=len(records) - len(comparable),
        failures=tuple(failures),
        source_failures=source_failures,
        errors=tuple(errors),
    )
