"""Batched, vectorized evaluation engine — whole candidate sets at once.

The simulator's model is written once, over an op table
(:mod:`repro.gpusim.ops`): the headline stage
(:func:`repro.gpusim.timing.time_stage` — spill cap, occupancy, launch
check, plane costs, wave schedule, load efficiency — then
:func:`repro.gpusim.timing.sweep_rates`) and the counter stage
(:func:`repro.obs.counters.counter_stage`).  The scalar path
(:func:`~repro.gpusim.timing.time_kernel`,
:func:`~repro.obs.counters.derive_counters`) runs them on one
configuration's Python numbers through the builtins table.  This module
supplies the NumPy table, :data:`VECTOR`, and runs the same functions on
*whole candidate sets*: it builds columns, calls the shared stages and
assembles per-class results, with no model arithmetic of its own.

Two contracts make it safe to substitute for the scalar path anywhere:

* **Bit identity.**  Both op tables perform the identical IEEE-754
  operations in the identical order, so each derived float is
  *bit-identical* to the scalar result — not merely close.  The
  executable proof is ``python -m repro.gpusim.batch --baseline
  BENCH_profile.json``, which resimulates every trajectory record
  through both tables and compares every report field exactly (the
  ``batch-identity`` step of ``tools/check.py``).  The counter stage
  accumulates wave cycle shares by repeated addition, which is *not*
  associative in floating point — :data:`VECTOR` replays the same
  additions with a masked loop rather than collapsing them into a
  multiplication.
* **Block-class memoization.**  The timing model only sees the numeric
  fingerprint of a (block workload, grid workload) pair — its
  :class:`BlockClass`.  Distinct configurations that share a class (and
  repeated sweeps over the same class) are priced once; results are
  cached on the engine.

:meth:`BatchEngine.scores` — the tuners' call — runs the headline stage
only; :meth:`BatchEngine.outcomes` runs the counter stage after it.  The
identity gate checks both calls.  ``scores`` prices a lone missing class
on the scalar table instead of a one-row NumPy pass, into the same memo;
the engine picks the table from the input size, and no option selects it.

Unlaunchable configurations do not raise: the stages carry a per-row
failure reason, and each failing class reports the
:func:`repro.gpusim.occupancy.launch_error` message the scalar path
raises, so callers can reproduce the scalar control flow without
exceptions.

Consumers: :class:`repro.tuning.vectorized.VectorTrialEvaluator` (the
``repro tune`` backend, plain and resilient:
:class:`repro.tuning.robust.ResilientEvaluator` applies its fault
overlay to these prices), :func:`repro.obs.regress.diff_baseline` and
:func:`repro.analysis.estimate.reconcile_profile` (batched
resimulation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import ResourceLimitError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.executor import launch_report, simulate
from repro.gpusim.occupancy import launch_error
from repro.gpusim.ops import SCALAR, Ops
from repro.gpusim.report import SimReport
from repro.gpusim.timing import (
    BlockClass,
    TimingParams,
    TimingResult,
    params_for,
    sweep_rates,
    time_stage,
)
from repro.obs.counters import CounterSet, counter_stage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kernels.base import KernelPlan
    from repro.obs.telemetry import TelemetryRecord


def _first_min(names: Sequence[str], values: Sequence[Any]) -> tuple[Any, Any]:
    stacked = np.stack(np.broadcast_arrays(*values))
    return np.asarray(names)[np.argmin(stacked, axis=0)], np.min(stacked, axis=0)


def _repeat_add(terms: Sequence[np.ndarray], n: np.ndarray) -> list[np.ndarray]:
    acc = [np.zeros(n.shape) for _ in terms]
    for w in range(int(n.max(initial=0))):
        rows = n > w
        for a, term in zip(acc, terms):
            a[rows] += term[rows]
    return acc


def _rows(selection: np.ndarray, x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return x[selection]
    if isinstance(x, tuple):
        return type(x)(*(col[selection] for col in x))
    return type(x)(*(
        getattr(x, f.name)[selection] for f in dataclasses.fields(x)
    ))


#: The NumPy op table: every stage over columns, one row per class.
VECTOR = Ops(
    maximum=np.maximum,
    minimum=np.minimum,
    where=np.where,
    select=lambda conds, choices, default: np.select(conds, choices, default),
    first_min=_first_min,
    repeat_add=_repeat_add,
    ceil=np.ceil,
    launchable=lambda reason, error: np.flatnonzero(reason == 0),
    rows=_rows,
)

#: Column dtype per :class:`BlockClass` field.  The transaction counts
#: stay Python objects: the counter set keeps their int/float type.
_INT_FIELDS = {
    "threads_per_block", "regs_per_thread", "smem_bytes", "elem_bytes",
    "points_per_plane", "prologue_planes", "syncs_per_plane", "load_phases",
    "smem_read_instructions", "smem_write_instructions", "blocks", "planes",
    "total_points",
}
_DTYPES = tuple(
    object if name in ("load_transactions", "store_transactions")
    else np.int64 if name in _INT_FIELDS
    else np.float64
    for name in BlockClass._fields
)


def _unstack(x: Any, n: int) -> list[Any]:
    """Per-row records of a columnar record (constants repeat)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if dataclasses.is_dataclass(x):
        cols = [_unstack(getattr(x, f.name), n) for f in dataclasses.fields(x)]
        return [type(x)(*row) for row in zip(*cols)]
    return [x] * n


@dataclass(frozen=True)
class ClassScore:
    """What the tuners consume per class: headline rate + trial info.

    ``launch_error`` is ``None`` for a launchable class; otherwise the
    exact message the scalar occupancy calculator would raise.
    ``total_cycles`` is the clean sweep's, which the fault overlay
    (:func:`repro.gpusim.faults.apply_launch_faults`) prices from.
    """

    launch_error: str | None
    mpoints_per_s: float = 0.0
    load_efficiency: float = 0.0
    occupancy: float = 0.0
    limiter: str = ""
    total_cycles: float = 0.0


@dataclass(frozen=True)
class ClassOutcome:
    """The full per-class scalar-pipeline product (report assembly kit)."""

    launch_error: str | None
    timing: TimingResult | None = None
    counters: CounterSet | None = None
    time_s: float = 0.0
    mpoints_per_s: float = 0.0
    gflops: float = 0.0


class BatchEngine:
    """Vectorized scalar-identical evaluation of block classes on one device.

    Results are memoized per :class:`BlockClass`; repeated classes across
    (and within) calls are free.  ``params`` overrides the generation's
    timing constants exactly like :class:`repro.gpusim.executor.DeviceExecutor`.
    """

    def __init__(
        self, device: DeviceSpec | str, params: TimingParams | None = None
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.params = params or params_for(self.device)
        self._scores: dict[BlockClass, ClassScore] = {}
        self._full: dict[BlockClass, ClassOutcome] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def scores(self, classes: Sequence[BlockClass]) -> list[ClassScore]:
        """Tuner-grade results (rate / efficiency / occupancy / limiter).

        Runs the headline stage only: no counter is derived.  A lone
        class missing from the memo (the stochastic walk's step) is
        priced on the scalar op table, which is cheaper than a one-row
        NumPy pass; two or more go through NumPy.  Both are bit-identical.
        """
        missing = self._missing(classes, self._scores)
        if len(missing) == 1:
            self._scores[missing[0]] = self._scalar_score(missing[0])
        elif missing:
            cols = self._pipeline(missing)
            t = cols["timing"]
            live = zip(
                cols["mpoints"].tolist(), t.load_efficiency.tolist(),
                t.occupancy.occupancy.tolist(), t.occupancy.limiter.tolist(),
                t.total_cycles.tolist(),
            )
            for i, (cls, reason) in enumerate(zip(missing, cols["reason"].tolist())):
                self._scores[cls] = (
                    ClassScore(launch_error=self._error(cols, i, reason))
                    if reason else ClassScore(None, *next(live))
                )
        return [self._scores[c] for c in classes]

    def outcomes(self, classes: Sequence[BlockClass]) -> list[ClassOutcome]:
        """Full results: timing breakdown plus the derived counter set."""
        missing = self._missing(classes, self._full)
        if missing:
            cols = self._pipeline(missing)
            self._counters(cols)
            n = len(cols["live"])
            keys = list(cols["counters"])
            live = zip(
                _unstack(cols["timing"], n),
                zip(*(cols["counters"][k].tolist() for k in keys)),
                zip(*(cols[k].tolist() for k in ("time_s", "mpoints", "gflops"))),
            )
            for i, (cls, reason) in enumerate(zip(missing, cols["reason"].tolist())):
                if reason:
                    full = ClassOutcome(launch_error=self._error(cols, i, reason))
                else:
                    timing, counted, (time_s, mpoints, gflops) = next(live)
                    full = ClassOutcome(
                        launch_error=None,
                        timing=timing,
                        counters=CounterSet(
                            values=dict(zip(keys, counted)),
                            occupancy_limiter=timing.occupancy.limiter,
                        ),
                        time_s=time_s,
                        mpoints_per_s=mpoints,
                        gflops=gflops,
                    )
                self._full[cls] = full
                self._scores.setdefault(cls, _score_of(full))
        return [self._full[c] for c in classes]

    @staticmethod
    def _missing(
        classes: Sequence[BlockClass], cache: dict[BlockClass, Any]
    ) -> list[BlockClass]:
        seen: dict[BlockClass, None] = {}
        for c in classes:
            if c not in cache:
                seen.setdefault(c)
        return list(seen)

    def _scalar_score(self, cls: BlockClass) -> ClassScore:
        """The headline stage for one class on the scalar op table."""
        try:
            t = time_stage(SCALAR, self.device, self.params, cls)[2]
        except ResourceLimitError as exc:
            return ClassScore(launch_error=str(exc))
        _, mpoints, _ = sweep_rates(
            self.device, t.total_cycles, cls.total_points, cls.flops_per_point
        )
        return ClassScore(
            None, mpoints, t.load_efficiency, t.occupancy.occupancy,
            t.occupancy.limiter, t.total_cycles,
        )

    # ------------------------------------------------------------------
    # the two stages over columns
    # ------------------------------------------------------------------
    def _pipeline(self, classes: list[BlockClass]) -> dict[str, Any]:
        """The headline stage over ``classes``' columns.

        Ends at the executor's headline (time, rate, load efficiency),
        which is everything a :class:`ClassScore` reads; :meth:`_counters`
        continues from its columns.
        """
        c = BlockClass(*(
            np.array(col, dtype=dtype)
            for col, dtype in zip(zip(*classes), _DTYPES)
        ))
        reason, occ, timing = time_stage(VECTOR, self.device, self.params, c)
        live = np.flatnonzero(reason == 0)
        time_s, mpoints, gflops = sweep_rates(
            self.device, timing.total_cycles, c.total_points[live],
            c.flops_per_point[live],
        )
        return {
            "c": c, "reason": reason, "occ": occ, "live": live,
            "timing": timing, "time_s": time_s, "mpoints": mpoints,
            "gflops": gflops,
        }

    def _counters(self, cols: dict[str, Any]) -> None:
        """The counter stage over a finished :meth:`_pipeline`'s columns.

        Only :meth:`outcomes` calls it, since no :class:`ClassScore` field
        reads a counter.
        """
        cols["counters"] = counter_stage(
            VECTOR, self.device, self.params,
            VECTOR.rows(cols["live"], cols["c"]), cols["timing"],
        )

    def _error(self, cols: dict[str, Any], i: int, reason: int) -> str:
        """The launch-failure message of row ``i``."""
        occ = cols["occ"]
        return launch_error(
            self.device, reason, int(cols["c"].threads_per_block[i]),
            int(occ.regs_per_block[i]), int(occ.smem_per_block[i]),
        )


def _score_of(full: ClassOutcome) -> ClassScore:
    if full.launch_error is not None:
        return ClassScore(launch_error=full.launch_error)
    assert full.timing is not None
    return ClassScore(
        launch_error=None,
        mpoints_per_s=full.mpoints_per_s,
        load_efficiency=full.timing.load_efficiency,
        occupancy=full.timing.occupancy.occupancy,
        limiter=full.timing.occupancy.limiter,
        total_cycles=full.timing.total_cycles,
    )


def batch_reports(
    items: Sequence[tuple["KernelPlan", tuple[int, int, int]]],
    device: DeviceSpec | str,
    params: TimingParams | None = None,
    engine: BatchEngine | None = None,
) -> list[SimReport | Exception]:
    """Simulate many (plan, grid_shape) launches through the batch engine.

    The positional twin of calling :func:`repro.gpusim.executor.simulate`
    per item: each slot holds the bit-identical :class:`SimReport`, or —
    where the scalar path would raise — the unraised exception carrying
    the identical message (a :class:`repro.errors.ResourceLimitError` for
    unlaunchable configurations, or whatever the plan's own workload
    compilation raised), so callers can reproduce the scalar per-item
    control flow: raise, skip or record.
    """
    engine = engine or BatchEngine(device, params)
    dev = engine.device
    slots: list[SimReport | Exception | None] = [None] * len(items)
    classes: list[BlockClass] = []
    live: list[tuple[int, "KernelPlan", tuple[int, int, int]]] = []
    for i, (plan, gs) in enumerate(items):
        try:
            workload = plan.block_workload(dev, gs)
            grid = plan.grid_workload(dev, gs)
        except Exception as exc:  # noqa: BLE001 - the scalar path raises these
            slots[i] = exc
            continue
        classes.append(BlockClass.of(workload, grid))
        live.append((i, plan, gs))
    for (i, plan, gs), full in zip(live, engine.outcomes(classes)):
        if full.launch_error is not None:
            slots[i] = ResourceLimitError(full.launch_error)
            continue
        assert full.timing is not None and full.counters is not None
        slots[i] = launch_report(
            dev, plan, gs, full.timing, full.counters,
            (full.time_s, full.mpoints_per_s, full.gflops),
        )
    # Every index was filled: either workload compilation stored its
    # exception, or the class went through the engine above.
    return slots  # type: ignore[return-value]


# ----------------------------------------------------------------------
# the batch-identity gate: ``python -m repro.gpusim.batch --baseline ...``
# ----------------------------------------------------------------------
def _num(v: Any) -> Any:
    """Bit-faithful canonical form: floats by hex, ints as ints."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return v
    if isinstance(v, int):
        return v
    return float(v).hex()


def report_payload(report: SimReport) -> dict[str, Any]:
    """Every compared quantity of one report, floats in hex (bit-exact)."""
    occ = report.occupancy
    return {
        "device": report.device_name,
        "kernel": report.kernel_name,
        "total_cycles": _num(report.total_cycles),
        "time_s": _num(report.time_s),
        "mpoints_per_s": _num(report.mpoints_per_s),
        "gflops": _num(report.gflops),
        "load_efficiency": _num(report.load_efficiency),
        "bandwidth_gbs": _num(report.bandwidth_gbs),
        "stages": report.stages,
        "active_blocks": report.active_blocks,
        "blocks": report.blocks,
        "occupancy": {
            "active_blocks": occ.active_blocks,
            "warps_per_block": occ.warps_per_block,
            "active_warps": occ.active_warps,
            "occupancy": _num(occ.occupancy),
            "limiter": occ.limiter,
            "regs_per_block": occ.regs_per_block,
            "smem_per_block": occ.smem_per_block,
        },
        "breakdown": {k: _num(v) for k, v in report.breakdown.items()},
        "counters": (
            {k: _num(v) for k, v in report.counters.as_dict().items()}
            if report.counters is not None
            else None
        ),
        "meta": {k: repr(v) for k, v in sorted(report.meta.items())},
    }


def check_identity(baseline: str) -> tuple[bool, str]:
    """Resimulate every baseline record through both paths; compare exactly.

    The batch path is checked twice per record: the full report from
    :meth:`BatchEngine.outcomes`, and the fields of a fresh engine's
    :meth:`BatchEngine.scores` over all of the device's records in one
    list (the NumPy pass), which stops before the counter stage and so
    could drift from ``outcomes()`` unseen: the tuners' four, plus
    ``total_cycles``, which the fault overlay prices from.
    Returns ``(ok, summary)``; the summary carries the per-path digests
    so CI logs show *what* diverged, not just that something did.
    """
    import hashlib
    import json

    from repro.obs.regress import plan_for_record
    from repro.obs.telemetry import load_profile

    records = load_profile(baseline)
    engines: dict[str, BatchEngine] = {}
    scalar_payloads: list[dict[str, Any]] = []
    batch_payloads: list[dict[str, Any]] = []
    mismatches: list[str] = []
    classes_seen: set[BlockClass] = set()
    tuned: dict[str, list[tuple["TelemetryRecord", BlockClass, SimReport]]] = {}
    for record in records:
        plan = plan_for_record(record)
        dev = get_device(record.device)
        engine = engines.setdefault(record.device, BatchEngine(dev))
        scalar_report = simulate(plan, dev, record.grid)
        batch_result = batch_reports([(plan, record.grid)], dev, engine=engine)[0]
        if isinstance(batch_result, Exception):
            mismatches.append(
                f"{record.kernel} on {record.device}: batch refused a "
                f"launchable record ({batch_result})"
            )
            continue
        cls = BlockClass.of(
            plan.block_workload(dev, record.grid),
            plan.grid_workload(dev, record.grid),
        )
        classes_seen.add(cls)
        tuned.setdefault(record.device, []).append((record, cls, scalar_report))
        sp = report_payload(scalar_report)
        bp = report_payload(batch_result)
        scalar_payloads.append(sp)
        batch_payloads.append(bp)
        if sp != bp:
            diffs = [
                key for key in sp
                if sp[key] != bp[key]
            ]
            mismatches.append(
                f"{record.kernel} on {record.device} [{record.source}]: "
                f"diverged in {', '.join(diffs)}"
            )

    # The tuners' path: a fresh engine's headline stage alone, one list
    # per device, so the NumPy table prices it.
    for device_name, items in tuned.items():
        scores = BatchEngine(get_device(device_name)).scores(
            [cls for _, cls, _ in items]
        )
        for (record, _, scalar_report), score in zip(items, scores):
            score_diffs = [
                key for key, a, b in (
                    ("mpoints_per_s", score.mpoints_per_s,
                     scalar_report.mpoints_per_s),
                    ("load_efficiency", score.load_efficiency,
                     scalar_report.load_efficiency),
                    ("occupancy", score.occupancy,
                     scalar_report.occupancy.occupancy),
                    ("limiter", score.limiter, scalar_report.occupancy.limiter),
                    ("total_cycles", score.total_cycles,
                     scalar_report.total_cycles),
                )
                if _num(a) != _num(b)
            ]
            if score.launch_error is not None:
                score_diffs = [f"launch ({score.launch_error})"]
            if score_diffs:
                mismatches.append(
                    f"{record.kernel} on {record.device} [{record.source}]: "
                    f"scores() diverged in {', '.join(score_diffs)}"
                )

    def digest(payloads: list[dict[str, Any]]) -> str:
        blob = json.dumps(payloads, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    s_dig, b_dig = digest(scalar_payloads), digest(batch_payloads)
    ok = not mismatches and s_dig == b_dig
    lines = [
        f"batch-identity: {len(records)} record(s), "
        f"{len(classes_seen)} distinct block class(es)",
        f"  scalar digest {s_dig}",
        f"  batch  digest {b_dig}",
    ]
    lines.extend(f"  MISMATCH: {m}" for m in mismatches)
    lines.append("  identical: " + ("yes" if ok else "NO"))
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.gpusim.batch",
        description=(
            "Verify the batched engine is bit-identical to the scalar "
            "simulator over a recorded trajectory."
        ),
    )
    parser.add_argument(
        "--baseline", default="BENCH_profile.json",
        help="trajectory file to resimulate (default: BENCH_profile.json)",
    )
    args = parser.parse_args(argv)
    ok, summary = check_identity(args.baseline)
    print(summary)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by tools/check.py
    raise SystemExit(main())
