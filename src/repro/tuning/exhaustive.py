"""Exhaustive auto-tuning (section IV-C).

Every feasible configuration is executed (on the simulator — the stand-in
for the paper's timed CUDA launches) and ranked by measured MPoint/s.
Configurations that cannot launch at all (a block exceeding the register
file) are skipped, exactly as a real tuner skips launch failures.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import TuningError
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.obs.events import emit as emit_event
from repro.obs.schema import CAT_TUNE_RUN, CAT_TUNE_TRIAL
from repro.obs.tracer import current_tracer, maybe_span
from repro.tuning.evaluator import (
    STATUS_QUARANTINED,
    STATUS_REJECTED_SIMULATED,
    STATUS_REJECTED_STATIC,
    SimTrialEvaluator,
    Trial,
    TrialEvaluator,
    TrialOutcome,
    batch_capable,
    build_trial,
    record_trial,
)
from repro.tuning.result import TuneEntry, TuneResult
from repro.tuning.space import ParameterSpace, default_space

KernelBuilder = Callable[[BlockConfig], KernelPlan]


def evaluate_configs(
    trials: list[Trial],
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    *,
    prefilter: bool = True,
    stats: dict[str, Any] | None = None,
    evaluator: TrialEvaluator | None = None,
) -> list[TuneEntry]:
    """Execute each trial's configuration; unlaunchable ones are dropped.

    ``trials`` come from :func:`feasible_trials`: the plan and block
    workload each stage needs are already built, so nothing here (nor in
    the evaluator, nor in the archive capture) builds them again.

    With ``prefilter`` (the default) the static resource check rejects
    unlaunchable configurations from the workload record alone, skipping
    the full timing pipeline; the check is the identical occupancy test
    the executor would run, so the surviving set — and hence the chosen
    optimum — is unchanged.  ``stats`` (optional, mutated in place)
    receives ``rejected_static`` / ``rejected_simulated`` counts (and a
    ``quarantined`` count when a resilient evaluator gave up on configs).

    ``evaluator`` swaps the measurement backend (default: a plain
    :class:`~repro.tuning.evaluator.SimTrialEvaluator`; pass a
    :class:`~repro.tuning.robust.ResilientEvaluator` for retry /
    quarantine / journal semantics).  When given, it owns the prefilter
    decision and the ``prefilter`` argument is ignored.
    """
    evaluator = evaluator or SimTrialEvaluator(device, prefilter=prefilter)
    batch = batch_capable(evaluator)
    if batch is not None:
        outcomes = batch.measure_trials(trials, grid_shape)
        entries = _collect_outcomes(
            trials, outcomes, stats, device=device, grid_shape=grid_shape,
        )
        if stats is not None:
            stats["jobs"] = 1
        return entries
    tracer = current_tracer()
    entries: list[TuneEntry] = []
    rejected_static = 0
    rejected_simulated = 0
    quarantined = 0
    for trial in trials:
        cfg = trial.config
        if evaluator.statically_rejected(trial.block):
            rejected_static += 1
            record_trial(
                TrialOutcome(config=cfg, status=STATUS_REJECTED_STATIC),
                trial=trial, device=device, grid_shape=grid_shape,
            )
            if tracer is not None:
                tracer.instant(
                    cfg.label(), CAT_TUNE_TRIAL,
                    config=cfg.label(), rejected="static",
                )
                tracer.metrics.counter("tune.rejected_static").inc()
            continue
        with maybe_span(tracer, cfg.label(), CAT_TUNE_TRIAL,
                        config=cfg.label()) as sp:
            outcome = evaluator.measure(cfg, trial.plan, grid_shape, trial.block)
            record_trial(
                outcome, trial=trial, device=device, grid_shape=grid_shape
            )
            if outcome.status == STATUS_REJECTED_SIMULATED:
                rejected_simulated += 1
                if sp is not None:
                    sp.args["rejected"] = "simulated"
                    tracer.metrics.counter("tune.rejected_simulated").inc()
                continue
            if outcome.status == STATUS_QUARANTINED:
                quarantined += 1
                if sp is not None:
                    sp.args["quarantined"] = True
                    sp.args["attempts"] = outcome.attempts
                    tracer.metrics.counter("tune.quarantined").inc()
                continue
            if sp is not None:
                sp.args["mpoints_per_s"] = outcome.mpoints_per_s
                tracer.metrics.counter("tune.trials").inc()
        entries.append(
            TuneEntry(
                config=cfg,
                mpoints_per_s=outcome.mpoints_per_s,
                info=dict(outcome.info),
            )
        )
    if stats is not None:
        stats["rejected_static"] = rejected_static
        stats["rejected_simulated"] = rejected_simulated
        if quarantined:
            stats["quarantined"] = quarantined
        # Same stats shape as the batch path, so archives/JSON output
        # don't change with the backend.
        stats["jobs"] = 1
    return entries


def _collect_outcomes(
    trials: list[Trial],
    outcomes: list[TrialOutcome],
    stats: dict[str, Any] | None,
    *,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
) -> list[TuneEntry]:
    """Batch-path bookkeeping: classify pre-measured outcomes.

    Emits the identical instants/spans/metric counters the serial loop
    emits (trial spans are near-zero here — the measurement already
    happened inside ``measure_trials``) and tallies the same stats, so the
    entry list and every counter are independent of which path produced
    them.
    """
    tracer = current_tracer()
    entries: list[TuneEntry] = []
    rejected_static = 0
    rejected_simulated = 0
    quarantined = 0
    for trial, outcome in zip(trials, outcomes):
        cfg = trial.config
        record_trial(outcome, trial=trial, device=device, grid_shape=grid_shape)
        if outcome.status == STATUS_REJECTED_STATIC:
            rejected_static += 1
            if tracer is not None:
                tracer.instant(
                    cfg.label(), CAT_TUNE_TRIAL,
                    config=cfg.label(), rejected="static",
                )
                tracer.metrics.counter("tune.rejected_static").inc()
            continue
        with maybe_span(tracer, cfg.label(), CAT_TUNE_TRIAL,
                        config=cfg.label()) as sp:
            if outcome.status == STATUS_REJECTED_SIMULATED:
                rejected_simulated += 1
                if sp is not None:
                    sp.args["rejected"] = "simulated"
                    tracer.metrics.counter("tune.rejected_simulated").inc()
                continue
            if outcome.status == STATUS_QUARANTINED:
                quarantined += 1
                if sp is not None:
                    sp.args["quarantined"] = True
                    sp.args["attempts"] = outcome.attempts
                    tracer.metrics.counter("tune.quarantined").inc()
                continue
            if sp is not None:
                sp.args["mpoints_per_s"] = outcome.mpoints_per_s
                tracer.metrics.counter("tune.trials").inc()
        entries.append(
            TuneEntry(
                config=cfg,
                mpoints_per_s=outcome.mpoints_per_s,
                info=dict(outcome.info),
            )
        )
    if stats is not None:
        stats["rejected_static"] = rejected_static
        stats["rejected_simulated"] = rejected_simulated
        if quarantined:
            stats["quarantined"] = quarantined
    return entries


def feasible_trials(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    space: ParameterSpace | None = None,
) -> list[Trial]:
    """The constrained space, built: one :class:`Trial` per feasible config.

    Constraint (iii) needs each candidate's shared-memory footprint, which
    is read off its built block workload; the built plan and workload are
    kept and returned (in space order) so the rest of the sweep reuses
    them.  This is the only place a tune calls ``build``.
    """
    space = space or default_space()
    built: dict[BlockConfig, Trial] = {}

    def smem_bytes_of(cfg: BlockConfig) -> int:
        trial = built[cfg] = build_trial(build, cfg, device, grid_shape)
        return trial.block.smem_bytes

    return [built[cfg] for cfg in space.feasible(device, grid_shape, smem_bytes_of)]


def feasible_configs(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    space: ParameterSpace | None = None,
) -> list[BlockConfig]:
    """The constrained space for this kernel family on this device."""
    return [t.config for t in feasible_trials(build, device, grid_shape, space)]


def exhaustive_tune(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    space: ParameterSpace | None = None,
    *,
    prefilter: bool = True,
    evaluator: TrialEvaluator | None = None,
) -> TuneResult:
    """Run the full feasible space; return the ranked result."""
    trials = feasible_trials(build, device, grid_shape, space)
    stats: dict[str, Any] = {}
    emit_event(
        "sweep.start", method="exhaustive", device=device.name,
        space_size=len(trials),
    )
    with maybe_span(
        current_tracer(), f"exhaustive on {device.name}", CAT_TUNE_RUN,
        method="exhaustive", device=device.name, space_size=len(trials),
    ) as run_span:
        entries = evaluate_configs(
            trials, device, grid_shape, prefilter=prefilter,
            stats=stats, evaluator=evaluator,
        )
        if run_span is not None:
            run_span.args.update(evaluated=len(entries), **stats)
    emit_event("sweep.finished", method="exhaustive", evaluated=len(entries))
    if not entries:
        raise TuningError(
            f"no configuration could be launched on {device.name} for {grid_shape}"
        )
    entries.sort(key=lambda e: e.mpoints_per_s, reverse=True)
    return TuneResult(
        best=entries[0],
        entries=tuple(entries),
        evaluated=len(entries),
        space_size=len(trials),
        method="exhaustive",
        info=stats,
    )
