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
from repro.kernels.symmetric import tile_record_memo
from repro.obs.events import emit as emit_event
from repro.obs.schema import CAT_TUNE_RUN
from repro.obs.tracer import current_tracer, maybe_span
from repro.tuning.evaluator import Trial, TrialEvaluator, TrialRunner
from repro.tuning.result import TuneEntry, TuneResult
from repro.tuning.space import ParameterSpace, default_space

KernelBuilder = Callable[[BlockConfig], KernelPlan]


def default_evaluator(device: DeviceSpec) -> TrialEvaluator:
    """The tuners' measurement backend: the batch engine on ``device``."""
    # Deferred import: repro.gpusim.batch loads only when a tune prices.
    from repro.tuning.vectorized import VectorTrialEvaluator

    return VectorTrialEvaluator(device)


def evaluate_configs(
    trials: list[Trial],
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    *,
    stats: dict[str, Any] | None = None,
    evaluator: TrialEvaluator | None = None,
) -> list[TuneEntry]:
    """Execute each trial's configuration; unlaunchable ones are dropped.

    ``trials`` come from :func:`feasible_trials`: the plan and block
    workload each stage needs are already built, so nothing here (nor in
    the evaluator, nor in the archive capture) builds them again.

    The static resource check rejects unlaunchable configurations from
    the workload record alone, skipping the timing pipeline; it is the
    identical occupancy test the executor would run.  ``stats``
    (optional, mutated in place) receives ``rejected_static`` /
    ``rejected_simulated`` counts (and a ``quarantined`` count when a
    resilient evaluator gave up on configs), then ``jobs``.

    ``evaluator`` is the measurement backend (default: a
    :class:`~repro.tuning.vectorized.VectorTrialEvaluator` on
    ``device``; pass a :class:`~repro.tuning.robust.ResilientEvaluator`
    for retry / quarantine / journal semantics).
    """
    runner = TrialRunner(
        evaluator or default_evaluator(device), device, grid_shape
    )
    outcomes = runner.all(trials)
    if stats is not None:
        stats.update(runner.stats, jobs=1)
    return [
        TuneEntry(config=o.config, mpoints_per_s=o.mpoints_per_s, info=dict(o.info))
        for o in outcomes
        if o.measured
    ]


def feasible_trials(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    space: ParameterSpace | None = None,
) -> list[Trial]:
    """The constrained space, built: one :class:`Trial` per feasible config.

    Constraint (iii) reads each candidate's shared-memory footprint off
    its plan (``plan.smem_bytes()``); only the candidates that pass get a
    block workload.  The built plan and workload are kept and returned
    (in space order) so the rest of the sweep reuses them.  This is the
    only place a tune calls ``build``.

    The builds run inside :func:`~repro.kernels.symmetric.tile_record_memo`,
    so trials whose plans share an effective tile share one tile record;
    the memo ends with this call.
    """
    space = space or default_space()
    built: dict[BlockConfig, Trial] = {}

    def smem_bytes_of(cfg: BlockConfig) -> int:
        plan = build(cfg)
        smem_bytes = plan.smem_bytes()
        if smem_bytes <= device.smem_per_sm:
            built[cfg] = Trial(cfg, plan, plan.block_workload(device, grid_shape))
        return smem_bytes

    with tile_record_memo():
        feasible = space.feasible(device, grid_shape, smem_bytes_of)
    return [built[cfg] for cfg in feasible]


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
    evaluator: TrialEvaluator | None = None,
) -> TuneResult:
    """Run the full feasible space; return the ranked result.

    ``evaluator`` is the measurement backend, as in
    :func:`evaluate_configs`.
    """
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
            trials, device, grid_shape, stats=stats, evaluator=evaluator,
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
