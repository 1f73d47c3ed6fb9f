"""Model-based auto-tuning — the section VI procedure.

1. Enumerate the feasible parameter space (M configurations).
2. Predict every configuration's performance with the paper model.
3. Rank predictions in decreasing order and keep the top
   ``N = beta/100 * M`` candidates.
4. Execute only those N on the simulator; return the best *measured*
   configuration.

With beta = 5% the paper finds the result typically within ~2% of the
exhaustive optimum (Fig 12); the reproduction bench checks the same gap.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import TuningError
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.obs.events import emit as emit_event
from repro.obs.schema import CAT_TUNE_RUN
from repro.obs.tracer import current_tracer, maybe_span
from repro.tuning.evaluator import Trial, TrialEvaluator, TrialRunner
from repro.tuning.exhaustive import default_evaluator, feasible_trials
from repro.tuning.perfmodel import ModelInputs, PaperModel
from repro.tuning.result import TuneEntry, TuneResult
from repro.tuning.space import ParameterSpace

KernelBuilder = Callable[[BlockConfig], KernelPlan]


def model_based_tune(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    beta: float = 0.05,
    space: ParameterSpace | None = None,
    *,
    evaluator: TrialEvaluator | None = None,
) -> TuneResult:
    """Tune by executing only the model's top ``beta`` fraction.

    ``beta`` is a fraction in (0, 1]; the paper's default cutoff is 5%.
    The shortlist size N is always computed from the *full* feasible
    space, so a shortlisted config its price rejects still counts
    toward N.  ``evaluator`` is the measurement backend (default: the
    batch engine on ``device``).
    """
    if not 0.0 < beta <= 1.0:
        raise TuningError(f"beta must be in (0, 1], got {beta}")

    trials = feasible_trials(build, device, grid_shape, space)
    model = PaperModel(device)
    tracer = current_tracer()

    emit_event(
        "sweep.start", method="model", device=device.name,
        space_size=len(trials),
    )
    with maybe_span(
        tracer, f"model on {device.name}", CAT_TUNE_RUN,
        method="model", device=device.name, space_size=len(trials), beta=beta,
    ) as run_span:
        # Vectorized scoring pass: predict_batch mirrors predict() op for
        # op, so the scores — and the shortlist they rank — are
        # bit-identical to the historical per-config loop.  The inputs
        # read the workloads the feasibility pass already built.
        inputs = [
            ModelInputs.from_workload(t.plan.block, t.block, device, grid_shape)
            for t in trials
        ]
        scores = model.predict_batch(inputs)
        predictions: list[tuple[Trial, float]] = [
            (t, float(score)) for t, score in zip(trials, scores)
        ]
        predictions.sort(key=lambda item: item[1], reverse=True)

        n = max(1, math.ceil(beta * len(trials)))
        shortlist = predictions[:n]

        runner = TrialRunner(
            evaluator or default_evaluator(device), device, grid_shape
        )
        outcomes = runner.all(
            [t for t, _ in shortlist], [p for _, p in shortlist]
        )
        entries = [
            TuneEntry(
                config=o.config,
                mpoints_per_s=o.mpoints_per_s,
                predicted=predicted,
                info={
                    k: o.info[k]
                    for k in ("load_efficiency", "occupancy")
                    if k in o.info
                },
            )
            for (_, predicted), o in zip(shortlist, outcomes)
            if o.measured
        ]
        stats = {**runner.stats, "jobs": 1}
        if run_span is not None:
            run_span.args.update(
                shortlist=n, evaluated=len(entries), **stats
            )
    emit_event("sweep.finished", method="model", evaluated=len(entries))
    if not entries:
        raise TuningError(
            f"none of the model's top {n} candidates could be launched on "
            f"{device.name}"
        )
    entries.sort(key=lambda e: e.mpoints_per_s, reverse=True)
    return TuneResult(
        best=entries[0],
        entries=tuple(entries),
        evaluated=len(entries),
        space_size=len(trials),
        method="model",
        info=stats,
    )

