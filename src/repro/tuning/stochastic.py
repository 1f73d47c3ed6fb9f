"""Stochastic auto-tuning — the paper's "for a larger search space,
methods like dynamic programming or stochastic search can be used".

A simple, reproducible simulated-annealing walk over the feasible space:
neighbours differ in one blocking factor by one step along that factor's
candidate list; worse moves are accepted with a temperature-damped
probability.  On the four-dimensional spaces of this paper the exhaustive
search is cheap, so this tuner exists (a) as the scalable alternative the
paper gestures at and (b) as a baseline the model-based tuner must beat
at equal evaluation budgets (tested in ``tests/test_tuning_stochastic.py``).
"""

from __future__ import annotations

import math
import random
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
    TrialEvaluator,
    TrialOutcome,
    record_trial,
)
from repro.tuning.exhaustive import feasible_trials
from repro.tuning.result import TuneEntry, TuneResult
from repro.tuning.space import ParameterSpace, default_space

KernelBuilder = Callable[[BlockConfig], KernelPlan]


def _neighbours(
    cfg: BlockConfig, feasible: set[BlockConfig], space: ParameterSpace
) -> list[BlockConfig]:
    """Feasible configurations one candidate-list step away in one factor."""
    axes = (
        ("tx", space.tx_values),
        ("ty", space.ty_values),
        ("rx", space.rx_values),
        ("ry", space.ry_values),
    )
    out = []
    for name, values in axes:
        current = getattr(cfg, name)
        idx = values.index(current) if current in values else None
        if idx is None:
            continue
        for step in (-1, 1):
            j = idx + step
            if 0 <= j < len(values):
                candidate = BlockConfig(
                    **{**{a: getattr(cfg, a) for a, _ in axes}, name: values[j]}
                )
                if candidate in feasible:
                    out.append(candidate)
    return out


def stochastic_tune(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    *,
    budget: int = 30,
    seed: int = 0,
    initial_temperature: float = 0.15,
    space: ParameterSpace | None = None,
    prefilter: bool = True,
    evaluator: TrialEvaluator | None = None,
) -> TuneResult:
    """Simulated-annealing search executing at most ``budget`` configs.

    Deterministic for a given ``seed``.  The returned
    :class:`TuneResult` reports the best measured configuration and every
    configuration actually executed, like the other tuners.

    ``prefilter`` short-circuits unlaunchable configurations through the
    static resource check; they still score 0.0 and still spend budget
    (exactly like the simulator's launch failure), so the walk — and the
    winner — is bit-identical with the filter on or off.  ``evaluator``
    swaps the measurement backend (and then owns the prefilter decision);
    quarantined configurations also score 0.0 and spend budget, keeping
    the walk itself deterministic under fault storms.

    The walk is inherently sequential — each step's candidate depends on
    the previous measurement — so even a batch-capable evaluator is
    driven one config at a time.
    """
    if budget < 1:
        raise TuningError(f"budget must be >= 1, got {budget}")
    space = space or default_space()
    trials = {t.config: t for t in feasible_trials(build, device, grid_shape, space)}
    configs = list(trials)
    feas = set(configs)
    rng = random.Random(seed)
    evaluator = evaluator or SimTrialEvaluator(device, prefilter=prefilter)

    measured: dict[BlockConfig, float] = {}
    trial_info: dict[BlockConfig, dict[str, Any]] = {}
    stats = {"rejected_static": 0, "rejected_simulated": 0}

    tracer = current_tracer()

    def measure(cfg: BlockConfig) -> float | None:
        if cfg in measured:
            return measured[cfg]
        if len(measured) >= budget:
            return None
        trial = trials[cfg]
        with maybe_span(tracer, cfg.label(), CAT_TUNE_TRIAL,
                        config=cfg.label()) as sp:
            if evaluator.statically_rejected(trial.block):
                stats["rejected_static"] += 1
                rate = 0.0
                record_trial(
                    TrialOutcome(config=cfg, status=STATUS_REJECTED_STATIC),
                    trial=trial, device=device, grid_shape=grid_shape,
                )
                if sp is not None:
                    sp.args["rejected"] = "static"
                    tracer.metrics.counter("tune.rejected_static").inc()
            else:
                outcome = evaluator.measure(cfg, trial.plan, grid_shape, trial.block)
                record_trial(
                    outcome, trial=trial, device=device, grid_shape=grid_shape
                )
                rate = outcome.mpoints_per_s if outcome.measured else 0.0
                if outcome.measured:
                    trial_info[cfg] = dict(outcome.info)
                if outcome.status == STATUS_REJECTED_SIMULATED:
                    stats["rejected_simulated"] += 1
                    if sp is not None:
                        sp.args["rejected"] = "simulated"
                        tracer.metrics.counter("tune.rejected_simulated").inc()
                elif outcome.status == STATUS_QUARANTINED:
                    stats["quarantined"] = stats.get("quarantined", 0) + 1
                    if sp is not None:
                        sp.args["quarantined"] = True
                        sp.args["attempts"] = outcome.attempts
                        tracer.metrics.counter("tune.quarantined").inc()
                elif sp is not None:
                    sp.args["mpoints_per_s"] = rate
                    tracer.metrics.counter("tune.trials").inc()
        measured[cfg] = rate
        return rate

    emit_event(
        "sweep.start", method="stochastic", device=device.name,
        space_size=len(configs),
    )
    with maybe_span(
        tracer, f"stochastic on {device.name}", CAT_TUNE_RUN,
        method="stochastic", device=device.name, space_size=len(configs),
        budget=budget, seed=seed,
    ) as run_span:
        current = rng.choice(configs)
        current_rate = measure(current) or 0.0
        best, best_rate = current, current_rate

        step = 0
        stale = 0
        while len(measured) < budget:
            step += 1
            temperature = initial_temperature / (1.0 + 0.2 * step)
            options = _neighbours(current, feas, space)
            candidate = rng.choice(options) if options else rng.choice(configs)
            if candidate in measured:
                stale += 1
                # Frozen at a local optimum whose whole neighbourhood has been
                # measured: restart from a random *unmeasured* configuration so
                # the budget is always spent (and the loop always terminates).
                if stale > 8:
                    unmeasured = [c for c in configs if c not in measured]
                    if not unmeasured:
                        break
                    candidate = rng.choice(unmeasured)
                    stale = 0
            else:
                stale = 0
            rate = measure(candidate)
            if rate is None:
                break
            if rate > best_rate:
                best, best_rate = candidate, rate
            # Metropolis acceptance on relative performance.
            if rate >= current_rate:
                current, current_rate = candidate, rate
            else:
                rel = (rate - current_rate) / max(current_rate, 1e-9)
                if rng.random() < math.exp(rel / max(temperature, 1e-6)):
                    current, current_rate = candidate, rate
        if run_span is not None:
            run_span.args.update(evaluated=len(measured), **stats)
    emit_event("sweep.finished", method="stochastic", evaluated=len(measured))

    # Diagnostics ride along without touching the walk: the sort key is
    # the measured rate alone, exactly as before, so the ranking (and the
    # winner) is unchanged by the info payload.
    entries = tuple(
        sorted(
            (
                TuneEntry(
                    config=c, mpoints_per_s=r, info=trial_info.get(c, {})
                )
                for c, r in measured.items()
            ),
            key=lambda e: e.mpoints_per_s,
            reverse=True,
        )
    )
    return TuneResult(
        best=entries[0],
        entries=entries,
        evaluated=len(entries),
        space_size=len(configs),
        method="stochastic",
        info=dict(stats),
    )
