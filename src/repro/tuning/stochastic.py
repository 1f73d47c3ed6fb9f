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
from typing import Callable

from repro.errors import TuningError
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.obs.events import emit as emit_event
from repro.obs.schema import CAT_TUNE_RUN
from repro.obs.tracer import current_tracer, maybe_span
from repro.tuning.evaluator import TrialEvaluator, TrialOutcome, TrialRunner
from repro.tuning.exhaustive import default_evaluator, feasible_trials
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


def _score(outcome: TrialOutcome) -> float:
    """The walk's view of a trial: its rate, or 0.0 when nothing ran."""
    return outcome.mpoints_per_s if outcome.measured else 0.0


def stochastic_tune(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    *,
    budget: int = 30,
    seed: int = 0,
    initial_temperature: float = 0.15,
    space: ParameterSpace | None = None,
    evaluator: TrialEvaluator | None = None,
) -> TuneResult:
    """Simulated-annealing search executing at most ``budget`` configs.

    Deterministic for a given ``seed``.  The returned
    :class:`TuneResult` reports the best measured configuration and every
    configuration actually executed, like the other tuners.

    Unlaunchable configurations are rejected by their price; they still
    score 0.0 and still spend budget.
    ``evaluator`` is the measurement backend (default: the batch engine
    on ``device``); quarantined configurations also score 0.0 and spend
    budget, keeping the walk itself deterministic under fault storms.
    When no walked configuration measured ``ok`` it raises
    :class:`TuningError`, as the other tuners do.

    The walk is inherently sequential — each step's candidate depends on
    the previous measurement — so it is driven one config at a time
    (:meth:`~repro.tuning.evaluator.TrialEvaluator.measure`).
    """
    if budget < 1:
        raise TuningError(f"budget must be >= 1, got {budget}")
    space = space or default_space()
    trials = {t.config: t for t in feasible_trials(build, device, grid_shape, space)}
    configs = list(trials)
    feas = set(configs)
    rng = random.Random(seed)
    runner = TrialRunner(
        evaluator or default_evaluator(device), device, grid_shape
    )
    measured: dict[BlockConfig, TrialOutcome] = {}

    def measure(cfg: BlockConfig) -> float | None:
        if cfg not in measured:
            if len(measured) >= budget:
                return None
            measured[cfg] = runner.one(trials[cfg])
        return _score(measured[cfg])

    emit_event(
        "sweep.start", method="stochastic", device=device.name,
        space_size=len(configs),
    )
    with maybe_span(
        current_tracer(), f"stochastic on {device.name}", CAT_TUNE_RUN,
        method="stochastic", device=device.name, space_size=len(configs),
        budget=budget, seed=seed,
    ) as run_span:
        current = rng.choice(configs)
        current_rate = measure(current) or 0.0

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
            # Metropolis acceptance on relative performance.
            if rate >= current_rate:
                current, current_rate = candidate, rate
            else:
                rel = (rate - current_rate) / max(current_rate, 1e-9)
                if rng.random() < math.exp(rel / max(temperature, 1e-6)):
                    current, current_rate = candidate, rate
        if run_span is not None:
            run_span.args.update(evaluated=len(measured), **runner.stats)
    emit_event("sweep.finished", method="stochastic", evaluated=len(measured))
    if not any(o.measured for o in measured.values()):
        raise TuningError(
            f"no configuration could be launched on {device.name} for {grid_shape}"
        )

    # Diagnostics ride along without touching the walk: the sort key is
    # the measured rate alone, so the ranking (and the winner) does not
    # depend on the info payload.
    entries = tuple(
        sorted(
            (
                TuneEntry(
                    config=c, mpoints_per_s=_score(o),
                    info=dict(o.info) if o.measured else {},
                )
                for c, o in measured.items()
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
        info=dict(runner.stats),
    )
