"""In-process vectorized trial evaluator over the batch simulator core.

:class:`VectorTrialEvaluator` is the measurement backend of every
``repro tune`` session, plain or resilient, and every tuner's default.
It takes the :class:`~repro.tuning.evaluator.Trial` list the sweep's
feasibility pass already built (plan and block workload per config) and
dispatches it to :class:`repro.gpusim.batch.BatchEngine` — one NumPy
pass over the deduplicated block classes instead of N scalar pipeline
walks — while classifying every outcome exactly as the scalar
:class:`~repro.tuning.evaluator.SimTrialEvaluator` would:

* unlaunchable → ``rejected_static``, read from the price's
  ``launch_error`` (the op table's launch check, the same one that makes
  the executor raise :class:`~repro.errors.ResourceLimitError`);
* launchable → ``ok`` with the bit-identical rate and the same
  ``info`` keys (``load_efficiency`` / ``occupancy`` / ``limiter``).

A one-trial :meth:`~VectorTrialEvaluator.measure` (the stochastic walk)
prices on the scalar op table instead (``BatchEngine.score``).
:meth:`VectorTrialEvaluator.measure_batch` is the convenience form for
callers holding only a builder and configs: it builds the trials and
prices them through the same :meth:`~VectorTrialEvaluator.measure_trials`.

Because the engine is bit-identical to the scalar path (the
``batch-identity`` gate in ``tools/check.py``), a tuner over this
evaluator picks the same winner with the same tie-breaks as over the
scalar reference — it is a pure throughput substitution.  Fault storms price here
too: :class:`repro.tuning.robust.ResilientEvaluator` overlays its fault
plan on these prices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.gpusim.batch import BatchEngine, BlockClass, ClassScore
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.timing import TimingParams
from repro.kernels.config import BlockConfig
from repro.obs.events import suppress_events
from repro.tuning.evaluator import (
    STATUS_OK,
    STATUS_REJECTED_STATIC,
    Trial,
    TrialOutcome,
    build_trial,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.workload import BlockWorkload, GridWorkload
    from repro.kernels.base import KernelPlan


def shared_grid_workloads(
    trials: list[Trial],
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
) -> list["GridWorkload"]:
    """Each trial's grid workload, built once per distinct plan grid key.

    Trials whose plans share a :meth:`~repro.kernels.base.KernelPlan.grid_key`
    share one (frozen) :class:`~repro.gpusim.workload.GridWorkload`.
    """
    built: dict[tuple[int, ...], "GridWorkload"] = {}
    grids: list["GridWorkload"] = []
    for t in trials:
        key = t.plan.grid_key()
        grid = built.get(key)
        if grid is None:
            grid = built[key] = t.plan.grid_workload(device, grid_shape)
        grids.append(grid)
    return grids


class VectorTrialEvaluator:
    """Batch trial evaluator backed by the vectorized simulator core.

    Parameters
    ----------
    device:
        Device spec or registry name trials run on.
    params:
        Optional timing-parameter override, forwarded to the engine.
    engine:
        Injectable :class:`~repro.gpusim.batch.BatchEngine`, so repeated
        sweeps (service workloads, codesign loops) share one per-class
        memo across evaluator instances.
    """

    def __init__(
        self,
        device: DeviceSpec | str,
        *,
        params: TimingParams | None = None,
        engine: BatchEngine | None = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.engine = engine or BatchEngine(self.device, params)

    # -- TrialEvaluator protocol ------------------------------------------

    def measure(
        self,
        cfg: BlockConfig,
        plan: "KernelPlan",
        grid_shape: tuple[int, int, int],
        block: "BlockWorkload",
    ) -> TrialOutcome:
        """Measure one config on the scalar table (sequential entry point)."""
        grid = plan.grid_workload(self.device, grid_shape)
        return classify(cfg, self.engine.score(BlockClass.of(block, grid)))

    def measure_trials(
        self,
        trials: list[Trial],
        grid_shape: tuple[int, int, int],
    ) -> list[TrialOutcome]:
        """Price every trial; outcomes in input order."""
        # Pricing is event-silent: the trial runner narrates from the
        # returned outcomes in input order.
        with suppress_events():
            scores = self.engine.scores(self.classes(trials, grid_shape))
        return [classify(t.config, score) for t, score in zip(trials, scores)]

    def classes(self, trials: list[Trial], grid_shape: tuple[int, int, int]) -> list[BlockClass]:
        """Each trial's block class, sharing grid workloads across trials."""
        grids = shared_grid_workloads(trials, self.device, grid_shape)
        return [BlockClass.of(t.block, g) for t, g in zip(trials, grids)]

    def measure_batch(
        self,
        build: Callable[[BlockConfig], "KernelPlan"],
        configs: list[BlockConfig],
        grid_shape: tuple[int, int, int],
    ) -> list[TrialOutcome]:
        """Build each configuration's trial, then :meth:`measure_trials`."""
        with suppress_events():
            trials = [
                build_trial(build, cfg, self.device, grid_shape)
                for cfg in configs
            ]
        return self.measure_trials(trials, grid_shape)


def classify(cfg: BlockConfig, score: ClassScore) -> TrialOutcome:
    """The outcome of a clean launch of ``score``'s class for ``cfg``.

    An unlaunchable class (``score.launch_error`` set) is
    ``rejected_static``: the one launch verdict every evaluator reads.
    """
    if score.launch_error is not None:
        return TrialOutcome(config=cfg, status=STATUS_REJECTED_STATIC)
    return TrialOutcome(
        config=cfg,
        status=STATUS_OK,
        mpoints_per_s=score.mpoints_per_s,
        info={
            "load_efficiency": score.load_efficiency,
            "occupancy": score.occupancy,
            "limiter": score.limiter,
        },
    )
