"""The trial evaluator — the tuners' single seam for measuring configs.

This module holds the per-trial measurement protocol,
:meth:`TrialEvaluator.measure`: price a list of trials, classifying each
into a :class:`TrialOutcome`.  A list is the only way to price — the
stochastic walk, whose next candidate depends on the previous
measurement, hands over one-trial lists.

The price is the one launch verdict: a configuration the device cannot
launch (constraints on threads, registers and shared memory) comes back
``rejected_static`` from the same pricing that rates the launchable
ones, with no separate pre-filter pass.

What the evaluators consume is a :class:`Trial`: a configuration with
its built plan and block workload.  A sweep builds each trial once, in
its feasibility pass (:func:`repro.tuning.exhaustive.feasible_trials`),
and every later stage — measurement, model scoring and archive
derivation — reads that trial instead of rebuilding it.

Every tuner prices on :class:`repro.tuning.vectorized.VectorTrialEvaluator`
by default, which :class:`repro.tuning.robust.ResilientEvaluator` wraps
with faults, retries, per-config quarantine and a crash-safe journal.
:class:`SimTrialEvaluator` (one clean simulator launch per trial) is the
scalar reference the batch engine is checked against.

:class:`TrialRunner` is the only place a trial is narrated: it runs the
measurement, tallies the reject stats, and emits the
``tune.trial`` span or instant, the ``tune.*`` counters, the trial-plane
events and the archive record.  The evaluator measures, the runner
narrates, and the three tuners differ only in which trials they hand it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Protocol, Sequence

from repro.errors import ResourceLimitError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.executor import DeviceExecutor
from repro.kernels.config import BlockConfig
from repro.obs.events import current_sink, emit as emit_event
from repro.obs.schema import CAT_TUNE_TRIAL
from repro.obs.tracer import current_tracer, maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan

#: Trial classification vocabulary (also the journal's ``status`` field).
STATUS_OK = "ok"
STATUS_REJECTED_STATIC = "rejected_static"
STATUS_REJECTED_SIMULATED = "rejected_simulated"
STATUS_QUARANTINED = "quarantined"

TRIAL_STATUSES: tuple[str, ...] = (
    STATUS_OK,
    STATUS_REJECTED_STATIC,
    STATUS_REJECTED_SIMULATED,
    STATUS_QUARANTINED,
)


class Trial(NamedTuple):
    """One candidate configuration, built once for a whole sweep.

    ``block`` is ``plan.block_workload(device, grid_shape)`` for the
    sweep's device and grid.  Every stage treats it as read-only, which
    is what makes sharing one build across them safe.  That includes
    ``block.memory``: trials whose plans share an effective tile share
    one tile record and so one :class:`~repro.gpusim.memory.MemoryStats`
    object (see :func:`~repro.kernels.symmetric.tile_record_memo`), so a
    write through one trial would change the others' traffic.
    """

    config: BlockConfig
    plan: "KernelPlan"
    block: "BlockWorkload"


def build_trial(
    build: Callable[[BlockConfig], "KernelPlan"],
    cfg: BlockConfig,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
) -> Trial:
    """Build ``cfg``'s plan and its block workload on ``device``."""
    plan = build(cfg)
    return Trial(cfg, plan, plan.block_workload(device, grid_shape))


@dataclass(frozen=True)
class TrialOutcome:
    """What measuring one configuration produced.

    ``faults`` lists the fault kinds that touched the *returned*
    measurement (empty for a clean launch); a resilient evaluator retries
    faulted measurements, so a non-empty list here means retries were
    exhausted and the number should be treated as degraded.  ``attempts``
    counts executor launches spent on this config (1 for a clean first
    try); ``replayed`` marks outcomes restored from a resume journal
    without re-running anything.
    """

    config: BlockConfig
    status: str
    mpoints_per_s: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)
    attempts: int = 1
    faults: tuple[str, ...] = ()
    replayed: bool = False

    @property
    def measured(self) -> bool:
        """Did this trial produce a usable rate?"""
        return self.status == STATUS_OK


class TrialEvaluator(Protocol):
    """What a tuner needs from its measurement backend.

    :meth:`measure` takes trials the sweep already built (plan and block
    workload, see :class:`Trial`), prices them, and returns one
    :class:`TrialOutcome` per input trial **in input order** (a
    configuration its price finds unlaunchable comes back as a
    :data:`STATUS_REJECTED_STATIC` outcome instead of being silently
    dropped).  It builds nothing itself.
    """

    def measure(
        self,
        trials: list[Trial],
        grid_shape: tuple[int, int, int],
    ) -> list[TrialOutcome]:
        """Price every trial; outcomes in input order."""
        ...  # pragma: no cover - protocol


class TrialRunner:
    """Measure, classify and narrate trials — the tuners' one trial stage.

    Every tuner hands its trials to a runner's :meth:`all`; the tuners
    differ only in which trials they hand over (the stochastic walk, one
    at a time).  It prices the list in one
    :meth:`~TrialEvaluator.measure` call, then narrates each finished
    outcome in input order: its trial-plane events and archive record
    (:meth:`_record`), and (when tracing is on) one ``tune.trial`` event
    plus one ``tune.*`` counter: an instant for a static reject,
    otherwise a span around the narration whose args say how the trial
    ended.  ``stats`` tallies the non-``ok`` outcomes:
    ``rejected_static`` always, ``quarantined`` from its first
    occurrence, and ``rejected_simulated`` as a constant 0, kept because
    ``tune --json`` prints it.  The narration is skipped when no plane
    listens; the tally stays.

    ``predicted`` is a model score the tuner already computed (the
    model-based shortlist); it rides on the trace args and the archive.
    """

    def __init__(
        self,
        evaluator: TrialEvaluator,
        device: DeviceSpec,
        grid_shape: tuple[int, int, int],
    ) -> None:
        self.evaluator = evaluator
        self.device = device
        self.grid_shape = grid_shape
        self.stats: dict[str, int] = {
            STATUS_REJECTED_STATIC: 0,
            STATUS_REJECTED_SIMULATED: 0,
        }
        self._tracer = current_tracer()

    def all(
        self,
        trials: list[Trial],
        predicted: Sequence[float] | None = None,
    ) -> list[TrialOutcome]:
        """Run every trial: measure, then narrate; outcomes in input order.

        The whole call is one :func:`repro.obs.recordlog.batch`: every
        journal, event and archive record it appends is written at once
        and fsynced with its batch before this returns (or raises), one
        ``fsync`` per log.  With no tracer, event sink or archive
        installed nothing listens, so ``stats`` is only tallied: no
        label, span args or :meth:`_record` call per trial.
        """
        # Deferred import: ``python -m repro.obs.recordlog`` must be the
        # first to import its own module.
        from repro.obs import recordlog

        with recordlog.batch():
            outcomes = self.evaluator.measure(trials, self.grid_shape)
            if not self._narrated():
                for outcome in outcomes:
                    self._tally(outcome)
                return outcomes
            scores: Sequence[float | None] = (
                [None] * len(trials) if predicted is None else predicted
            )
            return [
                self._run(t, p, o) for t, p, o in zip(trials, scores, outcomes)
            ]

    def _narrated(self) -> bool:
        """Is any plane listening: a tracer, an event sink or an archive?"""
        # Deferred import: repro.obs.archive imports this module.
        from repro.obs.archive import current_archive

        return (
            self._tracer is not None
            or current_sink() is not None
            or current_archive() is not None
        )

    def _tally(self, outcome: TrialOutcome) -> None:
        if not outcome.measured:
            self.stats[outcome.status] = self.stats.get(outcome.status, 0) + 1

    def _run(
        self, trial: Trial, predicted: float | None, outcome: TrialOutcome
    ) -> TrialOutcome:
        label = trial.config.label()
        tracer = self._tracer
        args: dict[str, Any] = {"config": label}
        if predicted is not None:
            args["predicted_mpoints_per_s"] = predicted
        if outcome.status == STATUS_REJECTED_STATIC:
            self._record(outcome, trial, label, predicted)
            if tracer is not None:
                tracer.instant(label, CAT_TUNE_TRIAL, **args, rejected="static")
                tracer.metrics.counter("tune.rejected_static").inc()
            return outcome
        with maybe_span(tracer, label, CAT_TUNE_TRIAL, **args) as sp:
            self._record(outcome, trial, label, predicted)
            if sp is not None:
                if outcome.status == STATUS_QUARANTINED:
                    sp.args["quarantined"] = True
                    sp.args["attempts"] = outcome.attempts
                else:
                    sp.args["mpoints_per_s"] = outcome.mpoints_per_s
                counter = "trials" if outcome.measured else outcome.status
                tracer.metrics.counter(f"tune.{counter}").inc()
        return outcome

    def _record(
        self, outcome: TrialOutcome, trial: Trial, label: str,
        predicted: float | None,
    ) -> None:
        """Tally one finished trial, then emit its events and archive it.

        "The evaluator measures, the runner narrates": this runs **in
        input order** after the measurement returns, and nothing inside
        a measurement emits.  The event stream and the archive are
        thereby pure functions of the outcome sequence plus the plan,
        and their counts match the journal by construction.

        A replayed outcome emits only ``trial.replayed``: the work it
        describes happened (and was streamed) in the session that
        journaled it, so re-emitting measurement events would
        double-count a resumed campaign.  When a
        :class:`repro.obs.archive.TrialArchive` is installed, the
        config's record is derived from the trial's already-built plan
        and workload; ``predicted`` rides along so the archive records
        exactly the number the ranking used.
        """
        self._tally(outcome)
        if current_sink() is not None:
            if outcome.replayed:
                emit_event("trial.replayed", config=label, status=outcome.status)
            else:
                if outcome.attempts > 1:
                    emit_event(
                        "trial.retried", config=label,
                        retries=outcome.attempts - 1,
                    )
                for kind in outcome.faults:
                    emit_event("fault.observed", config=label, kind=kind)
                if outcome.status == STATUS_OK:
                    emit_event(
                        "trial.measured", config=label,
                        mpoints_per_s=outcome.mpoints_per_s,
                        attempts=outcome.attempts,
                    )
                elif outcome.status == STATUS_QUARANTINED:
                    emit_event(
                        "trial.quarantined", config=label,
                        attempts=outcome.attempts, faults=list(outcome.faults),
                    )
                else:
                    emit_event("trial.rejected", config=label, reason="static")
        # Deferred import: repro.obs.archive imports this module.
        from repro.obs.archive import current_archive

        archive = current_archive()
        if archive is not None:
            archive.capture(
                outcome, trial=trial, device=self.device,
                grid_shape=self.grid_shape, predicted=predicted,
            )


class SimTrialEvaluator:
    """The clean scalar reference: one simulator launch per trial.

    The tuners price on :class:`repro.tuning.vectorized.VectorTrialEvaluator`;
    this evaluator runs the same trials through
    :class:`~repro.gpusim.executor.DeviceExecutor`, one launch each, and
    is what the batch engine's outcomes are checked against.  A launch
    the executor refuses (:class:`~repro.errors.ResourceLimitError`) is
    ``rejected_static``.
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.executor = DeviceExecutor(device)

    def measure(
        self,
        trials: list[Trial],
        grid_shape: tuple[int, int, int],
    ) -> list[TrialOutcome]:
        """Measure every trial, one launch each; outcomes in input order."""
        return [self._launch(t, grid_shape) for t in trials]

    def _launch(self, trial: Trial, grid_shape: tuple[int, int, int]) -> TrialOutcome:
        try:
            report = self.executor.run(trial.plan, grid_shape, block=trial.block)
        except ResourceLimitError:
            return TrialOutcome(config=trial.config, status=STATUS_REJECTED_STATIC)
        return TrialOutcome(
            config=trial.config,
            status=STATUS_OK,
            mpoints_per_s=report.mpoints_per_s,
            info={
                "load_efficiency": report.load_efficiency,
                "occupancy": report.occupancy.occupancy,
                "limiter": report.occupancy.limiter,
            },
        )
