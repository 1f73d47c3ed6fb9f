"""Crash-safe, self-healing tuning sessions.

The paper's section VI economy argument is about tuning *time*; on real
clusters the dominant cost of a long campaign is usually *fragility* —
hung kernels, ECC events, nodes rebooting mid-sweep, and the re-runs they
force.  This module makes the reproduction's tuning campaigns survive the
failure modes :mod:`repro.gpusim.faults` injects:

* **retry with exponential backoff + jitter** — transient faults
  (launch failures, hangs, throttled or ECC-flagged measurements) are
  retried up to :attr:`RetryPolicy.max_retries` times per configuration;
* **per-config quarantine** — a configuration that keeps faulting is
  recorded as ``quarantined`` and excluded from the ranking instead of
  poisoning it with a degraded number;
* **crash-safe journal** — every completed trial is appended to a record
  log (:mod:`repro.obs.recordlog`), fsynced once per priced list of
  trials (with its events and archive records; the stochastic walk's
  lists hold one trial each), so a killed campaign resumes with
  ``repro tune --resume`` without re-running any journaled trial;
* **graceful degradation** — :class:`RobustTuningSession` walks the tier
  ladder model → stochastic → exhaustive, falling through when a tier
  cannot produce a usable winner.

Every ``repro tune`` is one session; with no fault plan, journal or
event sink it is exactly a plain tuner run.  A session prices on the
tuners' batch engine
(:class:`~repro.tuning.vectorized.VectorTrialEvaluator`); faults are an
overlay on those clean prices, applied per launch attempt by
:func:`repro.gpusim.faults.apply_launch_faults`.  A configuration whose
price says it cannot launch is rejected before any of that: it draws no
fault, is not journaled and moves no stat.

Everything is deterministic: backoff jitter comes from a seeded RNG, the
fault schedule from :class:`~repro.gpusim.faults.FaultPlan`, so the same
seed reproduces the same fault sequence, retries and winner, trial for
trial.  The backoff *sleep* defaults to a no-op — simulated campaigns
should not spend wall-clock time — but the computed delays are still
accounted in :attr:`ResilientEvaluator.stats`.
"""

from __future__ import annotations

import logging
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    FaultInjectedError,
    JournalError,
    KernelHangError,
    TuningError,
)
from repro.gpusim.batch import BlockClass, ClassScore
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.faults import apply_launch_faults
from repro.kernels.config import BlockConfig
from repro.obs import recordlog
from repro.obs.archive import TrialArchive, archive_stream
from repro.obs.events import (
    EventSink,
    FlightRecorder,
    JsonlEventSink,
    TeeEventSink,
    current_sink,
    emit as emit_event,
    event_stream,
)
from repro.obs.tracer import current_tracer, set_gauge
from repro.tuning.evaluator import (
    STATUS_QUARANTINED,
    TRIAL_STATUSES,
    Trial,
    TrialOutcome,
)
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.modelbased import model_based_tune
from repro.tuning.result import TuneResult
from repro.tuning.stochastic import stochastic_tune
from repro.tuning.vectorized import VectorTrialEvaluator, classify
from repro.utils.maths import backoff_error, jittered_backoff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.faults import FaultPlan
    from repro.kernels.base import KernelPlan
    from repro.tuning.space import ParameterSpace

logger = logging.getLogger("repro.tuning.robust")

#: The graceful-degradation ladder, cheapest tier first.
DEGRADATION_LADDER: tuple[str, ...] = ("model", "stochastic", "exhaustive")


@dataclass(frozen=True)
class RetryPolicy:
    """How transient-looking trial failures are retried.

    Delays are :func:`repro.utils.maths.jittered_backoff` (so two
    sessions with the same seed back off identically).  ``sleep`` is
    invoked with each
    delay; the default ``None`` means "account the delay but do not
    block" — right for the simulator, replaceable with ``time.sleep``
    for wall-clock campaigns.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    sleep: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise TuningError(f"max_retries must be >= 0, got {self.max_retries}")
        error = backoff_error(self.backoff_base_s, self.backoff_factor, self.jitter)
        if error is not None:
            raise TuningError(error)

    def delay_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of trial ``key``."""
        return jittered_backoff(
            self.backoff_base_s, self.backoff_factor, self.jitter, self.seed,
            key, attempt,
        )


# -- the journal -----------------------------------------------------------


def _outcome_to_obj(outcome: TrialOutcome) -> dict[str, Any]:
    return {
        "config": list(outcome.config.as_tuple()),
        "status": outcome.status,
        "mpoints_per_s": outcome.mpoints_per_s,
        "info": outcome.info,
        "attempts": outcome.attempts,
        "faults": list(outcome.faults),
    }


def _outcome_from_obj(obj: dict[str, Any], path: Path, line: int) -> TrialOutcome:
    try:
        config = BlockConfig(*(int(v) for v in obj["config"]))
        status = obj["status"]
        if status not in TRIAL_STATUSES:
            raise ValueError(f"unknown trial status {status!r}")
        return TrialOutcome(
            config=config,
            status=status,
            mpoints_per_s=float(obj.get("mpoints_per_s", 0.0)),
            info=dict(obj.get("info", {})),
            attempts=int(obj.get("attempts", 1)),
            faults=tuple(str(f) for f in obj.get("faults", ())),
            replayed=True,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"{path}:{line}: bad journal record: {exc}") from exc


class TrialJournal:
    """Append-only record of completed trials, keyed by config.

    A record log of kind ``journal`` (:mod:`repro.obs.recordlog`).  Line
    1 is a header binding the journal to one session key (device, grid,
    fault plan, ...): resuming against the wrong journal raises
    :class:`repro.errors.JournalError` instead of silently replaying
    foreign measurements.  Every subsequent line is one completed
    :class:`~repro.tuning.evaluator.TrialOutcome`.  A process killed
    mid-write leaves at most one torn final line, which :meth:`resume`
    drops (the interrupted trial simply re-runs); a crash inside a trial
    batch can also lose the batch's unsynced records, which re-run the
    same way.
    """

    VERSION = 1
    TOOL = "repro.tuning.robust"

    def __init__(self, path: str | Path, session_key: str) -> None:
        self.path = Path(path)
        self.session_key = session_key
        self._outcomes: dict[BlockConfig, TrialOutcome] = {}
        self._torn_tail_possible = False

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, session_key: str) -> "TrialJournal":
        """Start a fresh journal (truncating any previous file)."""
        journal = cls(path, session_key)
        recordlog.create(journal.path, recordlog.make_header(
            "journal", cls.TOOL, cls.VERSION, session_key
        ))
        return journal

    @classmethod
    def resume(cls, path: str | Path, session_key: str) -> "TrialJournal":
        """Reload a journal; raises :class:`JournalError` when unusable."""
        journal = cls(path, session_key)
        if not journal.path.exists():
            raise JournalError(f"{journal.path}: resume journal does not exist")
        for outcome in read_journal(journal.path, session_key=session_key):
            journal._outcomes[outcome.config] = outcome
        journal._torn_tail_possible = True
        return journal

    # -- record/replay -----------------------------------------------------

    def get(self, config: BlockConfig) -> TrialOutcome | None:
        """The journaled outcome for ``config``, marked ``replayed``."""
        return self._outcomes.get(config)

    def record(self, outcome: TrialOutcome) -> None:
        """Append one completed trial, written at once and fsynced before
        returning, or with its batch inside a :func:`recordlog.batch`
        (every :meth:`~repro.tuning.evaluator.TrialRunner.all`).

        The first record after :meth:`resume` first cuts off a torn tail
        the reader dropped, so it starts a line of its own.
        """
        if self._torn_tail_possible:
            recordlog.end_on_line(self.path)
            self._torn_tail_possible = False
        self._outcomes[outcome.config] = outcome
        recordlog.append(self.path, _outcome_to_obj(outcome))

    def __len__(self) -> int:
        return len(self._outcomes)


def read_journal(
    path: str | Path, *, session_key: str | None = None, strict: bool = False
) -> list[TrialOutcome]:
    """A journal's outcomes in file order, marked ``replayed``; with no
    ``session_key`` a journal of any session is accepted."""
    _header, records = recordlog.read(
        path, kind="journal", tool=TrialJournal.TOOL,
        version=TrialJournal.VERSION, error=JournalError,
        session=session_key, strict=strict,
    )
    return [_outcome_from_obj(obj, Path(path), i) for i, obj in records]


# -- the resilient evaluator -----------------------------------------------

#: Fault kinds that are deterministic re-runs of the same number — a
#: retry cannot help, so the config goes straight to quarantine.
_NON_RETRYABLE_KINDS = frozenset({"watchdog"})


class ResilientEvaluator:
    """Fault overlay, retry, quarantine and journal on batch pricing.

    A :class:`~repro.tuning.evaluator.TrialEvaluator`: the
    tuners cannot tell they are talking to it, which is the whole point —
    the search logic stays fault-oblivious while every launchable
    configuration gains

    1. journal replay (a config already journaled never re-runs),
    2. one ``faults`` draw per launch attempt, overlaid on ``inner``'s
       clean price (:func:`repro.gpusim.faults.apply_launch_faults`),
    3. retries with deterministic backoff for transient faults,
    4. quarantine once retries are exhausted (or immediately for
       deterministic failures like a genuine watchdog overrun).

    A configuration ``inner``'s price finds unlaunchable is
    ``rejected_static`` before any of these steps: it draws nothing,
    writes no journal record and moves no stat.  :meth:`measure` prices
    every trial in one engine call, then walks them in input order, so a
    list gives the outcomes, stats and journal of one one-trial list per
    trial.

    ``stats`` accumulates across tiers: ``live_trials`` (launch attempts),
    ``replayed``, ``retries``, ``quarantined_configs`` and ``backoff_s``
    (total computed delay, slept or not).
    """

    def __init__(
        self,
        inner: VectorTrialEvaluator,
        *,
        faults: "FaultPlan | None" = None,
        watchdog_cycles: float | None = None,
        policy: RetryPolicy | None = None,
        journal: TrialJournal | None = None,
    ) -> None:
        self.inner = inner
        self.faults = faults
        self.watchdog_cycles = watchdog_cycles
        self.policy = policy or RetryPolicy()
        self.journal = journal
        self.stats: dict[str, Any] = {
            "live_trials": 0,
            "replayed": 0,
            "retries": 0,
            "quarantined_configs": 0,
            "backoff_s": 0.0,
        }

    def measure(
        self,
        trials: list[Trial],
        grid_shape: tuple[int, int, int],
    ) -> list[TrialOutcome]:
        """Measure every trial; outcomes in input order."""
        classes = self.inner.classes(trials, grid_shape)
        scores = self.inner.engine.scores(classes)
        tracer = current_tracer()
        return [
            self._measure(t.config, t.plan.name, score, cls, tracer)
            for t, score, cls in zip(trials, scores, classes)
        ]

    def _measure(
        self, cfg: BlockConfig, kernel: str, score: ClassScore,
        cls: BlockClass, tracer: Any,
    ) -> TrialOutcome:
        """Reject an unlaunchable price, else replay or attempt the launch."""
        if score.launch_error is not None:
            return classify(cfg, score)
        return self._replay(cfg) or self._attempt(cfg, kernel, score, cls, tracer)

    def _replay(self, cfg: BlockConfig) -> TrialOutcome | None:
        """The journaled outcome for ``cfg``, counted as replayed."""
        replayed = None if self.journal is None else self.journal.get(cfg)
        if replayed is not None:
            self.stats["replayed"] += 1
        return replayed

    def _backoff(self, key: str, attempt: int) -> None:
        delay = self.policy.delay_s(key, attempt)
        self.stats["backoff_s"] += delay
        if self.policy.sleep is not None:
            self.policy.sleep(delay)

    def _attempt(
        self, cfg: BlockConfig, kernel: str, score: ClassScore,
        cls: BlockClass, tracer: Any,
    ) -> TrialOutcome:
        """Launch until clean, retries exhausted or a deterministic failure."""
        faults_seen: list[str] = []
        degraded: TrialOutcome | None = None
        attempts = 0
        while attempts <= self.policy.max_retries:
            if attempts:
                self.stats["retries"] += 1
                self._backoff(cfg.label(), attempts - 1)
            attempts += 1
            self.stats["live_trials"] += 1
            try:
                rates, event = apply_launch_faults(
                    self.faults, self.inner.device, kernel, score, cls,
                    watchdog_cycles=self.watchdog_cycles, tracer=tracer,
                )
            except (FaultInjectedError, KernelHangError) as exc:
                faults_seen.append(exc.kind)
                if exc.kind in _NON_RETRYABLE_KINDS:
                    logger.warning(
                        "%s: non-retryable %s fault, quarantining",
                        cfg.label(), exc.kind,
                    )
                    break
                logger.info(
                    "%s: attempt %d faulted (%s), %s", cfg.label(), attempts,
                    exc.kind, "retrying" if attempts <= self.policy.max_retries
                    else "quarantining",
                )
                continue
            if event is None:
                clean = classify(cfg, score)
                return self._finish(
                    clean if attempts == 1 else replace(clean, attempts=attempts)
                )
            # Completed but fault-flagged (throttle/ECC): the number is
            # suspect.  Keep it as a last resort and retry for clean.
            faults_seen.append(event.kind)
            degraded = replace(classify(cfg, score), mpoints_per_s=rates[1])
            logger.info(
                "%s: attempt %d returned a fault-flagged measurement (%s)",
                cfg.label(), attempts, event.kind,
            )

        if degraded is not None:
            return self._finish(replace(degraded, attempts=attempts, faults=tuple(faults_seen)))
        self.stats["quarantined_configs"] += 1
        set_gauge("tune.quarantined", self.stats["quarantined_configs"])
        return self._finish(TrialOutcome(
            config=cfg, status=STATUS_QUARANTINED, attempts=attempts, faults=tuple(faults_seen)
        ))

    def _finish(self, outcome: TrialOutcome) -> TrialOutcome:
        if self.journal is not None:
            self.journal.record(outcome)
        return outcome


# -- the session -----------------------------------------------------------


@dataclass(frozen=True)
class SessionResult:
    """What a resilient tuning session produced."""

    result: TuneResult
    method: str                       #: the tier that produced the winner
    degraded_from: tuple[str, ...]    #: tiers that failed before it
    tier_errors: dict[str, str] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    journal_path: str | None = None

    def summary(self) -> str:
        line = self.result.summary()
        if self.degraded_from:
            line += f" [degraded from {' -> '.join(self.degraded_from)}]"
        replayed = self.stats.get("replayed", 0)
        if replayed:
            line += f" [{replayed} trial(s) replayed from journal]"
        return line


class RobustTuningSession:
    """One crash-safe tuning campaign over the degradation ladder.

    Parameters
    ----------
    device:
        Device spec or registry name.
    grid_shape:
        The sweep volume trials are priced on.
    faults:
        Optional :class:`~repro.gpusim.faults.FaultPlan` applied to every
        priced launch (``None``: clean campaign).
    policy:
        Retry/backoff/quarantine policy (default :class:`RetryPolicy`).
    journal_path:
        Where to persist completed trials.  ``None`` disables
        persistence (the session is still resilient, just not
        resumable).
    resume:
        Reload ``journal_path`` and replay its trials instead of
        re-running them.  Raises :class:`repro.errors.JournalError` when
        the file is missing, unreadable, or belongs to a different
        session key.
    session_key:
        Identity the journal is bound to; defaults to
        ``device:grid[:faults]`` and should be extended by callers that
        vary more than that (the CLI prepends family/order/dtype).
    watchdog_cycles:
        Forwarded to the fault overlay.
    events_path:
        Where to stream structured events
        (:class:`repro.obs.events.JsonlEventSink`, tailed by
        ``repro top``).  ``None`` (default) leaves the event layer
        exactly as the caller configured it — off unless a sink is
        already installed.
    archive_path:
        Where to write the per-trial decision-provenance archive
        (:class:`repro.obs.archive.TrialArchive`: measured rate, model
        prediction, codegen-time estimate, derived counters and
        disposition per evaluated config — what ``repro explain``
        reads).  Captured by the trial runner in input order;
        ``None`` (default) keeps archiving off at zero perturbation.
    crash_report_path:
        Where the flight recorder dumps its ring of recent events when
        an error escapes :meth:`run`.  Defaults to
        ``<events_path>.crash.json`` next to ``events_path`` (or next to
        ``journal_path``) when either is set; ``None`` with neither set
        disables the dump.
    flight_capacity:
        Ring size of the :class:`repro.obs.events.FlightRecorder`.
    """

    def __init__(
        self,
        device: DeviceSpec | str,
        grid_shape: tuple[int, int, int],
        *,
        faults: "FaultPlan | None" = None,
        policy: RetryPolicy | None = None,
        journal_path: str | Path | None = None,
        resume: bool = False,
        session_key: str | None = None,
        watchdog_cycles: float | None = None,
        events_path: str | Path | None = None,
        archive_path: str | Path | None = None,
        crash_report_path: str | Path | None = None,
        flight_capacity: int = 256,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.grid_shape = grid_shape
        self.events_path = Path(events_path) if events_path is not None else None
        self.archive_path = (
            Path(archive_path) if archive_path is not None else None
        )
        if crash_report_path is None:
            anchor = self.events_path or (
                Path(journal_path) if journal_path is not None else None
            )
            if anchor is not None:
                crash_report_path = anchor.with_name(anchor.name + ".crash.json")
        self.crash_report_path = (
            Path(crash_report_path) if crash_report_path is not None else None
        )
        self.flight = FlightRecorder(flight_capacity)
        if session_key is None:
            session_key = self.default_session_key(
                self.device, grid_shape, faults
            )
        self.session_key = session_key
        self.journal: TrialJournal | None = None
        if journal_path is not None:
            if resume:
                self.journal = TrialJournal.resume(journal_path, session_key)
                logger.info(
                    "resumed journal %s with %d completed trial(s)",
                    journal_path, len(self.journal),
                )
            else:
                self.journal = TrialJournal.create(journal_path, session_key)
        elif resume:
            raise JournalError("resume requested without a journal path")
        self.evaluator = ResilientEvaluator(
            VectorTrialEvaluator(self.device),
            faults=faults,
            watchdog_cycles=watchdog_cycles,
            policy=policy,
            journal=self.journal,
        )

    @staticmethod
    def default_session_key(
        device: DeviceSpec,
        grid_shape: tuple[int, int, int],
        faults: "FaultPlan | None" = None,
    ) -> str:
        key = f"{device.name}:{'x'.join(str(g) for g in grid_shape)}"
        if faults is not None:
            key += f":{faults.describe()}"
        return key

    def _run_tier(
        self,
        tier: str,
        build: Callable[[BlockConfig], "KernelPlan"],
        *,
        space: "ParameterSpace | None",
        beta: float,
        budget: int,
        seed: int,
    ) -> TuneResult:
        if tier == "model":
            return model_based_tune(
                build, self.device, self.grid_shape, beta=beta, space=space,
                evaluator=self.evaluator,
            )
        if tier == "stochastic":
            return stochastic_tune(
                build, self.device, self.grid_shape, budget=budget, seed=seed,
                space=space, evaluator=self.evaluator,
            )
        if tier == "exhaustive":
            return exhaustive_tune(
                build, self.device, self.grid_shape, space,
                evaluator=self.evaluator,
            )
        raise TuningError(f"unknown tuning tier {tier!r}")

    def run(
        self,
        build: Callable[[BlockConfig], "KernelPlan"],
        *,
        method: str = "auto",
        space: "ParameterSpace | None" = None,
        beta: float = 0.05,
        budget: int = 30,
        seed: int = 0,
    ) -> SessionResult:
        """Tune ``build``'s family, degrading across tiers as needed.

        ``method="auto"`` walks the full ladder
        (:data:`DEGRADATION_LADDER`); naming a single tier restricts the
        session to it (still resilient, no fallback).  A tier *fails*
        when it raises :class:`~repro.errors.TuningError` — every tuner
        does when no trial measured ``ok`` (all quarantined or rejected)
        — and the next tier starts with the journal's accumulated
        knowledge, so nothing completed is re-run.

        When events are enabled (``events_path``, or a sink the caller
        already installed) the campaign additionally narrates itself:
        ``session.*`` / ``sweep.*`` / trial-plane events flow to the
        stream and through the flight recorder, whose ring is dumped to
        ``crash_report_path`` should any error escape this method.
        """
        ladder = partial(
            self._run_ladder, build, method=method, space=space, beta=beta,
            budget=budget, seed=seed,
        )

        with ExitStack() as stack:
            archive: TrialArchive | None = None
            if self.archive_path is not None:
                archive = stack.enter_context(archive_stream(
                    TrialArchive(self.archive_path, session=self.session_key)
                ))
            outer = current_sink()
            sinks: list[EventSink] = [] if outer is None else [outer]
            if self.events_path is not None:
                sinks.append(JsonlEventSink(self.events_path, session=self.session_key))
            if not sinks and self.crash_report_path is None:
                # No sink and no crash dump: leave the event layer off.
                return ladder()
            sinks.append(self.flight)
            stack.enter_context(event_stream(TeeEventSink(sinks)))
            emit_event("session.start", session=self.session_key, method=method)
            if archive is not None:
                emit_event("archive.start", session=self.session_key)
            try:
                session_result = ladder()
            except BaseException as exc:
                emit_event(
                    "session.crash", error=f"{type(exc).__name__}: {exc}"
                )
                if self.crash_report_path is not None:
                    self.flight.dump(
                        self.crash_report_path,
                        reason=type(exc).__name__,
                        error=exc,
                        session=self.session_key,
                    )
                raise
            if archive is not None:
                emit_event("archive.finished", records=archive.records_written)
            emit_event(
                "session.finished",
                method=session_result.method,
                best_config=session_result.result.best.config.label(),
                best_mpoints=session_result.result.best_mpoints,
            )
            return session_result

    def _run_ladder(
        self,
        build: Callable[[BlockConfig], "KernelPlan"],
        *,
        method: str,
        space: "ParameterSpace | None",
        beta: float,
        budget: int,
        seed: int,
    ) -> SessionResult:
        """The degradation walk itself (see :meth:`run`)."""
        tiers = DEGRADATION_LADDER if method == "auto" else (method,)
        if any(t not in DEGRADATION_LADDER for t in tiers):
            raise TuningError(
                f"unknown tuning method {method!r}; expected one of "
                f"{DEGRADATION_LADDER + ('auto',)}"
            )
        failed: list[str] = []
        errors: dict[str, str] = {}
        for tier in tiers:
            emit_event("session.tier_start", tier=tier)
            try:
                result = self._run_tier(
                    tier, build, space=space, beta=beta, budget=budget,
                    seed=seed,
                )
            except TuningError as exc:
                failed.append(tier)
                errors[tier] = str(exc)
                emit_event("session.tier_failed", tier=tier, error=str(exc))
                logger.warning("tier %r failed: %s", tier, exc)
                continue
            return SessionResult(
                result=result,
                method=tier,
                degraded_from=tuple(failed),
                tier_errors=errors,
                stats=dict(self.evaluator.stats),
                journal_path=(
                    str(self.journal.path) if self.journal is not None else None
                ),
            )
        detail = "; ".join(f"{t}: {errors[t]}" for t in failed)
        raise TuningError(
            f"all tuning tiers failed on {self.device.name} "
            f"({self.evaluator.stats['quarantined_configs']} config(s) "
            f"quarantined): {detail}"
        )
