"""Live session monitoring — the engine behind ``repro top``.

A running (or finished, or crashed) resilient tuning session leaves two
append-only artifacts: the crash-safe trial journal
(:class:`repro.tuning.robust.TrialJournal`) and the structured event
stream (:mod:`repro.obs.events`).  Both write each record as one whole
line the moment it completes (fsync'd per record, or once per trial
batch) and tolerate a torn final line, so they can be read *while the
session is writing them* — which is exactly what this module does: parse
whatever prefix exists right now into a :class:`SessionSnapshot`, render
it, and repeat.

Ground truth discipline: **trial counts come from the journal** whenever
one is available — the journal is the record the session itself resumes
from, so ``repro top`` reporting anything else would be lying about what
a resume would replay.  The event stream layers on what the journal
cannot know: session/tier state, sweep progress against the space size,
replay counts, and the crash marker.  With only one of the two files the
snapshot degrades gracefully to what that file supports.

Throughput and ETA are computed *by the follower* from consecutive
snapshots (trials completed between refreshes over wall-clock between
refreshes): the artifacts themselves stay timestamp-free and
deterministic, monitoring stays a pure reader.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import JournalError
from repro.obs import recordlog
from repro.obs.events import Event, read_events
from repro.tuning.evaluator import (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_REJECTED_SIMULATED,
    STATUS_REJECTED_STATIC,
    TRIAL_STATUSES,
)
from repro.tuning.robust import TrialJournal

logger = logging.getLogger("repro.obs.live")

#: Snapshot schema version (the ``repro top --json`` document).
TOP_SCHEMA_VERSION = 1


@dataclass
class SessionSnapshot:
    """Everything ``repro top`` knows about one session right now."""

    session: str | None = None
    #: Trial counts by status (journal-authoritative when available).
    trials: dict[str, int] = field(
        default_factory=lambda: {status: 0 for status in TRIAL_STATUSES}
    )
    retries: int = 0
    replayed: int = 0
    #: Fault observations by kind (``fault.observed``).
    faults: dict[str, int] = field(default_factory=dict)
    best_config: str | None = None
    best_mpoints: float = 0.0
    #: Ladder walk: ``[(tier, "running" | "failed" | "won"), ...]``.
    tiers: list[tuple[str, str]] = field(default_factory=list)
    #: Current sweep: method and space size from the latest ``sweep.start``.
    sweep_method: str | None = None
    space_size: int | None = None
    finished: bool = False
    crashed: str | None = None
    events_seen: int = 0
    journal_trials: int | None = None
    source: str = ""

    @property
    def completed(self) -> int:
        """Trials with a final classification (any status)."""
        return sum(self.trials.values())

    def to_obj(self) -> dict[str, Any]:
        return {
            "schema_version": TOP_SCHEMA_VERSION,
            "session": self.session,
            "trials": dict(self.trials),
            "completed": self.completed,
            "retries": self.retries,
            "replayed": self.replayed,
            "faults": dict(sorted(self.faults.items())),
            "best": {
                "config": self.best_config,
                "mpoints_per_s": self.best_mpoints,
            },
            "tiers": [list(t) for t in self.tiers],
            "sweep": {"method": self.sweep_method, "space_size": self.space_size},
            "finished": self.finished,
            "crashed": self.crashed,
            "events_seen": self.events_seen,
            "journal_trials": self.journal_trials,
            "source": self.source,
        }


# -- tolerant readers --------------------------------------------------------


def read_journal_counts(path: str | Path) -> SessionSnapshot:
    """Parse a trial journal into a snapshot; never raises.

    Needs no session key, unlike :class:`~repro.tuning.robust.TrialJournal`.
    A torn final line (a session mid-append) is dropped; a journal that
    is missing or corrupt anywhere else contributes nothing, so counts
    fall back to the event stream.  Unknown statuses are skipped.
    """
    snap = SessionSnapshot(source="journal")
    if not Path(path).exists():
        return snap
    try:
        header, records = recordlog.read(
            path, kind="journal", tool=TrialJournal.TOOL,
            version=TrialJournal.VERSION, error=JournalError,
        )
    except JournalError as exc:
        logger.warning("repro top: ignoring unusable journal: %s", exc)
        return snap
    snap.session = header.get("session")
    for _i, obj in records:
        status = obj.get("status") if isinstance(obj, dict) else None
        if status not in TRIAL_STATUSES:
            continue
        snap.trials[status] += 1
        snap.retries += max(0, int(obj.get("attempts", 1)) - 1)
        for kind in obj.get("faults", ()):  # kinds that touched the outcome
            kind = str(kind)
            snap.faults[kind] = snap.faults.get(kind, 0) + 1
        if status == STATUS_OK:
            rate = float(obj.get("mpoints_per_s", 0.0))
            if rate > snap.best_mpoints:
                snap.best_mpoints = rate
                cfg = obj.get("config")
                if isinstance(cfg, list):
                    snap.best_config = f"({', '.join(str(v) for v in cfg)})"
    snap.journal_trials = snap.completed
    return snap


def _apply_event(snap: SessionSnapshot, event: Event) -> None:
    payload = dict(event.fields)
    name = event.name
    if name == "session.start":
        snap.session = snap.session or payload.get("session")
    elif name == "session.tier_start":
        snap.tiers.append((str(payload.get("tier")), "running"))
    elif name == "session.tier_failed":
        tier = str(payload.get("tier"))
        snap.tiers = [
            (t, "failed" if t == tier and s == "running" else s)
            for t, s in snap.tiers
        ]
    elif name == "session.finished":
        snap.finished = True
        snap.tiers = [
            (t, "won" if s == "running" else s) for t, s in snap.tiers
        ]
        snap.best_config = str(payload.get("best_config", snap.best_config))
        snap.best_mpoints = float(
            payload.get("best_mpoints", snap.best_mpoints)
        )
    elif name == "session.crash":
        snap.crashed = str(payload.get("error", "unknown error"))
    elif name == "sweep.start":
        snap.sweep_method = str(payload.get("method"))
        size = payload.get("space_size")
        snap.space_size = int(size) if size is not None else None
    elif name == "trial.measured":
        snap.trials[STATUS_OK] += 1
        rate = float(payload.get("mpoints_per_s", 0.0))
        if rate > snap.best_mpoints:
            snap.best_mpoints = rate
            snap.best_config = str(payload.get("config"))
    elif name == "trial.rejected":
        reason = payload.get("reason")
        status = (
            STATUS_REJECTED_STATIC if reason == "static"
            else STATUS_REJECTED_SIMULATED
        )
        snap.trials[status] += 1
    elif name == "trial.quarantined":
        snap.trials[STATUS_QUARANTINED] += 1
    elif name == "trial.retried":
        snap.retries += int(payload.get("retries", 0))
    elif name == "trial.replayed":
        snap.replayed += 1
    elif name == "fault.observed":
        kind = str(payload.get("kind", "?"))
        snap.faults[kind] = snap.faults.get(kind, 0) + 1


def snapshot_session(
    journal_path: str | Path | None = None,
    events_path: str | Path | None = None,
) -> SessionSnapshot:
    """One self-consistent view of a session from its on-disk artifacts.

    With both files, the journal owns the trial/retry/fault counts (its
    records are what a resume replays) and the event stream contributes
    the session/tier/sweep state plus replay counts.  Missing or not-yet
    -created files contribute nothing — monitoring a session that has
    not started simply shows zeros.
    """
    snap = (
        read_journal_counts(journal_path)
        if journal_path is not None
        else SessionSnapshot()
    )
    journal_counts = snap.journal_trials is not None and snap.source == "journal"
    if events_path is not None:
        try:
            _header, events = read_events(events_path)
        except Exception:
            events = []
            _header = {}
        if not journal_counts:
            snap.source = "events"
        else:
            snap.source = "journal+events"
        if snap.session is None and isinstance(_header, dict):
            snap.session = _header.get("session")
        snap.events_seen = len(events)
        for event in events:
            if journal_counts and event.name.startswith(("trial.", "fault.")):
                # Journal-authoritative counts; the stream still owns
                # the replay tally (journals do not record replays).
                if event.name == "trial.replayed":
                    snap.replayed += 1
                continue
            _apply_event(snap, event)
    return snap


# -- rendering ---------------------------------------------------------------


def render_snapshot(
    snap: SessionSnapshot, *, throughput: float | None = None
) -> str:
    """The human-readable ``repro top`` panel (plain text, no ANSI)."""
    lines: list[str] = []
    state = (
        f"CRASHED: {snap.crashed}" if snap.crashed
        else "finished" if snap.finished
        else "running"
    )
    lines.append(f"session : {snap.session or '?'} [{state}]")
    done = snap.completed
    if snap.space_size:
        pct = 100.0 * done / snap.space_size
        bar_w = 30
        filled = min(bar_w, round(bar_w * done / snap.space_size))
        bar = "#" * filled + "-" * (bar_w - filled)
        progress = f"[{bar}] {done}/{snap.space_size} ({pct:.0f}%)"
    else:
        progress = f"{done} trial(s)"
    method = f" {snap.sweep_method}" if snap.sweep_method else ""
    lines.append(f"sweep   :{method} {progress}")
    if throughput is not None:
        eta = ""
        if snap.space_size and throughput > 0 and not snap.finished:
            remaining = max(0, snap.space_size - done)
            eta = f", ETA {remaining / throughput:.0f}s"
        lines.append(f"rate    : {throughput:.1f} trial/s{eta}")
    lines.append(
        "trials  : "
        f"{snap.trials[STATUS_OK]} ok, "
        f"{snap.trials[STATUS_REJECTED_STATIC]} rejected-static, "
        f"{snap.trials[STATUS_REJECTED_SIMULATED]} rejected-simulated, "
        f"{snap.trials[STATUS_QUARANTINED]} quarantined"
    )
    lines.append(
        f"healing : {snap.retries} retries, {snap.replayed} replayed, "
        + (
            ", ".join(f"{k}x{v}" for k, v in sorted(snap.faults.items()))
            or "no faults"
        )
    )
    if snap.tiers:
        lines.append(
            "ladder  : "
            + " -> ".join(f"{t} ({s})" for t, s in snap.tiers)
        )
    if snap.best_config is not None:
        lines.append(
            f"best    : {snap.best_config} at {snap.best_mpoints:.1f} MPt/s"
        )
    return "\n".join(lines)


def follow_session(
    journal_path: str | Path | None,
    events_path: str | Path | None,
    *,
    interval_s: float = 1.0,
    refreshes: int | None = None,
    emit: Callable[[str], None] = print,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[SessionSnapshot]:
    """Yield snapshots until the session finishes, crashes, or the
    refresh budget runs out; ``emit`` receives each rendered panel.

    Throughput for the panel (and its ETA) is the completed-trial delta
    between consecutive refreshes over the wall-clock between them —
    measured here in the follower, never stored in the artifacts.
    """
    prev_done: int | None = None
    prev_t: float | None = None
    n = 0
    while True:
        snap = snapshot_session(journal_path, events_path)
        now = clock()
        throughput = None
        if prev_done is not None and prev_t is not None and now > prev_t:
            throughput = max(0.0, (snap.completed - prev_done) / (now - prev_t))
        prev_done, prev_t = snap.completed, now
        emit(render_snapshot(snap, throughput=throughput))
        yield snap
        n += 1
        if snap.finished or snap.crashed is not None:
            return
        if refreshes is not None and n >= refreshes:
            return
        sleep(interval_s)
