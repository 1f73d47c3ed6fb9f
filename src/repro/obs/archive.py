"""Trial archive — per-config decision provenance for the tuners.

The event stream (:mod:`repro.obs.events`) narrates *that* a trial
happened; this module records *why the tuner decided what it decided*.
One archived record per evaluated configuration carries

* the trial disposition straight off the finished
  :class:`~repro.tuning.evaluator.TrialOutcome` (status, measured rate,
  attempts, fault kinds, replay flag);
* the :class:`~repro.tuning.perfmodel.PaperModel` prediction for the
  config (section VI's ranking score);
* the codegen-time :class:`~repro.analysis.estimate.PerfEstimate`
  (or the reason it could not be computed);
* the full derived :class:`~repro.obs.counters.CounterSet` the config
  would exhibit on a clean launch.

Everything beyond the outcome is **re-derived at capture time from the
plan alone**: counters, predictions and estimates are pure functions of
``(plan, device, grid)`` (fault injection perturbs measurement, never
the derivations), so an archived record is identical whether the
measurement ran live or was replayed from a resume journal.  Two runs of
the same campaign therefore write byte-identical archives — the same
determinism contract the journal and the event stream already keep.

The file is a record log (:mod:`repro.obs.recordlog`, kind
``archive``), like the journal and the stream: line 1 a header binding
the file to the schema version and an optional session key, one record
per line.  With no archive installed
(:func:`current_archive` is ``None``) every capture point is one
:class:`~contextvars.ContextVar` lookup — zero perturbation of any
simulated number, pinned by ``repro bench diff`` staying bit-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs import recordlog
from repro.tuning.evaluator import TRIAL_STATUSES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.device import DeviceSpec
    from repro.tuning.evaluator import Trial, TrialOutcome

#: Version stamped into archive headers — bump on incompatible changes
#: to the record layout.
ARCHIVE_SCHEMA_VERSION = 1

_ARCHIVE_TOOL = "repro.obs.archive"


class ArchiveError(ValueError):
    """An archive file (or record) violates the schema."""


@dataclass(frozen=True)
class ArchiveRecord:
    """One evaluated configuration's full decision provenance.

    ``predicted`` is the paper model's MPoint/s for the config;
    ``estimate`` the codegen-time :class:`PerfEstimate` as its JSON
    object (``estimate_error`` names the refusal when it is ``None``);
    ``counters`` the derived clean-launch
    :class:`~repro.obs.counters.CounterSet` as a flat dict (``None``
    for configurations the simulator would refuse to launch).
    """

    config: tuple[int, int, int, int]
    label: str
    status: str
    mpoints_per_s: float
    attempts: int
    faults: tuple[str, ...]
    replayed: bool
    predicted: float | None
    estimate: dict[str, Any] | None
    estimate_error: str | None
    counters: dict[str, Any] | None

    def to_obj(self) -> dict[str, Any]:
        return {
            "config": list(self.config),
            "label": self.label,
            "status": self.status,
            "mpoints_per_s": self.mpoints_per_s,
            "attempts": self.attempts,
            "faults": list(self.faults),
            "replayed": self.replayed,
            "predicted": self.predicted,
            "estimate": self.estimate,
            "estimate_error": self.estimate_error,
            "counters": self.counters,
        }

    @classmethod
    def from_obj(cls, obj: Any, *, path: str = "$") -> "ArchiveRecord":
        if not isinstance(obj, dict):
            raise ArchiveError(
                f"{path}: record must be an object, got {type(obj).__name__}"
            )
        try:
            config = tuple(int(v) for v in obj["config"])
            if len(config) != 4:
                raise ValueError(f"config needs 4 ints, got {len(config)}")
            status = str(obj["status"])
            if status not in TRIAL_STATUSES:
                raise ValueError(f"unknown trial status {status!r}")
            record = cls(
                config=config,  # type: ignore[arg-type]
                label=str(obj["label"]),
                status=status,
                mpoints_per_s=float(obj["mpoints_per_s"]),
                attempts=int(obj["attempts"]),
                faults=tuple(str(f) for f in obj["faults"]),
                replayed=bool(obj["replayed"]),
                predicted=(
                    None if obj.get("predicted") is None
                    else float(obj["predicted"])
                ),
                estimate=obj.get("estimate"),
                estimate_error=obj.get("estimate_error"),
                counters=obj.get("counters"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"{path}: bad archive record: {exc}") from exc
        if record.estimate is not None and not isinstance(record.estimate, dict):
            raise ArchiveError(f"{path}: estimate must be an object or null")
        if record.counters is not None and not isinstance(record.counters, dict):
            raise ArchiveError(f"{path}: counters must be an object or null")
        return record

    @property
    def measured(self) -> bool:
        """Did this trial produce a usable rate?"""
        return self.status == "ok"


# -- deriving a record from a finished trial ---------------------------------


def derive_record(
    outcome: "TrialOutcome",
    *,
    trial: "Trial",
    device: "DeviceSpec",
    grid_shape: tuple[int, int, int],
    predicted: float | None = None,
) -> ArchiveRecord:
    """Build one archive record from a finished outcome, purely.

    The prediction, estimate and counters are computed here, in the
    capturing (parent) process, from the trial's plan and block workload
    alone — never taken from the measurement — so the record is
    independent of where or whether the trial actually ran (replayed
    outcomes derive identically).  The trial is the one the sweep built
    in its feasibility pass; nothing here rebuilds it.
    ``predicted`` short-circuits the model evaluation when a tuner
    already scored the config (the model-based shortlist); its batch and
    scalar paths are bit-identical, so either source yields the same
    number.
    """
    # Deferred imports: the derivations pull the model/estimator/timing
    # stack, which the no-archive path must never pay for (and which
    # would cycle at import time: repro.tuning imports repro.obs).
    from repro.errors import ReproError
    from repro.gpusim.timing import params_for, time_kernel

    plan, block = trial.plan, trial.block
    if predicted is None:
        from repro.tuning.perfmodel import ModelInputs, PaperModel

        try:
            inputs = ModelInputs.from_workload(
                plan.block, block, device, grid_shape
            )
            predicted = PaperModel(device).predict(inputs).mpoints_per_s
        except ReproError:
            predicted = None

    from repro.analysis.estimate import PerfEstimate
    from repro.analysis.planir import AccessPlanIR, lower_plan
    from repro.obs.counters import derive_counters

    # One pricing serves the counters and the estimate: the plan lowers
    # from the trial's own block, and the IR's workload equals that block
    # field for field, so pricing the IR would repeat the same timing.
    ir: AccessPlanIR | None = None
    estimate: dict[str, Any] | None = None
    counters: dict[str, Any] | None = None
    estimate_error: str | None = None
    try:
        ir = lower_plan(plan, grid_shape, workload=block)
    except ReproError as exc:
        estimate_error = f"{type(exc).__name__}: {exc}"
    try:
        grid = plan.grid_workload(device, grid_shape)
        timing = time_kernel(block, grid, device)
        counter_set = derive_counters(
            timing, block, grid, device, params_for(device)
        )
    except ReproError as exc:
        if ir is not None:
            estimate_error = f"{type(exc).__name__}: {exc}"
    else:
        counters = counter_set.as_dict()
        if ir is not None:
            estimate = PerfEstimate.priced(
                ir.kernel, device, grid_shape, grid, timing, counter_set
            ).to_json_obj()

    return ArchiveRecord(
        config=outcome.config.as_tuple(),
        label=outcome.config.label(),
        status=outcome.status,
        mpoints_per_s=outcome.mpoints_per_s,
        attempts=outcome.attempts,
        faults=outcome.faults,
        replayed=outcome.replayed,
        predicted=predicted,
        estimate=estimate,
        estimate_error=estimate_error,
        counters=counters,
    )


# -- the writer --------------------------------------------------------------


class TrialArchive:
    """Append-only JSONL trial archive — a record log of kind ``archive``.

    Line 1 is a header binding the file to the schema version and an
    optional session key; each further line is one
    :class:`ArchiveRecord`.  Format and crash discipline are
    :mod:`repro.obs.recordlog`'s.
    """

    def __init__(self, path: str | Path, *, session: str | None = None) -> None:
        self.path = Path(path)
        self.records_written = 0
        recordlog.create(self.path, recordlog.make_header(
            "archive", _ARCHIVE_TOOL, ARCHIVE_SCHEMA_VERSION, session
        ))

    def record(self, record: ArchiveRecord) -> None:
        """Append one record, written at once and fsynced before
        returning, or with its batch inside a :func:`recordlog.batch`."""
        recordlog.append(self.path, record.to_obj())
        self.records_written += 1

    def capture(
        self,
        outcome: "TrialOutcome",
        *,
        trial: "Trial",
        device: "DeviceSpec",
        grid_shape: tuple[int, int, int],
        predicted: float | None = None,
    ) -> ArchiveRecord:
        """Derive and append the record for one finished trial."""
        record = derive_record(
            outcome, trial=trial, device=device, grid_shape=grid_shape,
            predicted=predicted,
        )
        self.record(record)
        return record


# -- the contextvar plumbing -------------------------------------------------

#: The contextvar every capture point consults.  ``None`` (the default)
#: means archiving is off and the hook is one lookup + branch, mirroring
#: the event layer's disabled path.
_ACTIVE: ContextVar[TrialArchive | None] = ContextVar(
    "repro_obs_archive", default=None
)


def current_archive() -> TrialArchive | None:
    """The archive active in this context, or ``None`` when off."""
    return _ACTIVE.get()


@contextmanager
def archive_stream(archive: TrialArchive) -> Iterator[TrialArchive]:
    """Install ``archive`` for the ``with`` body; yields it back."""
    token = _ACTIVE.set(archive)
    try:
        yield archive
    finally:
        _ACTIVE.reset(token)


# -- reading an archive back -------------------------------------------------


def read_archive(
    path: str | Path, *, strict: bool = False
) -> tuple[dict[str, Any], list[ArchiveRecord]]:
    """Parse one archive file; returns ``(header, records)``.

    Reads through :func:`repro.obs.recordlog.read`: a torn final line is
    dropped unless ``strict``.  Every record parses against the full
    schema either way — the record layout *is* the schema.
    """
    header, records = recordlog.read(
        path, kind="archive", tool=_ARCHIVE_TOOL,
        version=ARCHIVE_SCHEMA_VERSION, error=ArchiveError, strict=strict,
    )
    return header, [
        ArchiveRecord.from_obj(obj, path=f"{path}:{i}") for i, obj in records
    ]


def validate_archive(path: str | Path) -> int:
    """Strictly validate an archive file; returns the record count."""
    _header, records = read_archive(path, strict=True)
    return len(records)
