"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the reproduction stack with one handler while
still discriminating configuration problems from resource-limit violations.

Errors optionally carry a ``rule`` id from the static-analysis catalog
(:mod:`repro.analysis.rules`), so a failure raised eagerly at construction
time and the same condition reported lazily by ``repro lint`` identify the
defect with the same stable name.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``rule`` names the static-analysis rule (e.g. ``"RES-REGS"``) that
    diagnoses the same condition, when one exists.
    """

    def __init__(self, *args: object, rule: str | None = None) -> None:
        super().__init__(*args)
        self.rule = rule


class ConfigurationError(ReproError):
    """A kernel/tuning configuration is malformed or internally inconsistent.

    Examples: a thread-block x-dimension that is not a multiple of a
    half-warp, a register-tile factor of zero, or a grid that is not
    divisible by the effective tile as required by the paper's search
    constraint (iv).
    """


class ResourceLimitError(ReproError):
    """A kernel configuration exceeds a hard device limit.

    Raised when a configuration cannot be *launched at all* (e.g. more
    threads per block than the device supports, or a shared-memory buffer
    larger than the per-SM shared memory).  Configurations that merely
    reduce occupancy do not raise; they simply run slower.
    """


class UnsupportedPlanError(ReproError, TypeError):
    """A plan family outside what a consumer of plans supports.

    Access-plan lowering and code generation cover only the symmetric
    in-plane and nvstencil kernels.  Still a :class:`TypeError` (the
    family is the plan's type), and a :class:`ReproError` so callers
    that record refusals catch it with the rest.
    """


class UnknownDeviceError(ReproError):
    """Requested device name is not present in the device registry."""


class StencilDefinitionError(ReproError):
    """A stencil specification or expression is invalid.

    Examples: an even radius requested via an odd order, a tap referencing
    a grid index that does not exist, or coefficient counts that do not
    match the declared radius.
    """


class GridShapeError(ReproError):
    """An input grid is too small for the stencil extent or mis-shaped."""


class TuningError(ReproError):
    """Auto-tuning failed, e.g. an empty feasible parameter space."""


class FaultInjectedError(ReproError):
    """A simulated launch was killed by an injected fault.

    The deterministic fault layer (:mod:`repro.gpusim.faults`) raises this
    for kernel-launch failures — the analogue of ``cudaErrorLaunchFailure``
    on real hardware.  ``kind`` names the fault taxonomy entry and
    ``launch_index`` the position in the plan's launch stream, so a retry
    harness can log exactly which injected event it survived.
    """

    def __init__(
        self,
        *args: object,
        kind: str = "launch_failure",
        launch_index: int = -1,
        rule: str | None = None,
    ) -> None:
        super().__init__(*args, rule=rule)
        self.kind = kind
        self.launch_index = launch_index


class KernelHangError(ReproError):
    """A simulated launch exceeded its cycle budget (watchdog timeout).

    Raised both for injected hangs (``kind="hang"``) and for genuine
    watchdog trips — a configuration whose clean simulated runtime exceeds
    the per-trial cycle budget (``kind="watchdog"``).
    """

    def __init__(
        self,
        *args: object,
        kind: str = "hang",
        cycles: float = 0.0,
        budget: float | None = None,
        launch_index: int = -1,
        rule: str | None = None,
    ) -> None:
        super().__init__(*args, rule=rule)
        self.kind = kind
        self.cycles = cycles
        self.budget = budget
        self.launch_index = launch_index


class HaloExchangeError(ReproError):
    """A ghost-plane exchange failed its integrity validation.

    Raised by :func:`repro.cluster.decompose.exchange_halos` when a
    received ghost plane does not match the neighbour's source interior
    (transfer corruption) or contains non-finite values (corruption that
    happened upstream, in the computed planes themselves).
    """


class JournalError(ReproError):
    """A tuning-trial journal cannot be used for checkpoint/resume.

    Examples: resuming a journal whose header names a different tuning
    session, a journal whose header line is unreadable, or ``--resume``
    against a path that does not exist.
    """


class ClusterError(ReproError):
    """A multi-GPU campaign cannot continue on the surviving fleet.

    Raised by :class:`repro.cluster.resilient.ResilientClusterStencil`
    when the recovery ladder is exhausted: every GPU has been
    quarantined (or fewer than ``min_gpus`` survive), or a halo exchange
    stayed corrupt through every retry.  Maps to ``repro cluster`` exit
    code 1 — the fleet, not the request, is at fault.
    """


class CheckpointError(ReproError):
    """A cluster grid checkpoint cannot be used for resume.

    Examples: resuming from a path that does not exist, a header that is
    unreadable or names a different campaign session, a payload shorter
    than the header promises, or a payload whose SHA-256 does not match
    the header (torn or corrupted write).  Maps to ``repro cluster``
    exit code 2, alongside bad ``--faults`` specs.
    """
