"""Deterministic fault injection for the simulated GPU.

Real tuning campaigns lose hours to hung kernels, ECC events and crashed
runs (the fragility that motivates the paper's section VI economy
argument); this module gives the simulator the same failure modes so the
resilient layers above it (:mod:`repro.tuning.robust`,
:mod:`repro.cluster.resilient`) can be exercised deterministically:

* **launch failures** — the launch dies before producing a result
  (``cudaErrorLaunchFailure``): :class:`repro.errors.FaultInjectedError`;
* **hangs** — the launch's simulated-cycle count blows past the watchdog
  budget: :class:`repro.errors.KernelHangError`;
* **thermal throttling** — the launch completes but the clock is derated,
  so the *measurement* is degraded (a silently-wrong tuning sample);
* **ECC events** — the launch completes but its result is flagged
  suspect, so the measurement is retried.

Real data is corrupted on the cluster plane only:
:class:`ClusterFaultPlan` perturbs received halo planes (:func:`flip_bit`
or a planted NaN) for the exchange validation to catch.

The simulator prices every launch clean; :func:`apply_launch_faults`,
the one place a plan touches a launch, overlays the next fault on it.

Determinism is the core contract: a :class:`FaultPlan` is a pure function
of ``(seed, index)`` — the same plan replayed against the same sequence
of launches injects the *identical* fault sequence, trial for trial,
across processes (no ``PYTHONHASHSEED`` dependence).  One monotonic draw
index, advanced by :meth:`next_index`, counts the launches.

With no plan installed (``faults=None`` everywhere) nothing is drawn and
every price passes through unperturbed, which is what keeps the recorded
``BENCH_profile.json`` trajectory bit-identical.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ConfigurationError, FaultInjectedError, KernelHangError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.timing import BlockClass, sweep_rates
from repro.obs.events import emit as emit_fault_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.batch import ClassScore

#: Fault-taxonomy kind names (also the ``sim.fault.<kind>`` metric suffixes).
KIND_LAUNCH_FAILURE = "launch_failure"
KIND_HANG = "hang"
KIND_THROTTLE = "throttle"
KIND_ECC = "ecc"

FAULT_KINDS: tuple[str, ...] = (
    KIND_LAUNCH_FAILURE,
    KIND_HANG,
    KIND_THROTTLE,
    KIND_ECC,
)

#: Salt of every :class:`FaultPlan` draw; the recorded storm digests
#: depend on it.
_LAUNCH_SALT = zlib.crc32(b"launch")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what, where in the stream, and how hard.

    ``factor`` carries the throttle derating (wall-clock multiplier > 1)
    for ``kind == "throttle"`` and is 1.0 otherwise.
    """

    kind: str
    index: int
    factor: float = 1.0


@dataclass
class FaultPlan:
    """Seeded, deterministic fault schedule.

    Rates are per-draw probabilities; at most one fault fires per draw
    (a single uniform sample is compared against the cumulative rates, so
    the rates are exact and must sum to <= 1).  ``burst`` limits injection
    to the first ``burst`` draws — a storm that passes —
    which is how the degradation tests model "a tier that keeps faulting
    while the campaign as a whole can still succeed".

    ``watchdog_cycles`` arms the overlay's watchdog even for clean
    launches: any launch whose simulated cycles exceed the budget raises
    :class:`repro.errors.KernelHangError`, which is how per-trial timeout
    budgets are enforced on a simulator that never actually blocks.
    """

    seed: int = 0
    launch_failure_rate: float = 0.0
    hang_rate: float = 0.0
    throttle_rate: float = 0.0
    ecc_rate: float = 0.0
    throttle_min: float = 1.2
    throttle_max: float = 2.5
    hang_multiplier: float = 64.0
    watchdog_cycles: float | None = None
    burst: int | None = None
    _drawn: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        rates = (
            self.launch_failure_rate,
            self.hang_rate,
            self.throttle_rate,
            self.ecc_rate,
        )
        if any(r < 0.0 for r in rates) or sum(rates) > 1.0 + 1e-12:
            raise ConfigurationError(
                "fault rates must be non-negative and sum to <= 1, got "
                f"launch={rates[0]}, hang={rates[1]}, throttle={rates[2]}, "
                f"ecc={rates[3]}"
            )
        if not 1.0 <= self.throttle_min <= self.throttle_max:
            raise ConfigurationError(
                f"throttle factors must satisfy 1 <= min <= max, got "
                f"[{self.throttle_min}, {self.throttle_max}]"
            )
        if self.hang_multiplier < 1.0:
            raise ConfigurationError("hang_multiplier must be >= 1")

    # -- determinism core --------------------------------------------------

    def _rng(self, index: int) -> random.Random:
        """Process-independent RNG for one (seed, index) draw."""
        mix = (
            (self.seed & 0xFFFFFFFF) * 0x9E3779B1
            + _LAUNCH_SALT
            + index * 0x85EBCA77
        ) & 0xFFFFFFFFFFFF
        return random.Random(mix)

    def next_index(self) -> int:
        """Advance and return the monotonic draw index."""
        index = self._drawn
        self._drawn = index + 1
        return index

    @property
    def fault_rate(self) -> float:
        """Total per-draw probability of any fault firing."""
        return (
            self.launch_failure_rate
            + self.hang_rate
            + self.throttle_rate
            + self.ecc_rate
        )

    # -- event schedule ----------------------------------------------------

    def event_for(self, index: int) -> FaultEvent | None:
        """The fault injected at draw ``index``, if any.

        Pure: does not advance any counter, so tests can enumerate the
        whole schedule up front and assert the overlay saw exactly it.
        """
        if self.fault_rate == 0.0:
            return None
        if self.burst is not None and index >= self.burst:
            return None
        rng = self._rng(index)
        u = rng.random()
        edge = self.launch_failure_rate
        if u < edge:
            return FaultEvent(KIND_LAUNCH_FAILURE, index)
        edge += self.hang_rate
        if u < edge:
            return FaultEvent(KIND_HANG, index)
        edge += self.throttle_rate
        if u < edge:
            factor = rng.uniform(self.throttle_min, self.throttle_max)
            return FaultEvent(KIND_THROTTLE, index, factor=factor)
        edge += self.ecc_rate
        if u < edge:
            return FaultEvent(KIND_ECC, index)
        return None

    def schedule(self, n: int) -> list[FaultEvent | None]:
        """The first ``n`` draws — the reproducibility witness."""
        return [self.event_for(i) for i in range(n)]

    # -- CLI spec ----------------------------------------------------------

    _SPEC_KEYS = {
        "seed": ("seed", int),
        "launch": ("launch_failure_rate", float),
        "hang": ("hang_rate", float),
        "throttle": ("throttle_rate", float),
        "ecc": ("ecc_rate", float),
        "throttle_min": ("throttle_min", float),
        "throttle_max": ("throttle_max", float),
        "burst": ("burst", int),
        "watchdog": ("watchdog_cycles", float),
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec like ``"seed=7,launch=0.1,hang=0.02"``.

        Keys: ``seed``, ``launch``, ``hang``, ``throttle``, ``ecc``
        (rates), ``throttle_min``/``throttle_max``, ``burst``,
        ``watchdog``.
        """
        return cls(**_parse_spec(spec, cls._SPEC_KEYS, "fault"))

    def describe(self) -> str:
        """One-line summary for logs and journal headers."""
        parts = [f"seed={self.seed}"]
        for label, rate in (
            ("launch", self.launch_failure_rate),
            ("hang", self.hang_rate),
            ("throttle", self.throttle_rate),
            ("ecc", self.ecc_rate),
        ):
            if rate:
                parts.append(f"{label}={rate:g}")
        if self.burst is not None:
            parts.append(f"burst={self.burst}")
        if self.watchdog_cycles is not None:
            parts.append(f"watchdog={self.watchdog_cycles:g}")
        return ",".join(parts)


# -- the cluster fault plane -------------------------------------------------

#: Cluster-plane stream names (the ``(seed, stream, entity, step)`` cells).
STREAM_CLUSTER_LINK = "cluster.link"
STREAM_CLUSTER_DEGRADE = "cluster.degrade"
STREAM_CLUSTER_GPU = "cluster.gpu"


@dataclass
class ClusterFaultPlan:
    """Seeded, deterministic fault schedule for a multi-GPU fleet.

    Where :class:`FaultPlan` models what one simulated device does to one
    launch, this plan models what a *fleet* does to a stepping campaign
    (:mod:`repro.cluster.resilient`):

    * **link corruption** — with ``link_corrupt_rate``, the halo planes
      received over one interface on one step are perturbed (bit flip or
      NaN, like an ECC event on the transfer path).  Corruption is drawn
      per ``(link, step, attempt)``: a retried exchange re-draws, so the
      retry ladder can succeed deterministically.
    * **link degradation** — with ``link_degrade_rate``, one interface's
      bandwidth is derated by a factor in ``[degrade_min, degrade_max]``
      for one step (thermal/PCIe flapping).  Purely a *pricing* fault:
      it never touches data, only the exchange time the cost model
      charges through :meth:`repro.cluster.multigpu.LinkSpec.degraded`.
    * **device dropout** — with ``dropout_rate``, a GPU dies at the start
      of one step and stays dead (``cudaErrorDevicesUnavailable``); the
      resilient engine quarantines it and re-decomposes the grid over
      the survivors.

    Every draw is a pure function of ``(seed, stream, entity, step)``
    (plus the attempt for corruption) — no mutable counters, so a
    campaign resumed from a checkpoint at step *k* replays steps
    *k+1..N* with the identical schedule an uninterrupted run saw.  All
    rates zero (or no plan installed) means zero perturbation.
    """

    seed: int = 0
    link_corrupt_rate: float = 0.0
    link_degrade_rate: float = 0.0
    dropout_rate: float = 0.0
    degrade_min: float = 2.0
    degrade_max: float = 8.0
    corrupt_mode: str = "flip"

    def __post_init__(self) -> None:
        rates = (self.link_corrupt_rate, self.link_degrade_rate, self.dropout_rate)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ConfigurationError(
                "cluster fault rates must be probabilities in [0, 1], got "
                f"corrupt={rates[0]}, degrade={rates[1]}, dropout={rates[2]}"
            )
        if not 1.0 <= self.degrade_min <= self.degrade_max:
            raise ConfigurationError(
                f"degrade factors must satisfy 1 <= min <= max, got "
                f"[{self.degrade_min}, {self.degrade_max}]"
            )
        if self.corrupt_mode not in ("flip", "nan"):
            raise ConfigurationError(
                f"corrupt_mode must be 'flip' or 'nan', got {self.corrupt_mode!r}"
            )

    @property
    def fault_rate(self) -> float:
        """Total per-draw probability mass (0 means the plan is inert)."""
        return self.link_corrupt_rate + self.link_degrade_rate + self.dropout_rate

    # -- determinism core --------------------------------------------------

    def _rng(self, stream: str, *cell: int) -> random.Random:
        """Process-independent RNG for one ``(seed, stream, *cell)`` draw.

        String seeding keeps the schedule independent of
        ``PYTHONHASHSEED``, mirroring :meth:`RetryPolicy.delay_s`.
        """
        key = ":".join(str(c) for c in cell)
        return random.Random(f"{self.seed}:{stream}:{key}")

    # -- the three fault families ------------------------------------------

    def gpu_dropout(self, gpu: int, step: int) -> bool:
        """Does GPU ``gpu`` (original fleet index) die at ``step``?

        Indexed by the GPU's *original* identity, not its current slab
        position, so re-decomposition never reshuffles the schedule.
        """
        if self.dropout_rate == 0.0:
            return False
        return self._rng(STREAM_CLUSTER_GPU, gpu, step).random() < self.dropout_rate

    def link_corrupt(self, link: int, step: int, attempt: int = 0) -> bool:
        """Is the transfer over interface ``link`` corrupt on this attempt?"""
        if self.link_corrupt_rate == 0.0:
            return False
        rng = self._rng(STREAM_CLUSTER_LINK, link, step, attempt)
        return rng.random() < self.link_corrupt_rate

    def corrupt_ghosts(
        self, array: np.ndarray, link: int, step: int, attempt: int = 0
    ) -> bool:
        """Maybe perturb the received ghost planes ``array`` in place.

        Returns whether corruption fired.  The payload draw is seeded
        separately from the schedule draw so the *where* of a bit flip
        cannot perturb the *whether* of later faults.
        """
        if not self.link_corrupt(link, step, attempt):
            return False
        rng = self._rng(STREAM_CLUSTER_LINK + ".payload", link, step, attempt)
        _perturb(array, rng, self.corrupt_mode)
        return True

    def link_degrade_factor(self, link: int, step: int) -> float:
        """Bandwidth derating of interface ``link`` at ``step`` (1.0 = clean).

        Drawn per ``(link, step)`` — flapping, not a permanent derate —
        and independent of exchange retries, which only re-draw
        corruption.
        """
        if self.link_degrade_rate == 0.0:
            return 1.0
        rng = self._rng(STREAM_CLUSTER_DEGRADE, link, step)
        if rng.random() >= self.link_degrade_rate:
            return 1.0
        return rng.uniform(self.degrade_min, self.degrade_max)

    # -- CLI spec ----------------------------------------------------------

    _SPEC_KEYS = {
        "seed": ("seed", int),
        "corrupt": ("link_corrupt_rate", float),
        "degrade": ("link_degrade_rate", float),
        "dropout": ("dropout_rate", float),
        "degrade_min": ("degrade_min", float),
        "degrade_max": ("degrade_max", float),
        "corrupt_mode": ("corrupt_mode", str),
    }

    @classmethod
    def parse(cls, spec: str) -> "ClusterFaultPlan":
        """Build a plan from a CLI spec like ``"seed=7,dropout=0.05"``.

        Keys: ``seed``, ``corrupt``, ``degrade``, ``dropout`` (rates),
        ``degrade_min``/``degrade_max``, ``corrupt_mode``.
        """
        return cls(**_parse_spec(spec, cls._SPEC_KEYS, "cluster fault"))

    def describe(self) -> str:
        """One-line summary for logs and checkpoint headers."""
        parts = [f"seed={self.seed}"]
        for label, rate in (
            ("corrupt", self.link_corrupt_rate),
            ("degrade", self.link_degrade_rate),
            ("dropout", self.dropout_rate),
        ):
            if rate:
                parts.append(f"{label}={rate:g}")
        return ",".join(parts)


def observe_fault(tracer: Any, event: FaultEvent, **args: Any) -> None:
    """Surface one injected fault in the obs layer (instant + counter),
    and re-emit it as a first-class ``fault.injected`` event.

    ``tracer`` is a :class:`repro.obs.tracer.Tracer` or ``None`` (no-op);
    typed as ``Any`` to keep this module import-light.  The event fires
    independently of the tracer, so a storm session's event stream is
    complete without tracing enabled — except during tuning measurement,
    where emission is suppressed and the trial runner derives
    ``fault.observed`` events from the finished outcome instead
    (:func:`repro.tuning.evaluator.emit_trial_events`).
    """
    emit_fault_event("fault.injected", kind=event.kind, index=event.index)
    if tracer is None:
        return
    from repro.obs.schema import CAT_SIM_FAULT

    tracer.instant(
        f"fault.{event.kind}", CAT_SIM_FAULT,
        kind=event.kind, launch_index=event.index, **args,
    )
    tracer.metrics.counter(f"sim.fault.{event.kind}").inc()


def apply_launch_faults(
    faults: FaultPlan | None,
    device: DeviceSpec,
    kernel: str,
    score: "ClassScore",
    cls: BlockClass,
    *,
    watchdog_cycles: float | None = None,
    tracer: Any = None,
) -> tuple[tuple[float, float, float], FaultEvent | None]:
    """Draw the plan's next ``launch`` event and apply it to a priced launch.

    ``score`` is the clean price (total cycles) of a launchable ``cls``;
    callers reject an unlaunchable price (``score.launch_error``) before
    it draws.  In order: a launch failure raises
    :class:`FaultInjectedError`; a hang multiplies the clean cycles and raises :class:`KernelHangError`, as
    does the watchdog (``watchdog_cycles``, else the plan's own) when the
    clean cycles exceed it; a throttle derates the clock, never the
    cycles; an ECC event only flags.  Returns ``(time_s, MPoint/s,
    GFlop/s)`` and the throttle/ECC event survived, or ``None``.
    """
    event = None
    if faults is not None:
        event = faults.event_for(faults.next_index())
        if watchdog_cycles is None:
            watchdog_cycles = faults.watchdog_cycles
    if event is not None and event.kind == KIND_LAUNCH_FAILURE:
        observe_fault(tracer, event, kernel=kernel)
        raise FaultInjectedError(
            f"injected launch failure for {kernel} (launch {event.index})",
            kind=event.kind, launch_index=event.index,
        )
    cycles = score.total_cycles
    if faults is not None and event is not None and event.kind == KIND_HANG:
        hang_cycles = cycles * faults.hang_multiplier
        observe_fault(tracer, event, kernel=kernel, cycles=hang_cycles)
        raise KernelHangError(
            f"injected hang for {kernel}: {hang_cycles:.0f} simulated "
            f"cycles exceed the watchdog budget (launch {event.index})",
            kind=event.kind, cycles=hang_cycles, budget=watchdog_cycles,
            launch_index=event.index,
        )
    if watchdog_cycles is not None and cycles > watchdog_cycles:
        raise KernelHangError(
            f"{kernel} exceeded the per-trial cycle budget: "
            f"{cycles:.0f} > {watchdog_cycles:.0f}",
            kind="watchdog", cycles=cycles, budget=watchdog_cycles,
        )
    if event is not None and event.kind == KIND_THROTTLE:
        observe_fault(tracer, event, kernel=kernel, factor=event.factor)
    elif event is not None:
        observe_fault(tracer, event, kernel=kernel)
    # A throttle's factor derates the clock; every other event's is 1.0.
    derate = 1.0 if event is None else event.factor
    return sweep_rates(device, cycles, cls.total_points, cls.flops_per_point, derate), event


def _parse_spec(
    spec: str, keys: dict[str, tuple[str, Any]], what: str
) -> dict[str, Any]:
    """Constructor keyword arguments from a ``key=value,...`` CLI spec."""
    kwargs: dict[str, Any] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            known = ", ".join(sorted(keys))
            raise ConfigurationError(
                f"bad {what} spec entry {part!r}; expected key=value with "
                f"key in {{{known}}}"
            )
        attr, cast = keys[key]
        try:
            kwargs[attr] = cast(value.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"bad {what} spec value {part!r}: {exc}"
            ) from exc
    return kwargs


def _perturb(array: np.ndarray, rng: random.Random, mode: str) -> None:
    """Corrupt ``array`` in place: plant a NaN (``"nan"``) or flip a bit."""
    if mode == "nan":
        flat = array.reshape(-1)
        flat[rng.randrange(flat.size)] = np.nan
    else:
        flip_bit(array, rng)


def flip_bit(array: np.ndarray, rng: random.Random) -> tuple[int, int]:
    """Flip one random bit of one random element of ``array`` in place.

    The single-bit ECC-event model: the element keeps its type but its
    value silently changes (possibly into an Inf/NaN pattern for exponent
    bits).  Returns ``(flat_index, bit)`` for diagnostics.
    """
    if array.size == 0:
        raise ConfigurationError("cannot flip a bit of an empty array")
    uint = {4: np.uint32, 8: np.uint64}.get(array.dtype.itemsize)
    if uint is None:
        raise ConfigurationError(
            f"bit flips support 4/8-byte dtypes, got {array.dtype}"
        )
    flat = array.reshape(-1).view(uint)
    idx = rng.randrange(flat.size)
    bit = rng.randrange(array.dtype.itemsize * 8)
    flat[idx] ^= uint(1) << uint(bit)
    return idx, bit
