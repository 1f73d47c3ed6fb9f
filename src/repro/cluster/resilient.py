"""Self-healing multi-GPU stepping: retry, quarantine, re-decompose, resume.

:class:`ResilientClusterStencil` layers a recovery ladder over
:class:`repro.cluster.multigpu.MultiGpuStencil`'s exact slab numerics.
Faults come from a :class:`repro.gpusim.faults.ClusterFaultPlan` — every
draw a pure function of ``(seed, entity, absolute step)`` — and each
fault family has one deterministic response:

* **corrupt exchange** (validated ghost mismatch / non-finite ghost):
  re-run the exchange with exponential backoff.  Corruption is drawn per
  ``(link, step, attempt)``, so a retry re-draws and the ladder
  terminates; after ``max_exchange_retries`` failures the campaign
  raises :class:`repro.errors.ClusterError`.
* **device dropout**: the GPU is quarantined by its *original* fleet
  index, the surviving slabs are merged and elastically re-decomposed
  over the survivors (``split_grid``/``merge_slabs``), and stepping
  continues.  Numerics stay exact — the property tests sweep a fault
  storm and compare against the single-grid reference.
* **link degradation**: never touches data; the step's exchange time is
  priced on the derated link via :meth:`LinkSpec.degraded`.

Crash safety: with a checkpoint path configured the engine periodically
publishes atomic grid snapshots (:mod:`repro.cluster.checkpoint`) and
``resume=True`` replays the remaining steps.  Because the fault schedule
is keyed on the absolute step, a killed-and-resumed campaign produces a
final grid *bit-identical* to an uninterrupted one — the invariant the
``cluster-smoke`` gate in ``tools/check.py`` enforces end to end.

With ``faults=None`` the engine performs exactly the operations of
:meth:`MultiGpuStencil.run_steps` (split, sweep, exchange, merge; no
validation, no corruption), so the resilient path is byte-identical to
the plain path when nothing is being injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cluster.checkpoint import (
    CheckpointState,
    grid_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.cluster.decompose import (
    Slab,
    exchange_halos,
    merge_slabs,
    split_grid,
    validate_halos,
)
from repro.cluster.multigpu import (
    MultiGpuStencil,
    ScalingPoint,
    exchange_cost_s,
)
from repro.errors import (
    CheckpointError,
    ClusterError,
    ConfigurationError,
    HaloExchangeError,
)
from repro.gpusim.faults import ClusterFaultPlan
from repro.obs.events import emit
from repro.obs.tracer import set_gauge
from repro.utils.maths import jittered_backoff


@dataclass(frozen=True)
class ClusterPolicy:
    """Recovery-ladder knobs for one campaign.

    ``delay_s`` is :meth:`repro.tuning.robust.RetryPolicy.delay_s`'s
    backoff (:func:`repro.utils.maths.jittered_backoff`), so the backoff
    total a campaign accounts is reproducible run to run.  The
    engine never wall-clock sleeps unless ``sleep`` is provided (the
    fleet is simulated; delays are accounted, not suffered).
    """

    max_exchange_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    min_gpus: int = 1
    sleep: Callable[[float], None] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_exchange_retries < 0:
            raise ConfigurationError(
                f"max_exchange_retries must be >= 0, got {self.max_exchange_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff must have base >= 0 and factor >= 1, got "
                f"base={self.backoff_base_s}, factor={self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.min_gpus < 1:
            raise ConfigurationError(
                f"min_gpus must be >= 1, got {self.min_gpus}"
            )

    def delay_s(self, key: str, attempt: int) -> float:
        """Deterministic jittered exponential backoff for ``attempt``."""
        return jittered_backoff(
            self.backoff_base_s, self.backoff_factor, self.jitter, self.seed,
            key, attempt,
        )


@dataclass(frozen=True)
class ClusterRunResult:
    """Outcome of one (possibly resumed) resilient campaign."""

    grid: np.ndarray
    steps: int
    resumed_from: int
    alive: tuple[int, ...]
    quarantined: tuple[int, ...]
    exchange_retries: int
    backoff_s: float
    checkpoints_written: int
    exchange_time_s: float
    points: tuple[ScalingPoint, ...]

    def digest(self) -> str:
        """SHA-256 of the final grid — the bit-identity witness."""
        return grid_digest(self.grid)

    def summary(self) -> str:
        fleet = len(self.alive) + len(self.quarantined)
        line = (
            f"{self.steps} step(s) on {len(self.alive)}/{fleet} GPU(s), "
            f"{self.exchange_retries} exchange retr"
            f"{'y' if self.exchange_retries == 1 else 'ies'}, "
            f"{len(self.quarantined)} quarantined"
        )
        if self.resumed_from:
            line += f", resumed at step {self.resumed_from}"
        if self.checkpoints_written:
            line += f", {self.checkpoints_written} checkpoint(s)"
        return line


class ResilientClusterStencil:
    """Fault-tolerant stepping campaigns over a :class:`MultiGpuStencil`."""

    def __init__(
        self, base: MultiGpuStencil, *, policy: ClusterPolicy | None = None
    ) -> None:
        self.base = base
        self.policy = policy if policy is not None else ClusterPolicy()

    def session_key(
        self,
        grid_shape: tuple[int, ...],
        gpus: int,
        faults: ClusterFaultPlan | None,
    ) -> str:
        """Key binding checkpoints to one campaign's identity.

        Device, grid shape, initial fleet size and fault plan — but *not*
        the step count, so ``--steps k`` then ``--resume --steps N``
        share the checkpoint (the kill/resume protocol).
        """
        shape = "x".join(str(s) for s in grid_shape)
        plan = faults.describe() if faults is not None else "clean"
        return f"cluster:{self.base.device.name}:{shape}:gpus={gpus}:{plan}"

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------
    def run_campaign(
        self,
        grid: np.ndarray,
        gpus: int,
        steps: int,
        *,
        faults: ClusterFaultPlan | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        session_key: str | None = None,
        cost_points: bool = True,
    ) -> ClusterRunResult:
        """Run ``steps`` sweeps, surviving whatever ``faults`` injects.

        ``checkpoint_every > 0`` (with a path) snapshots the merged grid
        after every that-many completed steps and after the final step;
        ``resume=True`` reloads the path and replays only the remaining
        steps.  ``cost_points=False`` skips the scaling-point pricing
        (pure-numerics runs, e.g. property tests).  Raises
        :class:`ClusterError` when the fleet drops below
        ``policy.min_gpus`` or an exchange stays corrupt through every
        retry, and :class:`CheckpointError` for unusable checkpoints.
        """
        if steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {steps}")
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint path")

        plan = self.base.plan_builder()
        radius = plan.halo_radius()
        current = np.asarray(grid, dtype=plan.dtype)
        session = (
            session_key
            if session_key is not None
            else self.session_key(current.shape, gpus, faults)
        )

        alive = tuple(range(gpus))
        quarantined: tuple[int, ...] = ()
        retries = 0
        backoff_s = 0.0
        start_step = 0
        checkpoints_written = 0
        if resume:
            assert checkpoint_path is not None
            state = load_checkpoint(checkpoint_path, session)
            if state.grid.shape != current.shape:
                raise CheckpointError(
                    f"checkpoint grid shape {state.grid.shape} does not "
                    f"match the campaign grid {current.shape}"
                )
            if state.step > steps:
                raise CheckpointError(
                    f"checkpoint is at step {state.step}, beyond the "
                    f"requested {steps} step(s)"
                )
            current = state.grid.astype(plan.dtype, copy=False)
            alive = state.alive
            quarantined = state.quarantined
            retries = state.exchange_retries
            backoff_s = state.backoff_s
            start_step = state.step
            emit("cluster.checkpoint.restored", step=start_step)

        emit(
            "cluster.run.start",
            session=session,
            gpus=len(alive),
            steps=steps,
        )
        set_gauge("cluster.gpus_alive", float(len(alive)))
        set_gauge("cluster.exchange_retries", float(retries))

        shape_xyz = current.shape[::-1]
        points: list[ScalingPoint] = []
        if cost_points:
            points.append(self.base.step_cost(shape_xyz, len(alive)))

        slabs = split_grid(current, len(alive), radius)
        exchange_time_s = 0.0
        lz, ly, lx = current.shape
        bytes_per_interface = 2.0 * radius * lx * ly * plan.elem_bytes

        for step in range(start_step, steps):
            # 1. Dropout: quarantine dead GPUs, re-decompose survivors.
            if faults is not None and faults.dropout_rate > 0.0:
                dead = tuple(
                    g for g in alive if faults.gpu_dropout(g, step)
                )
                if dead:
                    for g in dead:
                        emit("cluster.gpu.quarantined", step=step, gpu=g)
                    survivors = tuple(g for g in alive if g not in dead)
                    quarantined = quarantined + dead
                    alive = survivors
                    set_gauge("cluster.gpus_alive", float(len(alive)))
                    if len(alive) < self.policy.min_gpus:
                        raise ClusterError(
                            f"step {step}: only {len(alive)} GPU(s) "
                            f"survive (minimum {self.policy.min_gpus}); "
                            f"quarantined: {sorted(quarantined)}"
                        )
                    current = merge_slabs(slabs)
                    slabs = split_grid(current, len(alive), radius)
                    emit("cluster.redecompose", step=step, gpus=len(alive))
                    if cost_points:
                        points.append(
                            self.base.step_cost(shape_xyz, len(alive))
                        )

            # 2. Sweep every surviving slab.
            for slab in slabs:
                slab.data = plan.execute(slab.data)

            # 3. Exchange, with the corrupt-transfer retry ladder.
            attempts = self._exchange(slabs, faults, step)
            if attempts > 1:
                retries += attempts - 1
                for a in range(1, attempts):
                    backoff_s += self.policy.delay_s(f"step{step}", a - 1)
                set_gauge("cluster.exchange_retries", float(retries))
            exchange_time_s += attempts * self._exchange_step_cost(
                faults, step, len(slabs) - 1, bytes_per_interface
            )

            # 4. Periodic crash-safe checkpoint.
            done = step + 1
            if (
                checkpoint_path is not None
                and checkpoint_every > 0
                and (done % checkpoint_every == 0 or done == steps)
            ):
                current = merge_slabs(slabs)
                save_checkpoint(
                    checkpoint_path,
                    CheckpointState(
                        session=session,
                        step=done,
                        grid=current,
                        alive=alive,
                        quarantined=quarantined,
                        exchange_retries=retries,
                        backoff_s=backoff_s,
                    ),
                )
                checkpoints_written += 1
                emit("cluster.checkpoint.written", step=done)

        final = merge_slabs(slabs) if steps > start_step else current
        emit("cluster.run.finished", steps=steps, gpus_alive=len(alive))
        return ClusterRunResult(
            grid=final,
            steps=steps,
            resumed_from=start_step,
            alive=alive,
            quarantined=quarantined,
            exchange_retries=retries,
            backoff_s=backoff_s,
            checkpoints_written=checkpoints_written,
            exchange_time_s=exchange_time_s,
            points=tuple(points),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _exchange(
        self,
        slabs: list[Slab],
        faults: ClusterFaultPlan | None,
        step: int,
    ) -> int:
        """Exchange halos until validation passes; returns attempts used.

        With no fault plan this is exactly one plain
        :func:`exchange_halos` call — no corruption pass, no validation —
        keeping the clean path byte-identical to
        :meth:`MultiGpuStencil.run_steps`.
        """
        if faults is None:
            exchange_halos(slabs)
            return 1
        for attempt in range(self.policy.max_exchange_retries + 1):
            exchange_halos(slabs)
            if faults.link_corrupt_rate > 0.0:
                for link, hi in enumerate(slabs[1:]):
                    if hi.ghost_lo:
                        faults.corrupt_ghosts(
                            hi.data[: hi.ghost_lo], link, step, attempt
                        )
            try:
                validate_halos(slabs)
            except HaloExchangeError as exc:
                emit(
                    "cluster.exchange.retry",
                    step=step,
                    attempt=attempt,
                    error=str(exc),
                )
                if attempt == self.policy.max_exchange_retries:
                    raise ClusterError(
                        f"step {step}: halo exchange still corrupt after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                delay = self.policy.delay_s(f"step{step}", attempt)
                if self.policy.sleep is not None:
                    self.policy.sleep(delay)
                continue
            return attempt + 1
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange_step_cost(
        self,
        faults: ClusterFaultPlan | None,
        step: int,
        interfaces: int,
        bytes_per_interface: float,
    ) -> float:
        """Price one exchange pass, on the step's worst degraded link."""
        if interfaces <= 0:
            return 0.0
        link = self.base.link
        if faults is not None and faults.link_degrade_rate > 0.0:
            factor = max(
                faults.link_degrade_factor(i, step) for i in range(interfaces)
            )
            link = link.degraded(factor)
        return exchange_cost_s(
            link,
            interfaces=interfaces,
            bytes_per_interface=bytes_per_interface,
        )
