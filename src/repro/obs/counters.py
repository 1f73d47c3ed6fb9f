"""Hardware-counter analogue — the ``nvprof --metrics`` layer.

One simulated launch yields one :class:`CounterSet`: a frozen,
schema-validated set of profiler counters (DRAM transactions and
achieved-bandwidth fraction, load/store efficiency, shared-memory replay
rate, IPC, the warp-issue stall breakdown, occupancy with its binding
limiter named).  Every value is derived *mechanistically* from the same
quantities the cycle model priced — the memory enumerators
(:class:`repro.gpusim.memory.MemoryStats`), and the issue slots, plane
costs and waves the headline stage
(:func:`repro.gpusim.timing.time_stage`) put on its
:class:`~repro.gpusim.timing.TimingResult` — never from hard-coded
expectations, so a counter cannot drift from the simulator it describes
(property-enforced in ``tests/test_obs_counters.py``).

The derivation is written once, as :func:`counter_stage` over an op
table (:mod:`repro.gpusim.ops`): :func:`derive_counters` runs it on one
launch's Python numbers, :class:`repro.gpusim.batch.BatchEngine` on
columns of launches.

Counting conventions (documented because nvprof has the same split):

* byte/transaction counters cover the sweep's *output* planes
  (``grid.planes``), matching ``SimReport.bandwidth_gbs`` and the
  ``sim.bytes_moved`` metric;
* instruction/cycle counters cover the planes the timing model actually
  priced (``timing.planes_per_block``, prologue included), matching
  ``TimingResult.total_cycles``.

``docs/OBSERVABILITY.md`` carries the nvprof ↔ repro name mapping table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.ops import Ops
    from repro.gpusim.timing import BlockClass, TimingParams, TimingResult
    from repro.gpusim.workload import BlockWorkload, GridWorkload

#: The frozen counter-name set.  This is stable API shared by the trace
#: schema (``sim.kernel`` spans carry exactly these keys), the telemetry
#: v2 records, the regression sentinel and the attribution engine;
#: additions require a telemetry schema bump.
COUNTER_KEYS: tuple[str, ...] = (
    "gld_transactions",       # global-load transactions issued per sweep
    "gst_transactions",       # global-store transactions issued per sweep
    "dram_bytes",             # effective DRAM bytes serviced per sweep
    "dram_bw_fraction",       # achieved fraction of measured bandwidth
    "gld_efficiency",         # requested / serviced load bytes (Fig 9)
    "gst_efficiency",         # requested / transferred store bytes
    "l2_halo_hit_bytes",      # halo bytes served from L2 per sweep
    "local_spill_bytes",      # register-spill local-memory bytes per sweep
    "shared_replay_rate",     # smem replay slots per smem instruction
    "inst_issued",            # warp instructions issued per sweep
    "ipc",                    # warp instructions per SM-cycle
    "stall_mem_frac",         # cycle share: DRAM bandwidth stream
    "stall_compute_frac",     # cycle share: arithmetic / instruction issue
    "stall_latency_frac",     # cycle share: exposed DRAM latency
    "stall_sync_frac",        # cycle share: barriers
    "stall_sched_frac",       # cycle share: block scheduling overhead
    "achieved_occupancy",     # resident-warp occupancy
)

#: The five ``stall_*_frac`` keys, in component-lane order.
STALL_KEYS: tuple[str, ...] = (
    "stall_mem_frac",
    "stall_compute_frac",
    "stall_latency_frac",
    "stall_sync_frac",
    "stall_sched_frac",
)


class CounterSchemaError(ValueError):
    """A counter set violates the frozen schema."""


@dataclass(frozen=True)
class CounterSet:
    """One launch's counter values plus the named occupancy limiter.

    ``values`` holds exactly :data:`COUNTER_KEYS` (validated at
    construction); ``occupancy_limiter`` is the
    :attr:`repro.gpusim.occupancy.OccupancyResult.limiter` string
    (``"registers"`` / ``"smem"`` / ``"warps"`` / ``"blocks"``).
    """

    values: dict[str, float] = field(default_factory=dict)
    occupancy_limiter: str = ""

    def __post_init__(self) -> None:
        validate_counters(self.values, self.occupancy_limiter)

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping: the values plus the limiter name."""
        out: dict[str, Any] = {k: self.values[k] for k in COUNTER_KEYS}
        out["occupancy_limiter"] = self.occupancy_limiter
        return out


def validate_counters(values: Mapping[str, float], limiter: str) -> None:
    """Raise :class:`CounterSchemaError` unless the set matches the schema."""
    missing = set(COUNTER_KEYS) - set(values)
    unknown = set(values) - set(COUNTER_KEYS)
    if missing or unknown:
        raise CounterSchemaError(
            f"counter keys drift from the frozen set: missing {sorted(missing)}, "
            f"unknown {sorted(unknown)}"
        )
    for key in COUNTER_KEYS:
        v = values[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise CounterSchemaError(f"counter {key!r} must be a finite number, got {v!r}")
        if v < 0:
            raise CounterSchemaError(f"counter {key!r} must be non-negative, got {v!r}")
    if not limiter or not isinstance(limiter, str):
        raise CounterSchemaError("occupancy_limiter must be a non-empty string")


def counter_stage(
    ops: "Ops", device: "DeviceSpec", params: "TimingParams",
    c: "BlockClass", timing: "TimingResult",
) -> dict[str, Any]:
    """The counter stage: every :data:`COUNTER_KEYS` value of a sweep.

    Continues from the headline stage's ``timing``
    (:func:`repro.gpusim.timing.time_stage`) over the same inputs ``c``.
    Written once over ``ops`` (:mod:`repro.gpusim.ops`): Python numbers
    under the scalar table, columns under the vector one.
    """
    planes, blocks = c.planes, c.blocks
    reuse = params.l2_halo_reuse if device.l2_bytes > 0 else 0.0
    time_s = timing.total_cycles / device.clock_hz
    dram_bytes = timing.effective_bytes_per_plane * planes * blocks
    inst_issued = timing.issue_slots_per_plane * timing.planes_per_block * blocks
    smem = timing.smem_instructions_per_plane
    replay = ops.where(
        smem != 0,
        (timing.smem_slots_per_plane - smem) / ops.where(smem != 0, smem, 1.0),
        0.0,
    )

    # Cycle shares of the waves wave_geometry() lays out: stages - 1 full
    # waves, then the remainder wave.
    pb, sched = timing.planes_per_block, timing.sched_overhead_cycles
    full, last = timing.plane_cost, timing.rem_plane_cost
    shares = [
        a + b for a, b in zip(
            ops.repeat_add((
                full.mem_cycles * pb, full.compute_cycles * pb,
                full.exposed_cycles * pb, full.sync_cycles * pb,
                timing.occupancy.active_blocks * sched,
            ), timing.stages - 1),
            (
                last.mem_cycles * pb, last.compute_cycles * pb,
                last.exposed_cycles * pb, last.sync_cycles * pb,
                timing.rem_blocks_per_sm * sched,
            ),
        )
    ]
    shares_total = shares[0] + shares[1] + shares[2] + shares[3] + shares[4]

    stored = c.store_transferred_bytes
    sweep = planes * blocks
    return {
        "gld_transactions": c.load_transactions * sweep,
        "gst_transactions": c.store_transactions * sweep,
        "dram_bytes": dram_bytes,
        "dram_bw_fraction": (
            dram_bytes / time_s / (device.measured_bandwidth_gbs * 1e9)
        ),
        "gld_efficiency": timing.load_efficiency,
        "gst_efficiency": ops.where(
            stored != 0,
            ops.minimum(
                1.0,
                c.requested_store_bytes / ops.where(stored != 0, stored, 1.0),
            ),
            1.0,
        ),
        "l2_halo_hit_bytes": c.halo_transferred_bytes * reuse * planes * blocks,
        "local_spill_bytes": timing.spill_bytes_per_plane * planes * blocks,
        "shared_replay_rate": replay,
        "inst_issued": inst_issued,
        "ipc": inst_issued / (timing.total_cycles * device.sm_count),
        "stall_mem_frac": shares[0] / shares_total,
        "stall_compute_frac": shares[1] / shares_total,
        "stall_latency_frac": shares[2] / shares_total,
        "stall_sync_frac": shares[3] / shares_total,
        "stall_sched_frac": shares[4] / shares_total,
        "achieved_occupancy": timing.occupancy.occupancy,
    }


def derive_counters(
    timing: "TimingResult",
    workload: "BlockWorkload",
    grid: "GridWorkload",
    device: "DeviceSpec",
    params: "TimingParams",
) -> CounterSet:
    """Derive the full counter set for one simulated sweep."""
    from repro.gpusim.ops import SCALAR  # deferred: package layering
    from repro.gpusim.timing import BlockClass

    values = counter_stage(
        SCALAR, device, params, BlockClass.of(workload, grid), timing
    )
    return CounterSet(values=values, occupancy_limiter=timing.occupancy.limiter)
