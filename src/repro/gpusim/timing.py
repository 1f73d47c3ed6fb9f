"""Cycle-level timing model of one kernel sweep.

This is the simulator's "ground truth" — a refinement of the paper's
analytical model (Eqns (6)-(14)) that additionally prices the three effects
section VI admits to ignoring (bank conflicts, block-scheduling overhead,
cache effects) plus the mechanisms the in-plane method actually exploits:

* **Bandwidth stream** — transferred bytes over the per-SM share of the
  measured DRAM bandwidth (``BW_SM`` of Eqn (10)).
* **Compute stream** — arithmetic cycles and instruction-issue cycles
  (global/shared loads, stores, bookkeeping) through the SM schedulers,
  shared-memory bank conflicts included.
* **Latency exposure** — per plane, every block issues its loads, hits a
  barrier, computes, hits a barrier.  The DRAM latency behind the first
  barrier is hidden by (a) other resident blocks and (b) memory-level
  parallelism: the bytes a warp keeps in flight per load instruction.
  Vector loads raise bytes-in-flight (the paper's section III-C-2
  motivation); split halo "phases" with tiny spans lower it and add
  straggler imbalance.
* **Wave scheduling** — blocks are placed in waves of ``SM * ActBlks``
  (Eqns (8)-(9)); the remainder wave runs at lower concurrency.  Each
  block pays a scheduling overhead.
* **L2 halo reuse** — a fraction of halo lines is found in L2 because the
  neighbouring block fetched them recently.
* **Register spilling** — configurations above the per-thread register cap
  run, but with extra local-memory traffic per plane.

All constants live in :class:`TimingParams` with per-generation overrides,
and were calibrated once against the paper's published absolute numbers
(see ``benchmarks/``) — the *mechanisms*, not the calibration, produce the
relative behaviour under study.

The model is written once, as :func:`time_stage` over an op table
(:mod:`repro.gpusim.ops`).  :func:`time_kernel` evaluates one
configuration on Python numbers; :class:`repro.gpusim.batch.BatchEngine`
evaluates whole candidate sets as NumPy columns through the same
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.gpusim.arch import WARP_SIZE, Generation
from repro.gpusim.device import DeviceSpec
from repro.gpusim.occupancy import OccupancyResult, launch_error, occupancy_stage
from repro.gpusim.ops import SCALAR, Ops, cdiv
from repro.gpusim.smem import dp_conflict_factor
from repro.gpusim.workload import BlockWorkload, GridWorkload


@dataclass(frozen=True)
class TimingParams:
    """Calibration constants of the timing model.

    Attributes
    ----------
    arith_efficiency:
        Fraction of peak instruction throughput the arithmetic pipeline
        sustains (dependency stalls, dual-issue imperfection).
    latency_exposure:
        Fraction of one DRAM latency exposed per plane by the
        load-barrier-compute structure when nothing hides it.
    phase_straggler:
        Additional exposed fraction per extra load phase (divergent halo
        loading makes some warps finish their loads later).
    block_overlap:
        How effectively each additional resident block hides another
        block's barrier stall (0 = not at all, 1 = perfectly).
    ilp_bonus:
        Contribution of per-thread ILP (register tiling) to latency
        hiding, per unit of extra ILP.
    outstanding_loads_per_warp:
        Load instructions one warp can keep in flight before stalling.
    sync_base_cycles / sync_per_warp_cycles:
        Barrier cost: fixed plus per-resident-warp component.
    sched_overhead_cycles:
        One-time cost of placing a block on an SM.
    l2_halo_reuse:
        Fraction of halo transactions served from L2 (0 when no L2).
    partition_camping:
        Service-cost multiplier for column-walking transactions whose
        power-of-two stride maps them all onto one DRAM partition
        (the Fermi-era partition-camping effect).
    spill_bytes_per_reg:
        Local-memory bytes moved per spilled register per thread per plane
        (after L1/L2 absorption).
    load_addressing_instructions:
        Address-arithmetic warp instructions issued per global load
        instruction — the overhead vector loads divide by the vector
        width (section III-C-2's memory-level-parallelism motivation).
    loop_overhead_instructions:
        Warp instructions of loop control per plane beyond the kernel's
        declared extras.
    """

    arith_efficiency: float = 0.70
    latency_exposure: float = 0.85
    phase_straggler: float = 0.50
    block_overlap: float = 0.55
    ilp_bonus: float = 0.30
    outstanding_loads_per_warp: float = 4.0
    sync_base_cycles: float = 15.0
    sync_per_warp_cycles: float = 1.0
    sched_overhead_cycles: float = 300.0
    l2_halo_reuse: float = 0.40
    partition_camping: float = 3.0
    spill_bytes_per_reg: float = 16.0
    load_addressing_instructions: float = 2.0
    loop_overhead_instructions: int = 12


#: Per-generation parameter overrides.  Kepler GK104's static scheduler
#: relies more on ILP and MLP and its 8 wide SMXs amortize serial per-plane
#: costs over fewer units, which is what made the paper's Kepler results
#: both the best-case speedup (1.96x) and the worst model error (~6%).
_GENERATION_PARAMS: dict[Generation, TimingParams] = {
    Generation.FERMI: TimingParams(),
    Generation.KEPLER: TimingParams(
        arith_efficiency=0.60,
        latency_exposure=1.1,
        phase_straggler=0.80,
        block_overlap=0.35,
        ilp_bonus=0.50,
        outstanding_loads_per_warp=3.0,
        sync_base_cycles=25.0,
        sched_overhead_cycles=350.0,
        l2_halo_reuse=0.30,
        partition_camping=2.6,
    ),
    Generation.GT200: TimingParams(
        arith_efficiency=0.60,
        latency_exposure=1.0,
        block_overlap=0.45,
        ilp_bonus=0.25,
        outstanding_loads_per_warp=2.0,
        l2_halo_reuse=0.0,
        partition_camping=3.5,
    ),
}


def params_for(device: DeviceSpec) -> TimingParams:
    """Timing parameters for the device's generation."""
    return _GENERATION_PARAMS[device.generation]


@dataclass(frozen=True)
class PlaneCost:
    """Per-SM cycle cost of advancing all resident blocks by one z-plane."""

    cycles: float
    mem_cycles: float
    compute_cycles: float
    exposed_cycles: float
    sync_cycles: float


@dataclass(frozen=True)
class TimingResult:
    """Full-sweep timing with its per-SM breakdown.

    ``plane_cost`` prices a full wave (``ActBlks`` resident blocks);
    ``rem_plane_cost`` prices the remainder wave.  Together with
    ``planes_per_block`` and ``sched_overhead_cycles`` they let the
    profiler (:mod:`repro.obs.simtrace`) reconstruct the exact per-wave
    timeline the total was accumulated from.  The per-block-plane
    quantities after ``effective_bytes_per_plane`` are what the counter
    stage (:func:`repro.obs.counters.counter_stage`) reads besides the
    waves: ``issue_slots_per_plane`` is the compute stream's whole
    instruction mix, of which ``smem_slots_per_plane`` are shared-memory
    slots (bank-conflict replays included) for
    ``smem_instructions_per_plane`` instructions; ``load_efficiency`` is
    the Fig 9 metric.
    """

    total_cycles: float
    occupancy: OccupancyResult
    stages: int
    blocks: int
    rem_blocks_per_sm: int
    plane_cost: PlaneCost
    rem_plane_cost: PlaneCost
    planes_per_block: int
    sched_overhead_cycles: float
    spilled_regs: int
    effective_bytes_per_plane: float
    spill_bytes_per_plane: float
    issue_slots_per_plane: float
    smem_instructions_per_plane: float
    smem_slots_per_plane: float
    load_efficiency: float


@dataclass(frozen=True)
class Wave:
    """One scheduling wave of a sweep, in device cycles since launch."""

    begin: float
    dur: float
    blocks_per_sm: int
    plane_cost: PlaneCost


def wave_geometry(timing: "TimingResult") -> list[Wave]:
    """Per-wave begin/duration/residency of one sweep.

    Mirrors :func:`time_stage`'s accumulation exactly: ``stages - 1`` full
    waves followed by the remainder wave, whose duration is the residual of
    the total so the per-wave sum cannot drift from ``total_cycles``.  The
    profiler's timeline reconstruction (:mod:`repro.obs.simtrace`) walks
    these waves; the counter stage sums the same waves' cycle shares.
    """
    planes = timing.planes_per_block
    full_stage = (
        planes * timing.plane_cost.cycles
        + timing.occupancy.active_blocks * timing.sched_overhead_cycles
    )
    waves = [
        Wave(w * full_stage, full_stage, timing.occupancy.active_blocks,
             timing.plane_cost)
        for w in range(timing.stages - 1)
    ]
    last_begin = (timing.stages - 1) * full_stage
    waves.append(
        Wave(last_begin, timing.total_cycles - last_begin,
             timing.rem_blocks_per_sm, timing.rem_plane_cost)
    )
    return waves


class BlockClass(NamedTuple):
    """Numeric fingerprint of a (block workload, grid workload) pair.

    Exactly the quantities the timing model and the counter derivations
    read — two configurations with equal fingerprints are
    indistinguishable to the simulator, which is what makes the batch
    engine's per-class memoization exact rather than approximate.  The
    stages read their inputs from it by field name: one instance holds one
    configuration's Python numbers, and :class:`repro.gpusim.batch.BatchEngine`
    builds one whose fields are columns.  ``load_transactions`` /
    ``store_transactions`` keep their original numeric type (int for
    enumerated traffic, float for phase-averaged raw counts) because the
    counter set preserves that type in ``gld_transactions`` /
    ``gst_transactions``.  A tuple, so building and hashing one (the
    engine's memo key) run in C.
    """

    threads_per_block: int
    regs_per_thread: int
    smem_bytes: int
    elem_bytes: int
    points_per_plane: int
    flops_per_point: float
    arith_instructions: float
    extra_instructions: int
    ilp: float
    prologue_planes: int
    syncs_per_plane: int
    # -- global-memory traffic (per block-plane) --
    load_instructions: float
    store_instructions: float
    load_transactions: int | float
    store_transactions: int | float
    requested_load_bytes: float
    requested_store_bytes: float
    interior_transferred_bytes: float
    halo_transferred_bytes: float
    store_transferred_bytes: float
    spill_transferred_bytes: float
    load_phases: int
    camped_bytes: float
    # -- shared-memory profile --
    smem_read_instructions: int
    smem_write_instructions: int
    smem_conflict_factor: float
    # -- grid --
    blocks: int
    planes: int
    total_points: int

    @classmethod
    def of(cls, workload: BlockWorkload, grid: GridWorkload) -> "BlockClass":
        mem = workload.memory
        prof = workload.smem_profile
        return cls(
            threads_per_block=workload.threads_per_block,
            regs_per_thread=workload.regs_per_thread,
            smem_bytes=workload.smem_bytes,
            elem_bytes=workload.elem_bytes,
            points_per_plane=workload.points_per_plane,
            flops_per_point=workload.flops_per_point,
            arith_instructions=workload.arith_instructions,
            extra_instructions=workload.extra_instructions,
            ilp=workload.ilp,
            prologue_planes=workload.prologue_planes,
            syncs_per_plane=workload.syncs_per_plane,
            load_instructions=mem.load_instructions,
            store_instructions=mem.store_instructions,
            load_transactions=mem.load_transactions,
            store_transactions=mem.store_transactions,
            requested_load_bytes=mem.requested_load_bytes,
            requested_store_bytes=mem.requested_store_bytes,
            interior_transferred_bytes=mem.interior_transferred_bytes,
            halo_transferred_bytes=mem.halo_transferred_bytes,
            store_transferred_bytes=mem.store_transferred_bytes,
            spill_transferred_bytes=mem.spill_transferred_bytes,
            load_phases=mem.load_phases,
            camped_bytes=mem.camped_bytes,
            smem_read_instructions=prof.read_instructions,
            smem_write_instructions=prof.write_instructions,
            smem_conflict_factor=prof.conflict_factor,
            blocks=grid.blocks,
            planes=grid.planes,
            total_points=grid.total_points,
        )


def time_stage(
    ops: Ops, device: DeviceSpec, params: TimingParams, c: BlockClass
) -> tuple[Any, OccupancyResult, TimingResult]:
    """The headline stage: ``(reason, occupancy, timing)`` of a sweep.

    Spill cap, occupancy and the launch check (``reason`` and
    ``occupancy`` cover every input row), then — over the launchable rows
    only — the plane costs, the wave schedule and the load efficiency.
    Written once over ``ops`` (see :mod:`repro.gpusim.ops`): under the
    scalar table ``c`` is one configuration and an unlaunchable one raises
    :class:`~repro.errors.ResourceLimitError`; under the vector table the
    fields of ``c`` and of the returned records are columns.
    """
    dev, p = device, params
    rules = dev.rules
    # Registers above the per-thread cap spill: the block runs, with
    # extra local-memory traffic per plane.
    cap = rules.max_regs_per_thread
    spilled = ops.maximum(0, c.regs_per_thread - cap)
    reason, occ_all = occupancy_stage(
        ops, dev, c.threads_per_block, ops.minimum(c.regs_per_thread, cap),
        c.smem_bytes,
    )
    live = ops.launchable(reason, lambda: launch_error(
        dev, reason, c.threads_per_block, occ_all.regs_per_block,
        occ_all.smem_per_block,
    ))
    c, occ, spilled = (ops.rows(live, x) for x in (c, occ_all, spilled))
    threads, warps = c.threads_per_block, occ.warps_per_block

    # Bytes one block moves per plane: L2 serves a share of the halo, and
    # partition camping — column-walking lines serialized on one DRAM
    # partition — multiplies the service cost of the (post-reuse) camped
    # halo traffic.
    reuse = p.l2_halo_reuse if dev.l2_bytes > 0 else 0.0
    spill_bytes = spilled * threads * p.spill_bytes_per_reg
    bytes_blk = (
        c.interior_transferred_bytes
        + c.halo_transferred_bytes * (1.0 - reuse)
        + c.spill_transferred_bytes
        + c.store_transferred_bytes
        + spill_bytes
        + c.camped_bytes * (1.0 - reuse) * (p.partition_camping - 1.0)
    )

    # Issue slots one block spends per plane.  Shared-memory slots carry
    # the tile profile's bank-conflict factor and the architectural DP
    # factor; vector loads divide the address arithmetic per load.
    conflict = ops.where(c.elem_bytes == 4, 1.0, dp_conflict_factor(8, rules))
    smem_instr = c.smem_read_instructions + c.smem_write_instructions
    smem_slots = smem_instr * c.smem_conflict_factor * conflict
    arith_instr = c.points_per_plane * c.arith_instructions
    slots = (
        c.load_instructions * (1.0 + p.load_addressing_instructions)
        + c.store_instructions
        + smem_slots
        + arith_instr / WARP_SIZE
        + ops.where(spilled != 0, spilled * threads / WARP_SIZE * 2, 0.0)
        + c.extra_instructions
        + p.loop_overhead_instructions
    )

    # Compute-stream cycles per block-plane.  Arithmetic is priced in
    # instructions through the SP/DP lanes, so an FMA and an ADD cost the
    # same slot — why the in-plane method's higher flop count (Table II)
    # costs almost nothing while its memory behaviour dominates.
    dtype_ratio = ops.where(c.elem_bytes == 4, 1.0, dev.dp_ratio)
    compute_blk = ops.maximum(
        arith_instr / (dev.cores_per_sm * dtype_ratio * p.arith_efficiency),
        slots / rules.issue_width,
    )

    # Fraction of DRAM latency hidden: Little's-law memory-level
    # parallelism (bytes each warp keeps in flight vs. the bytes the DRAM
    # pipe needs in flight), resident warps and per-thread ILP.  A block
    # that loads nothing hides everything.
    li = c.load_instructions
    has_loads = li != 0
    load_bytes = (
        c.interior_transferred_bytes + c.halo_transferred_bytes
        + c.spill_transferred_bytes
    )
    outstanding = ops.minimum(
        p.outstanding_loads_per_warp,
        ops.maximum(1.0, li / ops.maximum(1, warps)),
    )
    in_flight = load_bytes / ops.where(has_loads, li, 1.0) * outstanding
    bw = dev.bandwidth_per_sm_bytes_per_cycle
    warps_needed = bw * dev.dram_latency_cycles / ops.maximum(1.0, in_flight)
    capacity = occ.active_warps * (1.0 + p.ilp_bonus * (c.ilp - 1.0))
    hide = ops.where(
        has_loads,
        ops.maximum(0.0, ops.minimum(1.0, capacity / ops.maximum(1.0, warps_needed))),
        1.0,
    )

    raw_exposure = (
        dev.dram_latency_cycles
        * p.latency_exposure
        * (1.0 + p.phase_straggler * (ops.maximum(1, c.load_phases) - 1))
    )
    sync = c.syncs_per_plane * (
        p.sync_base_cycles + p.sync_per_warp_cycles * warps
    )

    def plane_cost(resident: Any) -> PlaneCost:
        """Per-SM cycles to advance ``resident`` blocks one plane."""
        mem = resident * bytes_blk / bw
        comp = resident * compute_blk
        # Other resident blocks fill the SM while one sits at its barrier;
        # coverage improves harmonically with resident blocks (they share
        # the memory pipe), and resident-warp MLP covers part of the rest.
        block_hide = 1.0 / (1.0 + p.block_overlap * (resident - 1))
        exposed = raw_exposure * block_hide * (1.0 - 0.5 * hide)
        # A block's own barriers serialize its load and compute phases, so
        # overlap only comes from other resident blocks in the opposite
        # phase: one resident block serializes the two streams strictly.
        overlap = hide * (1.0 - 1.0 / (2 * resident - 1))
        total = (
            ops.maximum(mem, comp)
            + (1.0 - overlap) * ops.minimum(mem, comp)
            + exposed
            + sync
        )
        return PlaneCost(total, mem, comp, exposed, sync)

    # Waves of SM * ActBlks blocks (Eqns (8)-(9)); the remainder wave runs
    # fewer blocks per SM.  Each block pays a scheduling overhead.
    act, sm = occ.active_blocks, dev.sm_count
    stages = cdiv(c.blocks, sm * act)
    rem = ops.maximum(
        1, ops.minimum(cdiv(c.blocks - (stages - 1) * act * sm, sm), act)
    )
    planes = c.planes + c.prologue_planes
    full, last = plane_cost(act), plane_cost(rem)
    sched = p.sched_overhead_cycles
    total_cycles = ops.where(
        stages > 1, (stages - 1) * (planes * full.cycles + act * sched), 0.0
    ) + (planes * last.cycles + rem * sched)

    # Fig 9: requested load bytes over the serviced request stream —
    # transferred lines plus the camping surcharge, with no L2 credit (the
    # profiler counts requests; reuse would hide the inefficiency).
    serviced = load_bytes + c.camped_bytes * (p.partition_camping - 1.0)
    load_eff = ops.where(
        serviced != 0,
        ops.minimum(
            1.0, c.requested_load_bytes / ops.where(serviced != 0, serviced, 1.0)
        ),
        1.0,
    )
    return reason, occ_all, TimingResult(
        total_cycles=total_cycles,
        occupancy=occ,
        stages=stages,
        blocks=c.blocks,
        rem_blocks_per_sm=rem,
        plane_cost=full,
        rem_plane_cost=last,
        planes_per_block=planes,
        sched_overhead_cycles=sched,
        spilled_regs=spilled,
        effective_bytes_per_plane=bytes_blk,
        spill_bytes_per_plane=spill_bytes,
        issue_slots_per_plane=slots,
        smem_instructions_per_plane=smem_instr,
        smem_slots_per_plane=smem_slots,
        load_efficiency=load_eff,
    )


def sweep_rates(
    device: DeviceSpec, total_cycles: Any, total_points: Any,
    flops_per_point: Any, derate: float = 1.0,
) -> tuple[Any, Any, Any]:
    """``(time_s, MPoint/s, GFlop/s)`` of a sweep from its cycle count.

    ``derate`` (a throttled launch's clock factor) stretches the wall time;
    ``x * 1.0`` is exact, so an undisturbed launch pays nothing for it.
    ``total_points`` is what one pass produces, which covers kernels whose
    sweep yields several time steps (temporal blocking).
    """
    time_s = total_cycles / device.clock_hz * derate
    mpoints = total_points / time_s / 1e6
    return time_s, mpoints, mpoints * 1e6 * flops_per_point / 1e9


def time_kernel(
    workload: BlockWorkload,
    grid: GridWorkload,
    device: DeviceSpec,
    params: TimingParams | None = None,
) -> TimingResult:
    """Simulate one full sweep; returns total cycles and the breakdown.

    Raises :class:`repro.errors.ResourceLimitError` when the configuration
    cannot launch at all.
    """
    return time_stage(
        SCALAR, device, params or params_for(device),
        BlockClass.of(workload, grid),
    )[2]
