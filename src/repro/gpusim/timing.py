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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.arch import WARP_SIZE, Generation
from repro.gpusim.device import DeviceSpec
from repro.gpusim.occupancy import OccupancyResult, compute_occupancy
from repro.gpusim.smem import dp_conflict_factor
from repro.gpusim.workload import BlockWorkload, GridWorkload
from repro.utils.maths import ceil_div, clamp


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
class IssueSlots:
    """Warp-instruction issue slots one block consumes per plane.

    This is the compute stream's instruction mix, exported so the profiler's
    counter derivations (:mod:`repro.obs.counters`) consume the *same*
    quantities the cycle model prices — the totals can never drift apart.

    ``smem`` includes bank-conflict replays (both the tile profile's residual
    conflicts and the architectural DP factor), so ``smem - smem_base`` is
    the replay-slot count.
    """

    global_load: float
    global_store: float
    smem: float
    smem_base: float
    arithmetic: float
    spill: float
    extra: float
    loop_overhead: float

    @property
    def bookkeeping(self) -> float:
        """Loop control and declared per-plane extras."""
        return self.extra + self.loop_overhead

    @property
    def total(self) -> float:
        """Slots per block per plane, summed exactly as the model sums them.

        The addition order matches the historical inline expression in
        :func:`_compute_cycles_per_block_plane` term for term, so refactoring
        the breakdown out changed no simulated cycle count.
        """
        return (
            self.global_load
            + self.global_store
            + self.smem
            + self.arithmetic
            + self.spill
            + self.extra
            + self.loop_overhead
        )


def issue_slots(
    workload: BlockWorkload,
    device: DeviceSpec,
    params: TimingParams | None = None,
    spilled_regs: int = 0,
) -> IssueSlots:
    """Instruction-issue breakdown of one block-plane (see :class:`IssueSlots`)."""
    params = params or params_for(device)
    conflict = dp_conflict_factor(workload.elem_bytes, device.rules)
    smem_base = float(
        workload.smem_profile.read_instructions
        + workload.smem_profile.write_instructions
    )
    arith_instr = workload.points_per_plane * workload.arith_instructions
    return IssueSlots(
        global_load=workload.memory.load_instructions
        * (1.0 + params.load_addressing_instructions),
        global_store=float(workload.memory.store_instructions),
        smem=workload.smem_profile.issue_cost() * conflict,
        smem_base=smem_base,
        arithmetic=arith_instr / WARP_SIZE,
        spill=(
            spilled_regs * workload.threads_per_block / WARP_SIZE * 2
            if spilled_regs
            else 0
        ),
        extra=float(workload.extra_instructions),
        loop_overhead=float(params.loop_overhead_instructions),
    )


@dataclass(frozen=True)
class TimingResult:
    """Full-sweep timing with its per-SM breakdown.

    ``plane_cost`` prices a full wave (``ActBlks`` resident blocks);
    ``rem_plane_cost`` prices the remainder wave.  Together with
    ``planes_per_block`` and ``sched_overhead_cycles`` they let the
    profiler (:mod:`repro.obs.simtrace`) reconstruct the exact per-wave
    timeline the total was accumulated from.
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


@dataclass(frozen=True)
class Wave:
    """One scheduling wave of a sweep, in device cycles since launch."""

    begin: float
    dur: float
    blocks_per_sm: int
    plane_cost: PlaneCost


def wave_geometry(timing: "TimingResult") -> list[Wave]:
    """Per-wave begin/duration/residency of one sweep.

    Mirrors :func:`time_kernel`'s accumulation exactly: ``stages - 1`` full
    waves followed by the remainder wave, whose duration is the residual of
    the total so the per-wave sum cannot drift from ``total_cycles``.  This
    is the one decomposition shared by the profiler's timeline
    reconstruction (:mod:`repro.obs.simtrace`) and the hardware-counter
    derivations (:mod:`repro.obs.counters`).
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


def _effective_plane_bytes(
    workload: BlockWorkload, device: DeviceSpec, params: TimingParams, spilled_regs: int
) -> tuple[float, float]:
    """Bytes one block moves per plane after L2 reuse, plus spill traffic."""
    mem = workload.memory
    reuse = params.l2_halo_reuse if device.l2_bytes > 0 else 0.0
    halo_bytes = mem.halo_transferred_bytes * (1.0 - reuse)
    spill_bytes = (
        spilled_regs * workload.threads_per_block * params.spill_bytes_per_reg
    )
    # Partition camping: column-walking lines serialize on one DRAM
    # partition; their service cost is multiplied.  (L2 reuse is already
    # reflected in halo_bytes; camped traffic is halo traffic, so the
    # surcharge applies to the post-reuse fraction.)
    camping_surcharge = (
        mem.camped_bytes * (1.0 - reuse) * (params.partition_camping - 1.0)
    )
    total = (
        mem.interior_transferred_bytes
        + halo_bytes
        + mem.spill_transferred_bytes
        + mem.store_transferred_bytes
        + spill_bytes
        + camping_surcharge
    )
    return total, spill_bytes


def _compute_cycles_per_block_plane(
    workload: BlockWorkload,
    device: DeviceSpec,
    params: TimingParams,
    spilled_regs: int,
) -> float:
    """Compute-stream cycles one block consumes per plane if alone on the SM.

    Arithmetic is priced in *instructions* through the SP/DP lanes: the SM
    retires ``cores_per_sm`` SP lane-instructions per cycle (``* dp_ratio``
    for doubles), so an FMA and an ADD cost the same slot — which is why
    the in-plane method's higher flop count (Table II) costs almost nothing
    while its memory behaviour dominates.
    """
    arith_instr = workload.points_per_plane * workload.arith_instructions
    dtype_ratio = 1.0 if workload.elem_bytes == 4 else device.dp_ratio
    lanes_per_cycle = device.cores_per_sm * dtype_ratio
    arith_cycles = arith_instr / (lanes_per_cycle * params.arith_efficiency)

    slots = issue_slots(workload, device, params, spilled_regs)
    issue_cycles = slots.total / device.rules.issue_width
    return max(arith_cycles, issue_cycles)


def _latency_hiding(
    workload: BlockWorkload,
    device: DeviceSpec,
    params: TimingParams,
    occ: OccupancyResult,
) -> float:
    """Fraction of DRAM latency hidden, in [0, 1].

    Combines Little's-law memory-level parallelism (bytes each warp keeps in
    flight vs. the bytes the DRAM pipe needs in flight) with thread-level
    parallelism (resident warps) and per-thread ILP from register tiling.
    """
    mem = workload.memory
    if mem.load_instructions == 0:
        return 1.0
    bytes_per_load_instr = mem.load_transferred_bytes / mem.load_instructions
    loads_per_warp = mem.load_instructions / max(1, occ.warps_per_block)
    outstanding = min(params.outstanding_loads_per_warp, max(1.0, loads_per_warp))
    in_flight_per_warp = bytes_per_load_instr * outstanding

    pipe_bytes = (
        device.bandwidth_per_sm_bytes_per_cycle * device.dram_latency_cycles
    )
    warps_needed = pipe_bytes / max(1.0, in_flight_per_warp)
    capacity = occ.active_warps * (1.0 + params.ilp_bonus * (workload.ilp - 1.0))
    return clamp(capacity / max(1.0, warps_needed), 0.0, 1.0)


def _plane_cost(
    workload: BlockWorkload,
    device: DeviceSpec,
    params: TimingParams,
    occ: OccupancyResult,
    active_blocks: int,
    spilled_regs: int,
) -> PlaneCost:
    """Per-SM cycles to advance ``active_blocks`` resident blocks one plane."""
    bytes_per_block, _ = _effective_plane_bytes(workload, device, params, spilled_regs)
    mem_cycles = (
        active_blocks * bytes_per_block / device.bandwidth_per_sm_bytes_per_cycle
    )
    compute_cycles = active_blocks * _compute_cycles_per_block_plane(
        workload, device, params, spilled_regs
    )

    hide = _latency_hiding(workload, device, params, occ)
    phases = max(1, workload.memory.load_phases)
    raw_exposure = (
        device.dram_latency_cycles
        * params.latency_exposure
        * (1.0 + params.phase_straggler * (phases - 1))
    )
    # Other resident blocks fill the SM while this block sits at its
    # barrier; coverage improves harmonically with resident blocks (they
    # contend for the same memory pipe, so each extra block covers less
    # than the previous one), and resident-warp MLP covers part of the rest.
    block_hide = 1.0 / (1.0 + params.block_overlap * (active_blocks - 1))
    exposed = raw_exposure * block_hide * (1.0 - 0.5 * hide)

    sync_cycles = workload.syncs_per_plane * (
        params.sync_base_cycles + params.sync_per_warp_cycles * occ.warps_per_block
    )

    # Memory/compute overlap: a block's own barriers serialize its load and
    # compute phases, so overlap only comes from *other* resident blocks
    # being in the opposite phase (and from MLP keeping the pipe busy).
    # With one resident block the two streams strictly serialize; two
    # anti-phased blocks already overlap most of the shorter stream.
    overlap = hide * (1.0 - 1.0 / (2 * active_blocks - 1))
    total = (
        max(mem_cycles, compute_cycles)
        + (1.0 - overlap) * min(mem_cycles, compute_cycles)
        + exposed
        + sync_cycles
    )
    return PlaneCost(
        cycles=total,
        mem_cycles=mem_cycles,
        compute_cycles=compute_cycles,
        exposed_cycles=exposed,
        sync_cycles=sync_cycles,
    )


def time_kernel(
    workload: BlockWorkload,
    grid: GridWorkload,
    device: DeviceSpec,
    params: TimingParams | None = None,
) -> TimingResult:
    """Simulate one full sweep; returns total cycles and the breakdown.

    Raises :class:`repro.errors.ResourceLimitError` via the occupancy
    calculator when the configuration cannot launch at all.
    """
    params = params or params_for(device)

    cap = device.rules.max_regs_per_thread
    spilled = max(0, workload.regs_per_thread - cap)
    effective_regs = min(workload.regs_per_thread, cap)

    occ = compute_occupancy(
        device, workload.threads_per_block, effective_regs, workload.smem_bytes
    )
    act = occ.active_blocks

    stages = ceil_div(grid.blocks, device.sm_count * act)
    rem = ceil_div(grid.blocks - (stages - 1) * act * device.sm_count, device.sm_count)
    rem = max(1, min(rem, act))

    planes_per_block = grid.planes + workload.prologue_planes

    full_cost = _plane_cost(workload, device, params, occ, act, spilled)
    total = 0.0
    if stages > 1:
        stage_cycles = (
            planes_per_block * full_cost.cycles + act * params.sched_overhead_cycles
        )
        total += (stages - 1) * stage_cycles

    rem_cost = _plane_cost(workload, device, params, occ, rem, spilled)
    total += planes_per_block * rem_cost.cycles + rem * params.sched_overhead_cycles

    bytes_per_block, _ = _effective_plane_bytes(workload, device, params, spilled)
    return TimingResult(
        total_cycles=total,
        occupancy=occ,
        stages=stages,
        blocks=grid.blocks,
        rem_blocks_per_sm=rem,
        plane_cost=full_cost,
        rem_plane_cost=rem_cost,
        planes_per_block=planes_per_block,
        sched_overhead_cycles=params.sched_overhead_cycles,
        spilled_regs=spilled,
        effective_bytes_per_plane=bytes_per_block,
    )
