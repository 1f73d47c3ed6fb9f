"""Batched, vectorized evaluation engine — whole candidate sets at once.

The scalar pipeline (:func:`repro.gpusim.timing.time_kernel` plus
:func:`repro.obs.counters.derive_counters`) prices one configuration per
call; an exhaustive sweep therefore pays the full Python pipeline N
times.  This module computes the identical quantities as NumPy array
operations over *whole candidate sets*: occupancy, block-class analysis,
coalescing/transaction totals, shared-memory bank-conflict replay, the
wave-scheduled cycle accumulation and the derived hardware-counter set.

Two contracts make it safe to substitute for the scalar path anywhere:

* **Bit identity.**  Every elementwise operation mirrors the scalar
  code in the identical order on IEEE-754 doubles, so each derived
  float is *bit-identical* to the scalar result — not merely close.
  The executable proof is ``python -m repro.gpusim.batch --baseline
  BENCH_profile.json``, which resimulates every trajectory record
  through both paths and compares every report field exactly (the
  ``batch-identity`` step of ``tools/check.py``).  The scalar loop in
  :func:`derive_counters` accumulates wave cycle shares by repeated
  addition, which is *not* associative in floating point — the batch
  engine replays the same additions with a masked loop rather than
  collapsing them into a multiplication.
* **Block-class memoization.**  The timing model only sees the numeric
  fingerprint of a (block workload, grid workload) pair — its
  :class:`BlockClass`.  Distinct configurations that share a class (and
  repeated sweeps over the same class) are priced once; results are
  cached on the engine.

The pipeline runs in two stages, split where the scalar path splits
``time_kernel`` from ``derive_counters``.  The headline stage
(occupancy, launch check, timing, rate and load efficiency) is all that
:meth:`BatchEngine.scores` — the tuners' call — runs.  The counter stage
(the masked wave loop, DRAM bytes, issued instructions, replay, store
efficiency) runs only in :meth:`BatchEngine.outcomes`.  The identity
gate checks both calls.

Unlaunchable configurations do not raise: the vector pipeline carries a
launchability mask and reports per-class failure strings identical to
the :class:`repro.errors.ResourceLimitError` messages the scalar
occupancy calculator raises, so callers can reproduce the scalar
control flow without exceptions.

Consumers: :class:`repro.tuning.vectorized.VectorTrialEvaluator` (the
``repro tune`` backend), :func:`repro.obs.regress.diff_baseline` and
:func:`repro.analysis.estimate.reconcile_profile` (batched
resimulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np

from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.occupancy import OccupancyResult
from repro.gpusim.report import SimReport
from repro.gpusim.smem import dp_conflict_factor
from repro.gpusim.timing import PlaneCost, TimingParams, TimingResult, params_for
from repro.gpusim.workload import BlockWorkload, GridWorkload
from repro.obs.counters import CounterSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kernels.base import KernelPlan

#: Limiter names in the exact insertion order of the scalar limits dict;
#: ``np.argmin`` picks the first minimum, matching ``min(dict.items())``.
_LIMITERS = ("registers", "smem", "warps", "blocks")

_F = np.float64
_I = np.int64


class BlockClass(NamedTuple):
    """Numeric fingerprint of a (block workload, grid workload) pair.

    Exactly the quantities the timing model and the counter derivations
    read — two configurations with equal fingerprints are
    indistinguishable to the simulator, which is what makes per-class
    memoization exact rather than approximate.  ``load_transactions`` /
    ``store_transactions`` keep their original numeric type (int for
    enumerated traffic, float for phase-averaged raw counts) because the
    scalar counter set preserves that type in ``gld_transactions`` /
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


#: Field name -> position in a :class:`BlockClass` tuple.
_FIELD = {name: i for i, name in enumerate(BlockClass._fields)}


@dataclass(frozen=True)
class ClassScore:
    """What the tuners consume per class: headline rate + trial info.

    ``launch_error`` is ``None`` for a launchable class; otherwise the
    exact message the scalar occupancy calculator would raise.
    """

    launch_error: str | None
    mpoints_per_s: float = 0.0
    load_efficiency: float = 0.0
    occupancy: float = 0.0
    limiter: str = ""


@dataclass(frozen=True)
class ClassOutcome:
    """The full per-class scalar-pipeline product (report assembly kit)."""

    launch_error: str | None
    timing: TimingResult | None = None
    counters: CounterSet | None = None
    time_s: float = 0.0
    mpoints_per_s: float = 0.0
    gflops: float = 0.0
    load_efficiency: float = 0.0
    bandwidth_gbs: float = 0.0


def _cdiv(a: np.ndarray, b: Any) -> np.ndarray:
    """Vectorized ``ceil_div`` for non-negative int64 operands."""
    return -((-a) // b)


class BatchEngine:
    """Vectorized scalar-identical evaluation of block classes on one device.

    Results are memoized per :class:`BlockClass`; repeated classes across
    (and within) calls are free.  ``params`` overrides the generation's
    timing constants exactly like :class:`repro.gpusim.executor.DeviceExecutor`.
    """

    def __init__(
        self, device: DeviceSpec | str, params: TimingParams | None = None
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.params = params or params_for(self.device)
        self._scores: dict[BlockClass, ClassScore] = {}
        self._full: dict[BlockClass, ClassOutcome] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def scores(self, classes: Sequence[BlockClass]) -> list[ClassScore]:
        """Tuner-grade results (rate / efficiency / occupancy / limiter).

        Runs the headline stage only: no counter is derived.
        """
        missing = self._missing(classes, self._scores)
        if missing:
            cols = self._pipeline(missing)
            for i, cls in enumerate(missing):
                self._scores[cls] = self._light(cols, i)
        return [self._scores[c] for c in classes]

    def outcomes(self, classes: Sequence[BlockClass]) -> list[ClassOutcome]:
        """Full results: timing breakdown plus the derived counter set."""
        missing = self._missing(classes, self._full)
        if missing:
            cols = self._pipeline(missing)
            self._counters(cols)
            for i, cls in enumerate(missing):
                full = self._assemble(cols, i, cls)
                self._full[cls] = full
                self._scores.setdefault(cls, _score_of(full))
        return [self._full[c] for c in classes]

    @staticmethod
    def _missing(
        classes: Sequence[BlockClass], cache: dict[BlockClass, Any]
    ) -> list[BlockClass]:
        seen: dict[BlockClass, None] = {}
        for c in classes:
            if c not in cache:
                seen.setdefault(c)
        return list(seen)

    # ------------------------------------------------------------------
    # the vectorized pipeline
    # ------------------------------------------------------------------
    def _pipeline(self, classes: list[BlockClass]) -> dict[str, Any]:
        """The headline stage: occupancy → launch check → timing, over arrays.

        It ends at the executor's headline (time, rate, load efficiency),
        which is everything a :class:`ClassScore` reads; :meth:`_counters`
        continues from its columns.  Every expression below is annotated
        against its scalar original; operand order and association are
        preserved so each float64 lane is bit-identical to the scalar
        computation for that class.
        """
        dev = self.device
        p = self.params
        n = len(classes)
        fields = list(zip(*classes))  # one tuple per BlockClass field

        def icol(attr: str) -> np.ndarray:
            return np.array(fields[_FIELD[attr]], dtype=_I)

        def fcol(attr: str) -> np.ndarray:
            return np.array(fields[_FIELD[attr]], dtype=_F)

        threads = icol("threads_per_block")
        regs = icol("regs_per_thread")
        smem_bytes = icol("smem_bytes")
        elem = icol("elem_bytes")
        points = icol("points_per_plane")
        flops = fcol("flops_per_point")
        arith_pp = fcol("arith_instructions")
        extra = fcol("extra_instructions")
        ilp = fcol("ilp")
        prologue = icol("prologue_planes")
        syncs = icol("syncs_per_plane")
        load_instr = fcol("load_instructions")
        store_instr = fcol("store_instructions")
        req_load = fcol("requested_load_bytes")
        req_store = fcol("requested_store_bytes")
        interior_b = fcol("interior_transferred_bytes")
        halo_b = fcol("halo_transferred_bytes")
        store_b = fcol("store_transferred_bytes")
        spill_b = fcol("spill_transferred_bytes")
        phases = icol("load_phases")
        camped = fcol("camped_bytes")
        smem_read = icol("smem_read_instructions")
        smem_write = icol("smem_write_instructions")
        smem_conflict = fcol("smem_conflict_factor")
        blocks = icol("blocks")
        planes = icol("planes")
        total_points = icol("total_points")

        # ---- time_kernel: spill cap (scalar max/min on the raw regs) ----
        cap = dev.rules.max_regs_per_thread
        spilled = np.maximum(0, regs - cap)
        eff_regs = np.minimum(regs, cap)

        # ---- compute_occupancy ------------------------------------------
        rules = dev.rules
        warps_blk = _cdiv(threads, WARP_SIZE)
        # round_up(regs*WARP_SIZE, granularity) — garbage on (masked)
        # negative-footprint rows is fine, the error mask wins below.
        regs_warp = _cdiv(eff_regs * WARP_SIZE, rules.register_alloc_granularity) * (
            rules.register_alloc_granularity
        )
        regs_blk = regs_warp * warps_blk
        smem_blk = np.where(
            smem_bytes != 0,
            _cdiv(np.abs(smem_bytes), rules.smem_alloc_granularity)
            * rules.smem_alloc_granularity,
            0,
        )

        # An unused resource sits one above the always-present block cap,
        # so it never wins the argmin — the scalar path leaves it out.
        absent = dev.max_blocks_per_sm + 1
        lim = np.stack([
            np.where(
                regs_blk != 0,
                dev.registers_per_sm // np.where(regs_blk != 0, regs_blk, 1),
                absent,
            ),
            np.where(
                smem_blk != 0,
                dev.smem_per_sm // np.where(smem_blk != 0, smem_blk, 1),
                absent,
            ),
            dev.max_warps_per_sm // warps_blk,
            np.full(n, dev.max_blocks_per_sm, dtype=_I),
        ])
        lim_idx = np.argmin(lim, axis=0)  # first minimum == dict-order min
        act = np.min(lim, axis=0)

        # Launch-failure classification in the scalar check order.
        reason = np.select(
            [
                threads > dev.max_threads_per_block,
                (eff_regs < 0) | (smem_bytes < 0),
                regs_blk > dev.registers_per_sm,
                smem_blk > dev.smem_per_sm,
                act < 1,
            ],
            [1, 2, 3, 4, 5],
            default=0,
        )
        launch = reason == 0
        live = np.flatnonzero(launch)

        cols: dict[str, Any] = {
            "classes": classes,
            "reason": reason,
            "live_index": {int(g): k for k, g in enumerate(live)},
            "threads": threads,
            "regs_blk": regs_blk,
            "smem_blk": smem_blk,
        }
        if live.size == 0:
            return cols

        # ---- compress to launchable rows --------------------------------
        def lv(a: np.ndarray) -> np.ndarray:
            return a[live]

        threads_l = lv(threads)
        act_l = lv(act)
        warps_l = lv(warps_blk)
        spilled_l = lv(spilled)
        elem_l = lv(elem)
        blocks_l = lv(blocks)
        planes_l = lv(planes)

        active_warps = act_l * warps_l
        occ_frac = active_warps / dev.max_warps_per_sm

        # ---- _effective_plane_bytes -------------------------------------
        reuse = p.l2_halo_reuse if dev.l2_bytes > 0 else 0.0
        halo_eff = lv(halo_b) * (1.0 - reuse)
        spill_bytes = spilled_l * threads_l * p.spill_bytes_per_reg
        camping = lv(camped) * (1.0 - reuse) * (p.partition_camping - 1.0)
        bytes_blk = (
            lv(interior_b) + halo_eff + lv(spill_b) + lv(store_b)
            + spill_bytes + camping
        )

        # ---- issue_slots -------------------------------------------------
        dp_factor = dp_conflict_factor(8, rules)
        conflict = np.where(elem_l == 4, 1.0, dp_factor)
        smem_rw = lv(smem_read) + lv(smem_write)
        arith_instr = lv(points) * lv(arith_pp)
        slot_gl = lv(load_instr) * (1.0 + p.load_addressing_instructions)
        slot_gs = lv(store_instr)
        # issue_cost() = (reads + writes) * profile factor, then the DP factor.
        slot_smem = (smem_rw * lv(smem_conflict)) * conflict
        slot_arith = arith_instr / WARP_SIZE
        slot_spill = np.where(
            spilled_l != 0, spilled_l * threads_l / WARP_SIZE * 2, 0.0
        )
        slot_extra = lv(extra)
        slot_loop = float(p.loop_overhead_instructions)
        slots_total = (
            slot_gl + slot_gs + slot_smem + slot_arith + slot_spill
            + slot_extra + slot_loop
        )

        # ---- _compute_cycles_per_block_plane ----------------------------
        dtype_ratio = np.where(elem_l == 4, 1.0, dev.dp_ratio)
        lanes = dev.cores_per_sm * dtype_ratio
        arith_cycles = arith_instr / (lanes * p.arith_efficiency)
        issue_cycles = slots_total / rules.issue_width
        compute_blk = np.maximum(arith_cycles, issue_cycles)

        # ---- _latency_hiding --------------------------------------------
        li = lv(load_instr)
        has_loads = li != 0
        load_transferred = (lv(interior_b) + lv(halo_b)) + lv(spill_b)
        bytes_per_li = load_transferred / np.where(has_loads, li, 1.0)
        loads_per_warp = li / np.maximum(1, warps_l)
        outstanding = np.minimum(
            p.outstanding_loads_per_warp, np.maximum(1.0, loads_per_warp)
        )
        in_flight = bytes_per_li * outstanding
        pipe_bytes = (
            dev.bandwidth_per_sm_bytes_per_cycle * dev.dram_latency_cycles
        )
        warps_needed = pipe_bytes / np.maximum(1.0, in_flight)
        capacity = active_warps * (1.0 + p.ilp_bonus * (ilp[live] - 1.0))
        # clamp(x, 0, 1) is max(0, min(1, x)) — mirror the min-then-max order.
        hide = np.maximum(0.0, np.minimum(1.0, capacity / np.maximum(1.0, warps_needed)))
        hide = np.where(has_loads, hide, 1.0)

        # ---- _plane_cost (shared sub-terms) -----------------------------
        phases_eff = np.maximum(1, lv(phases))
        raw_exposure = (
            dev.dram_latency_cycles * p.latency_exposure
        ) * (1.0 + p.phase_straggler * (phases_eff - 1))
        sync_cycles = lv(syncs) * (
            p.sync_base_cycles + p.sync_per_warp_cycles * warps_l
        )
        bw = dev.bandwidth_per_sm_bytes_per_cycle

        def plane_cost(res: np.ndarray) -> tuple[np.ndarray, ...]:
            mem_c = res * bytes_blk / bw
            comp_c = res * compute_blk
            block_hide = 1.0 / (1.0 + p.block_overlap * (res - 1))
            exposed = raw_exposure * block_hide * (1.0 - 0.5 * hide)
            overlap = hide * (1.0 - 1.0 / (2 * res - 1))
            total = (
                np.maximum(mem_c, comp_c)
                + (1.0 - overlap) * np.minimum(mem_c, comp_c)
                + exposed
                + sync_cycles
            )
            return total, mem_c, comp_c, exposed, sync_cycles

        # ---- time_kernel wave schedule ----------------------------------
        stages = _cdiv(blocks_l, dev.sm_count * act_l)
        rem = _cdiv(blocks_l - (stages - 1) * act_l * dev.sm_count, dev.sm_count)
        rem = np.maximum(1, np.minimum(rem, act_l))
        planes_blk = planes_l + lv(prologue)

        full = plane_cost(act_l)
        rem_c = plane_cost(rem)
        sched = p.sched_overhead_cycles
        stage_cycles = planes_blk * full[0] + act_l * sched
        total_cycles = (
            np.where(stages > 1, (stages - 1) * stage_cycles, 0.0)
            + (planes_blk * rem_c[0] + rem * sched)
        )

        # ---- executor headline ------------------------------------------
        time_s = total_cycles / dev.clock_hz  # derate == 1.0 on clean launches
        mpoints = lv(total_points) / time_s / 1e6
        gflops = mpoints * 1e6 * lv(flops) / 1e9

        # ---- counters.load_efficiency: the one counter a score reads ----
        eff_loads = load_transferred + lv(camped) * (p.partition_camping - 1.0)
        gld_eff = np.where(
            eff_loads != 0,
            np.minimum(
                1.0, lv(req_load) / np.where(eff_loads != 0, eff_loads, 1.0)
            ),
            1.0,
        )
        cols.update(
            act=act_l, warps_blk=warps_l, active_warps=active_warps,
            occ_frac=occ_frac, lim_idx=lv(lim_idx),
            regs_blk_l=lv(regs_blk), smem_blk_l=lv(smem_blk),
            spilled=spilled_l, stages=stages, rem=rem, planes_blk=planes_blk,
            bytes_blk=bytes_blk, total_cycles=total_cycles,
            full_cost=full, rem_cost=rem_c,
            time_s=time_s, mpoints=mpoints, gflops=gflops, gld_eff=gld_eff,
            l2_reuse=reuse, spill_bytes=spill_bytes,
            # read only by the counter stage
            planes_l=planes_l, blocks_l=blocks_l, slots_total=slots_total,
            smem_rw=smem_rw, slot_smem=slot_smem,
            req_store=lv(req_store), store_b=lv(store_b),
        )
        return cols

    def _counters(self, cols: dict[str, Any]) -> None:
        """The counter stage: ``derive_counters``' arrays, added to ``cols``.

        Runs over the launchable rows of a finished :meth:`_pipeline`;
        only :meth:`outcomes` calls it, since no :class:`ClassScore`
        field reads a counter.
        """
        if not cols["live_index"]:
            return
        planes_l, blocks_l = cols["planes_l"], cols["blocks_l"]
        planes_blk = cols["planes_blk"]
        smem_base = cols["smem_rw"].astype(_F)
        dram_bytes = cols["bytes_blk"] * planes_l * blocks_l
        inst_issued = cols["slots_total"] * planes_blk * blocks_l
        replay = np.where(
            smem_base != 0,
            (cols["slot_smem"] - smem_base)
            / np.where(smem_base != 0, smem_base, 1.0),
            0.0,
        )
        # Wave cycle shares: the scalar loop *adds* one full wave at a
        # time — repeated fp addition, not multiplication — so replay the
        # identical additions under a stages mask.
        sched = self.params.sched_overhead_cycles
        full, rem_c, rem = cols["full_cost"], cols["rem_cost"], cols["rem"]
        t_mem = full[1] * planes_blk
        t_comp = full[2] * planes_blk
        t_exp = full[3] * planes_blk
        t_sync = full[4] * planes_blk
        t_sched = cols["act"] * sched
        acc = [np.zeros(planes_blk.size) for _ in range(5)]
        n_full = cols["stages"] - 1
        for w in range(int(n_full.max(initial=0))):
            m = n_full > w
            for a, t in zip(acc, (t_mem, t_comp, t_exp, t_sync, t_sched)):
                a[m] += t[m]
        last = (
            rem_c[1] * planes_blk, rem_c[2] * planes_blk,
            rem_c[3] * planes_blk, rem_c[4] * planes_blk, rem * sched,
        )
        for a, t in zip(acc, last):
            a += t
        comp_total = acc[0] + acc[1] + acc[2] + acc[3] + acc[4]

        store_b = cols["store_b"]
        gst_eff = np.where(
            store_b != 0,
            np.minimum(
                1.0,
                cols["req_store"] / np.where(store_b != 0, store_b, 1.0),
            ),
            1.0,
        )
        cols.update(
            dram_bytes=dram_bytes, inst_issued=inst_issued, replay=replay,
            acc=acc, comp_total=comp_total, gst_eff=gst_eff,
        )

    # ------------------------------------------------------------------
    # per-class assembly
    # ------------------------------------------------------------------
    def _error_for(self, cols: dict[str, Any], i: int) -> str:
        """The exact ResourceLimitError message the scalar path raises."""
        dev = self.device
        reason = int(cols["reason"][i])
        threads = int(cols["threads"][i])
        if reason == 1:
            return (
                f"{threads} threads/block exceeds device limit "
                f"{dev.max_threads_per_block} on {dev.name}"
            )
        if reason == 2:
            return "resource footprints must be non-negative"
        if reason == 3:
            return (
                f"one block needs {int(cols['regs_blk'][i])} registers, SM has "
                f"{dev.registers_per_sm} on {dev.name}"
            )
        if reason == 4:
            return (
                f"one block needs {int(cols['smem_blk'][i])}B shared memory, "
                f"SM has {dev.smem_per_sm}B on {dev.name}"
            )
        return f"no block of {threads} threads fits an SM on {dev.name}"

    def _light(self, cols: dict[str, Any], i: int) -> ClassScore:
        if cols["reason"][i]:
            return ClassScore(launch_error=self._error_for(cols, i))
        k = cols["live_index"][i]
        return ClassScore(
            launch_error=None,
            mpoints_per_s=float(cols["mpoints"][k]),
            load_efficiency=float(cols["gld_eff"][k]),
            occupancy=float(cols["occ_frac"][k]),
            limiter=_LIMITERS[int(cols["lim_idx"][k])],
        )

    def _assemble(
        self, cols: dict[str, Any], i: int, cls: BlockClass
    ) -> ClassOutcome:
        if cols["reason"][i]:
            return ClassOutcome(launch_error=self._error_for(cols, i))
        k = cols["live_index"][i]
        occ = OccupancyResult(
            active_blocks=int(cols["act"][k]),
            warps_per_block=int(cols["warps_blk"][k]),
            active_warps=int(cols["active_warps"][k]),
            occupancy=float(cols["occ_frac"][k]),
            limiter=_LIMITERS[int(cols["lim_idx"][k])],
            regs_per_block=int(cols["regs_blk_l"][k]),
            smem_per_block=int(cols["smem_blk_l"][k]),
        )

        def cost(which: str) -> PlaneCost:
            total, mem_c, comp_c, exposed, sync = cols[which]
            return PlaneCost(
                cycles=float(total[k]),
                mem_cycles=float(mem_c[k]),
                compute_cycles=float(comp_c[k]),
                exposed_cycles=float(exposed[k]),
                sync_cycles=float(sync[k]),
            )

        timing = TimingResult(
            total_cycles=float(cols["total_cycles"][k]),
            occupancy=occ,
            stages=int(cols["stages"][k]),
            blocks=cls.blocks,
            rem_blocks_per_sm=int(cols["rem"][k]),
            plane_cost=cost("full_cost"),
            rem_plane_cost=cost("rem_cost"),
            planes_per_block=int(cols["planes_blk"][k]),
            sched_overhead_cycles=self.params.sched_overhead_cycles,
            spilled_regs=int(cols["spilled"][k]),
            effective_bytes_per_plane=float(cols["bytes_blk"][k]),
        )

        # sweep is an int product in the scalar path; the two transaction
        # counters inherit the class's original numeric type through it.
        sweep = cls.planes * cls.blocks
        acc = cols["acc"]
        comp_total = float(cols["comp_total"][k])
        time_s = float(cols["time_s"][k])
        dram_bytes = float(cols["dram_bytes"][k])
        values: dict[str, float] = {
            "gld_transactions": cls.load_transactions * sweep,
            "gst_transactions": cls.store_transactions * sweep,
            "dram_bytes": dram_bytes,
            "dram_bw_fraction": float(
                cols["dram_bytes"][k] / cols["time_s"][k]
                / (self.device.measured_bandwidth_gbs * 1e9)
            ),
            "gld_efficiency": float(cols["gld_eff"][k]),
            "gst_efficiency": float(cols["gst_eff"][k]),
            "l2_halo_hit_bytes": float(
                cls.halo_transferred_bytes * cols["l2_reuse"]
                * cls.planes * cls.blocks
            ),
            "local_spill_bytes": float(
                cols["spill_bytes"][k] * cls.planes * cls.blocks
            ),
            "shared_replay_rate": float(cols["replay"][k]),
            "inst_issued": float(cols["inst_issued"][k]),
            "ipc": float(
                cols["inst_issued"][k]
                / (cols["total_cycles"][k] * self.device.sm_count)
            ),
            "stall_mem_frac": float(acc[0][k]) / comp_total,
            "stall_compute_frac": float(acc[1][k]) / comp_total,
            "stall_latency_frac": float(acc[2][k]) / comp_total,
            "stall_sync_frac": float(acc[3][k]) / comp_total,
            "stall_sched_frac": float(acc[4][k]) / comp_total,
            "achieved_occupancy": occ.occupancy,
        }
        counters = CounterSet(values=values, occupancy_limiter=occ.limiter)
        return ClassOutcome(
            launch_error=None,
            timing=timing,
            counters=counters,
            time_s=time_s,
            mpoints_per_s=float(cols["mpoints"][k]),
            gflops=float(cols["gflops"][k]),
            load_efficiency=float(cols["gld_eff"][k]),
            bandwidth_gbs=dram_bytes / time_s / 1e9,
        )


def _score_of(full: ClassOutcome) -> ClassScore:
    if full.launch_error is not None:
        return ClassScore(launch_error=full.launch_error)
    assert full.timing is not None
    return ClassScore(
        launch_error=None,
        mpoints_per_s=full.mpoints_per_s,
        load_efficiency=full.load_efficiency,
        occupancy=full.timing.occupancy.occupancy,
        limiter=full.timing.occupancy.limiter,
    )


def batch_reports(
    items: Sequence[tuple["KernelPlan", tuple[int, int, int]]],
    device: DeviceSpec | str,
    params: TimingParams | None = None,
    engine: BatchEngine | None = None,
) -> list[SimReport | Exception]:
    """Simulate many (plan, grid_shape) launches through the batch engine.

    The positional twin of calling :func:`repro.gpusim.executor.simulate`
    per item: each slot holds the bit-identical :class:`SimReport`, or —
    where the scalar path would raise — the unraised exception carrying
    the identical message (a :class:`repro.errors.ResourceLimitError` for
    unlaunchable configurations, or whatever the plan's own workload
    compilation raised), so callers can reproduce the scalar per-item
    control flow: raise, skip or record.
    """
    from repro.errors import ResourceLimitError

    engine = engine or BatchEngine(device, params)
    dev = engine.device
    slots: list[SimReport | Exception | None] = [None] * len(items)
    classes: list[BlockClass] = []
    live: list[tuple[int, "KernelPlan", tuple[int, int, int]]] = []
    for i, (plan, gs) in enumerate(items):
        try:
            workload = plan.block_workload(dev, gs)
            grid = plan.grid_workload(dev, gs)
        except Exception as exc:  # noqa: BLE001 - the scalar path raises these
            slots[i] = exc
            continue
        classes.append(BlockClass.of(workload, grid))
        live.append((i, plan, gs))
    for (i, plan, gs), full in zip(live, engine.outcomes(classes)):
        if full.launch_error is not None:
            slots[i] = ResourceLimitError(full.launch_error)
            continue
        timing = full.timing
        assert timing is not None and full.counters is not None
        slots[i] = (
            SimReport(
                device_name=dev.name,
                kernel_name=plan.name,
                total_cycles=timing.total_cycles,
                time_s=full.time_s,
                mpoints_per_s=full.mpoints_per_s,
                gflops=full.gflops,
                load_efficiency=full.counters["gld_efficiency"],
                bandwidth_gbs=full.bandwidth_gbs,
                occupancy=timing.occupancy,
                stages=timing.stages,
                active_blocks=timing.occupancy.active_blocks,
                blocks=timing.blocks,
                breakdown={
                    "mem_cycles_per_plane": timing.plane_cost.mem_cycles,
                    "compute_cycles_per_plane": timing.plane_cost.compute_cycles,
                    "exposed_cycles_per_plane": timing.plane_cost.exposed_cycles,
                    "sync_cycles_per_plane": timing.plane_cost.sync_cycles,
                    "spilled_regs": float(timing.spilled_regs),
                    "bytes_per_block_plane": timing.effective_bytes_per_plane,
                },
                counters=full.counters,
                meta={
                    "grid_shape": gs,
                    "block": plan.block_label(),
                    "dtype": plan.dtype_name,
                    "variant": plan.variant,
                },
            )
        )
    # Every index was filled: either workload compilation stored its
    # exception, or the class went through the engine above.
    return slots  # type: ignore[return-value]


# ----------------------------------------------------------------------
# the batch-identity gate: ``python -m repro.gpusim.batch --baseline ...``
# ----------------------------------------------------------------------
def _num(v: Any) -> Any:
    """Bit-faithful canonical form: floats by hex, ints as ints."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return v
    if isinstance(v, int):
        return v
    return float(v).hex()


def report_payload(report: SimReport) -> dict[str, Any]:
    """Every compared quantity of one report, floats in hex (bit-exact)."""
    occ = report.occupancy
    return {
        "device": report.device_name,
        "kernel": report.kernel_name,
        "total_cycles": _num(report.total_cycles),
        "time_s": _num(report.time_s),
        "mpoints_per_s": _num(report.mpoints_per_s),
        "gflops": _num(report.gflops),
        "load_efficiency": _num(report.load_efficiency),
        "bandwidth_gbs": _num(report.bandwidth_gbs),
        "stages": report.stages,
        "active_blocks": report.active_blocks,
        "blocks": report.blocks,
        "occupancy": {
            "active_blocks": occ.active_blocks,
            "warps_per_block": occ.warps_per_block,
            "active_warps": occ.active_warps,
            "occupancy": _num(occ.occupancy),
            "limiter": occ.limiter,
            "regs_per_block": occ.regs_per_block,
            "smem_per_block": occ.smem_per_block,
        },
        "breakdown": {k: _num(v) for k, v in report.breakdown.items()},
        "counters": (
            {k: _num(v) for k, v in report.counters.as_dict().items()}
            if report.counters is not None
            else None
        ),
        "meta": {k: repr(v) for k, v in sorted(report.meta.items())},
    }


def check_identity(baseline: str) -> tuple[bool, str]:
    """Resimulate every baseline record through both paths; compare exactly.

    The batch path is checked twice per record: the full report from
    :meth:`BatchEngine.outcomes`, and the four tuner fields of a fresh
    engine's :meth:`BatchEngine.scores`, which stops before the counter
    stage and so could drift from ``outcomes()`` unseen.
    Returns ``(ok, summary)``; the summary carries the per-path digests
    so CI logs show *what* diverged, not just that something did.
    """
    import hashlib
    import json

    from repro.gpusim.executor import simulate
    from repro.obs.regress import plan_for_record
    from repro.obs.telemetry import load_profile

    records = load_profile(baseline)
    engines: dict[str, BatchEngine] = {}
    scalar_payloads: list[dict[str, Any]] = []
    batch_payloads: list[dict[str, Any]] = []
    mismatches: list[str] = []
    classes_seen: set[BlockClass] = set()
    for record in records:
        plan = plan_for_record(record)
        dev = get_device(record.device)
        engine = engines.setdefault(record.device, BatchEngine(dev))
        scalar_report = simulate(plan, dev, record.grid)
        batch_result = batch_reports([(plan, record.grid)], dev, engine=engine)[0]
        if isinstance(batch_result, Exception):
            mismatches.append(
                f"{record.kernel} on {record.device}: batch refused a "
                f"launchable record ({batch_result})"
            )
            continue
        cls = BlockClass.of(
            plan.block_workload(dev, record.grid),
            plan.grid_workload(dev, record.grid),
        )
        classes_seen.add(cls)
        # The tuners' path: a fresh engine's headline stage alone.
        score = BatchEngine(dev).scores([cls])[0]
        score_diffs = [
            key for key, a, b in (
                ("mpoints_per_s", score.mpoints_per_s, scalar_report.mpoints_per_s),
                ("load_efficiency", score.load_efficiency,
                 scalar_report.load_efficiency),
                ("occupancy", score.occupancy, scalar_report.occupancy.occupancy),
                ("limiter", score.limiter, scalar_report.occupancy.limiter),
            )
            if _num(a) != _num(b)
        ]
        if score.launch_error is not None:
            score_diffs = [f"launch ({score.launch_error})"]
        if score_diffs:
            mismatches.append(
                f"{record.kernel} on {record.device} [{record.source}]: "
                f"scores() diverged in {', '.join(score_diffs)}"
            )
        sp = report_payload(scalar_report)
        bp = report_payload(batch_result)
        scalar_payloads.append(sp)
        batch_payloads.append(bp)
        if sp != bp:
            diffs = [
                key for key in sp
                if sp[key] != bp[key]
            ]
            mismatches.append(
                f"{record.kernel} on {record.device} [{record.source}]: "
                f"diverged in {', '.join(diffs)}"
            )

    def digest(payloads: list[dict[str, Any]]) -> str:
        blob = json.dumps(payloads, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    s_dig, b_dig = digest(scalar_payloads), digest(batch_payloads)
    ok = not mismatches and s_dig == b_dig
    lines = [
        f"batch-identity: {len(records)} record(s), "
        f"{len(classes_seen)} distinct block class(es)",
        f"  scalar digest {s_dig}",
        f"  batch  digest {b_dig}",
    ]
    lines.extend(f"  MISMATCH: {m}" for m in mismatches)
    lines.append("  identical: " + ("yes" if ok else "NO"))
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.gpusim.batch",
        description=(
            "Verify the batched engine is bit-identical to the scalar "
            "simulator over a recorded trajectory."
        ),
    )
    parser.add_argument(
        "--baseline", default="BENCH_profile.json",
        help="trajectory file to resimulate (default: BENCH_profile.json)",
    )
    args = parser.parse_args(argv)
    ok, summary = check_identity(args.baseline)
    print(summary)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by tools/check.py
    raise SystemExit(main())
