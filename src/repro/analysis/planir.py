"""The access-plan IR: the backend-neutral contract between plans and emitters.

Every code generator in :mod:`repro.codegen` used to derive its constants
(tile dims, padded pitch, vector width, register-queue depth) privately
from the :class:`~repro.kernels.symmetric.SymmetricKernelPlan` it was
handed, which left nothing for a verifier to cross-check the emitted text
against.  :func:`lower_plan` now produces one :class:`AccessPlanIR` — the
per-plane load/store rectangles, aggregate traffic totals, shared-tile
geometry with its bank-pad pitch, barrier points and the z-pipeline
register-queue depths — and the CUDA, OpenCL and HIP emitters all consume
*it* rather than the plan.  Two static passes ride on the same record:

* the emitted-source verifier (:mod:`repro.analysis.srcverify`) re-parses
  each generated translation unit and cross-checks it against the IR
  (the ``SRC-*`` rule family);
* the codegen-time performance estimator (:mod:`repro.analysis.estimate`)
  prices the IR with the very model the simulator uses —
  :meth:`AccessPlanIR.to_workload` reconstructs the plan's
  :class:`~repro.gpusim.workload.BlockWorkload` field-for-field, so the
  estimator's transaction counts are exact against
  :mod:`repro.obs.counters` *by construction* (test-enforced).

Lowering never prices a cycle and needs no device: the supported kernel
families declare their per-block workload from geometry alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

from repro.errors import UnsupportedPlanError
from repro.gpusim.memory import MemoryStats, RegionRecord
from repro.gpusim.smem import SmemAccessProfile, padded_pitch_words
from repro.gpusim.workload import BlockWorkload, GridWorkload
from repro.kernels.inplane import InPlaneKernel
from repro.kernels.layout import blocks_in_plane
from repro.kernels.nvstencil import NvStencilKernel
from repro.kernels.symmetric import SymmetricKernelPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import DeviceSpec

#: The grid every emitter assumes when none is given — the paper's
#: 512 x 512 x 256 evaluation volume.  Only the alignment *phase* of this
#: grid reaches the IR (vector widths, transaction averages), so lowering
#: at the default is representative of any line-aligned grid.
DEFAULT_GRID: tuple[int, int, int] = (512, 512, 256)

#: Barriers per z-plane: one after the cooperative load, one after compute.
BARRIERS_PER_PLANE = 2

METHOD_INPLANE = "inplane"
METHOD_FORWARD = "forward"


class LoweringError(ValueError):
    """The plan's declared traffic disagrees with its own region records."""


@dataclass(frozen=True)
class IRRegion:
    """One per-plane load/store rectangle, mirrored from the plan's
    :class:`~repro.gpusim.memory.RegionRecord` with the access direction
    made explicit."""

    op: str                     #: ``"load"`` or ``"store"``
    kind: str                   #: interior / halo / write / spill
    x_start_rel: int            #: x offset of the rectangle vs the tile origin
    width_elems: int
    rows: int
    tile_stride: int
    elem_bytes: int
    vec_width: int              #: vector width the row decomposition used
    avg_row_transactions: float  #: phase-averaged lines per row
    camped: bool = False        #: partition-camped (column-walking) traffic

    @property
    def transactions(self) -> float:
        """Total transaction lines this rectangle was charged with."""
        return self.avg_row_transactions * self.rows

    def to_record(self) -> RegionRecord:
        return RegionRecord(
            kind=self.kind,
            x_start_rel=self.x_start_rel,
            width_elems=self.width_elems,
            rows=self.rows,
            tile_stride=self.tile_stride,
            elem_bytes=self.elem_bytes,
            vec_width=self.vec_width,
            avg_row_transactions=self.avg_row_transactions,
            camped=self.camped,
        )


@dataclass(frozen=True)
class SmemTileIR:
    """Shared-tile geometry: logical extent plus the bank-padded pitch."""

    width_elems: int            #: TILE_X + 2r (logical row length)
    rows: int                   #: TILE_Y + 2r
    pitch_words: int            #: padded pitch in 4-byte bank words
    pitch_elems: int            #: the ``TILE_PITCH`` constant emitters bake
    elem_bytes: int
    bytes: int                  #: allocation the plan declares (pitch x rows)


@dataclass(frozen=True)
class TrafficIR:
    """Per-block, per-plane global-traffic aggregates.

    These are the exact :class:`~repro.gpusim.memory.MemoryStats` totals
    the plan declared — including the interior/halo split of merged
    regions, which the per-region geometry alone cannot recover (the
    ``halo_fraction`` reclassification happens at aggregation time).
    """

    line_bytes: int
    load_instructions: float
    store_instructions: float
    load_transactions: float
    store_transactions: float
    requested_load_bytes: float
    requested_store_bytes: float
    interior_transferred_bytes: float
    halo_transferred_bytes: float
    store_transferred_bytes: float
    spill_transferred_bytes: float
    load_phases: int
    camped_bytes: float


@dataclass(frozen=True)
class AccessPlanIR:
    """One kernel plan, lowered: everything an emitter bakes into source
    and everything the estimator needs to price it."""

    # --- identity -----------------------------------------------------
    kernel: str                 #: the emitted symbol name
    family: str                 #: ``"inplane"`` / ``"nvstencil"``
    variant: str                #: loading variant (``"fullslice"``, ...)
    method: str                 #: ``"inplane"`` or ``"forward"``
    order: int
    radius: int
    dtype: str                  #: ``"sp"`` / ``"dp"``
    ctype: str                  #: ``"float"`` / ``"double"``
    elem_bytes: int
    block: tuple[int, int, int, int]   #: (TX, TY, RX, RY)
    threads: int
    grid_shape: tuple[int, int, int]
    aligned_x: int              #: x index the array padding line-aligns
    coefficients: tuple[float, ...]

    # --- emitted structure --------------------------------------------
    vector_width: int           #: widest legal vector for the dominant row
    tile: SmemTileIR
    zqueue_depth: int           #: z register column: r (in-plane) / 2r+1
    queue_depth: int            #: partial-sum queue: r (in-plane) / 0
    barriers_per_plane: int
    launch_bounds: tuple[int, int]

    # --- traffic ------------------------------------------------------
    regions: tuple[IRRegion, ...]
    traffic: TrafficIR

    # --- workload reconstruction --------------------------------------
    regs_per_thread: int
    smem_bytes: int
    points_per_plane: int
    flops_per_point: float
    arith_instructions_per_point: float | None
    extra_instructions: int
    ilp: float
    prologue_planes: int
    syncs_per_plane: int
    smem_read_instructions: int
    smem_write_instructions: int
    smem_conflict_factor: float

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def to_memory_stats(self) -> MemoryStats:
        """Rebuild the plan's per-plane :class:`MemoryStats` exactly."""
        t = self.traffic
        stats = MemoryStats(line_bytes=t.line_bytes)
        stats.load_instructions = t.load_instructions  # type: ignore[assignment]
        stats.store_instructions = t.store_instructions  # type: ignore[assignment]
        stats.load_transactions = t.load_transactions  # type: ignore[assignment]
        stats.store_transactions = t.store_transactions  # type: ignore[assignment]
        stats.requested_load_bytes = t.requested_load_bytes  # type: ignore[assignment]
        stats.requested_store_bytes = t.requested_store_bytes  # type: ignore[assignment]
        stats.interior_transferred_bytes = t.interior_transferred_bytes  # type: ignore[assignment]
        stats.halo_transferred_bytes = t.halo_transferred_bytes  # type: ignore[assignment]
        stats.store_transferred_bytes = t.store_transferred_bytes  # type: ignore[assignment]
        stats.spill_transferred_bytes = t.spill_transferred_bytes  # type: ignore[assignment]
        stats.load_phases = t.load_phases
        stats.camped_bytes = t.camped_bytes
        stats.regions = [region.to_record() for region in self.regions]
        return stats

    def to_workload(self) -> BlockWorkload:
        """Rebuild the plan's :class:`BlockWorkload` field-for-field.

        This equality (``lower_plan(p, g).to_workload() ==
        p.block_workload(device, g)``) is what makes every estimator
        quantity derived downstream exact against the simulator — the IR
        carries the *entire* priced surface of the plan, not a summary.
        """
        return BlockWorkload(
            threads_per_block=self.threads,
            regs_per_thread=self.regs_per_thread,
            smem_bytes=self.smem_bytes,
            elem_bytes=self.elem_bytes,
            points_per_plane=self.points_per_plane,
            flops_per_point=self.flops_per_point,
            arith_instructions_per_point=self.arith_instructions_per_point,
            memory=self.to_memory_stats(),
            smem_profile=SmemAccessProfile(
                read_instructions=self.smem_read_instructions,
                write_instructions=self.smem_write_instructions,
                conflict_factor=self.smem_conflict_factor,
            ),
            extra_instructions=self.extra_instructions,
            ilp=self.ilp,
            prologue_planes=self.prologue_planes,
            syncs_per_plane=self.syncs_per_plane,
        )

    def grid_workload(
        self, grid_shape: tuple[int, int, int] | None = None
    ) -> GridWorkload:
        """Block/plane/point counts of one sweep (Eqn (6))."""
        lx, ly, lz = grid_shape or self.grid_shape
        tx, ty, rx, ry = self.block
        return GridWorkload(
            blocks=blocks_in_plane(lx, ly, tx * rx, ty * ry),
            planes=lz,
            total_points=lx * ly * lz,
        )

    def to_json_obj(self) -> dict[str, Any]:
        """Flat JSON-ready rendering (CLI/introspection; not a schema)."""
        return {
            "kernel": self.kernel,
            "family": self.family,
            "variant": self.variant,
            "method": self.method,
            "order": self.order,
            "dtype": self.dtype,
            "block": list(self.block),
            "grid_shape": list(self.grid_shape),
            "vector_width": self.vector_width,
            "tile": {
                "width_elems": self.tile.width_elems,
                "rows": self.tile.rows,
                "pitch_elems": self.tile.pitch_elems,
                "bytes": self.tile.bytes,
            },
            "zqueue_depth": self.zqueue_depth,
            "queue_depth": self.queue_depth,
            "barriers_per_plane": self.barriers_per_plane,
            "regions": [
                {
                    "op": r.op,
                    "kind": r.kind,
                    "x_start_rel": r.x_start_rel,
                    "width_elems": r.width_elems,
                    "rows": r.rows,
                    "vec_width": r.vec_width,
                    "transactions": r.transactions,
                    "camped": r.camped,
                }
                for r in self.regions
            ],
            "load_transactions": self.traffic.load_transactions,
            "store_transactions": self.traffic.store_transactions,
        }


def plan_vector_width(
    plan: SymmetricKernelPlan, grid_shape: tuple[int, int, int] = DEFAULT_GRID
) -> int:
    """Widest legal vector for the variant's dominant merged row.

    Only the alignment phase of ``grid_shape`` matters (the layout's
    line-aligned pitch makes the phase grid-size-invariant), so the
    default grid answers for every launch.
    """
    if isinstance(plan, NvStencilKernel) or not getattr(plan, "use_vectors", False):
        return 1
    r = plan.spec.radius
    if plan.variant in ("fullslice", "horizontal"):
        layout = plan.layout(grid_shape, aligned_x=-r)
        return layout.vector_width_for(-r, plan.block.tile_x + 2 * r, plan.block.tile_x)
    layout0 = plan.layout(grid_shape, aligned_x=0)
    return layout0.vector_width_for(0, plan.block.tile_x, plan.block.tile_x)


def kernel_symbol(plan: SymmetricKernelPlan) -> str:
    """The emitted kernel symbol: ``{family}_{variant}_o{N}_{sp|dp}_{config}``."""
    block = plan.block
    return (
        f"{plan.family}_{plan.variant}"
        f"_o{plan.spec.order}_{plan.dtype_name}"
        f"_{block.tx}x{block.ty}x{block.rx}x{block.ry}"
    )


def _check_region_sums(regions: tuple[IRRegion, ...], traffic: TrafficIR) -> None:
    """Lowering self-check: per-region transactions must sum to the totals.

    The plan appends one geometry record per region *and* accumulates the
    aggregate counters separately; if the two ever diverged (a builder
    forgetting its record, or double-counting), every downstream
    cross-check would silently compare against the wrong geometry.
    """
    region_tx = sum(r.transactions for r in regions)
    total_tx = traffic.load_transactions + traffic.store_transactions
    if abs(region_tx - total_tx) > 1e-9 * max(1.0, total_tx):
        raise LoweringError(
            f"region transaction sum {region_tx!r} disagrees with the "
            f"declared totals {total_tx!r}"
        )


def lower_plan(
    plan: SymmetricKernelPlan,
    grid_shape: tuple[int, int, int] = DEFAULT_GRID,
    workload: BlockWorkload | None = None,
) -> AccessPlanIR:
    """Lower one symmetric kernel plan to its access-plan IR.

    ``workload`` is the plan's block workload for ``grid_shape`` when the
    caller already built it (on any device: the supported families never
    read it); otherwise it is built here.

    Raises :class:`~repro.errors.UnsupportedPlanError` (a ``TypeError``)
    for plan families outside the emitter set and :class:`LoweringError`
    when the plan's declared aggregates disagree with its own region
    records (a kernel-model bug, not a user error).
    """
    if not isinstance(plan, (InPlaneKernel, NvStencilKernel)):
        raise UnsupportedPlanError(
            f"access-plan lowering supports the symmetric in-plane and "
            f"nvstencil kernels, not {type(plan).__name__}"
        )
    inplane = isinstance(plan, InPlaneKernel)
    r = plan.spec.radius
    block = plan.block

    # The supported families declare their workload from geometry alone —
    # the contract takes a device parameter for families that may need
    # one, but these never read it, which is precisely what makes the IR
    # (and the estimator riding on it) a pure function of the plan.
    if workload is None:
        workload = plan.block_workload(cast("DeviceSpec", None), grid_shape)
    mem = workload.memory

    regions: list[IRRegion] = []
    for rec in mem.regions:
        regions.append(IRRegion(
            op="store" if rec.kind == "write" else "load",
            kind=rec.kind,
            x_start_rel=rec.x_start_rel,
            width_elems=rec.width_elems,
            rows=rec.rows,
            tile_stride=rec.tile_stride,
            elem_bytes=rec.elem_bytes,
            vec_width=rec.vec_width,
            avg_row_transactions=rec.avg_row_transactions,
            camped=rec.camped,
        ))

    traffic = TrafficIR(
        line_bytes=mem.line_bytes,
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
    )

    tile_width = block.tile_x + 2 * r
    width_words = (tile_width * plan.elem_bytes + 3) // 4
    pitch_words = padded_pitch_words(width_words)
    tile = SmemTileIR(
        width_elems=tile_width,
        rows=block.tile_y + 2 * r,
        pitch_words=pitch_words,
        pitch_elems=pitch_words * 4 // plan.elem_bytes,
        elem_bytes=plan.elem_bytes,
        bytes=workload.smem_bytes,
    )

    smem = workload.smem_profile
    ir = AccessPlanIR(
        kernel=kernel_symbol(plan),
        family=plan.family,
        variant=plan.variant,
        method=METHOD_INPLANE if inplane else METHOD_FORWARD,
        order=plan.spec.order,
        radius=r,
        dtype=plan.dtype_name,
        ctype="float" if plan.elem_bytes == 4 else "double",
        elem_bytes=plan.elem_bytes,
        block=(block.tx, block.ty, block.rx, block.ry),
        threads=block.threads,
        grid_shape=grid_shape,
        aligned_x=(
            plan._aligned_x() if isinstance(plan, InPlaneKernel) else 0
        ),
        coefficients=tuple(plan.spec.coefficients),
        vector_width=plan_vector_width(plan, grid_shape),
        tile=tile,
        zqueue_depth=r if inplane else 2 * r + 1,
        queue_depth=r if inplane else 0,
        barriers_per_plane=BARRIERS_PER_PLANE,
        launch_bounds=(block.threads, 1),
        regions=tuple(regions),
        traffic=traffic,
        regs_per_thread=workload.regs_per_thread,
        smem_bytes=workload.smem_bytes,
        points_per_plane=workload.points_per_plane,
        flops_per_point=workload.flops_per_point,
        arith_instructions_per_point=workload.arith_instructions_per_point,
        extra_instructions=workload.extra_instructions,
        ilp=workload.ilp,
        prologue_planes=workload.prologue_planes,
        syncs_per_plane=workload.syncs_per_plane,
        smem_read_instructions=smem.read_instructions,
        smem_write_instructions=smem.write_instructions,
        smem_conflict_factor=smem.conflict_factor,
    )
    _check_region_sums(ir.regions, ir.traffic)
    return ir
