"""Global-memory coalescing model.

The unit of modeling is the *warp load/store instruction*: one instruction
issued by a warp that accesses a contiguous span of bytes with some number
of active lanes.  The hardware services such an instruction by fetching
every distinct transaction line (128 bytes on Fermi/Kepler) the span
touches.  Everything the paper measures about memory efficiency reduces to
two counters derivable from this model:

* ``requested_bytes`` — bytes the program asked for (active lanes x element
  size x vector width);
* ``transferred_bytes`` — transaction count x line size.

Their ratio is exactly the "global memory load efficiency" metric of the
paper's Fig 9 (the CUDA profiler's ``gld_efficiency``).

Kernels describe their per-plane traffic through the region builders of
:mod:`repro.kernels.loads` (row regions, column strips, corner patches),
which average transaction counts over tile alignment phases and
accumulate the fractional results with :meth:`MemoryStats.add_raw`,
attaching one :class:`RegionRecord` per region.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Classification of an access, used for the L2 halo-reuse effect and for
#: per-region efficiency reporting.
KIND_INTERIOR = "interior"
KIND_HALO = "halo"
KIND_WRITE = "write"
KIND_SPILL = "spill"


def line_span(start_byte: int, span_bytes: int, line_bytes: int = 128) -> int:
    """Number of ``line_bytes``-sized lines covering [start, start+span).

    This is the transaction count for a contiguous warp access: the first
    and last byte may fall in different lines, and a misaligned start costs
    an extra transaction exactly when it crosses a line boundary.
    """
    if span_bytes <= 0:
        raise ValueError("span_bytes must be positive")
    if line_bytes <= 0:
        raise ValueError("line_bytes must be positive")
    first = start_byte // line_bytes
    last = (start_byte + span_bytes - 1) // line_bytes
    return int(last - first + 1)


@dataclass(frozen=True)
class RegionRecord:
    """Geometry of one accounted load/store region, kept for introspection.

    The region builders in :mod:`repro.kernels.loads` attach one record per
    region alongside the aggregate counters, so the static analyzer
    (:mod:`repro.analysis.memaccess`) can lint a workload's access patterns
    — misaligned rows, uncoalesced strips — without re-deriving any kernel
    variant's loading logic.  ``avg_row_transactions`` is the phase-averaged
    per-row transaction count the aggregate was charged with.
    """

    kind: str
    x_start_rel: int
    width_elems: int
    rows: int
    tile_stride: int
    elem_bytes: int
    vec_width: int
    avg_row_transactions: float
    camped: bool = False


@dataclass
class MemoryStats:
    """Aggregated global-memory behaviour of one block for one z-plane.

    ``instructions`` counts warp-level load/store issues; the split of
    requested/transferred bytes by interior/halo feeds the L2 reuse model
    and the Fig 9 efficiency metric (loads only, as in the profiler).
    """

    line_bytes: int = 128
    load_instructions: int = 0
    store_instructions: int = 0
    load_transactions: int = 0
    store_transactions: int = 0
    requested_load_bytes: int = 0
    requested_store_bytes: int = 0
    halo_transferred_bytes: int = 0
    interior_transferred_bytes: int = 0
    store_transferred_bytes: int = 0
    spill_transferred_bytes: int = 0
    #: Number of distinct load "phases" — separately issued region groups
    #: that serialize behind the per-plane barrier (interior vs halo sides).
    #: Drives the divergence/latency-exposure penalty of split loading.
    load_phases: int = 0
    #: Bytes moved by transactions that walk a column at the grid pitch —
    #: a power-of-two stride, so successive lines map to the *same* DRAM
    #: partition and serialize there (Fermi-era "partition camping").
    #: The timing model charges these an extra service-cost multiplier.
    camped_bytes: float = 0.0
    #: Per-region geometry records (appended by the builders in
    #: :mod:`repro.kernels.loads`) for the static analyzer; purely
    #: informational — no counter above is derived from them.
    regions: list[RegionRecord] = field(default_factory=list)

    def add_raw(
        self,
        *,
        kind: str,
        instructions: float,
        transactions: float,
        requested_bytes: float,
        camped: bool = False,
    ) -> None:
        """Accumulate pre-computed counts directly.

        Region builders that average transaction counts over tile alignment
        phases produce fractional per-block values; this entry point accepts
        them.  ``transferred = transactions * line_bytes`` as usual.
        """
        if instructions < 0 or transactions < 0 or requested_bytes < 0:
            raise ValueError("raw memory counts must be non-negative")
        moved = transactions * self.line_bytes
        if camped:
            self.camped_bytes += moved
        if kind == KIND_WRITE:
            self.store_instructions += instructions
            self.store_transactions += transactions
            self.requested_store_bytes += requested_bytes
            self.store_transferred_bytes += moved
        else:
            self.load_instructions += instructions
            self.load_transactions += transactions
            self.requested_load_bytes += requested_bytes
            if kind == KIND_HALO:
                self.halo_transferred_bytes += moved
            elif kind == KIND_SPILL:
                self.spill_transferred_bytes += moved
            else:
                self.interior_transferred_bytes += moved

    @property
    def load_transferred_bytes(self) -> int:
        """All bytes moved for loads (interior + halo + spill)."""
        return (
            self.interior_transferred_bytes
            + self.halo_transferred_bytes
            + self.spill_transferred_bytes
        )

    @property
    def total_transferred_bytes(self) -> int:
        """All bytes moved in both directions."""
        return self.load_transferred_bytes + self.store_transferred_bytes

    @property
    def load_efficiency(self) -> float:
        """Requested / transferred for loads — the paper's Fig 9 metric."""
        if self.load_transferred_bytes == 0:
            return 1.0
        return self.requested_load_bytes / self.load_transferred_bytes

    def merge(self, other: "MemoryStats") -> None:
        """Accumulate ``other`` (same line size) into this object."""
        if other.line_bytes != self.line_bytes:
            raise ValueError("cannot merge MemoryStats with different line sizes")
        self.load_instructions += other.load_instructions
        self.store_instructions += other.store_instructions
        self.load_transactions += other.load_transactions
        self.store_transactions += other.store_transactions
        self.requested_load_bytes += other.requested_load_bytes
        self.requested_store_bytes += other.requested_store_bytes
        self.halo_transferred_bytes += other.halo_transferred_bytes
        self.interior_transferred_bytes += other.interior_transferred_bytes
        self.store_transferred_bytes += other.store_transferred_bytes
        self.spill_transferred_bytes += other.spill_transferred_bytes
        self.load_phases += other.load_phases
        self.camped_bytes += other.camped_bytes
        self.regions.extend(other.regions)

