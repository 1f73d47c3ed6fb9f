"""The paper's analytical performance model — Eqns (6)-(14), section VI.

The model deliberately stays *simpler* than the simulator: it counts bytes
per plane naively (elements x element size, no transaction/coalescing
accounting), assumes zero scheduling overhead, no bank conflicts and no
cache effects — the three limitations section VI lists.  Its job is not to
be exact but to *rank* configurations well enough that executing only the
top beta% of the space finds a near-optimal configuration.

Implementation notes on fidelity to the paper:

* Eqn (7)'s minimum is taken verbatim (integer floors, no allocation
  granularities — that is one of the model's simplifications).
* Eqn (11) as printed multiplies by ``ActBlks`` and Eqn (12) multiplies by
  ``ActBlks`` again; we read (11) as defining the single-block compute time
  ``T_c = Ops * RX * RY * Warp_Blk / Clock`` and apply the ``ActBlks``
  factor once, in Eqn (12), which is the only self-consistent reading.
* ``f(arg)`` "returns a value between 1 and arg ... a linear function":
  at full occupancy (``Warp_SM`` resident warps) it returns 1 (perfect
  latency hiding); with a single resident warp it returns ``arg``
  (fully serialized memory access).

The equations are written once, as :func:`paper_model` over an op table
(:mod:`repro.gpusim.ops`): :meth:`PaperModel.predict` evaluates one
configuration on Python numbers, :meth:`PaperModel.predict_batch` a
whole candidate list as NumPy columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ResourceLimitError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.ops import SCALAR, Ops, cdiv
from repro.gpusim.timing import TimingParams, params_for
from repro.gpusim.workload import BlockWorkload
from repro.kernels.config import BlockConfig
from repro.kernels.symmetric import SymmetricKernelPlan


@dataclass(frozen=True)
class ModelInputs:
    """Everything Eqns (6)-(14) need for one configuration.

    All byte/flop counts are per thread block per stencil plane; resource
    counts follow the paper's notation (K_R registers per thread, K_S
    shared-memory bytes per block).
    """

    lx: int
    ly: int
    tx: int
    ty: int
    rx: int
    ry: int
    k_r: int
    k_s: int
    ops: float
    bytes_blk: float

    def __post_init__(self) -> None:
        # A column record (predict_batch) holds rows validated one by one.
        if not isinstance(self.tx, np.ndarray):
            for name, v in (("tx", self.tx), ("ty", self.ty), ("rx", self.rx), ("ry", self.ry)):
                if v <= 0:
                    msg = f"{name} must be positive, got {v}"
                    raise ConfigurationError(msg, rule="CFG-POSITIVE")

    @classmethod
    def from_plan(
        cls,
        plan: SymmetricKernelPlan,
        device: DeviceSpec,
        grid_shape: tuple[int, int, int],
        params: TimingParams | None = None,
    ) -> "ModelInputs":
        """Derive model inputs from a kernel plan (see :meth:`from_workload`)."""
        return cls.from_workload(
            plan.block, plan.block_workload(device, grid_shape), device,
            grid_shape, params,
        )

    @classmethod
    def from_workload(
        cls,
        config: BlockConfig,
        block: BlockWorkload,
        device: DeviceSpec,
        grid_shape: tuple[int, int, int],
        params: TimingParams | None = None,
    ) -> "ModelInputs":
        """Derive model inputs from an already-built block workload.

        ``block`` is the plan's ``block_workload(device, grid_shape)``;
        the tuners pass the one their feasibility pass built.  Bytes are
        counted naively — loaded elements plus stored elements times the
        element size — reproducing the model's blindness to coalescing
        (its main divergence from measured behaviour).
        """
        lx, ly, _lz = grid_shape
        # Eqn (10)'s Bytes_Blk is "the total number of bytes read and
        # written for each stencil plane": counted as the transaction lines
        # actually moved (the authors design coalescing-aware kernels, so
        # their byte accounting is line-aware).  The model remains blind to
        # partition camping, L2 reuse, scheduling overhead and bank
        # conflicts — the error sources section VI lists.
        moved_bytes = block.memory.total_transferred_bytes
        # The paper reads K_R off the *compiled* kernel, so it is capped at
        # the architectural per-thread limit and the compiler's spill
        # traffic is visible; we mirror that by capping and charging the
        # spilled registers as extra local-memory bytes per plane.  The
        # per-register byte cost is the simulator's calibration constant —
        # a recalibration moves the model and the simulator together.
        params = params or params_for(device)
        cap = device.rules.max_regs_per_thread
        spilled = max(0, block.regs_per_thread - cap)
        spill_bytes = (
            spilled * block.threads_per_block * params.spill_bytes_per_reg
        )
        return cls(
            lx=lx,
            ly=ly,
            tx=config.tx,
            ty=config.ty,
            rx=config.rx,
            ry=config.ry,
            k_r=min(block.regs_per_thread, cap),
            k_s=block.smem_bytes,
            ops=block.flops_per_point,
            bytes_blk=moved_bytes + spill_bytes,
        )


@dataclass(frozen=True)
class ModelPrediction:
    """Model output for one configuration."""

    mpoints_per_s: float
    act_blks: int
    stages: int
    rem_blks: int
    t_m: float
    t_c: float


def paper_model(ops: Ops, device: DeviceSpec, m: ModelInputs) -> tuple[Any, ModelPrediction]:
    """Eqns (6)-(14): ``(launchable rows, prediction)``.

    Written once over ``ops`` (:mod:`repro.gpusim.ops`).  Under the scalar
    table ``m`` is one configuration and a configuration with no resident
    block raises :class:`~repro.errors.ResourceLimitError`; under the
    vector table the fields of ``m`` are columns, and the prediction's
    columns cover the returned launchable rows only.
    """
    dev = device
    warp_blk = cdiv(m.tx * m.ty, WARP_SIZE)

    # Eqn (7): resident blocks per SM.  Only k_s == 0 means "no shared
    # memory"; any other value floor-divides, so a (nonsensical, but
    # representable) negative footprint yields an unlaunchable row.
    act_blks = ops.minimum(ops.minimum(ops.minimum(
        dev.registers_per_sm // ops.maximum(1, m.k_r * m.tx * m.ty),
        ops.where(
            m.k_s != 0,
            dev.smem_per_sm // ops.where(m.k_s != 0, m.k_s, 1),
            dev.max_blocks_per_sm,
        )),
        dev.max_warps_per_sm // warp_blk),
        dev.max_blocks_per_sm,
    )
    live = ops.launchable(act_blks < 1, lambda: "no resident block")
    m, act, warp_blk = (ops.rows(live, x) for x in (m, act_blks, warp_blk))

    # Eqn (6): blocks per plane.
    blks = (m.lx * m.ly) / ((m.tx * m.rx) * (m.ty * m.ry))

    # Eqn (8): full waves; Eqn (9): per-SM blocks of the last wave.
    stages = ops.ceil(blks / (dev.sm_count * act))
    rem_blks = ops.maximum(
        1, ops.ceil((blks - (stages - 1) * act * dev.sm_count) / dev.sm_count)
    )

    # Eqn (10): memory time for one block's plane (seconds), split into
    # its latency and bandwidth components.
    bw_sm = dev.measured_bandwidth_gbs * 1e9 / dev.sm_count
    t_lat = dev.dram_latency_cycles / dev.clock_hz
    t_bw = m.bytes_blk / bw_sm

    # Eqn (11) (single-block reading): compute time per block plane.
    t_c = (m.ops * m.rx * m.ry * warp_blk) / dev.clock_hz

    # Eqns (12)-(13) with the linear latency-hiding function f.  As
    # printed, f multiplies all of T_m, which would make *bandwidth*
    # nearly free at full occupancy; the only physically consistent
    # reading is that occupancy hides the latency component while the
    # bandwidth component always scales with the resident blocks
    # (BW_SM is shared).  f still returns "a value between 1 and arg",
    # linear in occupancy, exactly as described.
    def stage_time(blocks: Any) -> Any:
        occ = ops.minimum(1.0, blocks * warp_blk / dev.max_warps_per_sm)
        f = 1.0 + (blocks - 1.0) * (1.0 - occ)
        return blocks * t_bw + f * t_lat + blocks * t_c

    # Eqn (14): points per plane over time per plane.
    per_plane_time = stage_time(act) * (stages - 1) + stage_time(rem_blks)
    return live, ModelPrediction(
        mpoints_per_s=(m.lx * m.ly) / per_plane_time / 1e6,
        act_blks=act,
        stages=stages,
        rem_blks=rem_blks,
        t_m=t_lat + t_bw,
        t_c=t_c,
    )


class PaperModel:
    """Eqns (6)-(14) for a given device (see :func:`paper_model`)."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def predict(self, inputs: ModelInputs) -> ModelPrediction:
        """Predicted performance in MPoint/s (Eqn (14)); 0 if unlaunchable."""
        try:
            return paper_model(SCALAR, self.device, inputs)[1]
        except ResourceLimitError:
            return ModelPrediction(0.0, 0, 0, 0, 0.0, 0.0)

    def predict_batch(self, inputs: Sequence[ModelInputs]) -> np.ndarray:
        """Score many configurations in one NumPy pass (MPoint/s each).

        The same :func:`paper_model` body as :meth:`predict`, over columns,
        so the returned float64 array is **bit-identical** to calling
        :meth:`predict` per input (pinned by ``TestPredictBatchIdentity``
        in ``tests/test_tuning_perfmodel.py``) — the model-based tuner's
        shortlist, and hence its winner, cannot move between the two
        front-ends.  Unlaunchable configurations score 0.0, as in
        :meth:`predict`.
        """
        # Deferred: ``python -m repro.gpusim.batch`` must be the first to
        # import its module.
        from repro.gpusim.batch import VECTOR

        out = np.zeros(len(inputs), dtype=np.float64)
        if inputs:
            columns = ModelInputs(*(
                np.array(
                    [getattr(m, f.name) for m in inputs],
                    dtype=np.float64 if f.type == "float" else np.int64,
                )
                for f in fields(ModelInputs)
            ))
            live, prediction = paper_model(VECTOR, self.device, columns)
            out[live] = prediction.mpoints_per_s
        return out
