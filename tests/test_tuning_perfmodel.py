"""Paper performance-model tests (Eqns (6)-(14))."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gpusim.device import get_device
from repro.gpusim.timing import params_for
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric
from repro.tuning.perfmodel import ModelInputs, PaperModel

GRID = (512, 512, 256)


def inputs_for(cfg, order=2, dtype="sp", device="gtx580"):
    dev = get_device(device)
    plan = make_kernel("inplane_fullslice", symmetric(order), BlockConfig(*cfg), dtype)
    return ModelInputs.from_plan(plan, dev, GRID)


class TestEquations:
    def test_eqn6_blocks(self):
        m = inputs_for((32, 4, 1, 4))
        blks = (m.lx * m.ly) / ((m.tx * m.rx) * (m.ty * m.ry))
        assert blks == 512 * 512 / (32 * 16)

    def test_eqn7_actblks_respects_all_limits(self):
        dev = get_device("gtx580")
        model = PaperModel(dev)
        m = inputs_for((32, 4, 1, 4))
        pred = model.predict(m)
        assert pred.act_blks >= 1
        assert pred.act_blks <= dev.max_blocks_per_sm
        assert pred.act_blks * math.ceil(m.tx * m.ty / 32) <= dev.max_warps_per_sm
        assert pred.act_blks * m.k_r * m.tx * m.ty <= dev.registers_per_sm

    def test_eqn8_stages(self):
        dev = get_device("gtx580")
        pred = PaperModel(dev).predict(inputs_for((32, 4, 1, 4)))
        blks = 512 * 512 / (32 * 16)
        assert pred.stages == math.ceil(blks / (dev.sm_count * pred.act_blks))

    def test_eqn9_remainder_bounded(self):
        pred = PaperModel(get_device("gtx580")).predict(inputs_for((32, 4, 1, 4)))
        assert 1 <= pred.rem_blks <= pred.act_blks

    def test_eqn10_memory_time_components(self):
        dev = get_device("gtx580")
        m = inputs_for((32, 4, 1, 4))
        pred = PaperModel(dev).predict(m)
        bw_sm = dev.measured_bandwidth_gbs * 1e9 / dev.sm_count
        expected = dev.dram_latency_cycles / dev.clock_hz + m.bytes_blk / bw_sm
        assert pred.t_m == pytest.approx(expected)

    def test_eqn11_compute_time(self):
        dev = get_device("gtx580")
        m = inputs_for((32, 4, 1, 4))
        pred = PaperModel(dev).predict(m)
        assert pred.t_c == pytest.approx(
            m.ops * m.rx * m.ry * math.ceil(m.tx * m.ty / 32) / dev.clock_hz
        )

    def test_unlaunchable_predicts_zero(self):
        dev = get_device("gtx580")
        m = ModelInputs(
            lx=512, ly=512, tx=1024, ty=1, rx=1, ry=1,
            k_r=63, k_s=0, ops=8, bytes_blk=1.0,
        )
        assert PaperModel(dev).predict(m).mpoints_per_s == 0.0


class TestModelBehaviour:
    def test_k_r_capped_at_architecture(self):
        m = inputs_for((32, 4, 4, 8), order=8)
        dev = get_device("gtx580")
        assert m.k_r <= dev.rules.max_regs_per_thread

    def test_spills_charged_as_bytes(self):
        small = inputs_for((32, 4, 1, 1), order=8)
        monster = inputs_for((32, 4, 4, 8), order=8)
        per_point_small = small.bytes_blk / (32 * 4)
        per_point_big = monster.bytes_blk / (32 * 4 * 32)
        assert per_point_big > per_point_small

    def test_more_bandwidth_more_performance(self):
        m = inputs_for((32, 4, 1, 4))
        fast = PaperModel(get_device("gtx580")).predict(m).mpoints_per_s
        slow = PaperModel(get_device("c2070")).predict(m).mpoints_per_s
        assert fast > slow

    def test_higher_order_predicted_slower(self):
        dev = get_device("gtx580")
        lo = PaperModel(dev).predict(inputs_for((32, 4, 1, 4), order=2))
        hi = PaperModel(dev).predict(inputs_for((32, 4, 1, 4), order=12))
        assert hi.mpoints_per_s < lo.mpoints_per_s

    def test_rank_correlation_with_simulator(self, gtx580):
        """The model's purpose is ranking: it must correlate strongly with
        the simulator over the feasible space (the property the section VI
        procedure relies on)."""
        from scipy.stats import spearmanr

        from repro.tuning.exhaustive import evaluate_configs, feasible_trials
        from repro.tuning.space import ParameterSpace

        spec = symmetric(2)
        build = lambda cfg: make_kernel("inplane_fullslice", spec, cfg)
        space = ParameterSpace()
        trials = feasible_trials(build, gtx580, GRID, space)
        configs = [t.config for t in trials]
        sims = {e.config: e.mpoints_per_s for e in evaluate_configs(trials, gtx580, GRID)}
        model = PaperModel(gtx580)
        pairs = [
            (sims[cfg], model.predict(ModelInputs.from_plan(build(cfg), gtx580, GRID)).mpoints_per_s)
            for cfg in configs
            if cfg in sims
        ]
        rho = spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic
        assert rho > 0.7


    @pytest.mark.parametrize("field", ["tx", "ty", "rx", "ry"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_blocking_rejected(self, field, value):
        # Both front-ends refuse alike: predict and predict_batch only
        # ever see inputs that construct.
        kwargs = dict(
            lx=512, ly=512, tx=32, ty=4, rx=1, ry=1,
            k_r=20, k_s=1024, ops=8.0, bytes_blk=4096.0,
        )
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be positive") as exc:
            ModelInputs(**kwargs)
        assert exc.value.rule == "CFG-POSITIVE"

class TestSpillConstantSingleSource:
    """``ModelInputs.from_plan`` charges spills with the simulator's
    calibration constant — ``TimingParams.spill_bytes_per_reg`` — not a
    private copy, so a recalibration moves model and simulator together."""

    def spilling_plan(self):
        # rx=4, ry=8 at order 8 pushes regs/thread far over the cap.
        return make_kernel(
            "inplane_fullslice", symmetric(8), BlockConfig(32, 4, 4, 8)
        )

    def test_custom_params_rescale_spill_bytes(self, gtx580):
        plan = self.spilling_plan()
        workload = plan.block_workload(gtx580, GRID)
        cap = gtx580.rules.max_regs_per_thread
        spilled = workload.regs_per_thread - cap
        assert spilled > 0, "fixture must actually spill"
        base = ModelInputs.from_plan(plan, gtx580, GRID)
        default = params_for(gtx580)
        doubled = ModelInputs.from_plan(
            plan, gtx580, GRID,
            params=dataclasses.replace(
                default, spill_bytes_per_reg=2 * default.spill_bytes_per_reg
            ),
        )
        extra = spilled * workload.threads_per_block * default.spill_bytes_per_reg
        assert doubled.bytes_blk - base.bytes_blk == extra

    def test_default_matches_simulator_constant(self, gtx580):
        plan = self.spilling_plan()
        explicit = ModelInputs.from_plan(
            plan, gtx580, GRID, params=params_for(gtx580)
        )
        assert ModelInputs.from_plan(plan, gtx580, GRID) == explicit


class TestPredictBatchIdentity:
    """``predict_batch`` is bit-identical to ``predict`` per input —
    including every masked/degenerate row (satellite of the batch core)."""

    def assert_bitwise(self, device, inputs):
        model = PaperModel(device)
        got = model.predict_batch(inputs)
        assert got.dtype == np.float64
        for i, m in enumerate(inputs):
            want = model.predict(m).mpoints_per_s
            assert got[i] == want, (i, m)

    def test_default_space_sweep(self, paper_device):
        """Every feasible config of the default space, bit for bit."""
        from repro.tuning.exhaustive import feasible_configs

        build = lambda cfg: make_kernel("inplane_fullslice", symmetric(2), cfg)
        configs = feasible_configs(build, paper_device, GRID)
        inputs = [
            ModelInputs.from_plan(build(cfg), paper_device, GRID)
            for cfg in configs
        ]
        assert len(inputs) > 20  # the sweep must actually cover the space
        self.assert_bitwise(paper_device, inputs)

    def test_degenerate_rows(self, gtx580):
        degenerate = [
            # k_s == 0: "no shared memory" — the truthiness branch.
            ModelInputs(lx=512, ly=512, tx=32, ty=4, rx=1, ry=4,
                        k_r=20, k_s=0, ops=8.0, bytes_blk=4096.0),
            # k_s < 0: nonsensical but representable; must floor-divide
            # (→ unlaunchable) exactly like the scalar path, not clamp.
            ModelInputs(lx=512, ly=512, tx=32, ty=4, rx=1, ry=4,
                        k_r=20, k_s=-512, ops=8.0, bytes_blk=4096.0),
            # k_r == 0: exercises the max(1, ...) divisor guard (live row
            # — a zero register footprint never limits occupancy).
            ModelInputs(lx=512, ly=512, tx=32, ty=4, rx=1, ry=1,
                        k_r=0, k_s=1024, ops=8.0, bytes_blk=4096.0),
            # Huge k_r: register file admits no block.
            ModelInputs(lx=512, ly=512, tx=32, ty=4, rx=1, ry=1,
                        k_r=10**6, k_s=1024, ops=8.0, bytes_blk=4096.0),
            # warp_blk > max_warps_per_sm: warp limit admits no block.
            ModelInputs(lx=4096, ly=4096, tx=2048, ty=1, rx=1, ry=1,
                        k_r=1, k_s=0, ops=1.0, bytes_blk=64.0),
            # Giant smem footprint: smem limit admits no block.
            ModelInputs(lx=512, ly=512, tx=32, ty=4, rx=1, ry=1,
                        k_r=20, k_s=10**9, ops=8.0, bytes_blk=4096.0),
        ]
        scores = PaperModel(gtx580).predict_batch(degenerate)
        assert scores[0] > 0.0 and scores[2] > 0.0  # the live rows
        assert list(scores[[1, 3, 4, 5]]) == [0.0] * 4  # the masked rows
        self.assert_bitwise(gtx580, degenerate)

    def test_empty_input(self, gtx580):
        out = PaperModel(gtx580).predict_batch([])
        assert out.shape == (0,) and out.dtype == np.float64

    @settings(max_examples=60, deadline=None)
    @given(
        tx=st.sampled_from([16, 32, 64, 256, 1024, 2048]),
        ty=st.integers(min_value=1, max_value=32),
        rx=st.sampled_from([1, 2, 4]),
        ry=st.sampled_from([1, 2, 4, 8]),
        k_r=st.sampled_from([0, 1, 20, 63, 255, 10**5]),
        k_s=st.sampled_from([-4096, 0, 16, 1024, 49152, 10**8]),
        ops=st.floats(min_value=0.5, max_value=500.0),
        bytes_blk=st.floats(min_value=1.0, max_value=1e7),
        device=st.sampled_from(["gtx580", "gtx680", "c2070"]),
    )
    def test_property_batch_equals_scalar(
        self, tx, ty, rx, ry, k_r, k_s, ops, bytes_blk, device
    ):
        m = ModelInputs(
            lx=512, ly=512, tx=tx, ty=ty, rx=rx, ry=ry,
            k_r=k_r, k_s=k_s, ops=ops, bytes_blk=bytes_blk,
        )
        dev = get_device(device)
        model = PaperModel(dev)
        # Mix the probe row with a live row and a dead row so compression
        # actually reorders/partitions the batch around it.
        anchor_live = ModelInputs(
            lx=512, ly=512, tx=32, ty=4, rx=1, ry=4,
            k_r=20, k_s=1024, ops=8.0, bytes_blk=4096.0,
        )
        anchor_dead = ModelInputs(
            lx=512, ly=512, tx=32, ty=4, rx=1, ry=1,
            k_r=10**6, k_s=0, ops=8.0, bytes_blk=4096.0,
        )
        batch = model.predict_batch([anchor_live, m, anchor_dead])
        assert batch[0] == model.predict(anchor_live).mpoints_per_s
        assert batch[1] == model.predict(m).mpoints_per_s
        assert batch[2] == 0.0
